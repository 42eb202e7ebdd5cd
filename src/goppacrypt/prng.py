"""Deterministic byte stream for seeded key generation and encryption.

All randomness in the toolkit flows through SeededStream so that identical
seeds reproduce identical keys, error vectors and files.  The stream is the
SHAKE-256 expansion of the seed; sub-streams for independent purposes are
derived by suffixing a domain tag to the seed (documented in the README).
"""

import hashlib


class SeededStream:
    """SHAKE-256 expansion of a seed, consumed as bytes / bounded integers."""

    def __init__(self, seed):
        if not isinstance(seed, (bytes, bytearray)):
            raise TypeError("seed must be bytes")
        self._seed = bytes(seed)
        self._buf = b""
        self._pos = 0

    def child(self, tag):
        """Independent stream for a sub-purpose (seed || '/' || tag)."""
        return SeededStream(self._seed + b"/" + tag)

    def read(self, nbytes):
        # shake digests are prefix-stable, so regrowing the buffer by
        # recomputing at a larger length never changes bytes already read.
        while self._pos + nbytes > len(self._buf):
            grow = max(64, 2 * len(self._buf), self._pos + nbytes)
            self._buf = hashlib.shake_256(self._seed).digest(grow)
        out = self._buf[self._pos:self._pos + nbytes]
        self._pos += nbytes
        return out

    def randbelow(self, bound):
        """Uniform integer in [0, bound) by masked rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        nbits = (bound - 1).bit_length()
        nbytes = (nbits + 7) // 8
        mask = (1 << nbits) - 1
        while True:
            v = int.from_bytes(self.read(nbytes), "little") & mask
            if v < bound:
                return v

    def sample_distinct(self, n, w):
        """First w entries of a seeded Fisher-Yates shuffle of range(n)."""
        if not 0 <= w <= n:
            raise ValueError("need 0 <= w <= n")
        idx = list(range(n))
        for i in range(w):
            j = i + self.randbelow(n - i)
            idx[i], idx[j] = idx[j], idx[i]
        return idx[:w]

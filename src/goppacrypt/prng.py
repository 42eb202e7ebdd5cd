"""Deterministic byte stream for seeded key generation and encryption.

All randomness in the toolkit flows through SeededStream so that identical
seeds reproduce identical keys, error vectors and files.  The stream is the
SHAKE-256 expansion of the seed; sub-streams for independent purposes are
derived by suffixing a domain tag to the seed (documented in the README).
sample_distinct reads its draws straight off the buffer, the bytes that
one randbelow call per draw would read.
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
        start = self._pos
        self._pos += nbytes
        if self._pos > len(self._buf):
            self._fill(self._pos)
        return self._buf[start:self._pos]

    def _fill(self, end):
        """Grow the buffer past end bytes and return it.  SHAKE digests
        are prefix-stable, so regrowing the buffer by recomputing at a
        larger length never changes bytes already read."""
        grow = max(64, 2 * len(self._buf), end)
        self._buf = hashlib.shake_256(self._seed).digest(grow)
        return self._buf

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
        """First w entries of a seeded Fisher-Yates shuffle of range(n).

        Draw i is randbelow(n - i), read straight off the buffer: the
        same bytes and the same stream position as w randbelow calls."""
        if not 0 <= w <= n:
            raise ValueError("need 0 <= w <= n")
        idx = list(range(n))
        buf, pos, nbits = self._buf, self._pos, -1
        for i in range(w):
            bound = n - i
            if (bound - 1).bit_length() != nbits:
                nbits = (bound - 1).bit_length()
                nbytes, mask = nbits + 7 >> 3, (1 << nbits) - 1
            while True:
                if pos + nbytes > len(buf):
                    buf = self._fill(pos + nbytes)
                v = (buf[pos] if nbytes == 1 else int.from_bytes(
                    buf[pos:pos + nbytes], "little")) & mask
                pos += nbytes
                if v < bound:
                    break
            idx[i], idx[i + v] = idx[i + v], idx[i]
        self._pos = pos
        return idx[:w]

"""McEliece encryption over binary Goppa codes, generic and quasi-dyadic.

Messages ride in the first k positions of a codeword, so candidate
plaintext extraction is a mask.  Each plaintext block carries a
36-bit tag (4-bit length descriptor + CRC-32) that disambiguates the
candidate list when decrypting beyond the unique radius; the tag is a
functional check only and offers no CCA2 security.

All randomness flows from caller-supplied seeds through SeededStream.
The byte schedule (documented so key files are reproducible):
keygen derives child streams "goppa" then "support" (generic) or
"sig/<t>" then "blocks/<t>" per attempt t (dyadic); encrypt derives
"err" for the error positions.  A generic key keeps its support in the
column order of the parity check's elimination, so that [I_k | A] is a
generator on the support's own order, as it is for dyadic codes.
"""

import binascii
from collections import namedtuple

from .gf2m import Field, Poly, make_field, random_monic_irreducible
from .binmat import BinMatrix
from .goppa import CodeConstructionError, build_code, systematic_encode
from .decode import LD_REACH, list_decode
from .dyadic import (
    gen_signature, signature_to_code,
    compact_pubkey, expand_pubkey, cauchy_code,
)
from .security import check_countermeasures, encryption_weight
from .prng import SeededStream

TAG_BITS = 36  # 4-bit length descriptor + 32-bit CRC
FORMAT_VERSION = 2  # GPPA key files
KEYGEN_ATTEMPTS = 64


class DecryptionError(Exception):
    pass


class NoCandidateError(DecryptionError):
    pass


class AmbiguityError(DecryptionError):
    pass


def validate_params(variant, m, n, r, decoder="ud"):
    """Shape, reach and countermeasure gate; returns (k, w_enc).

    keygen applies it before any draw, KeyPair.from_bytes to a key
    file's header before building a field, and KeyPair to its own shape,
    so no key object saves a file that cannot load.  It accepts or
    refuses a parameter set without constructing anything, so it works
    at full cryptographic sizes.  Besides the shape and the countermeasure it
    refuses k <= TAG_BITS (no message fits past the tag) and w_enc - r
    past LD_REACH (no decoder reaches that radius), with ValueError,
    and a dyadic n > 2^(m-1) (more points than the signature pool
    holds), with CodeConstructionError; so it refuses some published
    rows, whose estimates the tables still check.  Past it, keygen
    fails only on seed-specific construction events.
    """
    if variant not in ("generic", "dyadic"):
        raise ValueError("variant must be generic or dyadic")
    if decoder not in ("ud", "ld"):
        raise ValueError("decoder must be ud or ld")
    if not 2 <= m <= 16:
        raise ValueError("m out of range")
    if not 2 <= n <= (1 << m):
        raise ValueError("n out of range for GF(2^%d)" % m)
    if r < 1:
        raise ValueError("r must be positive")
    if variant == "generic" and r == 1 and n == 1 << m:
        raise ValueError("degree-1 generic G has its root in a full support")
    k = n - m * r
    if k <= TAG_BITS:
        raise ValueError("k = %d leaves no message bits past the %d-bit tag"
                         % (k, TAG_BITS))
    if variant == "dyadic":
        if r & (r - 1) or n % r:
            raise ValueError("dyadic needs a power-of-two r dividing n")
        cm = check_countermeasures(m, n, r)
        if not (cm.cm1 or cm.cm2):
            raise ValueError(
                "insecure dyadic parameters: need r(r+1) > n or m >= 16")
    w_enc = encryption_weight(n, r, decoder)
    if w_enc > r + LD_REACH:
        raise ValueError("decoders reach r + %d; tau - r = %d"
                         % (LD_REACH, w_enc - r))
    if variant == "dyadic" and n > 1 << (m - 1):
        raise CodeConstructionError(
            "support needs %d points but the pool holds %d"
            % (n, 1 << (m - 1)))
    return k, w_enc


def _dyadic_pool_size(m, n):
    # twice the support, at least 256, capped by the field capacity
    nu = min(m - 1, max(n.bit_length() + (n & (n - 1) != 0), 8))
    return 1 << nu


class KeyPair:
    """Key material for one code; immutable after generation.

    public is the k x (n-k) redundancy matrix A of the systematic
    generator [I_k | A] for both variants, on the support's own order;
    a dyadic key file stores it compactly.  Private decoding state is
    the support and the Goppa polynomial.
    """

    def __init__(self, variant, decoder, field, support, gpoly, public):
        self.variant = variant
        self.decoder = decoder
        self.field = field
        self.m = field.m
        self.support = tuple(support)
        self.gpoly = gpoly
        self.public = public
        self.n = len(self.support)
        self.r = gpoly.degree
        self.k, self.w_enc = validate_params(variant, self.m, self.n,
                                             self.r, decoder)
        self._code = None

    def code(self):
        """The decoding view: keygen's code if it holds the key's support,
        else built on first use (dyadic: cauchy_code)."""
        if self._code is None:
            build = cauchy_code if self.variant == "dyadic" else build_code
            self._code = build(self.field, self.support, self.gpoly)
        return self._code

    def capacity(self):
        """Largest payload encrypt() accepts, in bytes."""
        return (self.k - TAG_BITS - 1) // 8

    def to_bytes(self):
        out = bytearray(b"GPPA")
        out.append(FORMAT_VERSION)
        out.append(0 if self.variant == "generic" else 1)
        out.append(0 if self.decoder == "ud" else 1)
        out.append(self.m)
        for v in (self.n, self.k, self.r, self.w_enc):
            out += v.to_bytes(4, "big")
        out += self.field.modulus.to_bytes(4, "big")
        out += BinMatrix(self.n, self.m, self.support).to_bytes()
        coeffs = list(self.gpoly.c) + [0] * (self.r + 1 - len(self.gpoly.c))
        out += BinMatrix(self.r + 1, self.m, coeffs).to_bytes()
        out += compact_pubkey(self.m, self.r, self.public) \
            if self.variant == "dyadic" else self.public.to_bytes()
        return bytes(out)

    @classmethod
    def from_bytes(cls, blob):
        if len(blob) < 28:
            raise ValueError("truncated key file")
        if blob[:4] != b"GPPA":
            raise ValueError("not a key file")
        if blob[4] != FORMAT_VERSION:
            raise ValueError("unsupported key file version %d (this reads "
                             "version %d)" % (blob[4], FORMAT_VERSION))
        if blob[5] > 1 or blob[6] > 1:
            raise ValueError("unknown variant or decoder in key file")
        variant = ("generic", "dyadic")[blob[5]]
        decoder = ("ud", "ld")[blob[6]]
        m = blob[7]
        n, k, r, w_enc = (int.from_bytes(blob[8 + 4 * i:12 + 4 * i], "big")
                          for i in range(4))
        modulus = int.from_bytes(blob[24:28], "big")
        #  the header sizes everything below: keygen's gate first
        if (k, w_enc) != validate_params(variant, m, n, r, decoder):
            raise ValueError("k or encryption weight in the key header "
                             "differs from what its parameters give")
        span = (9 + k // r * m * ((r + 7) // 8) if variant == "dyadic"
                else (k * (n - k) + 7) // 8)
        mid = 28 + (n * m + 7) // 8
        pos = mid + ((r + 1) * m + 7) // 8
        if len(blob) != pos + span:
            raise ValueError("key file length does not match its header")
        field = Field(m, modulus)
        support = BinMatrix.from_bytes(n, m, blob[28:mid]).bits
        gpoly = Poly(field, BinMatrix.from_bytes(r + 1, m, blob[mid:pos]).bits)
        if gpoly.degree != r:
            raise ValueError("Goppa polynomial degree differs from r")
        body = blob[pos:]
        if variant == "dyadic":
            head = body[5], 1 << body[6], body[7] << 8 | body[8]
            if head != (m, r, k // r):  # before anything is expanded
                raise ValueError("compact key does not match the key header")
            public = expand_pubkey(body)[2]  # validates structure
        else:
            public = BinMatrix.from_bytes(k, n - k, body)
        return cls(variant, decoder, field, support, gpoly, public)

    def save(self, path):
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path):
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


class Cryptogram(namedtuple("Cryptogram", "n weight vector")):
    __slots__ = ()

    def to_bytes(self):
        return (b"GCTX" + self.n.to_bytes(4, "big") +
                self.weight.to_bytes(4, "big") +
                self.vector.to_bytes((self.n + 7) // 8, "little"))

    @classmethod
    def from_bytes(cls, blob):
        if blob[:4] != b"GCTX":
            raise ValueError("not a ciphertext file")
        n = int.from_bytes(blob[4:8], "big")
        weight = int.from_bytes(blob[8:12], "big")
        if len(blob) != 12 + (n + 7) // 8:
            raise ValueError("truncated ciphertext")
        vector = int.from_bytes(blob[12:], "little")
        if vector >> n:
            raise ValueError("vector bits beyond n")
        return cls(n, weight, vector)

    def save(self, path):
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path):
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


def keygen(variant, m, n, r, decoder, seed):
    """Deterministic key generation; see the module docstring for the
    seed schedule.  validate_params' refusals come first, before any
    draw; construction failures raise CodeConstructionError."""
    k = validate_params(variant, m, n, r, decoder)[0]
    if not isinstance(seed, (bytes, bytearray)) or not seed:
        raise ValueError("seed must be nonempty bytes")
    seed = bytes(seed)
    field = make_field(m)
    if variant == "generic":
        stream = SeededStream(seed)
        g = random_monic_irreducible(field, r, stream.child(b"goppa"))
        support = stream.child(b"support").sample_distinct(field.order, n)
        code = build_code(field, support, g)
        if code.k != k:
            raise CodeConstructionError("parity check is rank-deficient")
    else:
        code = _dyadic_code(field, n, r, seed)
    # the support in the elimination's column order makes [I_k | A] a
    # generator on the identity order, which a dyadic code's order is
    colperm, A = code.systematic
    kp = KeyPair(variant, decoder, field,
                 [code.support[c] for c in colperm], code.gpoly, A)
    if kp.support == code.support:  # decrypt reads the code keygen built
        kp._code = code
    return kp


def _dyadic_code(field, n, r, seed):
    N = _dyadic_pool_size(field.m, n)
    for t in range(KEYGEN_ATTEMPTS):
        sig = gen_signature(field, N, seed + b"/sig/" + bytes([t]))
        try:
            return signature_to_code(sig, n, r,
                                     seed + b"/blocks/" + bytes([t]))
        except CodeConstructionError:
            continue
    raise CodeConstructionError(
        "no systemizable dyadic draw in %d attempts" % KEYGEN_ATTEMPTS)


def _wrap(msg, k):
    data_bits = k - TAG_BITS
    data = int.from_bytes(msg, "little") | 1 << (8 * len(msg))
    block = data
    block |= (len(msg) % 16) << data_bits
    block |= binascii.crc32(msg) << (data_bits + 4)
    return block


def _unwrap(block, k):
    """Payload bytes, or None when the block cannot be a wrapping."""
    data_bits = k - TAG_BITS
    data = block & ((1 << data_bits) - 1)
    if data == 0:
        return None
    top = data.bit_length() - 1  # the terminator bit of the 10* padding
    if top % 8:
        return None
    msg = (data ^ (1 << top)).to_bytes(top // 8, "little")
    if block >> data_bits & 15 != len(msg) % 16:
        return None
    if block >> (data_bits + 4) & 0xffffffff != binascii.crc32(msg):
        return None
    return msg


def encrypt(pk, msg, seed):
    """Seeded McEliece encryption of up to pk.capacity() payload bytes."""
    if not isinstance(msg, (bytes, bytearray)):
        raise TypeError("msg must be bytes")
    if not isinstance(seed, (bytes, bytearray)) or not seed:
        raise ValueError("seed must be nonempty bytes")
    if len(msg) > pk.capacity():
        raise ValueError("payload of %d bytes exceeds capacity %d"
                         % (len(msg), pk.capacity()))
    c = systematic_encode(pk.public, _wrap(bytes(msg), pk.k))
    stream = SeededStream(bytes(seed)).child(b"err")
    for p in stream.sample_distinct(pk.n, pk.w_enc):
        c ^= 1 << p
    return Cryptogram(pk.n, pk.w_enc, c)


def decrypt(sk, ct):
    """The unique candidate whose tag verifies.

    Both decoders take the candidates within w_enc from one list_decode
    call: a unique-decoding key (w_enc = r) gets Patterson with the
    key equation at tau = r as backup, a list-decoding key every codeword
    within its radius.  Zero verified candidates raise NoCandidateError;
    two or more raise AmbiguityError rather than guessing.  A ciphertext
    whose length or recorded error weight differs from the key's raises
    ValueError before any decoding.
    """
    if ct.n != sk.n:
        raise ValueError("ciphertext length does not match the key")
    if ct.weight != sk.w_enc:
        raise ValueError("ciphertext weight %d does not match the key's %d"
                         % (ct.weight, sk.w_enc))
    pairs = list_decode(sk.code(), ct.vector, sk.w_enc).candidates
    mask = (1 << sk.k) - 1  # the message bits of [I_k | A]
    msgs = [_unwrap(c & mask, sk.k) for c, _ in pairs]
    valid = [msg for msg in msgs if msg is not None]
    if not valid:
        raise NoCandidateError("no decoding candidate carries a valid tag")
    if len(valid) > 1:
        raise AmbiguityError("%d candidates carry valid tags" % len(valid))
    return valid[0]

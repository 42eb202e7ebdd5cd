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
generator on the support's own order, as it is for dyadic codes.  A key
holds its public part as stored (dyadic: compact), checked when the key
is built.  encrypt multiplies by a dyadic key's stored signatures and
reads a generic A, parsed on first read; decrypt reads neither.
"""

import binascii
import struct
from collections import namedtuple

from .gf2m import Field, Poly, make_field, random_monic_irreducible
from .binmat import BinMatrix
from .goppa import CodeConstructionError, build_code, systematic_encode
from .decode import LD_REACH, list_decode
from .dyadic import (
    gen_signature, signature_to_code, cauchy_code, compact_encode,
    compact_pubkey, expand_pubkey, _compact_rows, _COMPACT_HEADER,
)
from .security import check_countermeasures, encryption_weight
from .prng import SeededStream

TAG_BITS = 36  # 4-bit length descriptor + 32-bit CRC
FORMAT_VERSION = 2  # GPPA key files
# magic, version, variant, decoder, m, then n, k, r, w_enc and the modulus
_HEADER = struct.Struct(">4s4B5I")
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


class _File:
    """save and load for a type with to_bytes and from_bytes."""
    __slots__ = ()

    def save(self, path):
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path):
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


class KeyPair(_File):
    """Key material for one code; immutable after generation.

    public is the k x (n-k) redundancy matrix A of the systematic
    generator [I_k | A] on the support's own order.  The constructor
    takes A as stored (A.to_bytes(), or compact_pubkey's bytes) and
    refuses with ValueError what from_bytes would and a support or G
    outside GF(2^m), so to_bytes writes a file that loads as this key.
    A loaded key parses (dyadic: expands) A on the first read of public,
    which only a generic encrypt makes: a dyadic key keeps the signatures
    it checks for encrypt.  Private decoding state is the support and G.
    """

    def __init__(self, variant, decoder, field, support, gpoly, public):
        self.variant, self.decoder, self.field = variant, decoder, field
        self.m = m = field.m
        self.support = tuple(support)
        self.gpoly = gpoly
        self.n = len(self.support)
        self.r = r = gpoly.degree
        self.k, self.w_enc = validate_params(variant, m, self.n, r, decoder)
        values = self.support + gpoly.c
        if min(values) < 0 or max(values) >> m or gpoly.field != field:
            raise ValueError("support or G outside GF(2^%d)" % m)
        public, bits = bytes(public), self.k * (self.n - self.k)
        self._rows = None  # a dyadic key's blocks' rows 0, which encrypt reads
        if variant == "dyadic":  # m, log2 r, k/r, before expanding
            if _COMPACT_HEADER.unpack_from(public.ljust(
                    _COMPACT_HEADER.size, b"\0"))[2:] != (
                    m, r.bit_length() - 1, self.k // r):
                raise ValueError("compact key does not match the key header")
            self._rows = _compact_rows(public)[2]  # expand_pubkey's checks
        elif len(public) != (bits + 7) // 8:
            raise ValueError("public part is not k x (n - k)")
        elif bits % 8:  # a re-save writes A's padding bits as 0
            public = public[:-1] + bytes([public[-1] & (1 << bits % 8) - 1])
        self._encoded = public
        self._public = self._code = None

    def code(self):
        """The decoding view: keygen's code if it holds the key's support,
        else built on first use (dyadic: cauchy_code)."""
        if self._code is None:
            build = cauchy_code if self.variant == "dyadic" else build_code
            self._code = build(self.field, self.support, self.gpoly)
        return self._code

    @property
    def public(self):
        if self._public is None:  # a loaded key's, on first read
            self._public = (
                expand_pubkey(self._encoded)[2] if self.variant == "dyadic"
                else BinMatrix.from_bytes(self.k, self.n - self.k,
                                          self._encoded))
        return self._public

    def capacity(self):
        """Largest payload encrypt() accepts, in bytes."""
        return (self.k - TAG_BITS - 1) // 8

    def to_bytes(self):
        return b"".join((
            _HEADER.pack(b"GPPA", FORMAT_VERSION, self.variant == "dyadic",
                         self.decoder == "ld", self.m, self.n, self.k,
                         self.r, self.w_enc, self.field.modulus),
            BinMatrix(self.n, self.m, self.support).to_bytes(),
            BinMatrix(self.r + 1, self.m, self.gpoly.c).to_bytes(),
            self._encoded))

    @classmethod
    def from_bytes(cls, blob):
        if len(blob) < _HEADER.size:
            raise ValueError("truncated key file")
        (magic, version, variant, decoder, m, n, k, r, w_enc,
         modulus) = _HEADER.unpack_from(blob)
        if magic != b"GPPA":
            raise ValueError("not a key file")
        if version != FORMAT_VERSION:
            raise ValueError("unsupported key file version %d (this reads "
                             "version %d)" % (version, FORMAT_VERSION))
        if variant > 1 or decoder > 1:
            raise ValueError("unknown variant or decoder in key file")
        variant = ("generic", "dyadic")[variant]
        decoder = ("ud", "ld")[decoder]
        #  the header sizes everything below: keygen's gate first
        if (k, w_enc) != validate_params(variant, m, n, r, decoder):
            raise ValueError("k or encryption weight in the key header "
                             "differs from what its parameters give")
        span = (_COMPACT_HEADER.size + k // r * m * ((r + 7) // 8)
                if variant == "dyadic" else (k * (n - k) + 7) // 8)
        mid = _HEADER.size + (n * m + 7) // 8
        pos = mid + ((r + 1) * m + 7) // 8
        if len(blob) != pos + span:
            raise ValueError("key file length does not match its header")
        field = Field(m, modulus)
        support = BinMatrix.from_bytes(n, m, blob[_HEADER.size:mid]).bits
        gpoly = Poly(field, BinMatrix.from_bytes(r + 1, m, blob[mid:pos]).bits)
        if gpoly.degree != r:
            raise ValueError("Goppa polynomial degree differs from r")
        return cls(variant, decoder, field, support, gpoly, blob[pos:])


class Cryptogram(namedtuple("Cryptogram", "n weight vector"), _File):
    __slots__ = ()

    def __new__(cls, n, weight, vector):
        if n >> 32 or weight >> 32:  # each saves in 4 bytes; -1 >> 32 is -1
            raise ValueError("ciphertext length or weight outside 4 bytes")
        if vector >> n:
            raise ValueError("vector bits beyond n")
        return super().__new__(cls, n, weight, vector)

    _make = classmethod(lambda cls, it: cls(*it))  # so _replace checks too

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
        return cls(n, weight, int.from_bytes(blob[12:], "little"))


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
    kp = KeyPair(variant, decoder, field, [code.support[c] for c in colperm],
                 code.gpoly, compact_pubkey(m, r, A) if variant == "dyadic"
                 else A.to_bytes())
    # warm caches: A, and the code when it holds the key's support order
    kp._public, kp._code = A, code if kp.support == code.support else None
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
    block = int.from_bytes(msg, "little") | 1 << (8 * len(msg))
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
    w = _wrap(bytes(msg), pk.k)
    c = (systematic_encode(pk.public, w) if pk._rows is None
         else compact_encode(pk.m, pk.r, pk._rows, w))
    stream = SeededStream(bytes(seed)).child(b"err")
    for p in stream.sample_distinct(pk.n, pk.w_enc):
        c ^= 1 << p
    return Cryptogram(pk.n, pk.w_enc, c)


def decrypt(sk, ct):
    """The unique candidate whose tag verifies.

    Both decoders take the candidates within w_enc from one list_decode
    call: a unique-decoding key (w_enc = r) gets Patterson, the key
    equation's lowest-degree member at tau = r, a list-decoding key every
    codeword within its radius.  Zero verified candidates raise
    NoCandidateError; two or more raise AmbiguityError rather than
    guessing.  A ciphertext whose length or recorded error weight differs
    from the key's raises ValueError before any decoding.
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

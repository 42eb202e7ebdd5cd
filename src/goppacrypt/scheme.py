"""McEliece encryption over binary Goppa codes, generic and quasi-dyadic.

Messages ride in the systematic positions of a codeword, so candidate
plaintext extraction is a projection.  Each plaintext block carries a
36-bit tag (4-bit length descriptor + CRC-32) that disambiguates the
candidate list when decrypting beyond the unique radius; the tag is a
functional check only and offers no CCA2 security.

All randomness flows from caller-supplied seeds through SeededStream.
The byte schedule (documented so key files are reproducible):
keygen derives child streams "goppa" then "support" (generic) or
"sig/<t>" then "blocks/<t>" per attempt t (dyadic); encrypt derives
"err" for the error positions.
"""

import binascii

from .gf2m import Field, Poly, make_field, random_monic_irreducible
from .binmat import BinMatrix
from .goppa import CodeConstructionError, build_code, systematic_encode
from .decode import patterson_decode, g2_decode, list_decode
from .dyadic import (
    DyadicParams, gen_signature, signature_to_code,
    compact_pubkey, expand_pubkey,
)
from .security import check_countermeasures, radii
from .prng import SeededStream

TAG_BITS = 36  # 4-bit length descriptor + 32-bit CRC
KEYGEN_ATTEMPTS = 64


class DecryptionError(Exception):
    pass


class NoCandidateError(DecryptionError):
    pass


class AmbiguityError(DecryptionError):
    pass


def validate_params(variant, m, n, r, decoder="ud"):
    """Shape and countermeasure gate; returns (k, w_enc).

    This is the instant check: it accepts or refuses a parameter set
    without constructing anything, so it works at full cryptographic
    sizes.  keygen applies it and may still fail later on seed-specific
    construction events.
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
    k = n - m * r
    if k < 1:
        raise ValueError("parameters leave no dimension")
    if variant == "dyadic":
        if r & (r - 1) or n % r:
            raise ValueError("dyadic needs a power-of-two r dividing n")
        cm = check_countermeasures(m, n, r)
        if not (cm.cm1 or cm.cm2):
            raise ValueError(
                "insecure dyadic parameters: need r(r+1) > n or m >= 16")
    if decoder == "ld":
        w_enc = radii(n, r).ld_errors
    else:
        w_enc = r
    return k, w_enc


def _dyadic_pool_size(m, n):
    # twice the support, at least 256, capped by the field capacity
    nu = min(m - 1, max(n.bit_length() + (n & (n - 1) != 0), 8))
    return 1 << nu


class KeyPair:
    """Key material for one code; immutable after generation.

    public is the k x (n-k) redundancy matrix A of the systematic
    generator [I_k | A] for both variants; a dyadic key file stores it
    compactly.  Private decoding state is the support, the Goppa
    polynomial and the systematic column order.
    """

    def __init__(self, variant, decoder, w_enc, field, support, gpoly,
                 colperm, public):
        self.variant = variant
        self.decoder = decoder
        self.w_enc = w_enc
        self.field = field
        self.m = field.m
        self.support = tuple(support)
        self.gpoly = gpoly
        self.colperm = tuple(colperm)
        self.public = public
        self.n = len(self.support)
        self.r = gpoly.degree
        self.k = self.n - self.m * self.r
        self._code = None

    def code(self):
        """The decoding view: validated support and G, no matrix work."""
        if self._code is None:
            self._code = build_code(self.field, self.support, self.gpoly)
        return self._code

    def capacity(self):
        """Largest payload encrypt() accepts, in bytes."""
        return (self.k - TAG_BITS - 1) // 8

    def to_bytes(self):
        out = bytearray(b"GPPA")
        out.append(1)
        out.append(0 if self.variant == "generic" else 1)
        out.append(0 if self.decoder == "ud" else 1)
        out.append(self.m)
        for v in (self.n, self.k, self.r, self.w_enc):
            out += v.to_bytes(4, "big")
        out += self.field.modulus.to_bytes(4, "big")
        out += BinMatrix(self.n, self.m, self.support).to_bytes()
        coeffs = list(self.gpoly.c) + [0] * (self.r + 1 - len(self.gpoly.c))
        out += BinMatrix(self.r + 1, self.m, coeffs).to_bytes()
        for p in self.colperm:
            out += p.to_bytes(2, "big")
        out += compact_pubkey(self.m, self.r, self.public) \
            if self.variant == "dyadic" else self.public.to_bytes()
        return bytes(out)

    @classmethod
    def from_bytes(cls, blob):
        if len(blob) < 28:
            raise ValueError("truncated key file")
        if blob[:4] != b"GPPA" or blob[4] != 1:
            raise ValueError("not a key file")
        if blob[5] > 1 or blob[6] > 1:
            raise ValueError("unknown variant or decoder in key file")
        variant = ("generic", "dyadic")[blob[5]]
        decoder = ("ud", "ld")[blob[6]]
        m = blob[7]
        n, k, r, w_enc = (int.from_bytes(blob[8 + 4 * i:12 + 4 * i], "big")
                          for i in range(4))
        modulus = int.from_bytes(blob[24:28], "big")
        field = Field(m, modulus)
        #  the header sizes everything below: check it before any work
        if (r < 1 or n > field.order or k < 1 or k != n - m * r
                or variant == "dyadic" and k % r):
            raise ValueError("inconsistent key dimensions")
        span = (9 + k // r * m * ((r + 7) // 8) if variant == "dyadic"
                else (k * (n - k) + 7) // 8)
        mid = 28 + (n * m + 7) // 8
        pos = mid + ((r + 1) * m + 7) // 8
        if len(blob) != pos + 2 * n + span:
            raise ValueError("key file length does not match its header")
        support = BinMatrix.from_bytes(n, m, blob[28:mid]).bits
        coeffs = BinMatrix.from_bytes(r + 1, m, blob[mid:pos]).bits
        colperm = [int.from_bytes(blob[pos + 2 * j:pos + 2 * j + 2], "big")
                   for j in range(n)]
        if sorted(colperm) != list(range(n)):
            raise ValueError("column order is not a permutation")
        body = blob[pos + 2 * n:]
        if variant == "dyadic":
            pm, pr, public = expand_pubkey(body)  # validates structure
            if (pm, pr, public.rows) != (m, r, k):
                raise ValueError("compact key does not match the key header")
        else:
            public = BinMatrix.from_bytes(k, n - k, body)
        kp = cls(variant, decoder, w_enc, field, support,
                 Poly(field, coeffs), colperm, public)
        if kp.r != r:
            raise ValueError("inconsistent key dimensions")
        return kp

    def save(self, path):
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path):
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


class Cryptogram:
    def __init__(self, n, weight, vector):
        self.n = n
        self.weight = weight
        self.vector = vector

    def __eq__(self, other):
        return (isinstance(other, Cryptogram) and
                (self.n, self.weight, self.vector) ==
                (other.n, other.weight, other.vector))

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
    seed schedule.  Construction failures raise CodeConstructionError;
    parameter refusals, w_enc past r + 2 too, raise ValueError first."""
    k, w_enc = validate_params(variant, m, n, r, decoder)
    if w_enc > r + 2:
        raise ValueError("decoders reach r + 2; tau - r = %d" % (w_enc - r))
    if not isinstance(seed, (bytes, bytearray)) or not seed:
        raise ValueError("seed must be nonempty bytes")
    seed = bytes(seed)
    field = make_field(m)
    stream = SeededStream(seed)
    if variant == "generic":
        g = random_monic_irreducible(field, r, stream.child(b"goppa"))
        support = stream.child(b"support").sample_distinct(field.order, n)
        code = build_code(field, support, g)
        if code.k != k:
            raise CodeConstructionError("parity check is rank-deficient")
        return KeyPair(variant, decoder, w_enc, field, code.support,
                       g, *code.systematic)
    N = _dyadic_pool_size(m, n)
    if n > N:
        raise CodeConstructionError(
            "support needs %d points but the pool holds %d" % (n, N))
    params = DyadicParams(m, N, n, k, r)
    for t in range(KEYGEN_ATTEMPTS):
        sig = gen_signature(field, N, seed + b"/sig/" + bytes([t]))
        try:
            code = signature_to_code(sig, params,
                                     seed + b"/blocks/" + bytes([t]))
        except CodeConstructionError:
            continue
        return KeyPair(variant, decoder, w_enc, field, code.support,
                       code.gpoly, *code.systematic)
    raise CodeConstructionError(
        "no systemizable dyadic draw in %d attempts" % KEYGEN_ATTEMPTS)


def _project(row, positions):
    if positions == tuple(range(len(positions))):  # dyadic keys: a mask
        return row & ((1 << len(positions)) - 1)
    out = 0
    for j, p in enumerate(positions):
        out |= (row >> p & 1) << j
    return out


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
    c = systematic_encode(pk.colperm, pk.public, _wrap(bytes(msg), pk.k))
    stream = SeededStream(bytes(seed)).child(b"err")
    for p in stream.sample_distinct(pk.n, pk.w_enc):
        c ^= 1 << p
    return Cryptogram(pk.n, pk.w_enc, c)


def decrypt(sk, ct):
    """The unique candidate whose tag verifies.

    Unique decoding runs Patterson with the degree-2r decoder as backup
    (split Goppa polynomials can make the syndrome non-invertible);
    list decoding collects every candidate within w_enc.  Zero verified
    candidates raise NoCandidateError; two or more raise AmbiguityError
    rather than guessing.  A ciphertext whose length or recorded error
    weight differs from the key's raises ValueError before any decoding.
    """
    if ct.n != sk.n:
        raise ValueError("ciphertext length does not match the key")
    if ct.weight != sk.w_enc:
        raise ValueError("ciphertext weight %d does not match the key's %d"
                         % (ct.weight, sk.w_enc))
    code = sk.code()
    y = ct.vector
    if sk.decoder == "ud":
        res = patterson_decode(code, y)
        if not res.candidates:
            res = g2_decode(code, y)
        pairs = [p for p in res.candidates if p[1] <= sk.w_enc]
    else:
        pairs = list(list_decode(code, y, sk.w_enc).candidates)
    valid = []
    for c, _ in pairs:
        msg = _unwrap(_project(c, sk.colperm[:sk.k]), sk.k)
        if msg is not None:
            valid.append(msg)
    if not valid:
        raise NoCandidateError("no decoding candidate carries a valid tag")
    if len(valid) > 1:
        raise AmbiguityError("%d candidates carry valid tags" % len(valid))
    return valid[0]

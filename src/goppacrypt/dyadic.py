"""Quasi-dyadic Goppa codes and compact public keys.

A dyadic matrix Delta(h) has entries h_{i xor j}, so its first row (the
signature) determines it.  Signatures built to satisfy
1/h_{i xor j} = 1/h_i + 1/h_j + 1/h_0 make Delta(h) a Cauchy matrix
1/(z_i + u_j), which yields a Goppa parity check made of r x r dyadic
blocks.  Invertible dyadic matrices have dyadic inverses, so the
redundancy part A of the code's systematic generator [I_k | A] is made of
dyadic blocks too.  A is the public key, and compact_pubkey packs it into
m*k bits: the first row of each r x r block.
"""

from dataclasses import dataclass

from .gf2m import Poly
from .binmat import BinMatrix, rref, transpose
from .goppa import GoppaCode, CodeConstructionError, build_code
from .prng import SeededStream


class SignatureExhaustionError(RuntimeError):
    pass


@dataclass(frozen=True)
class DyadicSignature:
    field: object
    h: tuple
    omega: int

    def roots(self, r):
        # z_i = 1/h_i + omega, the Goppa polynomial roots
        return [self.field.inv(self.h[i]) ^ self.omega for i in range(r)]

    def points(self):
        # u_j = 1/h_j + 1/h_0 + omega, the support pool
        e0 = self.field.inv(self.h[0])
        return [self.field.inv(v) ^ e0 ^ self.omega for v in self.h]


@dataclass(frozen=True)
class DyadicParams:
    m: int
    N: int
    n: int
    k: int
    r: int

    def validate(self):
        if self.r < 1 or self.r & (self.r - 1):
            raise ValueError("r must be a power of two")
        if self.n % self.r or self.N % self.r:
            raise ValueError("r must divide n and N")
        if not self.r <= self.n <= self.N:
            raise ValueError("need r <= n <= N")
        if self.N & (self.N - 1):
            raise ValueError("N must be a power of two")
        if self.k != self.n - self.m * self.r:
            raise ValueError("k must equal n - m*r")
        if self.k <= 0:
            raise ValueError("parameters leave no dimension")


def gen_signature(field, N, seed):
    """Deterministic dyadic signature over GF(2^m) with N = 2^nu entries.

    Draws h_0 and the h at power-of-two indices from the seeded stream and
    fills the rest through the dyadic-Cauchy identity; any zero or repeat
    among the 1/h_i rejects the attempt and redraws.  N above 2^(m-1) is
    refused outright: the N values 1/h_i together with the N offsets
    1/h_j + 1/h_0 would need 2N distinct field elements.
    """
    if N < 1 or N & (N - 1):
        raise ValueError("N must be a power of two")
    if 2 * N > field.order:
        raise ValueError("N may not exceed half the field size")
    if not seed:
        raise ValueError("seed must be nonempty")
    nu = N.bit_length() - 1
    stream = SeededStream(seed)
    for _ in range(4096):
        h0 = stream.randbelow(field.order)
        if h0 == 0:
            continue
        e = [0] * N
        e[0] = field.inv(h0)
        seen = {e[0]}
        ok = True
        for j in range(nu):
            b = 1 << j
            hb = stream.randbelow(field.order)
            if hb == 0:
                ok = False
                break
            eb = field.inv(hb)
            for i in range(b):
                v = e[i] ^ eb ^ e[0]
                if v == 0 or v in seen:
                    ok = False
                    break
                e[b ^ i] = v
                seen.add(v)
            if not ok:
                break
        if not ok:
            continue
        omega = stream.randbelow(field.order)
        return DyadicSignature(field, tuple(field.inv(v) for v in e), omega)
    raise SignatureExhaustionError("no admissible signature after 4096 draws")


def xor_permute(bits, p, r):
    """Reindex an r-bit signature: output bit j is input bit j xor p."""
    b = r >> 1
    low = (1 << b) - 1  # the low half of every 2b-wide block
    while b:
        if p & b:  # swap the two halves
            bits = (bits & low) << b | (bits >> b) & low
        b >>= 1
        low ^= low << b
    return bits & ((1 << r) - 1)


def signature_to_code(sig, params, seed):
    """Goppa code with dyadic Cauchy parity and block-systematic form.

    The support is n/r whole dyadic blocks of the u_j pool, block choice
    and per-block xor offsets drawn from the seed.  The code's systematic
    form is [I_k | A] on the identity column order, with every r x r
    block of A dyadic.  Every binary parity check of Gamma(L, G) has the
    code as its null space, so all share one row space, and that form is
    unique when it exists.  It comes from one elimination of parity_bin
    with its last m*r columns moved first; if those columns are singular,
    no systematic form exists and CodeConstructionError is raised.  The
    pair (range(n), A) goes straight into the code, so no generator or
    null space is built.
    """
    params.validate()
    field = sig.field
    m, n, r, N, k = params.m, params.n, params.r, params.N, params.k
    if field.m != m or len(sig.h) != N:
        raise ValueError("signature does not match the parameter set")

    zroots = sig.roots(r)
    gpoly = Poly.from_roots(field, zroots)
    points = sig.points()
    rootset = set(zroots)
    admissible = [t for t in range(N // r)
                  if not any(points[t * r + s] in rootset for s in range(r))]
    if len(admissible) < n // r:
        raise CodeConstructionError("not enough admissible support blocks")

    stream = SeededStream(seed)
    picks = stream.sample_distinct(len(admissible), n // r)
    blocks = [admissible[i] for i in picks]
    offsets = [stream.randbelow(r) for _ in blocks]
    support = [points[b * r + (s ^ p)]
               for b, p in zip(blocks, offsets) for s in range(r)]

    parity = build_code(field, support, gpoly).parity_bin
    mr = n - k
    low = (1 << k) - 1
    # rotate each row so the last m*r columns come first and hold the pivots
    R, _, pivots = rref(BinMatrix(mr, n, [
        v >> k | (v & low) << mr for v in parity.bits]))
    if pivots != list(range(mr)):
        raise CodeConstructionError("the last m*r parity columns are singular")
    # R = [I_mr | B] with B over the first k columns, and A is B transposed
    A = transpose(BinMatrix(mr, k, [v >> mr for v in R.bits]))
    return GoppaCode(field, support, gpoly, (tuple(range(n)), A))


def compact_pubkey(m, r, A):
    """Serialize a k x mr matrix of dyadic r x r blocks in m*k bits.

    The exact inverse of expand_pubkey: the first row of each block is
    its signature, and an A that the signatures do not rebuild is refused.
    """
    if r < 1 or r & (r - 1) or A.cols != m * r or A.rows % r:
        raise ValueError("matrix shape does not admit a compact key")
    out = bytearray(b"QDGK")
    out.append(1)
    out.append(m)
    out.append(r.bit_length() - 1)
    out += (A.rows // r).to_bytes(2, "big")
    span = (r + 7) // 8
    mask = (1 << r) - 1
    for base in A.bits[::r]:
        for t in range(m):
            out += (base >> (t * r) & mask).to_bytes(span, "little")
    if expand_pubkey(out)[2] != A:
        raise ValueError("non-dyadic block; key cannot be compacted")
    return bytes(out)


def expand_pubkey(blob):
    """Inverse of compact_pubkey: returns (m, r, A) with A the k x mr part."""
    if blob[:4] != b"QDGK" or blob[4] != 1:
        raise ValueError("not a compact dyadic key")
    m = blob[5]
    r = 1 << blob[6]
    kblocks = int.from_bytes(blob[7:9], "big")
    k = kblocks * r
    span = (r + 7) // 8
    body = blob[9:]
    if len(body) != kblocks * m * span:
        raise ValueError("truncated compact key")
    rows = [0] * k
    pos = 0
    for ublk in range(kblocks):
        for t in range(m):
            sig = int.from_bytes(body[pos:pos + span], "little")
            pos += span
            if sig >> r:
                raise ValueError("signature bits beyond r")
            for i in range(r):
                rows[ublk * r + i] |= xor_permute(sig, i, r) << (t * r)
    return m, r, BinMatrix(k, m * r, rows)

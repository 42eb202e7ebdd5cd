"""Quasi-dyadic Goppa codes and compact public keys.

A dyadic matrix Delta(h) has entries h_{i xor j}, so its first row (the
signature) determines it.  Signatures built to satisfy
1/h_{i xor j} = 1/h_i + 1/h_j + 1/h_0 make Delta(h) a Cauchy matrix
1/(z_i + u_j), which yields a Goppa parity check made of r x r dyadic
blocks.  A signature is kept as e_i = 1/h_i, from which the roots z and
the support pool u are xors.  Invertible dyadic matrices have dyadic
inverses, so the redundancy part A of the code's systematic generator
[I_k | A] is made of dyadic blocks too.  Whether A exists is read off the
signature first: binary r x r dyadic matrices form a local ring whose
residue map is the parity, so the signature sums of the last m support
blocks decide it, and a singular draw is refused before any matrix is
built.  A is the public key, and compact_pubkey packs it into m*k bits:
the first row of each r x r block.  expand_pubkey rebuilds each block
from that row by doubling, swapping halves of bit groups; cauchy_code
doubles a code's Cauchy parity check from its support and G alone, the
one table that keygen eliminates and decrypt reads.
"""

import struct
from collections import namedtuple
from functools import reduce
from operator import xor

from .gf2m import Poly
from .binmat import BinMatrix, transpose
from .goppa import GoppaCode, CodeConstructionError
from .prng import SeededStream

_COMPACT_HEADER = struct.Struct(">4s3BH")  # magic, version, m, log2 r, k/r


class SignatureExhaustionError(RuntimeError):
    pass


class DyadicSignature(namedtuple("DyadicSignature", "field e omega")):
    """A dyadic signature held as e_i = 1/h_i, with the offset omega.

    From gen_signature, e_{i xor j} = e_i + e_j + e_0, so e is e_0 plus
    the span V of the offsets e_b + e_0, b a power of two, and e_0 is
    outside V.
    """

    __slots__ = ()

    def roots(self, r):
        # z_i = 1/h_i + omega, the Goppa polynomial roots, in e_0 + V + omega
        return [v ^ self.omega for v in self.e[:r]]

    def points(self):
        # u_j = 1/h_j + 1/h_0 + omega, the support pool, in V + omega
        shift = self.e[0] ^ self.omega
        return [v ^ shift for v in self.e]


def _independent(basis, v):
    """True, and v kept in the xor basis, iff v is outside its span.

    Each kept value is reduced by the earlier ones, so it is clear at
    their leading bits, and one pass reduces v to 0 iff v is in the span.
    """
    for u in basis:
        v = min(v, v ^ u)
    if v:
        basis.append(v)
    return bool(v)


def gen_signature(field, N, seed):
    """Deterministic dyadic signature over GF(2^m) with N = 2^nu entries.

    Draws h_0 and the h_b at powers of two b from the seeded stream and
    fills e = 1/h by doubling: e_{b+i} = e_i + d for i < b, with offset
    d = 1/h_b + e_0.  The N values e_i are distinct and nonzero iff each
    d is independent over GF(2) of e_0 and the earlier offsets; a zero
    h_b or a dependent d rejects the attempt and redraws.  N above
    2^(m-1) is refused outright: the N values 1/h_i together with the N
    offsets 1/h_j + 1/h_0 would need 2N distinct field elements.
    """
    if N < 1 or N & (N - 1):
        raise ValueError("N must be a power of two")
    if 2 * N > field.order:
        raise ValueError("N may not exceed half the field size")
    if not seed:
        raise ValueError("seed must be nonempty")
    stream = SeededStream(seed)
    for _ in range(4096):
        h0 = stream.randbelow(field.order)
        if h0 == 0:
            continue
        e = [field.inv(h0)]
        basis = [e[0]]
        while len(e) < N:
            hb = stream.randbelow(field.order)
            if hb == 0:
                break
            d = field.inv(hb) ^ e[0]
            if not _independent(basis, d):
                break
            e += [v ^ d for v in e]
        else:
            omega = stream.randbelow(field.order)
            return DyadicSignature(field, tuple(e), omega)
    raise SignatureExhaustionError("no admissible signature after 4096 draws")


def signature_to_code(sig, n, r, seed):
    """Goppa code with dyadic Cauchy parity and block-systematic form.

    m is the signature's field degree and N its length.  r must be a
    power of two dividing n, with r <= n <= N and k = n - mr >= 1.  The
    support is n/r whole dyadic blocks of the u_j pool, block choice
    and per-block xor offsets drawn from the seed.  No support point is a
    root of G: with V the span of the signature's offsets, the roots lie
    in e_0 + V + omega, the pool in V + omega, and e_0 is outside V.  The
    code's systematic form is [I_k | A] on the identity column order,
    with every r x r block of A dyadic; every binary parity check of
    Gamma(L, G) has the code as its null space, so that form is unique
    when it exists.  A is read off one elimination of the Cauchy table
    (cauchy_code) of the support with its last m*r points moved first,
    which must pivot on exactly those points; otherwise no systematic
    form exists and CodeConstructionError is raised.  The code holds
    that table with its columns rotated back, as decrypt builds it.

    Singular draws are refused from the signature sums first, before
    cauchy_code.  In the Cauchy parity check, support block c is pool
    block b_c read at offset p_c, and its bit plane beta is the binary
    dyadic matrix of bit beta of h_{b_c*r + (x xor p_c)}.  Binary r x r
    dyadic matrices form the group ring GF(2)[(Z/2)^s], r = 2^s, which is
    local with the parity as its residue map, and a square matrix over a
    commutative local ring is invertible iff its residue image is.  The
    image of the last m block columns is m x m with column c equal to the
    bits of s_c = sum over x < r of h_{b_c*r + x}; the offset only
    permutes that sum.  As all binary parity checks share one null
    space, the last m*r columns are singular iff the m values s_c are
    dependent over GF(2), and the pivot check after the elimination is a
    backstop.  The picks and offsets come from this attempt's own
    stream, so stopping early changes no later draw.
    """
    field = sig.field
    m, N = field.m, len(sig.e)
    k = n - m * r
    if r < 1 or r & (r - 1) or n % r or not r <= n <= N or k < 1:
        raise ValueError("need a power-of-two r dividing n, r <= n <= %d "
                         "and k = n - %d*r >= 1" % (N, m))

    stream = SeededStream(seed)
    blocks = stream.sample_distinct(N // r, n // r)
    offsets = [stream.randbelow(r) for _ in blocks]
    basis = []
    for b in blocks[-m:]:
        s = reduce(xor, map(field.inv, sig.e[b * r:(b + 1) * r]))
        if not _independent(basis, s):
            raise CodeConstructionError(
                "the last m*r parity columns are singular")
    points = sig.points()
    support = [points[b * r + (s ^ p)]
               for b, p in zip(blocks, offsets) for s in range(r)]
    gpoly = Poly.from_roots(field, sig.roots(r))

    # on the rotated support, column j < k sits at mr + j; if the
    # elimination pivots on columns 0..mr-1, its A is that of the
    # identity order
    code = cauchy_code(field, support[k:] + support[:k], gpoly)
    colperm, A = code.systematic
    if colperm[k:] != tuple(range(n - k)):
        raise CodeConstructionError("the last m*r parity columns are singular")
    table = [v << k | v >> n - k for v in code.parity_bin.bits]  # key order
    return GoppaCode(field, support, gpoly, BinMatrix(len(table), n, table),
                     code.roots, (tuple(range(n)), A))


def compact_pubkey(m, r, A):
    """Serialize a k x mr matrix of dyadic r x r blocks in m*k bits.

    The exact inverse of expand_pubkey: the first row of each block is
    its signature, and an A that the signatures do not rebuild is refused.
    """
    if r < 1 or r & (r - 1) or A.cols != m * r or A.rows % r:
        raise ValueError("matrix shape does not admit a compact key")
    out = bytearray(_COMPACT_HEADER.pack(b"QDGK", 1, m, r.bit_length() - 1,
                                         A.rows // r))
    span = (r + 7) // 8
    mask = (1 << r) - 1
    for base in A.bits[::r]:
        for t in range(m):
            out += (base >> (t * r) & mask).to_bytes(span, "little")
    if expand_pubkey(out)[2] != A:
        raise ValueError("non-dyadic block; key cannot be compacted")
    return bytes(out)


def expand_pubkey(blob):
    """Inverse of compact_pubkey: returns (m, r, A) with A the k x mr part.

    Row i of a dyadic block has bit j of row 0 at position j xor i, so
    the blocks double from their rows 0, m signatures side by side, with
    one masked shift per row for all planes (_double), then regroup.
    """
    m, r, rows = _compact_rows(blob)
    blocks = len(rows)  # row i of block b comes out at i * blocks + b
    rows = _double(rows, m * r, r)
    rows = [v for b in range(blocks) for v in rows[b::blocks]]
    return m, r, BinMatrix(len(rows), m * r, rows)


def _compact_rows(blob):
    """(m, r, the blocks' rows 0): every check of expand_pubkey, which
    cannot fail past them.  m outside 2..16 or m*r >= 2^16 is refused
    before any allocation: no support of at most 2^16 points leaves room
    for that parity part.
    """
    if len(blob) < _COMPACT_HEADER.size:
        raise ValueError("not a compact dyadic key")
    magic, version, m, log_r, blocks = _COMPACT_HEADER.unpack_from(blob)
    if (magic, version) != (b"QDGK", 1):
        raise ValueError("not a compact dyadic key")
    if not 2 <= m <= 16 or m << log_r >= 1 << 16:
        raise ValueError("compact key dimensions out of range")
    r = 1 << log_r
    span = (r + 7) // 8
    body = blob[_COMPACT_HEADER.size:]
    if len(body) != blocks * m * span:
        raise ValueError("truncated compact key")
    if r >= 8:  # the signatures fill their bytes: a block is one int
        return m, r, [int.from_bytes(body[p:p + m * span], "little")
                      for p in range(0, len(body), m * span)]
    if any(sig >> r for sig in body):  # one byte per signature
        raise ValueError("signature bits beyond r")
    return m, r, [sum(sig << t * r for t, sig in enumerate(body[p:p + m]))
                  for p in range(0, len(body), m)]


def _double(rows, width, r):
    """rows, then each read at bit j xor i for 0 < i < r, by half-swaps."""
    full = (1 << width) - 1
    for b in (1 << j for j in range(r.bit_length() - 1)):
        mask = full // ((1 << 2 * b) - 1) * ((1 << b) - 1)  # low b of each 2b
        rows += [(v & mask) << b | v >> b & mask for v in rows]
    return rows


def cauchy_code(field, support, gpoly):
    """Gamma(L, G) holding G's roots z_i and their Cauchy table, the bit
    planes of 1/(z_i + L_j), derived from a quasi-dyadic (L, G) alone.

    G + G(0) has terms only at x^(2^k), so it is GF(2)-linear: one m x m
    GF(2) system gives a root z_0 and the kernel V, the roots are z_0 + V,
    and G' = G_1.  Each support block c has the differences L_{cr+t} +
    L_{cr} = d_t of block 0, linear in t and spanning V, so with
    z_i = z_0 + d_i entry (i, t) of block c is entry (0, t xor i), and
    row 0, n inversions, doubles into all r.  Other keys, and a support
    point that is a root of G, raise CodeConstructionError.
    """
    n, r, m, q = len(support), gpoly.degree, field.m, field.order
    if len(set(support)) != n or not 0 <= min(support) <= max(support) < q:
        raise CodeConstructionError("support points are not distinct")
    # G(0) << m reduces by rows (G(alpha^k) + G(0)) << m | 2^k to a root
    g = gpoly.eval_all([0] + [1 << k for k in range(m)])
    basis, z0, V = [], g[0] << m, [0]
    for k in range(m):  # every row is kept, and those with no G part span V
        _independent(basis, (g[k + 1] ^ g[0]) << m | 1 << k)
        z0 = min(z0, z0 ^ basis[-1])
        V += [] if basis[-1] >> m else [v ^ basis[-1] for v in V]
    if z0 >> m or len(V) != r or any(
            c for k, c in enumerate(gpoly.c) if k & (k - 1)):
        raise CodeConstructionError("G is not L_V(x) + c on r roots")
    if not {z0 ^ v for v in V}.isdisjoint(support):
        raise CodeConstructionError("support element is a root of G")
    d = [0]
    for b in range(r.bit_length() - 1):
        d += [v ^ support[1 << b] ^ support[0] for v in d]
    if set(d) != set(V) or any([v ^ support[c] for v in support[c:c + r]]
                               != d for c in range(0, n, r)):
        raise CodeConstructionError("support blocks are not cosets of V")
    exp, log = field.exp, field.log
    table = _double(transpose([exp[-log[z0 ^ v]] for v in support], m),
                    n, r)
    return GoppaCode(field, support, gpoly, BinMatrix(len(table), n, table),
                     tuple(z0 ^ v for v in d))

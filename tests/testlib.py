"""Helpers that only the tests use, kept out of the package.

Field division and powers, polynomial powers mod G, exhaustive minimum
distance, a few BinMatrix constructors and reshapes, systematic form,
a code's generator matrix, the support draw of a dyadic attempt, and the
references that the package's fast kernels are checked against: Rabin's
irreducibility test, the GF(2) null space, the shift-loop byte packing,
the entry-by-entry dyadic signature fill, the dyadic structure check,
the xor reindexing of a dyadic signature with its bit-loop version, the
row-by-row compact key expansion, the bit-matrix transpose and
matrix-vector product, the GF(2) parity check of any modulus, the
syndrome mod any modulus from its own memo of 1/(x - L_j) (the oracle of
the package's s mod G), the alternant table by the row loop that
build_code's plane products replaced, the locator root search and the
square root of x mod G, Patterson on the alternant table of G, the
oracle of Patterson at G's roots on the Cauchy table of a dyadic key's
code, and the degree-2r decoder (the early stopped EEA on the syndrome
mod G^2), the oracle of the key equation mod G that backs Patterson up.
Also here: the codeword encoder by message int, Proposition 1's check on
G^2's bit-loop parity check, a Horner evaluator at one point, and the
brute-force sphere oracle, the ground truth for the list decoders, with the
bit-tuple order of their results, and a key's public part as its key
file stores it, which is what KeyPair takes.  The kernels that the key
file path replaced stay here as oracles: the column route of
BinMatrix.from_bytes with an int per column, sample_distinct as one
randbelow call per draw, and cauchy_code's root solve on G's values at
the m + 1 points by eval_all.  A signature's roots, multiplied out
by Poly.from_roots, are the oracle of its G by the subspace recursion.
The dyadic generator is checked against elimination over the ring of
dyadic blocks and against its first construction, one elimination of
the alternant parity check of G on the rotated support, the linear
list-decoding engine against the flip engine, one degree-2r decode per
flip subset, the parameter search against the same walk with every
bisection run in full, and the workfactor scan against the generator
of split costs it replaced.  The
list kernels are checked against the versions they replaced: the
Four-Russians rref against Gauss-Jordan, and the list Euclid, the early
stopped EEA and the key equation kernel against their Poly forms; the
Poly form of the kernel, mod G^2 on the bit-loop syndrome, is also the
span that the package's kernel mod G must have.
"""

import functools
import itertools
import math

from goppacrypt import cli
from goppacrypt.binmat import BinMatrix, rref, transpose
from goppacrypt.decode import (
    DecodeResult, _apply_locator, _locator_roots, _sorted_result,
    _table_planes,
)
from goppacrypt.dyadic import (
    DyadicSignature, SignatureExhaustionError, _independent,
)
from goppacrypt.goppa import (
    CapacityError, CodeConstructionError, GoppaCode, build_code,
    syndrome_poly, systematic_encode,
)
from goppacrypt.gf2m import (
    NEG_INF, Poly, poly_invmod, poly_sqrt_mod,
)
from goppacrypt.prng import SeededStream
from goppacrypt.security import encryption_weight, fs_workfactor, keysize


def field_div(field, a, b):
    return field.mul(a, field.inv(b))


def field_pow(field, a, e):
    if e < 0:
        return field_pow(field, field.inv(a), -e)
    r = 1
    while e:
        if e & 1:
            r = field.mul(r, a)
        a = field.mul(a, a)
        e >>= 1
    return r


def poly_powmod(f, e, G):
    r = Poly.one(f.field)
    f = f % G
    while e:
        if e & 1:
            r = (r * f) % G
        f = (f * f) % G
        e >>= 1
    return r


def _prime_factors(n):
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def rabin_irreducible(G):
    """Rabin test for G over GF(2^m), q = 2^m."""
    field = G.field
    r = G.degree
    if r is NEG_INF or r < 1:
        return False
    if r == 1:
        return True
    G = G.monic()
    x = Poly.x(field)
    need = {r // p for p in _prime_factors(r)}
    t = x
    for i in range(1, r + 1):
        #  t <- t^(2^m) mod G, one Frobenius step, via m squarings
        for _ in range(field.m):
            t = t.square() % G
        if i in need:
            if poly_gcd_poly(t + x, G).degree != 0:
                return False
        if i == r:
            return t == x % G
    return False  # unreachable


def min_distance_exhaustive(code):
    """Exact minimum distance by walking all 2^k codewords (tiny codes)."""
    if code.k > 20:
        raise CapacityError("2^%d codewords is beyond the exhaustive bound"
                            % code.k)
    if code.k == 0:
        raise ValueError("zero-dimensional code has no nonzero codewords")
    best = code.n + 1
    word = 0
    for i in range(1, 1 << code.k):
        word ^= gen(code).bits[(i & -i).bit_length() - 1]
        w = word.bit_count()
        if w < best:
            best = w
    return best


def gen(code):
    """Generator [I_k | A] of code on the identity column order, assembled
    by transposes, independently of systematic_encode."""
    # column colperm[i] is e_i, then A's columns
    colperm, A = code.systematic
    cols = [1 << i for i in range(A.rows)] + transpose(A.bits, A.cols)
    cols = [v for _, v in sorted(zip(colperm, cols))]
    return BinMatrix(A.rows, code.n, transpose(cols, A.rows))


def identity(n):
    return BinMatrix(n, n, [1 << i for i in range(n)])


def from_entries(entries):
    """BinMatrix from an iterable of 0/1 row iterables."""
    rows = [sum(1 << j for j, e in enumerate(row) if e & 1) for row in entries]
    cols = max((len(row) for row in entries), default=0)
    return BinMatrix(len(rows), cols, rows)


def transpose_bitloop(rows, cols):
    """The cols columns of the matrix with these rows, one set bit at a
    time."""
    out = [0] * cols
    for i, r in enumerate(rows):
        while r:
            low = r & -r
            out[low.bit_length() - 1] |= 1 << i
            r ^= low
    return out


def null_space(M):
    """Basis (as rows) of {x : M x^T = 0}; row count = cols - rank."""
    R, rank, pivots = rref(M)
    piv_row = {c: i for i, c in enumerate(pivots)}
    pivset = set(pivots)
    basis = []
    for free in range(M.cols):
        if free in pivset:
            continue
        v = 1 << free
        fbit = 1 << free
        for c, i in piv_row.items():
            if R.bits[i] & fbit:
                v |= 1 << c
        basis.append(v)
    return BinMatrix(len(basis), M.cols, basis)


def vstack(A, B):
    if A.cols != B.cols:
        raise ValueError("column count mismatch")
    return BinMatrix(A.rows + B.rows, A.cols, list(A.bits) + list(B.bits))


class RankDeficiencyError(ValueError):
    """Systematic form requested from a matrix whose rank < rows."""

    def __init__(self, rank):
        super().__init__("matrix is rank-deficient (rank %d)" % rank)
        self.rank = rank


def permute_cols(M, perm):
    """New matrix with column j taken from column perm[j]."""
    if sorted(perm) != list(range(M.cols)):
        raise ValueError("not a permutation of the columns")
    out = []
    for r in M.bits:
        v = 0
        for j, src in enumerate(perm):
            v |= ((r >> src) & 1) << j
        out.append(v)
    return BinMatrix(M.rows, M.cols, out)


def systematic_form(M):
    """Column-permute a full-row-rank matrix into [I | A].

    Returns (S, colperm) where S has column j equal to M's column colperm[j];
    pivot columns are chosen greedily left to right and moved to the front.
    """
    R, rank, pivots = rref(M)
    if rank < M.rows:
        raise RankDeficiencyError(rank)
    pivset = set(pivots)
    colperm = pivots + [c for c in range(M.cols) if c not in pivset]
    return permute_cols(R, colperm), colperm


def to_bytes_shiftloop(M):
    """BinMatrix.to_bytes by shifting each row into one packed int."""
    acc = 0
    for i, r in enumerate(M.bits):
        acc |= r << (i * M.cols)
    return acc.to_bytes((M.rows * M.cols + 7) // 8, "little")


def from_bytes_shiftloop(rows, cols, data):
    """BinMatrix.from_bytes by shifting the packed int once per row."""
    acc = int.from_bytes(data, "little")
    mask = (1 << cols) - 1
    return BinMatrix(rows, cols,
                     [(acc >> (i * cols)) & mask for i in range(rows)])


def from_bytes_columns(rows, cols, data):
    """BinMatrix.from_bytes with the column route it replaced: each
    column's strided digits parsed to an int, then transposed back."""
    total = rows * cols
    if not 0 < 6 * cols < rows or cols > 16:
        return BinMatrix.from_bytes(rows, cols, data)
    digits = format(int.from_bytes(data, "little") & ((1 << total) - 1),
                    "0%db" % total)
    return BinMatrix(rows, cols, transpose(
        [int(digits[cols - 1 - j::cols], 2) for j in range(cols)], rows))


def sample_distinct_loop(stream, n, w):
    """SeededStream.sample_distinct as one randbelow call per draw."""
    if not 0 <= w <= n:
        raise ValueError("need 0 <= w <= n")
    idx = list(range(n))
    for i in range(w):
        j = i + stream.randbelow(n - i)
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:w]


def mul_vec_bitloop(M, x):
    """M * x^T, one entry at a time."""
    out = 0
    for i in range(M.rows):
        bit = 0
        for j in range(M.cols):
            bit ^= M.bits[i] >> j & x >> j & 1
        out |= bit << i
    return out


def dyadic_check(M):
    """True iff M[i][j] = M[0][i xor j] for all i, j."""
    rows = len(M)
    if rows < 1 or rows & (rows - 1):
        raise ValueError("matrix order must be a power of two")
    if any(len(row) != rows for row in M):
        raise ValueError("matrix must be square")
    return all(M[i][j] == M[0][i ^ j]
               for i in range(rows) for j in range(rows))


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


def expand_pubkey_rowloop(blob):
    """dyadic.expand_pubkey row by row: one xor_permute per (row, plane)."""
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


def xor_permute_bitloop(bits, p, r):
    """Output bit j is input bit j xor p, one bit at a time."""
    out = 0
    for j in range(r):
        if bits >> (j ^ p) & 1:
            out |= 1 << j
    return out


def block_mul(a, b, r):
    """Signature of Delta(a) Delta(b): xor-convolution of signatures."""
    out = 0
    for i in range(r):
        if a >> i & 1:
            out ^= xor_permute(b, i, r)
    return out


def block_invertible(a):
    # Delta(a)^2 = parity(a) * I, so odd parity means Delta(a)^-1 = Delta(a)
    return a.bit_count() & 1 == 1


def signature_roots(sig, r):
    """The roots z_i = 1/h_i + omega, i < r, of a signature's Goppa
    polynomial, from which Poly.from_roots is the oracle of its G."""
    return [v ^ sig.omega for v in sig.e[:r]]


def dyadic_support(sig, n, r, seed):
    """(G, support) of dyadic.signature_to_code's draw, rebuilt here so
    that attempts the package refuses from the signature sums can be
    built."""
    points = sig.points()
    stream = SeededStream(seed)
    blocks = stream.sample_distinct(len(sig.e) // r, n // r)
    offsets = [stream.randbelow(r) for _ in blocks]
    return (Poly.from_roots(sig.field, signature_roots(sig, r)),
            [points[b * r + (s ^ p)] for b, p in zip(blocks, offsets)
             for s in range(r)])


def signature_to_code_alternant(sig, n, r, seed):
    """A of dyadic.signature_to_code's draw as first built, with no
    signature sums: build_code on the support with its last m*r points
    moved first, one elimination of the alternant parity check of G, and
    CodeConstructionError unless it pivots on exactly those points."""
    gpoly, support = dyadic_support(sig, n, r, seed)
    k = n - sig.field.m * r
    colperm, A = build_code(sig.field, support[k:] + support[:k],
                            gpoly).systematic
    if colperm[k:] != tuple(range(n - k)):
        raise CodeConstructionError("the last m*r parity columns are singular")
    return A


def gen_signature_filled(field, N, seed, refusals):
    """dyadic.gen_signature as first written: h_0 and the h_b at powers of
    two b drawn, the rest of e = 1/h filled one entry at a time through
    the dyadic-Cauchy identity, and a zero h_b or a zero or repeat among
    the e_i rejecting the attempt.  Each rejection is counted in the
    Counter refusals, under "h_b = 0" or "zero or repeat"."""
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
                refusals["h_b = 0"] += 1
                ok = False
                break
            eb = field.inv(hb)
            for i in range(b):
                v = e[i] ^ eb ^ e[0]
                if v == 0 or v in seen:
                    refusals["zero or repeat"] += 1
                    ok = False
                    break
                e[b ^ i] = v
                seen.add(v)
            if not ok:
                break
        if not ok:
            continue
        omega = stream.randbelow(field.order)
        return DyadicSignature(field, tuple(e), omega)
    raise SignatureExhaustionError("no admissible signature after 4096 draws")


def linearized_roots_eval_all(field, gpoly):
    """cauchy_code's root solve as it was, on G's values at 0 and at
    alpha^k for k < m by eval_all: (z_0, V), or None where cauchy_code
    refuses G as not L_V(x) + c on r roots."""
    m = field.m
    g = gpoly.eval_all([0] + [1 << k for k in range(m)])
    basis, z0, V = [], g[0] << m, [0]
    for k in range(m):
        _independent(basis, (g[k + 1] ^ g[0]) << m | 1 << k)
        z0 = min(z0, z0 ^ basis[-1])
        V += [] if basis[-1] >> m else [v ^ basis[-1] for v in V]
    if z0 >> m or len(V) != gpoly.degree or any(
            c for k, c in enumerate(gpoly.c) if k & (k - 1)):
        return None
    return z0, V


def block_systemized_generator(code, sig):
    """[I_k | A] of a quasi-dyadic code by block-wise elimination.

    code comes from sig through dyadic.signature_to_code's support choice.
    Entry (i, j) of the Cauchy parity check is 1/(z_i + L_j), and row 0 of
    each r x r block, split into bit planes, is that block's binary dyadic
    signature.  Eliminating over the ring of dyadic blocks, which is local
    (parity is the residue map, so a pivot works iff its parity is odd),
    reduces the block matrix to [M | I] on its last m block columns;
    running out of odd-parity pivots raises CodeConstructionError.
    """
    field, n, r = code.field, code.n, code.r
    m = field.m
    k, cols = n - m * r, n // r
    z0 = signature_roots(sig, 1)[0]
    h = [field.inv(z0 ^ a) for a in code.support]
    grid = [[sum((h[c * r + s] >> beta & 1) << s for s in range(r))
             for c in range(cols)] for beta in range(m)]
    base = cols - m
    for step in range(m):
        col = base + step
        piv = next((i for i in range(step, m)
                    if block_invertible(grid[i][col])), None)
        if piv is None:
            raise CodeConstructionError("dyadic elimination has no pivot")
        grid[step], grid[piv] = grid[piv], grid[step]
        inv = grid[step][col]  # self-inverse up to the odd parity
        grid[step] = [block_mul(inv, v, r) for v in grid[step]]
        for i in range(m):
            if i != step and grid[i][col]:
                factor = grid[i][col]
                grid[i] = [v ^ block_mul(factor, w, r)
                           for v, w in zip(grid[i], grid[step])]
    rows = []
    for ublk in range(k // r):
        for i in range(r):
            row = 1 << (ublk * r + i)
            for t in range(m):
                row |= xor_permute(grid[t][ublk], i, r) << (k + t * r)
            rows.append(row)
    return BinMatrix(k, n, rows)


def parity_bin_loop(code, modulus=None):
    """GF(2) rows of the alternant matrix L_j^t / M(L_j), t < deg M, of
    M = modulus (G by default), one bit per support point."""
    field, support = code.field, code.support
    modulus = modulus or code.gpoly
    row = [field.inv(poly_eval(modulus, a)) for a in support]
    bits = []
    for _ in range(modulus.degree):
        for beta in range(field.m):
            bits.append(sum((v >> beta & 1) << j for j, v in enumerate(row)))
        row = [field.mul(v, a) for v, a in zip(row, support)]
    return BinMatrix(len(bits), code.n, bits)


def alternant_table(field, support, gpoly):
    """The alternant table L_j^t / G(L_j), t < deg G, as build_code made
    it before plane products: G at every point by Horner, each next row
    by log-domain products with L, each row transposed into its bit
    planes; the oracle of build_code's table."""
    exp, log = field.exp, field.log
    logs = [log[a] for a in support]  # None at a = 0
    row, bits = [field.inv(v) for v in gpoly.eval_all(support)], []
    for _ in range(gpoly.degree):
        bits += transpose(row, field.m)
        row = [0 if la is None else exp[log[v] + la]
               for v, la in zip(row, logs)]
    return BinMatrix(len(bits), len(support), bits)


def syndrome_poly_bitloop(code, y, modulus):
    """Sum of 1/(x - L_j) mod modulus over the set bits of y, bit by bit."""
    inv = syndrome_inverses(code, modulus)
    acc = [0] * modulus.degree
    j = 0
    while y:
        if y & 1:
            for i, c in enumerate(inv[j].c):
                acc[i] ^= c
        y >>= 1
        j += 1
    return Poly(code.field, acc)


def inv_x_minus(modulus, a):
    """1/(x - a) mod modulus, by synthetic division.

    1/(x + a) = (modulus(x) + modulus(a)) / (x + a), scaled by 1/modulus(a).
    """
    field = modulus.field
    va = poly_eval(modulus, a)
    quot = [0] * modulus.degree
    acc = 0
    for i in range(modulus.degree, 0, -1):
        acc = field.mul(acc, a) ^ modulus[i]
        quot[i - 1] = acc
    scale = field.inv(va)
    return Poly(field, [field.mul(scale, c) for c in quot])


@functools.lru_cache(maxsize=16)
def syndrome_inverses(code, modulus):
    """Per-position inverses 1/(x - L_j) mod modulus, memoized here."""
    return tuple(inv_x_minus(modulus, a) for a in code.support)


def g2_decode(code, y):
    """Decoding up to r errors on the degree-2r view Gamma(L, G) =
    Gamma(L, G^2): the early stopped Poly EEA on y's bit-loop syndrome
    mod G^2, the oracle of the key equation mod G at tau = r, and of
    Patterson where s is not invertible mod G."""
    g2 = code.gpoly.square()
    return g2_from_syndrome(code, y, syndrome_poly_bitloop(code, y, g2), g2)


def g2_from_syndrome(code, y, s2, g2):
    if s2 == Poly(code.field):
        return DecodeResult(((y, 0),))
    # for a locator of degree w <= r the rows end at degrees 2r - w and
    # < w: the first pair of sum <= 2r - 1
    _, (_, sigma) = eea_stop_poly(g2, s2, 2 * code.r - 1)
    if sigma.degree > code.r:
        return DecodeResult(())
    # sigma*s2 = omega (mod G^2) proves no codeword: check the parity
    roots = _locator_roots(code.n, *_table_planes(code, sigma))
    return DecodeResult(tuple(
        (c, w) for c, w in _apply_locator(y, sigma, roots)
        if not mul_vec_bitloop(code.parity_bin, c)))


def flip_engine(code, y, tau):
    """All codewords within tau of y, one degree-2r decode per flip subset.

    Any codeword at distance w in (r, tau] differs from y on w error
    positions; flipping any w - r of them drops the distance to r where
    g2 decoding is guaranteed.  Enumerating all flip subsets up to size
    tau - r therefore finds every candidate, at C(n, tau - r) decodes.
    """
    g2 = code.gpoly.square()
    base = syndrome_poly_bitloop(code, y, g2)
    inv = syndrome_inverses(code, g2)
    found = {}
    for size in range(max(0, tau - code.r) + 1):
        for flips in itertools.combinations(range(code.n), size):
            s = base
            word = y
            for p in flips:
                s = s + inv[p]
                word ^= 1 << p
            for c, _ in g2_from_syndrome(code, word, s, g2).candidates:
                dist = (c ^ y).bit_count()
                if dist <= tau:
                    found[c] = dist
    return _sorted_result(code.n, found.items())


def locator_roots_horner(code, sigma):
    """Mask of the support points where sigma vanishes, one eval each."""
    return sum(1 << j for j, a in enumerate(code.support)
               if poly_eval(sigma, a) == 0)


def patterson_alternant(code, y):
    """Patterson decoding on the alternant table of a build_code code.

    s from the alternant syndromes, T = 1/s and R = sqrt(T + x) mod G on
    coefficients, the key equation by the Poly EEA, the locator's roots
    by one evaluation per support point, and the result checked against
    the alternant syndromes: the decoding that every code had before a
    code could hold G's roots, and the oracle of the pointwise one.
    Where s is not invertible mod G it is g2_decode.
    """
    G = code.gpoly
    x = Poly.x(code.field)
    s = syndrome_poly(code, y)
    if s == Poly(code.field):
        return DecodeResult(((y, 0),))
    T = poly_invmod(s, G)
    if T is None:
        return g2_decode(code, y)
    sigma = min((a.square() + x * b.square() for a, b in eea_stop_poly(
        G, poly_sqrt_mod(T + x, G), G.degree)), key=lambda p: p.degree)
    roots = locator_roots_horner(code, sigma)
    if roots.bit_count() != sigma.degree or \
            syndrome_poly(code, y ^ roots) != Poly(code.field):
        return DecodeResult(())
    return DecodeResult(((y ^ roots, sigma.degree),))


def sqrt_x_mod_solve(G):
    """Square root of x mod G by solving the GF(2)-linear squaring map."""
    field = G.field
    m, r = field.m, G.degree
    dim = m * r
    rows = [0] * dim  # rows[out_bit] has bit c set iff Sq(basis_c) hits out_bit
    for i in range(r):
        for beta in range(m):
            c = i * m + beta
            img = Poly(field, [0] * i + [1 << beta]).square() % G
            for ii, a in enumerate(img.c):
                for bb in range(m):
                    if (a >> bb) & 1:
                        rows[ii * m + bb] |= 1 << c
    target = 1 * m  # coordinate of the polynomial x (i=1, beta=0)
    aug, _, pivots = rref(BinMatrix(dim, dim + 1, [
        rows[j] | (j == target) << dim for j in range(dim)]))
    if pivots and pivots[-1] == dim:
        raise ArithmeticError("square root of x failed; is G square-free?")
    coeffs = [0] * r
    for j, col in enumerate(pivots):
        if aug.bits[j] >> dim & 1:
            coeffs[col // m] |= 1 << (col % m)
    R = Poly(field, coeffs)
    if R.square() % G != Poly.x(field) % G:
        raise ArithmeticError("square root of x failed; is G square-free?")
    return R


def random_goppa_code(m, n, r, rng, monic=True):
    """Gamma(L, G) with a random square-free G of degree r, not always
    irreducible, and a random support of n points that includes 0.  A G
    with fewer than n non-roots raises ValueError before the support
    draw, which would otherwise never end."""
    from goppacrypt.gf2m import is_squarefree, make_field
    field = make_field(m)
    while True:
        g = Poly(field, [rng.randrange(1, field.order)]
                 + [rng.randrange(field.order) for _ in range(r - 1)]
                 + [1 if monic else rng.randrange(2, field.order)])
        if is_squarefree(g):
            break
    if 1 + sum(1 for a in range(1, field.order) if poly_eval(g, a)) < n:
        raise ValueError("G leaves fewer than n = %d points" % n)
    support = [0]
    while len(support) < n:
        a = rng.randrange(1, field.order)
        if a not in support and poly_eval(g, a):
            support.append(a)
    rng.shuffle(support)
    return build_code(field, support, g)


def search_params_unpruned(target, variant, decoder, countermeasure="none"):
    """cli.search_params with every r of each walk bisected in full, on
    the same grid, tie-breaks and 25-miss stop; it probes through
    cli._feasible, so a test can count its probes."""
    dyadic = variant == "dyadic"
    best = None
    for m in range(16 if countermeasure == "cm2" else 10, 17):
        misses = 0
        seen_feasible = False
        for r in ((1 << j for j in itertools.count(1)) if dyadic
                  else itertools.count(1)):
            step = r if dyadic else 1
            lo, hi = m * r + step, 1 << m
            if lo > hi or misses == 25:
                break
            if countermeasure == "cm1":
                hi = min(hi, (r * (r + 1) - 1) // step * step)
            n = None
            if lo <= hi and cli._feasible(hi, m, r, decoder, target):
                while lo < hi:  # hi first, then halving
                    mid = lo + ((hi - lo) // (2 * step)) * step
                    if cli._feasible(mid, m, r, decoder, target):
                        hi = mid
                    else:
                        lo = mid + step
                n = hi
            improved = False
            if n is not None:
                seen_feasible = True
                k = n - m * r
                cand = (keysize(variant, m, k, r), n, m, r, k)
                if best is None or cand[:3] < best[:3]:
                    best = cand
                    improved = True
            if seen_feasible:
                misses = 0 if improved else misses + 1
    if best is None:
        return None
    ks, n, m, r, k = best
    w = encryption_weight(n, r, decoder)
    return {"method": "LD" if decoder == "ld" else "UD", "m": m, "n": n,
            "k": k, "r": r, "tau2": w if decoder == "ld" else None,
            "wf": fs_workfactor(n, k, w), "keysize": ks, "gain": None}


def _split_costs(n, k, w):
    # l + log2 C(n,w) - log2 C(n-k, w-2p) - log2 C(k+l, 2p) for each
    # admissible p in turn, up to the first one 40 bits past the minimum;
    # p = 0 is always admissible, and w - 2p never leaves [0, n - k]
    if k <= 0 or w <= 0 or w >= n - k:
        raise ValueError("need k > 0 and 0 < w < n - k")
    lg, ln2 = math.lgamma, math.log(2)
    total = (lg(n + 1) - lg(w + 1) - lg(n - w + 1)) / ln2
    lg_nk = lg(n - k + 1)
    best = math.inf
    for p in range(w // 2 + 1):
        # l = log2 C((k + l)/2, p), iterated from l = 0
        lg_p, l = lg(p + 1), 0.0
        for _ in range(500):
            h = (k + l) / 2
            if h < p:
                break
            l, prev = (lg(h + 1) - lg_p - lg(h - p + 1)) / ln2, l
            if abs(l - prev) < 0.01:
                break
        if h < p or k + l < 2 * p:
            continue
        kl, wp = k + l, w - 2 * p
        val = (l + total
               - (lg_nk - lg(wp + 1) - lg(n - k - wp + 1)) / ln2
               - (lg(kl + 1) - lg(2 * p + 1) - lg(kl - 2 * p + 1)) / ln2)
        if val > best + 40:
            return  # past the minimum and diverging
        best = min(best, val)
        yield val


def rref_gauss_jordan(M):
    """Reduced row echelon form by plain Gauss-Jordan, one column at a time."""
    work = list(M.bits)
    pivots = []
    rank = 0
    for col in range(M.cols):
        bit = 1 << col
        sel = None
        for i in range(rank, M.rows):
            if work[i] & bit:
                sel = i
                break
        if sel is None:
            continue
        work[rank], work[sel] = work[sel], work[rank]
        for i in range(M.rows):
            if i != rank and work[i] & bit:
                work[i] ^= work[rank]
        pivots.append(col)
        rank += 1
        if rank == M.rows:
            break
    return BinMatrix(M.rows, M.cols, work), rank, pivots


def divmod_poly(f, g):
    """(quotient, remainder) as Polys, both built at every division."""
    if not g.c:
        raise ZeroDivisionError("polynomial division by zero")
    field = f.field
    exp, log = field.exp, field.log
    db = len(g.c) - 1
    llead = log[g.c[-1]]
    terms = [(j, log[b]) for j, b in enumerate(g.c[:-1]) if b]
    rem = list(f.c)
    quo = [0] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        a = rem[i]
        if a:
            lq = log[a] - llead  # may be negative: exp wraps
            base = i - db
            quo[base] = exp[lq]
            for j, lb in terms:
                rem[base + j] ^= exp[lq + lb]
            rem[i] = 0
    return Poly(field, quo), Poly(field, rem)


def poly_gcd_poly(f, g):
    """Monic greatest common divisor, Euclid on Poly quotient and remainder."""
    while g != Poly(g.field):
        f, g = g, divmod_poly(f, g)[1]
    return f.monic() if f != Poly(f.field) else f


def eea_stop_poly(G, T, bound):
    """gf2m.eea_stop on Poly objects, a quotient Poly and b update per
    step: the rows (a, b), a = b*T (mod G), before and at the first
    consecutive remainders whose degrees sum to at most bound."""
    field = G.field
    r0, r1 = G, T
    b0, b1 = Poly(field), Poly.one(field)
    while r0.degree + r1.degree > bound:  # NEG_INF once r1 = 0
        q, r2 = divmod_poly(r0, r1)
        r0, r1 = r1, r2
        b0, b1 = b1, b0 + q * b1
    return (r0, b0), (r1, b1)


def key_equation_kernel_poly(s, modulus, tau):
    """The kernel of sigma*s = sigma' (mod modulus), deg sigma <= tau, by
    dense elimination: column t is x^t + x^(tau+1) * (x^t*s + t*x^(t-1)
    mod modulus), with monic Poly pivots, for any modulus.  The oracle of
    decode._key_equation_kernel, which reads the kernel off the EEA."""
    field = modulus.field
    pivots = {}  # leading degree -> monic reduced column
    col = s  # x^t * s mod modulus
    for t in range(tau + 1):
        img = col + divmod_poly(Poly(field, [0] * (t - 1) + [1]),
                                modulus)[1] if t & 1 else col
        v = Poly(field, [0] * t + [1] + [0] * (tau - t) + list(img.c))
        while v.degree in pivots:
            v = v + pivots[v.degree].scale(v.c[-1])
        pivots[v.degree] = v.monic()
        col = divmod_poly(Poly(field, (0,) + col.c), modulus)[1]
    return [v for d, v in pivots.items() if d <= tau]


def span_echelon(polys):
    """The reduced echelon basis of the span of polys: one monic member
    per leading degree, with no other member's leading term."""
    rows = {}
    for p in polys:
        while p != Poly(p.field) and p.degree in rows:
            p = p + rows[p.degree].scale(p.c[-1])
        if p != Poly(p.field):
            rows[p.degree] = p.monic()
    for d in sorted(rows):  # low pivots first, so none comes back
        for e, q in rows.items():
            if e > d and q.c[d]:
                rows[e] = q + rows[d].scale(q.c[d])
    return sorted(rows.items())


def poly_eval(f, x0):
    """f(x0) by Horner's rule, one field multiplication per coefficient."""
    r = 0
    for a in reversed(f.c):
        r = f.field.mul(r, x0) ^ a
    return r


def encode(code, msg):
    """Codeword (as an n-bit int) for a k-bit message int.

    Bit j of the systematic codeword lands at position colperm[j].
    """
    colperm, A = code.systematic
    word, out = systematic_encode(A, msg), 0
    for j, p in enumerate(colperm):
        if word >> j & 1:
            out |= 1 << p
    return out


def verify_prop1(field, support, gpoly):
    """True iff Gamma(L, G) and Gamma(L, G^2) are the same code.

    Gamma(L, G^2) is always inside Gamma(L, G), since a sum that vanishes
    mod G^2 vanishes mod G, so equal dimension is equality.  build_code
    validates L and G; G^2 has the same roots, so it needs no checks, and
    its parity check comes from parity_bin_loop.
    """
    one = build_code(field, support, gpoly)
    g2 = gpoly.square()
    return one.k == GoppaCode(field, one.support, g2,
                              parity_bin_loop(one, g2)).k


def bit_tuple_key(n):
    """The order of decode's results: weight, then the word's n bits from
    bit 0 up, as a tuple."""
    def key(pair):
        c, w = pair
        return (w, tuple(c >> j & 1 for j in range(n)))
    return key


def sphere_oracle(code, y, tau):
    """Brute-force list of all codewords within distance tau of y."""
    n = code.n
    tau = min(tau, n)
    patterns = sum(math.comb(n, i) for i in range(tau + 1))
    by_pattern = patterns <= 10 ** 7
    by_codeword = code.k <= 20
    if not by_pattern and not by_codeword:
        raise CapacityError("both enumeration bounds exceeded")
    out = []
    if by_codeword and (not by_pattern or (1 << code.k) <= patterns):
        rows = [encode(code, 1 << i) for i in range(code.k)]
        word = 0
        if (word ^ y).bit_count() <= tau:
            out.append((word, (word ^ y).bit_count()))
        for i in range(1, 1 << code.k):
            word ^= rows[(i & -i).bit_length() - 1]
            dist = (word ^ y).bit_count()
            if dist <= tau:
                out.append((word, dist))
    else:
        for w in range(tau + 1):
            for positions in itertools.combinations(range(n), w):
                word = y
                for p in positions:
                    word ^= 1 << p
                if code.parity_bin.mul_vec(word) == 0:
                    out.append((word, w))
    return DecodeResult(tuple(sorted(out, key=bit_tuple_key(n))))


def public_offset(kp):
    """Where kp's key file holds its public part: past the 28-byte
    header, the support and G."""
    return 28 + (kp.n * kp.m + 7) // 8 + ((kp.r + 1) * kp.m + 7) // 8


def stored_public(kp):
    """kp's public part as its key file stores it (dyadic: compact)."""
    return kp.to_bytes()[public_offset(kp):]

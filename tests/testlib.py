"""Helpers that only the tests use, kept out of the package.

Field division and powers, polynomial powers mod G, exhaustive minimum
distance, a few BinMatrix constructors and reshapes, and the loop
references that the package's table-driven kernels are checked against:
``dyadic.xor_permute``, the GF(2) parity check, the syndrome, the locator
root search and the square root of x mod G.
"""

from goppacrypt.binmat import BinMatrix, rref
from goppacrypt.goppa import CapacityError, syndrome_inverses
from goppacrypt.gf2m import Poly


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
        word ^= code.gen.row((i & -i).bit_length() - 1)
        w = word.bit_count()
        if w < best:
            best = w
    return best


def identity(n):
    return BinMatrix(n, n, [1 << i for i in range(n)])


def from_entries(entries):
    """BinMatrix from an iterable of 0/1 row iterables."""
    rows = [sum(1 << j for j, e in enumerate(row) if e & 1) for row in entries]
    cols = max((len(row) for row in entries), default=0)
    return BinMatrix(len(rows), cols, rows)


def transpose(M):
    cols = [0] * M.cols
    for i, r in enumerate(M.bits):
        while r:
            low = r & -r
            cols[low.bit_length() - 1] |= 1 << i
            r ^= low
    return BinMatrix(M.cols, M.rows, cols)


def vstack(A, B):
    if A.cols != B.cols:
        raise ValueError("column count mismatch")
    return BinMatrix(A.rows + B.rows, A.cols, list(A.bits) + list(B.bits))


def xor_permute_bitloop(bits, p, r):
    """Output bit j is input bit j xor p, one bit at a time."""
    out = 0
    for j in range(r):
        if bits >> (j ^ p) & 1:
            out |= 1 << j
    return out


def parity_bin_loop(code):
    """GF(2) parity check rows, one bit per support point."""
    field, support = code.field, code.support
    row = [field.inv(code.gpoly.eval(a)) for a in support]
    bits = []
    for _ in range(code.r):
        for beta in range(field.m):
            bits.append(sum((v >> beta & 1) << j for j, v in enumerate(row)))
        row = [field.mul(v, a) for v, a in zip(row, support)]
    return BinMatrix(len(bits), code.n, bits)


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


def locator_roots_horner(code, sigma):
    """Mask of the support points where sigma vanishes, one eval each."""
    return sum(1 << j for j, a in enumerate(code.support)
               if sigma.eval(a) == 0)


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
    irreducible, and a random support of n points that includes 0."""
    from goppacrypt.gf2m import is_squarefree, make_field
    from goppacrypt.goppa import build_code
    field = make_field(m)
    while True:
        g = Poly(field, [rng.randrange(1, field.order)]
                 + [rng.randrange(field.order) for _ in range(r - 1)]
                 + [1 if monic else rng.randrange(2, field.order)])
        if is_squarefree(g):
            break
    support = [0]
    while len(support) < n:
        a = rng.randrange(1, field.order)
        if a not in support and g.eval(a):
            support.append(a)
    rng.shuffle(support)
    return build_code(field, support, g)

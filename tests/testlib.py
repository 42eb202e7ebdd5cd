"""Helpers that only the tests use, kept out of the package.

Field division and powers, polynomial powers mod G, exhaustive minimum
distance, a few BinMatrix constructors and reshapes, and the bit-loop
reference for ``dyadic.xor_permute``.
"""

from goppacrypt.binmat import BinMatrix
from goppacrypt.goppa import CapacityError
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

"""Binary Goppa code construction, encoding and syndromes.

A code Gamma(L, G) over GF(2^m) is the set of binary words c with
sum_j c_j/(x - L_j) = 0 mod G.  A code object holds the support, G and
one bit-sliced table, one n-bit int per row, that every decode reads:
build_code validates (L, G) and builds the alternant table
L_j^t / G(L_j), t < r, and dyadic.cauchy_code the Cauchy table
1/(z_i + L_j) of G's roots z_i.  Syndromes are parities of its rows
against y, and syndrome_poly gives s mod G from either, which is all
that decoding reads.  A code's systematic form (colperm, A) makes
[I_k | A] a generator on the column order colperm, from one elimination
of the table (for a dyadic key, signature_to_code's, on a rotated
support).  Keys store the support in that order: their [I_k | A] has no
column order.
"""

import struct
from functools import reduce
from operator import xor

from .gf2m import Poly, is_squarefree
from .binmat import BinMatrix, rref, transpose


class CodeConstructionError(ValueError):
    pass


class CapacityError(RuntimeError):
    """An exhaustive computation would exceed its tractability guard."""


# byte -> ASCII "0"/"1" of its bit b: translate() turns a byte lane into
# the base-2 digits of one bit slice
_BIT_DIGITS = tuple(bytes(0x30 | v >> b & 1 for v in range(256))
                    for b in range(8))


def _bit_slices(values, m):
    """m ints; bit j of the b-th is bit b of values[j]."""
    # two little-endian bytes per value, the highest position first, as
    # int(..., 2) reads it; byte lane 0 holds bits 0-7, lane 1 bits 8-15
    raw = struct.pack("<%dH" % len(values), *reversed(values))
    return [int(raw[b >> 3::2].translate(_BIT_DIGITS[b & 7]), 2)
            for b in range(m)]


class GoppaCode:
    """Immutable code object, from build_code or dyadic.cauchy_code.

    parity_bin is its one table: G's alternant table, or the Cauchy table
    of G's roots, a tuple, if roots is given.  A caller that holds the
    systematic form (colperm, A), colperm a tuple, passes it; otherwise
    one elimination of parity_bin builds it on first use.
    """

    __slots__ = ("field", "support", "gpoly", "n", "r", "parity_bin",
                 "roots", "_systematic")

    def __init__(self, field, support, gpoly, parity_bin, roots=None,
                 systematic=None):
        self.field = field
        self.support = tuple(support)
        self.gpoly = gpoly
        self.n = len(self.support)
        self.r = gpoly.degree
        self.parity_bin = parity_bin
        self.roots = roots
        self._systematic = systematic

    @property
    def systematic(self):
        """(colperm, A) with [I_k | A] a generator on the column order colperm.

        colperm is the free columns, then the pivots, of the RREF R of
        parity_bin, and row i of A is R's i-th free column, read on the
        pivots.
        """
        if self._systematic is None:
            R, rank, pivots = rref(self.parity_bin)
            free = sorted(set(range(self.n)).difference(pivots))
            cols = transpose(R).bits
            self._systematic = (tuple(free + pivots), BinMatrix(
                len(free), rank, [cols[c] for c in free]))
        return self._systematic

    @property
    def k(self):
        return self.systematic[1].rows

    def __repr__(self):
        # k would run the elimination behind systematic
        return "GoppaCode(m=%d, n=%d, r=%d)" % (self.field.m, self.n, self.r)


def build_code(field, support, gpoly):
    """Construct Gamma(L, G); raises CodeConstructionError on bad inputs."""
    support = tuple(support)
    n = len(support)
    r = gpoly.degree
    if not isinstance(r, int) or r < 1:
        raise CodeConstructionError("Goppa polynomial must have degree >= 1")
    if n < 1 or n > field.order:
        raise CodeConstructionError("support size out of range")
    for v in support:
        if not 0 <= v < field.order:
            raise CodeConstructionError("support element outside the field")
    if len(set(support)) != n:
        raise CodeConstructionError("repeated support element")
    if not is_squarefree(gpoly):
        raise CodeConstructionError("Goppa polynomial is not square-free")
    values = gpoly.eval_all(support)
    if 0 in values:
        raise CodeConstructionError("support element is a root of G")
    # the alternant table: row t holds L_j^t / G(L_j)
    exp, log = field.exp, field.log
    logs = [log[a] for a in support]  # None at a = 0
    row, bits = [field.inv(v) for v in values], []
    for _ in range(r):
        bits += _bit_slices(row, field.m)
        row = [0 if la is None else exp[log[v] + la]
               for v, la in zip(row, logs)]
    return GoppaCode(field, support, gpoly, BinMatrix(len(bits), n, bits))


def systematic_encode(A, msg):
    """Codeword msg | (msg A) << k of [I_k | A], as an n-bit int."""
    if msg < 0 or msg >> A.rows:
        raise ValueError("message does not fit in %d bits" % A.rows)
    red = 0
    for i, row in enumerate(A.bits):
        if msg >> i & 1:
            red ^= row
    return msg | red << A.rows


def _syndromes(code, y):
    """The r field values of y against the code's table: the alternant
    syndromes S_t = sum_j y_j L_j^t / G(L_j), or the values s(z_i)."""
    if y < 0 or y >> code.n:
        raise ValueError("received word does not fit in %d bits" % code.n)
    par = code.parity_bin.mul_vec(y)  # bit t*m + beta: beta of value t
    m = code.field.m
    return [par >> t * m & (1 << m) - 1 for t in range(code.r)]


def syndrome_poly(code, y):
    """s(x) = sum over set bits j of y of 1/(x - L_j), mod G.

    From the alternant syndromes, 1/(x - a) = (G(x) - G(a)) / ((x - a) G(a))
    mod G gives s by _fold; from the values s(z_i), s is their
    interpolation at the roots.
    """
    s = _syndromes(code, y)
    return _interpolate(code, s) if code.roots else _fold(code, s)


def _interpolate(code, vals):
    """The polynomial of degree < r with value vals[i] at root z_i, by
    Lagrange: sum_i vals[i] G(x)/((x + z_i) G_1), as G' = G_1 at every
    root, which is _fold of the power sums of vals at the roots."""
    field, G = code.field, code.gpoly
    exp, log = field.exp, field.log
    lz, sums = [log[z] for z in code.roots], []  # None at z = 0
    for _ in lz:
        sums.append(reduce(xor, vals))
        vals = [exp[log[v] + lx] if v and lx is not None else 0
                for v, lx in zip(vals, lz)]
    return _fold(code, sums).scale(field.inv(G.c[1]))


def _fold(code, sums):
    """sum_i x^i sum_(k>i) G_k S_(k-1-i), from S_t for t < r: for
    S_t = sum_j v_j a_j^t, that is sum_j v_j (G(x) - G(a_j))/(x - a_j)."""
    field = code.field
    exp, log = field.exp, field.log
    lead = [log[c] for c in code.gpoly.c[1:]]  # log G_k at k - 1; None at 0
    acc = [0] * len(lead)
    for t, st in enumerate(sums):
        if st:
            ls = log[st]
            for i, lm in enumerate(lead[t:]):
                if lm is not None:
                    acc[i] ^= exp[ls + lm]
    return Poly(field, acc)

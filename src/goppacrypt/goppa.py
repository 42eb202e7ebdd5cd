"""Binary Goppa code construction, encoding and syndromes.

A code Gamma(L, G) over GF(2^m) is the set of binary words c with
sum_j c_j/(x - L_j) = 0 mod G.  A code object holds the support, G and
the per-modulus tables that decoding needs; build_code validates them and
does no matrix work.  Decoding works on one bit-sliced table per modulus
M: the alternant matrix H[t][j] = L_j^t / M(L_j), t < deg M, expanded
over GF(2), one n-bit int per row.  Syndromes are parities of its rows
against the received word, and for M = G it is the GF(2) parity check.
A code's systematic form (colperm, A) makes [I_k | A] a generator on
the column order colperm; dyadic codes are built with it, others get it
from one elimination of the parity check on first use.  Keys store the
support in that order, so their [I_k | A] needs no column order.
"""

import struct

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
    """Immutable code object; see build_code for the canonical constructor.

    A caller that already holds the systematic form (colperm, A), colperm
    a tuple, passes it; otherwise one elimination of parity_bin builds it
    on first use.
    """

    __slots__ = ("field", "support", "gpoly", "n", "r",
                 "_systematic", "_cache")

    def __init__(self, field, support, gpoly, systematic=None):
        self.field = field
        self.support = tuple(support)
        self.gpoly = gpoly
        self.n = len(self.support)
        self.r = gpoly.degree
        self._systematic = systematic
        self._cache = {}

    def alternant(self, modulus):
        """Bit slices of H[t][j] = L_j^t / M(L_j) for t < deg M, M = modulus.

        A BinMatrix whose row t*m + beta is bit beta of row t of H (alpha^0
        first).  Built once per modulus and kept with the code.
        """
        key = ("alternant", modulus.c)  # over self.field, c names M
        table = self._cache.get(key)
        if table is None:
            field = self.field
            exp, log = field.exp, field.log
            logs = [log[a] for a in self.support]  # None at a = 0
            row = [field.inv(v) for v in self._values(modulus)]
            bits = []
            for _ in range(modulus.degree):
                bits += _bit_slices(row, field.m)
                row = [0 if la is None else exp[log[v] + la]
                       for v, la in zip(row, logs)]
            table = self._cache[key] = BinMatrix(len(bits), self.n, bits)
        return table

    def _values(self, modulus):
        """M(L_j) for every support point j, evaluated once per modulus."""
        key = ("values", modulus.c)
        values = self._cache.get(key)
        if values is None:
            values = self._cache[key] = modulus.eval_all(self.support)
        return values

    @property
    def parity_bin(self):
        """GF(2) parity check: the alternant table of G."""
        return self.alternant(self.gpoly)

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
    code = GoppaCode(field, support, gpoly)
    if 0 in code._values(gpoly):  # alternant(G) reuses these values
        raise CodeConstructionError("support element is a root of G")
    return code


def systematic_encode(A, msg):
    """Codeword msg | (msg A) << k of [I_k | A], as an n-bit int."""
    if msg < 0 or msg >> A.rows:
        raise ValueError("message does not fit in %d bits" % A.rows)
    red = 0
    for i, row in enumerate(A.bits):
        if msg >> i & 1:
            red ^= row
    return msg | red << A.rows


def syndrome_poly(code, y, modulus):
    """s(x) = sum over set bits j of y of 1/(x - L_j), mod modulus.

    The alternant syndromes S_t = sum_j y_j L_j^t / M(L_j) are parities
    of the rows of code.alternant(M) against y, and
    1/(x - a) = (M(x) - M(a)) / ((x - a) M(a)) mod M turns them into
    s_i = sum over k > i of M_k S_(k-1-i).
    """
    if y < 0 or y >> code.n:
        raise ValueError("received word does not fit in %d bits" % code.n)
    field = code.field
    exp, log = field.exp, field.log
    m, d = field.m, modulus.degree
    par = code.alternant(modulus).mul_vec(y)  # bit t*m + beta: beta of S_t
    lead = [log[c] for c in modulus.c[1:]]  # log M_k at k - 1; None at 0
    mask = (1 << m) - 1
    acc = [0] * d
    for t in range(d):
        st = par >> (t * m) & mask
        if st:
            ls = log[st]
            for i, lm in enumerate(lead[t:]):
                if lm is not None:
                    acc[i] ^= exp[ls + lm]
    return Poly(field, acc)

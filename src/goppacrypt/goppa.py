"""Binary Goppa code construction and encoding.

A code Gamma(L, G) over GF(2^m) is the set of binary words c with
sum_j c_j/(x - L_j) = 0 mod G.  A code object holds the support, G and
the syndrome caches that decoding needs; build_code validates them and
does no matrix work.  The parity check, in alternant form
H[i][j] = L_j^i / G(L_j) expanded over GF(2), and the generator, a
systematic basis of its right null space, are built on first use.
"""

from .gf2m import Poly, is_squarefree
from .binmat import BinMatrix, null_space


class CodeConstructionError(ValueError):
    pass


class CapacityError(RuntimeError):
    """An exhaustive computation would exceed its tractability guard."""


class GoppaCode:
    """Immutable code object; see build_code for the canonical constructor.

    A caller that already holds a generator passes it with its column
    order; otherwise one elimination of parity_bin builds both.
    """

    __slots__ = ("field", "support", "gpoly", "n", "r",
                 "_parity_bin", "_gen", "_colperm", "_syn_cache")

    def __init__(self, field, support, gpoly, gen=None, colperm=None):
        self.field = field
        self.support = tuple(support)
        self.gpoly = gpoly
        self.n = len(self.support)
        self.r = gpoly.degree
        self._parity_bin = None
        self._gen = gen
        self._colperm = None if colperm is None else tuple(colperm)
        self._syn_cache = {}

    @property
    def parity_bin(self):
        """GF(2) expansion: entry row i becomes m rows, alpha^0 first."""
        if self._parity_bin is None:
            field, support = self.field, self.support
            row = [field.inv(self.gpoly.eval(a)) for a in support]
            bits = []
            for _ in range(self.r):
                for beta in range(field.m):
                    bits.append(sum((v >> beta & 1) << j
                                    for j, v in enumerate(row)))
                row = [field.mul(v, a) for v, a in zip(row, support)]
            self._parity_bin = BinMatrix(len(bits), self.n, bits)
        return self._parity_bin

    @property
    def gen(self):
        if self._gen is None:
            self._gen = null_space(self.parity_bin)
            # the free columns, then the pivots: a basis row's top set bit
            # is its free column, as every pivot it touches lies left of it
            free = [v.bit_length() - 1 for v in self._gen.bits]
            self._colperm = tuple(free) + tuple(sorted(
                set(range(self.n)).difference(free)))
        return self._gen

    @property
    def colperm(self):
        self.gen  # a generator built here brings its column order along
        return self._colperm

    @property
    def k(self):
        return self.gen.rows

    def __repr__(self):
        return "GoppaCode(m=%d, n=%d, k=%d, r=%d)" % (
            self.field.m, self.n, self.k, self.r)


def build_code(field, support, gpoly, require_squarefree=True):
    """Construct Gamma(L, G); raises CodeConstructionError on bad inputs.

    require_squarefree=False admits moduli like G^2 (used when comparing
    Gamma(L, G) with Gamma(L, G^2); the square-free requirement applies
    to the Goppa polynomial proper, not to every decoding modulus).
    """
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
    if require_squarefree and not is_squarefree(gpoly):
        raise CodeConstructionError("Goppa polynomial is not square-free")
    if any(gpoly.eval(a) == 0 for a in support):
        raise CodeConstructionError("support element is a root of G")
    return GoppaCode(field, support, gpoly)


def encode(code, msg):
    """Codeword (as an n-bit int) for a k-bit message int."""
    if msg < 0 or msg >> code.k:
        raise ValueError("message does not fit in %d bits" % code.k)
    word = 0
    u = 0
    while msg:
        if msg & 1:
            word ^= code.gen.row(u)
        msg >>= 1
        u += 1
    return word


def _inv_x_minus(modulus, a):
    # 1/(x + a) mod modulus = (modulus(x) + modulus(a)) / (x + a), scaled
    # by 1/modulus(a); the quotient comes from synthetic division.
    field = modulus.field
    va = modulus.eval(a)
    quot = [0] * modulus.degree
    acc = 0
    for i in range(modulus.degree, 0, -1):
        acc = field.mul(acc, a) ^ modulus[i]
        quot[i - 1] = acc
    scale = field.inv(va)
    return Poly(field, [field.mul(scale, c) for c in quot])


def syndrome_inverses(code, modulus):
    """Cached per-position inverses 1/(x - L_j) mod modulus."""
    cache = code._syn_cache.get(modulus)
    if cache is None:
        cache = tuple(_inv_x_minus(modulus, a) for a in code.support)
        code._syn_cache[modulus] = cache
    return cache


def syndrome_poly(code, y, modulus):
    """s(x) = sum over set bits j of y of 1/(x - L_j), mod modulus."""
    if y < 0 or y >> code.n:
        raise ValueError("received word does not fit in %d bits" % code.n)
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


def verify_prop1(field, support, gpoly):
    """True iff Gamma(L, G) and Gamma(L, G^2) are the same code.

    Checked as equal dimension plus mutual parity orthogonality, which
    pins equality of the two row spaces' null spaces.
    """
    if not is_squarefree(gpoly):
        raise CodeConstructionError("Goppa polynomial is not square-free")
    one = build_code(field, support, gpoly)
    two = build_code(field, support, gpoly.square(), require_squarefree=False)
    if one.k != two.k:
        return False
    for i in range(one.k):
        if two.parity_bin.mul_vec(one.gen.row(i)):
            return False
    for i in range(two.k):
        if one.parity_bin.mul_vec(two.gen.row(i)):
            return False
    return True


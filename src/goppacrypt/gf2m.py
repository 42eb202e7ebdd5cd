"""GF(2^m) arithmetic and the univariate polynomial ring over it.

Field elements are plain m-bit ints in polynomial basis: bit i is the
coefficient of x^i in the residue modulo the field's modulus.  Arithmetic
is table-driven.  Each field holds an antilog table ``exp`` and a ``log``
table to an explicitly chosen generator, the smallest element of order
2^m - 1; the modulus itself need not be primitive (for m = 8 the smallest
one is 0x11b, where x has order 51).  ``exp`` holds two whole periods, so
``log[a] + log[b]`` indexes it with no modulo, and so does a difference of
two logs, as a negative index counted from the end.  The tables are built
by shift-and-add once per (m, modulus), when a field is first constructed.
The polynomial hot loops look up the logs of their fixed operand once per
call and index the tables directly.  Polynomials are immutable coefficient
tuples, lowest degree first, with the zero polynomial carrying degree
minus-infinity.  Division runs on coefficient lists in one routine,
_reduce, which serves mod, a remainder-only Euclid for square-freeness
and irreducibility, the locator split in decoding, and eea_stop, the one
EEA: it stops at the first two consecutive remainders whose degrees sum
to at most a bound, which inverses set to -1 (run to the end) and the
key equation to deg G, and keeps only each quotient's log terms to
update its multiplier.  No step builds a Poly.  eval_all is the one
evaluator: it evaluates at many points in one pass, one Horner step per
coefficient across all of them.  Modular square roots, for the key
equation, use no linear algebra: the square root of x mod G is G0/G1,
where G = G0^2 + x*G1^2.  Irreducibility is Ben-Or's test, squaring
packed residues by XORs of rows alpha^beta x^(2i) mod G; exact like
Rabin's test, it decides every G alike, so seeded draws are unchanged.
"""

import functools

NEG_INF = float("-inf")


def _gf2_deg(p):
    return p.bit_length() - 1


def _gf2_mod(a, b):
    #  remainder of carry-less division in GF(2)[x]
    db = _gf2_deg(b)
    while _gf2_deg(a) >= db:
        a ^= b << (_gf2_deg(a) - db)
    return a


def _gf2_irreducible(p):
    """Trial division by every poly of degree 1..deg(p)//2."""
    d = _gf2_deg(p)
    if d < 1:
        return False
    for q in range(2, 1 << (d // 2 + 1)):
        if _gf2_mod(p, q) == 0:
            return False
    return True


def _gf2_mulmod(a, b, m, modulus):
    #  shift-and-add product in GF(2)[x]/(modulus); cost grows with b's bits
    r = 0
    top = 1 << m
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= modulus
    return r


@functools.lru_cache(maxsize=32)
def _field_tables(m, modulus):
    """(generator, exp, log) of GF(2)[x]/(modulus).

    The generator is the smallest element of order 2^m - 1: each candidate's
    powers are walked until they return to 1, and the first walk that
    covers the whole multiplicative group is the antilog table.  log[0] is
    None, since zero has no logarithm.
    """
    if _gf2_deg(modulus) != m or not _gf2_irreducible(modulus):
        raise ValueError("modulus must be irreducible of degree m")
    order = (1 << m) - 1
    for g in range(2, 1 << m):
        exp = [1]
        v = g
        while v != 1:
            exp.append(v)
            v = _gf2_mulmod(v, g, m, modulus)
        if len(exp) == order:
            break
    log = [None] * (1 << m)
    for i, v in enumerate(exp):
        log[v] = i
    return g, tuple(exp + exp), tuple(log)


@functools.lru_cache(maxsize=None)
def make_field(m):
    """Field with the lexicographically smallest irreducible modulus of degree m."""
    if not 2 <= m <= 16:
        raise ValueError("extension degree m must be in 2..16")
    for low in range(1, 1 << m, 2):  # constant term must be 1
        p = (1 << m) | low
        if _gf2_irreducible(p):
            return Field(m, p)
    raise AssertionError("no irreducible polynomial found")  # unreachable


class Field:
    """GF(2^m) with a fixed degree-m irreducible modulus over GF(2)."""

    __slots__ = ("m", "modulus", "order", "generator", "exp", "log")

    def __init__(self, m, modulus):
        #  bound m first: it sizes the trial division and the tables
        if not 2 <= m <= 16:
            raise ValueError("extension degree m must be in 2..16")
        self.generator, self.exp, self.log = _field_tables(m, modulus)
        self.m = m
        self.modulus = modulus
        self.order = 1 << m

    def __eq__(self, other):
        return isinstance(other, Field) and self.modulus == other.modulus

    def __hash__(self):
        return hash(("Field", self.modulus))

    def __repr__(self):
        return "Field(m=%d, modulus=0x%x)" % (self.m, self.modulus)

    def mul(self, a, b):
        if a and b:
            log = self.log
            return self.exp[log[a] + log[b]]
        return 0

    def inv(self, a):
        if not 0 < a < self.order:
            raise ZeroDivisionError("inverse of zero (or out-of-range element)")
        return self.exp[-self.log[a]]

    def sqrt(self, a):
        #  squaring doubles the log; halve it modulo the odd group order
        if not a:
            return 0
        lg = self.log[a]
        if lg & 1:
            lg += self.order - 1
        return self.exp[lg >> 1]


class Poly:
    """Immutable polynomial over a Field, coefficients lowest degree first."""

    __slots__ = ("field", "c")

    def __init__(self, field, coeffs=()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.field = field
        self.c = tuple(c)

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def x(cls, field):
        return cls(field, (0, 1))

    @classmethod
    def from_roots(cls, field, roots):
        g = cls.one(field)
        for z in roots:
            g = g * cls(field, (z, 1))
        return g

    @property
    def degree(self):
        return len(self.c) - 1 if self.c else NEG_INF

    def __getitem__(self, i):
        return self.c[i] if 0 <= i < len(self.c) else 0

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field == other.field
                and self.c == other.c)

    def __hash__(self):
        return hash((self.field.modulus, self.c))

    def __repr__(self):
        return "Poly(%r)" % (list(self.c),)

    def __add__(self, other):
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] ^= v
        return Poly(self.field, out)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other):
        if not self.c or not other.c:
            return Poly(self.field)
        exp, log = self.field.exp, self.field.log
        terms = [(j, log[b]) for j, b in enumerate(other.c) if b]
        out = [0] * (len(self.c) + len(other.c) - 1)
        for i, a in enumerate(self.c):
            if a:
                la = log[a]
                for j, lb in terms:
                    out[i + j] ^= exp[la + lb]
        return Poly(self.field, out)

    def __mod__(self, other):
        field = self.field
        return Poly(field, _reduce(list(self.c), other.c,
                                   field.exp, field.log))

    def scale(self, k):
        if not k:
            return Poly(self.field)
        exp, log = self.field.exp, self.field.log
        lk = log[k]
        return Poly(self.field, [exp[lk + log[a]] if a else 0 for a in self.c])

    def monic(self):
        if not self.c:
            return self
        return self.scale(self.field.inv(self.c[-1]))

    def eval_all(self, points):
        """The value at each of points, one Horner step per coefficient
        across all points.  A zero point steps by x = 1 until the last
        step, which multiplies by x = 0 and leaves the constant term."""
        c = self.c
        if len(c) < 2:
            return [c[0] if c else 0] * len(points)
        exp, log = self.field.exp, self.field.log
        logs = [log[a] if a else 0 for a in points]
        vals = [c[-1]] * len(logs)
        for a in c[-2:0:-1]:
            vals = [exp[log[v] + lx] ^ a if v else a
                    for v, lx in zip(vals, logs)]
        a = c[0]
        return [exp[log[v] + lx] ^ a if v and x else a
                for v, lx, x in zip(vals, logs, points)]

    def deriv(self):
        #  formal derivative in characteristic 2: even-degree terms vanish
        return Poly(self.field, [self.c[j + 1] if j % 2 == 0 else 0
                                 for j in range(len(self.c) - 1)])

    def square(self):
        #  Frobenius: (sum a_i x^i)^2 = sum a_i^2 x^(2i)
        exp, log = self.field.exp, self.field.log
        out = [0] * (2 * len(self.c) - 1 if self.c else 0)
        out[::2] = [exp[2 * log[a]] if a else 0 for a in self.c]
        return Poly(self.field, out)


# the set bits of each byte value, lowest first
_BIT_POSITIONS = tuple(tuple(b for b in range(8) if v >> b & 1)
                       for v in range(256))


def _reduce(rem, div, exp, log, quotient=None):
    """rem mod div on coefficient lists, in the log domain: the one
    division routine.  rem is reduced in place and returned trimmed; div
    must be trimmed.  Each quotient term, if asked for, is appended to
    the list quotient as (degree, log of its coefficient)."""
    if not div:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(div) - 1
    llead = log[div[-1]]
    terms = [(j, log[b]) for j, b in enumerate(div[:-1]) if b]
    for i in range(len(rem) - 1, db - 1, -1):
        a = rem[i]
        if a:
            lq = log[a] - llead  # may be negative: exp wraps
            base = i - db
            if quotient is not None:
                quotient.append((base, lq))
            for j, lb in terms:
                rem[base + j] ^= exp[lq + lb]
    del rem[db:]
    while rem and not rem[-1]:
        rem.pop()
    return rem


def _gcd(a, b, exp, log):
    """A greatest common divisor of coefficient lists a and b, not monic.

    Euclid on remainders alone: no quotient and no Poly per step.  Both
    lists are reduced in place; b must be trimmed.
    """
    while b:
        a, b = b, _reduce(a, b, exp, log)
    return a


def is_squarefree(f):
    """True iff gcd(f, f') is a nonzero constant: False for f = 0, True
    for a constant, whose derivative is 0."""
    field = f.field
    return len(_gcd(list(f.c), list(f.deriv().c), field.exp, field.log)) == 1


def poly_invmod(f, g):
    """Inverse of f modulo g, or None when gcd(f, g) is not constant."""
    (r, b), _ = eea_stop(g, f % g, -1)
    if r.degree != 0:
        return None
    return b.scale(f.field.inv(r.c[0]))


def eea_stop(G, T, bound):
    """The extended Euclidean algorithm on (G, T), stopped early: the one
    EEA loop.

    Its rows (a_k, b_k), from (G, 0) and (T, 1), have a_k = b_k*T
    (mod G) and, for deg T < deg G, deg b_k = deg G - deg a_(k-1).
    Returns rows k - 1 and k for the first k >= 1 with
    deg a_(k-1) + deg a_k <= bound.  With bound = -1 it runs until
    a_k = 0: a_(k-1) is then gcd(G, T) and b_k is G/gcd, up to
    constants.  Each step keeps only the quotient's log terms, to
    update b on lists.
    """
    field = G.field
    exp, log = field.exp, field.log
    r0, r1 = list(G.c), list(T.c)
    b0, b1 = [], [1]
    while r1 and len(r0) + len(r1) - 2 > bound:
        quotient, dq = [], len(r0) - len(r1)  # the quotient's degree
        r0, r1 = r1, _reduce(r0, r1, exp, log, quotient)
        # b0 + q*b1, sized for q*b1, since deg b grows at every step
        b2 = b0 + [0] * (dq + len(b1) - len(b0))
        terms = [(j, log[c]) for j, c in enumerate(b1) if c]
        for i, lq in quotient:
            for j, lb in terms:
                b2[i + j] ^= exp[lq + lb]
        b0, b1 = b1, b2
    return ((Poly(field, r0), Poly(field, b0)),
            (Poly(field, r1), Poly(field, b1)))


@functools.lru_cache(maxsize=64)
def _sqrt_x_mod(G):
    """Square root of x in GF(2^m)[x]/(G), for square-free G.

    Split G = G0^2 + x*G1^2 by coefficient-wise field square roots of its
    even and odd parts.  Then G0^2 = x*G1^2 (mod G), so sqrt(x) = G0/G1.
    G1 is invertible mod G exactly when G is square-free: its derivative
    is G1^2, so a repeated factor of G divides G1, and a common factor of
    G and G1 divides G0 too, hence appears squared in G.  The root is
    unique, since squaring is a bijection of the quotient ring.
    """
    field = G.field
    g0 = Poly(field, [field.sqrt(a) for a in G.c[0::2]])
    g1 = Poly(field, [field.sqrt(a) for a in G.c[1::2]])
    inv = poly_invmod(g1, G)
    if inv is None:
        raise ArithmeticError("square root of x failed; is G square-free?")
    return (g0 * inv) % G


def poly_sqrt_mod(t, G):
    """R with R^2 = t (mod G), for square-free G and any t: split t mod G
    as E(x^2) + x*O(x^2); then sqrt(t) = sqrt(E) + sqrt_x * sqrt(O), with
    coefficient-wise field square roots, is exact; see _sqrt_x_mod."""
    field = t.field
    t = t % G
    even = Poly(field, [field.sqrt(a) for a in t.c[0::2]])
    odd = Poly(field, [field.sqrt(a) for a in t.c[1::2]])
    return (even + _sqrt_x_mod(G) * odd) % G


def _squarer(G):
    """t -> t^2 mod G, G monic of degree r, on residues packed r lanes of m
    bits to an int: t_i^2 goes to lane 2i for 2i < r, else to the rows
    alpha^beta x^(2i) mod G that its set bits beta pick, made by passes of
    "times alpha": a shift, a mask and the modulus taps on every lane."""
    field, r = G.field, G.degree
    m, exp, log, lane = field.m, field.exp, field.log, field.order - 1
    width, taps = r * m, field.modulus ^ field.order
    top = ((1 << width) - 1) // lane << m - 1  # bit m - 1 of every lane

    def multiples(v):  # alpha^beta * v for beta < m, split at beta = 8
        out = [v]
        for _ in range(m - 1):  # times the taps lane by lane: no carry
            hi = out[-1] & top
            out.append((out[-1] ^ hi) << 1 ^ (hi >> m - 1) * taps)
        return out[:8], out[8:]
    # v = x^e mod G for e = r .. 2r - 2, from x^r = G - x^r
    low, high = multiples(sum(c << i * m for i, c in enumerate(G.c[:-1])))
    v, rows = low[0], []
    for e in range(r, 2 * r - 1):
        if not e & 1:
            rows.append((e // 2 * m,) + multiples(v))
        c, v = v >> width - m, v << m & (1 << width) - 1
        for b in _BIT_POSITIONS[c & 255]:
            v ^= low[b]
        for b in _BIT_POSITIONS[c >> 8]:
            v ^= high[b]
    spread = [(i * m, 2 * i * m) for i in range((r + 1) // 2)]

    def square(t):
        out = 0
        for s, d in spread:
            a = t >> s & lane
            if a:
                out |= exp[2 * log[a]] << d
        for s, lo, hi in rows:
            a = t >> s & lane
            if a:
                a = exp[2 * log[a]]
                for b in _BIT_POSITIONS[a & 255]:
                    out ^= lo[b]
                for b in _BIT_POSITIONS[a >> 8]:
                    out ^= hi[b]
        return out
    return square


def is_irreducible(G):
    """Ben-Or test for G over GF(2^m), q = 2^m: G of degree r is reducible
    iff it has an irreducible factor of degree i <= r/2, which divides
    x^(q^i) - x.  Exact like Rabin's test, it decides every G alike.  Each
    step i = 1..r/2 is m squarings by _squarer and one gcd, from x^(2^k) of
    degree below r, or x^q if less."""
    field, r = G.field, G.degree
    if r < 2:  # also the zero polynomial, of degree minus infinity
        return r == 1
    m, exp, log, lane = field.m, field.exp, field.log, field.order - 1
    square, j = _squarer(G.monic()), min(m, (r - 1).bit_length() - 1)
    t, lanes = 1 << (m << j), range(0, r * m, m)  # t = x^(2^j), packed
    for i in range(m, m * (r // 2) + 1, m):
        for _ in range(j, i):
            t = square(t)
        j, u = i, [t >> s & lane for s in lanes]  # t - x, shorter than G
        u[1] ^= 1
        while u and not u[-1]:
            u.pop()
        if len(_gcd(list(G.c), u, exp, log)) != 1:
            return False
    return True


def random_monic_irreducible(field, r, stream):
    """Draw monic irreducible polynomials of degree r from a seeded stream."""
    if r < 1:
        raise ValueError("degree must be at least 1")
    while True:
        coeffs = [stream.randbelow(field.order) for _ in range(r)] + [1]
        g = Poly(field, coeffs)
        if is_irreducible(g):
            return g

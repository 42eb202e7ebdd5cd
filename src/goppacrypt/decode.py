"""Error correction for binary Goppa codes.

One linear key equation, sigma*s = sigma' (mod G) for the syndrome s,
serves every radius and is the decoder's only contract.  Its kernel
comes from two rows of one EEA at any degree bound.  At r its
lowest-degree member is the locator of any codeword within r, which is
Patterson unique decoding; past r the kernel lists r+1 and r+2.
list_decode is the one entry for every radius; none past r + 2.

Syndromes and error-locator roots both come from the code's one
bit-sliced table, the alternant table of G or the Cauchy table of G's
roots, where the square root comes pointwise for every word.  A
polynomial's values over the support, divided by G, come off the table
as bit planes of row XORs, one set per kernel member for both its roots
(their OR) and its values (transposed back, plus the quotient by G).
"""

from collections import Counter, namedtuple

from .binmat import transpose
from .gf2m import _BIT_POSITIONS, Poly, _reduce, eea_stop, poly_sqrt_mod
from .goppa import CapacityError, _interpolate, _syndromes, syndrome_poly
from .security import radii


# list_decode decodes radii up to r + LD_REACH and refuses any beyond
LD_REACH = 2


class RadiusError(ValueError):
    pass


# candidates: a sorted tuple of (codeword, error_weight)
DecodeResult = namedtuple("DecodeResult", "candidates")


def _sorted_result(n, pairs):
    # by weight, then by the word's bits from bit 0 up: its n digits
    # reversed, read as an integer of the same length
    spec = "0%db" % n
    return DecodeResult(tuple(sorted(
        pairs, key=lambda p: (p[1], int(format(p[0], spec)[::-1], 2)))))


def _divmod(p, G):
    """(p // G, p mod G as a list), from _reduce's quotient terms."""
    exp, Q, terms = G.field.exp, [0] * (len(p.c) - len(G.c) + 1), []
    rho = _reduce(list(p.c), G.c, exp, G.field.log, terms)
    for d, lq in terms:
        Q[d] = exp[lq]
    return Poly(G.field, Q), rho


def _table_planes(code, p):
    """(Q, planes) for p = Q*G + rho, planes the m bit planes of
    sum_i c_i T_i over the table: c_i = rho_i on the alternant table, so
    that Q(L_j) + the values of planes are (p/G)(L_j); on the Cauchy
    table c_i = rho(z_i) and Q comes times G_1, for G_1 (p/G)(L_j), as
    G' = G_1.  A plane XORs the rows picked by bits of c_i * alpha^beta.
    """
    field, G = code.field, code.gpoly
    exp, log = field.exp, field.log
    Q, rho = _divmod(p, G)
    m, table = field.m, code.parity_bin.bits
    if code.roots:
        Q = Q.scale(G.c[1])
        rho = Poly(field, rho).eval_all(code.roots)
    planes = [0] * m
    unit = [log[1 << beta] for beta in range(m)]
    for i, c in enumerate(rho):
        if c:
            lc = log[c]
            for row, lu in zip(table[i * m:(i + 1) * m], unit):
                v = exp[lc + lu]  # c * alpha^beta
                for g in _BIT_POSITIONS[v & 255]:
                    planes[g] ^= row
                for g in _BIT_POSITIONS[v >> 8]:
                    planes[g + 8] ^= row
    return Q, planes


def _locator_roots(n, Q, planes):
    """Support positions where sigma vanishes, as an n-bit mask, from its
    (Q, planes) off _table_planes: for deg sigma <= r, Q is a constant q,
    and L_j is a root iff each plane holds q's bit at j."""
    if Q.degree > 0:
        raise ValueError("locator degree exceeds the degree of G")
    full, nonroots = (1 << n) - 1, 0
    for g, plane in enumerate(planes):
        nonroots |= plane ^ full if Q[0] >> g & 1 else plane
    return full ^ nonroots


def _apply_locator(y, sigma, roots):
    """Flip roots, the mask of sigma's roots for sigma a kernel member,
    in y; no (word, weight) pair unless it has deg sigma of them.  Then
    sigma'/sigma = sum 1/(x + L_j) over them is s_e, e the word with ones
    there, and sigma*s = sigma' with sigma a unit mod G (G(L_j) != 0)
    gives s = s_e: y + e is a codeword."""
    d = sigma.degree
    return ((y ^ roots, d),) if roots.bit_count() == d else ()


def list_decode(code, y, tau):
    """All codewords within distance tau of y: the one decoding entry.

    Every radius is one _linear_engine call at max(tau, r), cut to weight
    <= tau; unique decoding is list_decode(code, y, code.r), and below r
    only tau >= 0 is checked (d >= 2r + 1).  Beyond r, tau may reach the
    binary Johnson limit ceil(tau2) - 1, and the same key equation lists
    r+1 and r+2.

    Past r + 2 there is no engine, and CapacityError comes before any
    work.  Bivariate interpolation does not fill the gap on any code with
    n > m*r: over 864,456 shapes up to m = 16, no multiplicity pair up to
    50 gives a system of at most 20,000 GF(2) unknowns.
    """
    if tau < 0:
        raise RadiusError("radius %d is negative" % tau)
    if tau > code.r:
        try:
            limit = radii(code.n, code.r).ld_errors
        except ValueError:
            raise RadiusError("code too short for a real-valued list radius")
        if tau > limit:
            raise RadiusError("radius %d outside [0, %d]" % (tau, limit))
        if tau > code.r + LD_REACH:
            raise CapacityError("no decoder reaches radius tau = r + %d"
                                % (tau - code.r))
    res = _linear_engine(code, y, max(tau, code.r))
    return DecodeResult(tuple(p for p in res.candidates if p[1] <= tau))


def _linear_engine(code, y, tau):
    """Codewords within tau in [r, r + 2] from one linear key equation.

    A locator sigma satisfies sigma*s = sigma' (mod G), s the syndrome;
    the map has rank at most r, so for deg sigma <= tau the kernel has
    dimension at least tau - r + 1.  As S = P'/P for P the locator of a
    word of weight w in y's coset, sigma = A^2 + x*B^2 and P = C^2 + x*D^2
    give sigma*S - sigma' = (AD + BC)^2/P, and the square-free G divides
    it iff G | AD + BC, which makes the kernel mod G that mod G^2.  For
    w <= r and deg sigma <= r, deg(AD + BC) < r forces AD = BC, so
    sigma = u^2*P: the lowest-degree member, basis[0], is the locator of
    the codeword within r if there is one.  A codeword within 2r - tau is
    the only one (the minimum distance is at least 2r + 1).  The kernel
    has dimension tau - r + 1 unless basis[0] has degree <= 2r - tau (see
    _key_equation_kernel); any other dimension past that shortcut raises
    CapacityError.  One set of table planes per member serves both its
    roots and its values.  The roots of p + lambda*q share lambda = p/q,
    so a histogram of that ratio finds every member of a pencil with more
    than r roots: the points whose ratio is lambda or undefined.
    """
    r, field, n, L = code.r, code.field, code.n, code.support
    basis = _key_equation_kernel(code, y, tau)
    tables = [_table_planes(code, basis[0])]
    found = dict(_apply_locator(y, basis[0], _locator_roots(n, *tables[0])))
    if tau <= r or any(d <= 2 * r - tau for d in found.values()):
        return _sorted_result(n, found.items())
    if len(basis) != tau - r + 1:
        raise CapacityError("key equation kernel dimension %d" % len(basis))
    # p/G, times G_1 on the Cauchy table, has p's ratios and zeros
    tables += (_table_planes(code, b) for b in basis[1:])
    vals = [[v ^ w for v, w in zip(transpose(planes, n), Q.eval_all(L))]
            for Q, planes in tables]
    pencils = ([(basis[0], basis[1], _ratios(field, *vals))] if len(vals) == 2
               else _anchored_pencils(field, basis, vals, n - r))
    for p, q, keys in pencils:
        counts = Counter(keys)
        common = counts.pop(None, 0)  # roots of every member
        for lam in [lam for lam, k in counts.items() if k + common > r]:
            sigma = q if lam == field.order else p + q.scale(lam)
            roots = sum(1 << j for j, k in enumerate(keys)
                        if k == lam or k is None)
            found.update(_apply_locator(y, sigma, roots))
    return _sorted_result(n, found.items())


def _key_equation_kernel(code, y, tau):
    """Basis of {sigma : deg sigma <= tau, sigma*s = sigma' (mod G)}, s the
    syndrome of y, in increasing degree; empty when every nonzero member
    has degree above tau.

    Write sigma = A^2 + x*B^2; then sigma' = B^2, and the equation reads
    A^2*s = B^2*(x*s + 1).  For g = gcd(s, G) and M = G/g it holds iff
    B = g*B1 and A = B1*R (mod M), where R = g*sqrt(1/s + x) mod M.  The
    pairs (A, B1) form the lattice spanned by (M, 0) and (R, 1), and
    u*(A_1, B1_1) + v*(A_2, B1_2) gives u^2*sigma_1 + v^2*sigma_2.  As
    deg sigma = max(2 deg A, 2 deg B + 1), where the two never tie, the
    EEA on (M, R) reduces the lattice: its last row led by A and the next,
    the first with deg a_(k-1) + deg a_k <= r, led by B, give sigmas of
    degrees one even, one odd, summing to 2r + 1.  The x^(2j)*sigma_i of
    degree <= tau then have distinct degrees and span the kernel: its
    dimension is tau - r + 1 unless basis[0] has degree <= 2r - tau.

    On the Cauchy table R comes pointwise at G's roots z_i, 0 where
    s(z_i) = 0, and g collects those z_i.  Otherwise one EEA on (G, s)
    to the end gives g, M and, from g = b*s (mod G), 1/s = b/g (mod M).
    """
    G, field = code.gpoly, code.field
    x, g, M = Poly.x(field), Poly.one(field), G
    if code.roots:
        vals = _syndromes(code, y)  # the values s(z_i)
        R = _interpolate(code, [field.sqrt(field.inv(v) ^ z) if v else 0
                                for v, z in zip(vals, code.roots)])
        if not all(vals):
            zeros = {z for v, z in zip(vals, code.roots) if not v}
            g = Poly.from_roots(field, zeros)
            M = _divmod(G, g)[0]
            R = (g * R) % M
    else:
        (g, b), (_, M) = eea_stop(G, syndrome_poly(code, y), -1)
        # g*sqrt(1/s + x) = sqrt(g*b + x*g^2) mod M; s = 0 leaves M = 1
        R = poly_sqrt_mod(g * b + x * g.square(), G) % M
    # sigma only for the rows whose sigma-degree is at most tau
    sigmas = [a.square() + x * (g * b).square()
              for a, b in eea_stop(M, R, code.r)
              if max(2 * a.degree, 2 * (g.degree + b.degree) + 1) <= tau]
    return sorted((Poly(field, (0,) * 2 * j + sigma.c) for sigma in sigmas
                   for j in range((tau - sigma.degree) // 2 + 1)),
                  key=lambda p: p.degree)


def _ratios(field, ps, qs):
    """p/q per point: field.order where only q vanishes, None for both."""
    exp, log, inf = field.exp, field.log, field.order
    return [(exp[log[p] - log[q]] if p else 0) if q else (inf if p else None)
            for p, q in zip(ps, qs)]


def _anchored_pencils(field, basis, vals, count):
    """Pencils {sigma in span(b_0, b_1, b_2) : sigma(L_j) = 0}, spanned by
    b_h + (b_h/b_i)(L_j)*b_i for b_i(L_j) != 0 and the other two h.  The
    anchors j are the first n - r points off the common zeros of all three
    b (roots of every member), so any r + 1 roots meet them.
    """
    mul = field.mul
    for j in [j for j, v in enumerate(zip(*vals)) if any(v)][:count]:
        i = next(i for i in range(3) if vals[i][j])
        inv = field.inv(vals[i][j])
        pair = [(h, mul(vals[h][j], inv)) for h in range(3) if h != i]
        yield tuple(basis[h] + basis[i].scale(c) for h, c in pair) + (
            _ratios(field, *([v ^ mul(c, w) for v, w in zip(vals[h], vals[i])]
                             for h, c in pair)),)

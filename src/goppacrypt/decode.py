"""Error correction for binary Goppa codes.

Three layers: Patterson unique decoding up to r errors, a decoder on the
degree-2r view (Gamma(L,G) = Gamma(L,G^2)) that backs it up, and list
decoding at radii r+1 and r+2 from one linear key equation.  list_decode
is the one entry for every radius; no radius past r + 2 is decoded.

Syndromes and error-locator roots both come from the code's one
bit-sliced table, the alternant table of G or the Cauchy table of G's
roots, where Patterson runs pointwise; s mod G^2 is derived from s mod
G.  The roots of a locator of degree <= r over the whole support are one
n-bit mask of table row XORs.
"""

from collections import Counter, namedtuple

from .gf2m import Poly, _reduce, eea_stop, poly_invmod, poly_sqrt_mod
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


# the set bits of each byte value, lowest first
_BIT_POSITIONS = tuple(tuple(b for b in range(8) if v >> b & 1)
                       for v in range(256))


def _locator_roots(code, sigma):
    """Support positions where sigma vanishes, as an n-bit mask.

    Needs deg sigma <= r.  Then sigma = q*G + rho with a constant q, and
    sigma(L_j)/G(L_j) = q + sum_i c_i T[i][j], c_i = rho_i on the
    alternant table; on the Cauchy table, times G' = G_1, it is
    G_1 q + sum_i rho(z_i)/(z_i + L_j).  Output bit slices XOR the rows
    picked by the bits of c_i * alpha^beta; L_j is a root iff all are 0.
    """
    field, G = code.field, code.gpoly
    exp, log = field.exp, field.log
    quotient = []
    rho = _reduce(list(sigma.c), G.c, exp, log, quotient)
    if any(i for i, _ in quotient):
        raise ValueError("locator degree exceeds the degree of G")
    q = exp[quotient[0][1]] if quotient else 0
    m, table = field.m, code.parity_bin.bits
    if code.roots:
        q = field.mul(q, G.c[1])
        rho = Poly(field, rho).eval_all(code.roots)
    full = (1 << code.n) - 1
    out = [full if q >> g & 1 else 0 for g in range(m)]
    unit = [log[1 << beta] for beta in range(m)]
    for i, c in enumerate(rho):
        if c:
            lc = log[c]
            for row, lu in zip(table[i * m:(i + 1) * m], unit):
                v = exp[lc + lu]  # c * alpha^beta
                for g in _BIT_POSITIONS[v & 255]:
                    out[g] ^= row
                if v > 255:
                    for g in _BIT_POSITIONS[v >> 8]:
                        out[g + 8] ^= row
    nonroots = 0
    for sl in out:
        nonroots |= sl
    return full ^ nonroots


def _apply_locator(code, y, sigma, roots=None):
    """Flip the locator's roots in y (a mask, if the caller holds it);
    empty result on any inconsistency."""
    roots = _locator_roots(code, sigma) if roots is None else roots
    if roots.bit_count() != sigma.degree:
        return DecodeResult(())
    word = y ^ roots
    # s = 0 iff every syndrome is: s_i = sum_(k>i) G_k S_(k-1-i), or s(z_i)
    if code.parity_bin.mul_vec(word):
        return DecodeResult(())
    return DecodeResult(((word, sigma.degree),))


def patterson_decode(code, y):
    """Unique decoding up to r errors; empty result signals weight > r."""
    G, field = code.gpoly, code.field
    x = Poly.x(field)
    if code.roots:
        s = _syndromes(code, y)  # the values s(z_i)
        if not any(s):
            return DecodeResult(((y, 0),))
        # R = sqrt(1/s + x) at each root, unless s is not invertible mod G
        exp, log = field.exp, field.log
        R = None if 0 in s else _interpolate(code, [
            field.sqrt(exp[-log[v]] ^ z) for v, z in zip(s, code.roots)])
    else:
        s = syndrome_poly(code, y)
        if s.is_zero():
            return DecodeResult(((y, 0),))
        T = poly_invmod(s, G)
        try:
            R = None if T is None else poly_sqrt_mod(T + x, G)
        except ArithmeticError:
            R = None
    if R is None:
        return DecodeResult(())
    a, b = eea_stop(G, R, G.degree // 2)
    sigma = a.square() + x * b.square()
    return _apply_locator(code, y, sigma)


def _g2_syndrome(code, s):
    """s mod G^2 from s mod G: the syndrome S of a binary word has
    S' = S^2, so s mod G^2 = s + G*t has s' + G'*t = s^2 (mod G), and G'
    is invertible mod the square-free G: t = (s^2 + s')/G' mod G."""
    G = code.gpoly
    t = (s.square() + s.deriv()) % G * poly_invmod(G.deriv(), G) % G
    return s + G * t


def _g2_from_syndrome(code, y, s2, g2):
    if s2.is_zero():
        return DecodeResult(((y, 0),))
    _, sigma = eea_stop(g2, s2, code.r - 1)
    return _apply_locator(code, y, sigma)


def g2_decode(code, y):
    """Decoding up to r errors via the degree-2r parity view.

    Works for any square-free G, split or irreducible, so it backs up
    Patterson in the cases where the syndrome is not invertible mod G.
    """
    g2 = code.gpoly.square()
    return _g2_from_syndrome(
        code, y, _g2_syndrome(code, syndrome_poly(code, y)), g2)


def list_decode(code, y, tau):
    """All codewords within distance tau of y: the one decoding entry.

    Up to r, Patterson finds the one candidate (d >= 2r + 1), or g2 if
    Patterson gives up; only tau >= 0 is checked.  Beyond r, tau may reach
    the binary Johnson limit ceil(tau2) - 1, and _linear_engine lists r+1
    and r+2: a codeword within 2r - tau is the only one; otherwise one key
    equation has a kernel of dimension tau - r + 1.

    Past r + 2 there is no engine, and CapacityError comes before any
    work.  Bivariate interpolation does not fill the gap on any code with
    n > m*r: over 864,456 shapes up to m = 16, no multiplicity pair up to
    50 gives a system of at most 20,000 GF(2) unknowns.
    """
    if tau < 0:
        raise RadiusError("radius %d is negative" % tau)
    if tau <= code.r:
        res = patterson_decode(code, y)
        if not res.candidates:
            res = g2_decode(code, y)
        return DecodeResult(tuple(p for p in res.candidates if p[1] <= tau))
    try:
        limit = radii(code.n, code.r).ld_errors
    except ValueError:
        raise RadiusError("code too short for a real-valued list radius")
    if tau > limit:
        raise RadiusError("radius %d outside [0, %d]" % (tau, limit))
    if tau > code.r + LD_REACH:
        raise CapacityError("no decoder reaches radius tau = r + %d"
                            % (tau - code.r))
    return _linear_engine(code, y, tau)


def _linear_engine(code, y, tau):
    """Codewords within tau in (r, r + 2] from one linear key equation.

    A locator sigma satisfies sigma*S = sigma' (mod G^2), S the syndrome
    mod G^2.  As S = P'/P for P the locator of y, sigma = A^2 + x*B^2 and
    P = C^2 + x*D^2 give sigma*S - sigma' = (AD + BC)^2/P, of rank at most
    r: for deg sigma <= tau the kernel has dimension at least tau - r + 1.
    A larger one comes from a solution of low degree, as the locator of a
    codeword within 2r - tau, which g2 returns alone (the minimum distance
    is at least 2r + 1).  Otherwise the dimension was tau - r + 1 in all
    5,272 checks made (tau = r+1, r+2; six shapes from (5,32,3) to
    (8,200,10), G irreducible or not), and any other raises CapacityError.
    The roots of p + lambda*q share lambda = p/q, so a histogram of that
    ratio finds every member of a pencil with more than r roots: the
    points whose ratio is lambda or undefined.
    """
    r, field = code.r, code.field
    g2 = code.gpoly.square()
    s2 = _g2_syndrome(code, syndrome_poly(code, y))
    found = dict(_g2_from_syndrome(code, y, s2, g2).candidates)
    if any(d <= 2 * r - tau for d in found.values()):
        return _sorted_result(code.n, found.items())
    basis = _key_equation_kernel(s2, g2, tau)
    if len(basis) != tau - r + 1:
        raise CapacityError("key equation kernel dimension %d" % len(basis))
    vals = [b.eval_all(code.support) for b in basis]
    pencils = ([(basis[0], basis[1], _ratios(field, *vals))] if len(vals) == 2
               else _anchored_pencils(field, basis, vals, code.n - r))
    for p, q, keys in pencils:
        counts = Counter(keys)
        common = counts.pop(None, 0)  # roots of every member
        for lam in [lam for lam, k in counts.items() if k + common > r]:
            sigma = q if lam == field.order else p + q.scale(lam)
            roots = sum(1 << j for j, k in enumerate(keys)
                        if k == lam or k is None)
            found.update(_apply_locator(code, y, sigma, roots).candidates)
    return _sorted_result(code.n, found.items())


def _key_equation_kernel(s2, g2, tau):
    """Basis of {sigma : deg sigma <= tau, sigma*s2 = sigma' (mod g2)}.

    Column t is x^t + x^(tau+1) * (x^t*s2 + t*x^(t-1) mod g2): eliminating
    the images carries sigma along, and a column left of degree <= tau is
    in the kernel.  Columns are coefficient lists, and each monic pivot
    is kept as the log terms (degree, log c) that reduce by it.
    """
    field = g2.field
    exp, log = field.exp, field.log
    pivots = {}  # leading degree -> log terms of the monic reduced column
    basis = []
    col = list(s2.c)  # x^t * s2 mod g2
    for t in range(tau + 1):
        v = [0] * (tau + 1) + col
        v[t] = 1  # the x^t that no earlier column has: v never vanishes
        if t & 1:  # t*x^(t-1) = x^(t-1), shifted by tau + 1
            v += [0] * (tau + t + 1 - len(v))
            v[tau + t] ^= 1
        d = len(v) - 1
        while not v[d]:
            d -= 1
        while d in pivots:
            lv = log[v[d]]
            for j, lp in pivots[d]:
                v[j] ^= exp[lv + lp]
            while not v[d]:
                d -= 1
        linv = -log[v[d]]
        pivots[d] = [(j, log[a] + linv) for j, a in enumerate(v[:d + 1]) if a]
        if d <= tau:
            basis.append(Poly(field, v[:d + 1]).monic())
        col = _reduce([0] + col, g2.c, exp, log)
    return basis


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

"""Error correction for binary Goppa codes.

Three layers: Patterson unique decoding up to r errors, a decoder on the
degree-2r view (Gamma(L,G) = Gamma(L,G^2)) that serves both as fallback
and as the engine behind small list radii, and bivariate-interpolation
list decoding for radii beyond r+2.  A brute-force sphere oracle is the
ground truth the list decoders are validated against.

Syndromes and error-locator roots both come from the code's bit-sliced
alternant table for the decoding modulus (GoppaCode.alternant): the
roots of a locator over the whole support are one n-bit mask, built from
XORs of table rows, with no evaluation per support point.  Only the flip
engine keeps the per-position syndrome inverses, for its one-flip
syndrome updates.
"""

import itertools
import math
from dataclasses import dataclass

from .gf2m import Poly, eea_stop, poly_invmod, poly_sqrt_mod
from .binmat import BinMatrix, null_space
from .goppa import CapacityError, syndrome_poly, syndrome_inverses
from .security import radii


class RadiusError(ValueError):
    pass


@dataclass(frozen=True)
class DecodeResult:
    candidates: tuple  # of (codeword, error_weight), sorted


def _sorted_result(n, pairs):
    def key(pair):
        c, w = pair
        return (w, tuple(c >> j & 1 for j in range(n)))
    return DecodeResult(tuple(sorted(pairs, key=key)))


# the set bits of each byte value, lowest first
_BIT_POSITIONS = tuple(tuple(b for b in range(8) if v >> b & 1)
                       for v in range(256))


def _locator_roots(code, sigma, modulus):
    """Support positions where sigma vanishes, as an n-bit mask.

    Needs deg sigma <= deg M, M = modulus.  Then sigma = q*M + rho with a
    constant q, and sigma(L_j)/M(L_j) = sum_i rho_i H[i][j] + q on the
    alternant table: each output bit slice is an XOR of table rows picked
    by the bits of rho_i * alpha^beta.  L_j is a root iff all m output
    slices are clear at j, since M(L_j) != 0.
    """
    q, rho = divmod(sigma, modulus)
    if q.degree > 0:
        raise ValueError("locator degree exceeds the modulus degree")
    field = code.field
    exp, log = field.exp, field.log
    m = field.m
    table = code.alternant(modulus).bits
    full = (1 << code.n) - 1
    out = [full if q[0] >> g & 1 else 0 for g in range(m)]
    unit = [log[1 << beta] for beta in range(m)]
    for i, c in enumerate(rho.c):
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


def _apply_locator(code, y, sigma, modulus):
    """Flip the locator's roots in y; empty result on any inconsistency."""
    roots = _locator_roots(code, sigma, modulus)
    if roots.bit_count() != sigma.degree:
        return DecodeResult(())
    word = y ^ roots
    if not syndrome_poly(code, word, code.gpoly).is_zero():
        return DecodeResult(())
    return DecodeResult(((word, sigma.degree),))


def patterson_decode(code, y):
    """Unique decoding up to r errors; empty result signals weight > r."""
    G = code.gpoly
    x = Poly.x(code.field)
    s = syndrome_poly(code, y, G)
    if s.is_zero():
        return DecodeResult(((y, 0),))
    T = poly_invmod(s, G)
    if T is None:
        return DecodeResult(())
    if T == x:
        sigma = x
    else:
        try:
            R = poly_sqrt_mod(T + x, G)
        except ArithmeticError:
            return DecodeResult(())
        a, b = eea_stop(G, R, G.degree // 2)
        sigma = a.square() + x * b.square()
    return _apply_locator(code, y, sigma, G)


def _g2_from_syndrome(code, y, s2, g2):
    if s2.is_zero():
        return DecodeResult(((y, 0),))
    _, sigma = eea_stop(g2, s2, code.r - 1)
    return _apply_locator(code, y, sigma, g2)


def g2_decode(code, y):
    """Decoding up to r errors via the degree-2r parity view.

    Works for any square-free G, split or irreducible, so it backs up
    Patterson in the cases where the syndrome is not invertible mod G.
    """
    g2 = code.gpoly.square()
    return _g2_from_syndrome(code, y, syndrome_poly(code, y, g2), g2)


def list_decode(code, y, tau, engine=None):
    """All codewords within distance tau of y.

    tau may reach the binary Johnson limit ceil(tau2) - 1.  Engines:
    "g2" (tau <= r, at most one candidate exists), "flip" (exhaust error
    subsets down to weight r, then g2), "interp" (bivariate
    interpolation).  The default picks by tau; flip costs C(n, tau - r)
    decodings so it is only automatic through tau = r + 2.
    """
    try:
        limit = radii(code.n, code.r).ld_errors
    except ValueError:
        raise RadiusError("code too short for a real-valued list radius")
    if tau < 0 or tau > limit:
        raise RadiusError("radius %d outside [0, %d]" % (tau, limit))
    if engine is None:
        engine = "g2" if tau <= code.r else (
            "flip" if tau <= code.r + 2 else "interp")
    if engine == "g2":
        if tau > code.r:
            raise RadiusError("g2 engine only reaches radius r")
        res = g2_decode(code, y)
        return _sorted_result(
            code.n, [(c, w) for c, w in res.candidates if w <= tau])
    if engine == "flip":
        return _flip_engine(code, y, tau)
    if engine == "interp":
        return _interp_engine(code, y, tau)
    raise ValueError("unknown engine %r" % (engine,))


def _flip_engine(code, y, tau):
    # Any codeword at distance w in (r, tau] differs from y on w error
    # positions; flipping any w - r of them drops the distance to r where
    # g2 decoding is guaranteed.  Enumerating all flip subsets up to size
    # tau - r therefore finds every candidate.
    g2 = code.gpoly.square()
    base = syndrome_poly(code, y, g2)
    inv = syndrome_inverses(code, g2)
    found = {}
    for size in range(max(0, tau - code.r) + 1):
        for flips in itertools.combinations(range(code.n), size):
            s = base
            word = y
            for p in flips:
                s = s + inv[p]
                word ^= 1 << p
            for c, _ in _g2_from_syndrome(code, word, s, g2).candidates:
                dist = (c ^ y).bit_count()
                if dist <= tau:
                    found[c] = dist
    return _sorted_result(code.n, found.items())


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
        word = 0
        if (word ^ y).bit_count() <= tau:
            out.append((word, (word ^ y).bit_count()))
        for i in range(1, 1 << code.k):
            word ^= code.gen.row((i & -i).bit_length() - 1)
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
    return _sorted_result(n, out)


# ---------------------------------------------------------------------
# Interpolation engine.  Gamma(L, G^2) sits inside the evaluation code
# {(v_j f(L_j))_j : deg f < K}, K = n - 2r, with v_j = G(L_j)^2/pi'(L_j)
# and pi = prod (x - L_j): a binary word c is a codeword iff its Lagrange
# numerator eta (eta(L_j) = c_j pi'(L_j)) is divisible by G^2.  List
# decoding is then bivariate interpolation over that code: build Q(x,z)
# vanishing to order a at (L_j, y_j/v_j) and order b at (L_j, (1-y_j)/v_j),
# with (1, K-1)-weighted degree at most D; every near codeword's f is a
# z-root of Q.

def _gs_params(n, K, tau):
    # smallest multiplicity pair (a >= b) whose monomial count beats the
    # constraint count; D maxes out the root-count guarantee
    for s in range(1, 51):
        for b in range(s // 2 + 1):
            a = s - b
            D = a * (n - tau) + b * tau - 1
            constraints = n * (a * (a + 1) // 2 + b * (b + 1) // 2)
            monomials = sum(D - (K - 1) * j + 1 for j in range(D // (K - 1) + 1))
            if monomials > constraints:
                return a, b, D
    raise CapacityError("no workable multiplicity up to 50")


def _interp_build(code, y, tau, a, b, D):
    # returns the z-coefficient polynomials of one nonzero Q
    field = code.field
    n, K = code.n, code.n - 2 * code.r
    L = code.support
    m = field.m

    # column multipliers v_j and the two z-values per column
    g2sq = [field.mul(v, v) for v in (code.gpoly.eval(x) for x in L)]
    vj = []
    for j in range(n):
        prod = 1
        for i in range(n):
            if i != j:
                prod = field.mul(prod, L[j] ^ L[i])
        vj.append(field.mul(g2sq[j], field.inv(prod)))

    monomials = [(i, jz)
                 for jz in range(D // (K - 1) + 1)
                 for i in range(D - (K - 1) * jz + 1)]
    index = {mono: u for u, mono in enumerate(monomials)}
    nunk = len(monomials)
    if nunk * m > 20000:
        raise CapacityError("interpolation system too large")

    jzmax = D // (K - 1)
    rows = []
    for j in range(n):
        xp = [1]
        for _ in range(D):
            xp.append(field.mul(xp[-1], L[j]))
        invv = field.inv(vj[j])
        for z0, mult in (((y >> j & 1) and invv, a),
                         ((1 ^ (y >> j & 1)) and invv, b)):
            if mult == 0:
                continue
            zp = [1]
            for _ in range(jzmax):
                zp.append(field.mul(zp[-1], z0))
            for alpha in range(mult):
                for beta in range(mult - alpha):
                    bits = [0] * m
                    for (i, jz), u in index.items():
                        if i & alpha != alpha or jz & beta != beta:
                            continue  # binomial even by Lucas
                        coef = field.mul(xp[i - alpha], zp[jz - beta])
                        if coef == 0:
                            continue
                        for bit in range(m):
                            val = field.mul(coef, 1 << bit)
                            pos = u * m + bit
                            for t in range(m):
                                if val >> t & 1:
                                    bits[t] |= 1 << pos
                    rows.extend(bits)
    system = BinMatrix(len(rows), nunk * m, rows)
    kernel = null_space(system)
    vec = kernel.row(0)  # counting guarantees a nonzero kernel

    coeffs = [0] * nunk
    for u in range(nunk):
        coeffs[u] = vec >> (u * m) & ((1 << m) - 1)
    polys = []
    for jz in range(jzmax + 1):
        cs = [coeffs[index[(i, jz)]] for i in range(D - (K - 1) * jz + 1)]
        polys.append(Poly(field, cs))
    while polys and polys[-1].is_zero():
        polys.pop()
    return polys, vj


def _x_divide_out(field, polys):
    low = None
    for p in polys:
        if p.is_zero():
            continue
        e = next(i for i, c in enumerate(p.c) if c)
        low = e if low is None else min(low, e)
        if low == 0:
            return polys
    if low is None:
        return polys
    return [p if p.is_zero() else Poly(field, p.c[low:]) for p in polys]


def _subst_shift(field, polys, gamma):
    # B(x, z) -> B(x, x*z + gamma), Horner in z
    out = []
    for coeff in reversed(polys):
        nxt = [Poly.zero(field) for _ in range(len(out) + 1)]
        for t, p in enumerate(out):
            nxt[t + 1] = nxt[t + 1] + Poly(field, (0,) + p.c)
            nxt[t] = nxt[t] + p.scale(gamma)
        nxt[0] = nxt[0] + coeff
        while nxt and nxt[-1].is_zero():
            nxt.pop()
        out = nxt
    return out


def _rr_roots(field, polys, K):
    """All f with deg f < K and Q(x, f(x)) = 0, by recursive shifting."""
    found = []
    budget = [50000]

    def walk(cur, depth, prefix):
        budget[0] -= 1
        if budget[0] < 0:
            raise CapacityError("root search budget exhausted")
        cur = _x_divide_out(field, cur)
        if depth == K:
            if not cur or cur[0].is_zero():
                found.append(prefix)
            return
        rz = [p[0] for p in cur]
        for gamma in range(field.order):
            acc = 0
            for c in reversed(rz):
                acc = field.mul(acc, gamma) ^ c
            if acc == 0:
                walk(_subst_shift(field, cur, gamma), depth + 1,
                     prefix + (gamma,))

    walk(list(polys), 0, ())
    return found


def _interp_engine(code, y, tau):
    field, n = code.field, code.n
    K = n - 2 * code.r
    if K < 2:
        raise CapacityError("evaluation code too small for interpolation")
    a, b, D = _gs_params(n, K, tau)
    polys, vj = _interp_build(code, y, tau, a, b, D)

    found = {}
    for prefix in _rr_roots(field, polys, K):
        f = Poly(field, prefix)
        # verify the root exactly before trusting it
        acc = Poly.zero(field)
        for coeff in reversed(polys):
            acc = acc * f + coeff
        if not acc.is_zero():
            continue
        word = 0
        binary = True
        for j in range(n):
            s = field.mul(vj[j], f.eval(code.support[j]))
            if s > 1:
                binary = False
                break
            word |= s << j
        if not binary:
            continue
        dist = (word ^ y).bit_count()
        if dist > tau:
            continue
        if not syndrome_poly(code, word, code.gpoly).is_zero():
            continue
        found[word] = dist
    return _sorted_result(n, found.items())

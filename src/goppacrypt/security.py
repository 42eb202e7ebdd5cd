"""Decoding radii, attack workfactor, keysize, and countermeasure checks.

All quantities here are arithmetic on code parameters; nothing touches
actual codes.  Workfactors are log2 costs of the Finiasz-Sendrier lower
bound on information-set decoding, calibrated to three decimals.  One
scan over the attack's split sizes serves both fs_workfactor (its
minimum) and fs_reaches (which stops at the first cost below target).
"""

import math
from collections import namedtuple


RadiusReport = namedtuple(
    "RadiusReport", "t generic_johnson bernstein tau2 ld_errors")
Countermeasures = namedtuple("Countermeasures", "cm1 cm2")


def radii(n, t):
    """Unique and list-decoding radii for designed distance 2t+1."""
    if t < 1 or 4 * t + 2 > n:
        raise ValueError("need 4t + 2 <= n for real-valued radii")
    generic = n * (1 - math.sqrt(1 - 2 * t / n))
    bernstein = n * (1 - math.sqrt(1 - (2 * t + 2) / n))
    tau2 = (n / 2) * (1 - math.sqrt(1 - (4 * t + 2) / n))
    return RadiusReport(t, generic, bernstein, tau2, math.ceil(tau2) - 1)


def encryption_weight(n, r, decoder):
    """Errors per ciphertext: r for "ud", ceil(tau2) - 1 for "ld"."""
    return radii(n, r).ld_errors if decoder == "ld" else r


def _scan(n, k, w, target=-math.inf):
    # l + log2 C(n,w) - log2 C(n-k, w-2p) - log2 C(k+l, 2p) for each
    # admissible p in turn, up to the first one 40 bits past the minimum:
    # the least such cost, or the first one below target; p = 0 is always
    # admissible, and w - 2p never leaves [0, n - k]
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
            break  # past the minimum and diverging
        if val < target:
            return val
        if val < best:
            best = val
    return best


def fs_workfactor(n, k, w):
    """Finiasz-Sendrier lower bound (log2) on decoding w errors.

    WF = min over p of l + log2 C(n,w) - log2 C(n-k, w-2p)
         - log2 C(k+l, 2p), with l the fixed point of
         l = log2 C((k+l)/2, p).
    """
    return _scan(n, k, w)


def fs_reaches(n, k, w, target):
    """fs_workfactor(n, k, w) >= target, decided at the first split cost
    below target; the same ValueError outside the estimator's domain."""
    return _scan(n, k, w, target) >= target


def keysize(variant, m, k, r=None):
    """Public key bits: m*k*r for generic keys, m*k for dyadic ones."""
    if variant == "generic":
        if r is None:
            raise ValueError("generic keysize needs r")
        return m * k * r
    if variant == "dyadic":
        return m * k
    raise ValueError("unknown variant %r" % (variant,))


def check_countermeasures(m, n, r):
    """cm1: r(r+1) > n frustrates polynomial interpolation from recovered
    data; cm2: m >= 16 pushes the algebraic attack out of reach."""
    if m < 1 or n < 1 or r < 1:
        raise ValueError("parameters must be positive")
    return Countermeasures(cm1=r * (r + 1) > n, cm2=m >= 16)


def gain(ud_keysize, ld_keysize):
    """Percent keysize reduction, rounded half-up to 2 decimals."""
    from decimal import Decimal, ROUND_HALF_UP
    if ud_keysize <= 0:
        raise ValueError("reference keysize must be positive")
    pct = Decimal(100 * (ud_keysize - ld_keysize)) / Decimal(ud_keysize)
    return float(pct.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))

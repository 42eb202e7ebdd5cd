"""Decoding radii, attack workfactor, keysize, and countermeasure checks.

All quantities here are arithmetic on code parameters; nothing touches
actual codes.  Workfactors are log2 costs of the Finiasz-Sendrier lower
bound on information-set decoding, calibrated to three decimals.
"""

import math
from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_UP


@dataclass(frozen=True)
class RadiusReport:
    t: int
    generic_johnson: float
    bernstein: float
    tau2: float
    ld_errors: int


@dataclass(frozen=True)
class Countermeasures:
    cm1: bool
    cm2: bool


def radii(n, t):
    """Unique and list-decoding radii for designed distance 2t+1."""
    if t < 1 or 4 * t + 2 > n:
        raise ValueError("need 4t + 2 <= n for real-valued radii")
    generic = n * (1 - math.sqrt(1 - 2 * t / n))
    bernstein = n * (1 - math.sqrt(1 - (2 * t + 2) / n))
    tau2 = (n / 2) * (1 - math.sqrt(1 - (4 * t + 2) / n))
    return RadiusReport(t, generic, bernstein, tau2, math.ceil(tau2) - 1)


def _log2_binom(n, w):
    # real-valued log2 C(n, w); n may be fractional
    if w < 0 or n < w:
        return None
    return (math.lgamma(n + 1) - math.lgamma(w + 1)
            - math.lgamma(n - w + 1)) / math.log(2)


def _fixed_point_l(k, p):
    # l = log2 C((k + l)/2, p), from l = 0
    l = 0.0
    for _ in range(500):
        nl = _log2_binom((k + l) / 2, p)
        if nl is None:
            return None
        if abs(nl - l) < 0.01:
            return nl
        l = nl
    return l


def fs_workfactor(n, k, w):
    """Finiasz-Sendrier lower bound (log2) on decoding w errors.

    WF = min over p of l + log2 C(n,w) - log2 C(n-k, w-2p)
         - log2 C(k+l, 2p), with l the fixed point of
         l = log2 C((k+l)/2, p).
    """
    if k <= 0 or w <= 0 or w >= n - k:
        raise ValueError("need k > 0 and 0 < w < n - k")
    total = _log2_binom(n, w)
    best = None
    for p in range(w // 2 + 1):
        l = _fixed_point_l(k, p)
        if l is None:
            continue
        success = _log2_binom(n - k, w - 2 * p)
        cost = _log2_binom(k + l, 2 * p)
        if success is None or cost is None:
            continue
        val = l + total - success - cost
        if best is None or val < best:
            best = val
        elif val > best + 40:
            break  # past the minimum and diverging
    if best is None:
        raise ValueError("no admissible split parameter")
    return best


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
    if ud_keysize <= 0:
        raise ValueError("reference keysize must be positive")
    pct = Decimal(100 * (ud_keysize - ld_keysize)) / Decimal(ud_keysize)
    return float(pct.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))

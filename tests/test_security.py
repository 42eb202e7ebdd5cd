import math
import random

import pytest

from goppacrypt.cli import _feasible
from goppacrypt.security import (
    radii, fs_reaches, fs_workfactor, keysize, check_countermeasures, gain,
)
from testlib import _split_costs

# fs_workfactor(n, k, w).hex() as first recorded: every distinct (n, k, w)
# of Tables 1-3 (w = r on UD rows, the list radius on LD rows), two small
# w whose p-range ends before the +40 break, and three points where some
# split p has (k + l)/2 < p (the first also ends without the break)
WF_PINS = (
    (1893, 1431, 42, "0x1.3fc9167964baep+6"),
    (1876, 1436, 41, "0x1.3fb7c8ff7b56dp+6"),
    (2887, 2191, 58, "0x1.bf10b39a29478p+6"),
    (2868, 2196, 59, "0x1.cdbe972156a5dp+6"),
    (3307, 2515, 66, "0x1.fed2649100d30p+6"),
    (3262, 2482, 66, "0x1.fed00e64a6b1cp+6"),
    (5397, 4136, 97, "0x1.7f130dda3a08fp+7"),
    (5269, 4021, 98, "0x1.7f20b0bc71049p+7"),
    (7150, 5447, 131, "0x1.feafb2bd534e1p+7"),
    (7008, 5318, 133, "0x1.00c32094d1156p+8"),
    (1792, 1088, 64, "0x1.49abdd3995ec0p+6"),
    (1728, 1024, 67, "0x1.4b78604638000p+6"),
    (2944, 1408, 128, "0x1.d2202041b0154p+6"),
    (2816, 1280, 134, "0x1.c6ac1cf1d8ba3p+6"),
    (7680, 1024, 552, "0x1.c3e6fef33e148p+6"),
    (3200, 1664, 128, "0x1.05eb4a4d2c0aap+7"),
    (3072, 1536, 134, "0x1.02dde8e46fc4cp+7"),
    (5888, 2560, 256, "0x1.9ab4e3e4c2592p+7"),
    (5632, 2304, 269, "0x1.8dfb0b3975ad8p+7"),
    (11264, 3584, 512, "0x1.168c76782540cp+8"),
    (10752, 3072, 539, "0x1.01ca8b811f0cap+8"),
    (5120, 1024, 256, "0x1.480b2e62d05ecp+6"),
    (5120, 1024, 270, "0x1.59c163261f8d0p+6"),
    (3840, 1792, 128, "0x1.c755015f504c4p+6"),
    (5632, 1536, 269, "0x1.e909241fa21afp+6"),
    (5888, 1792, 256, "0x1.08f2ad0db0086p+7"),
    (9728, 1536, 542, "0x1.0b0c9b1f4d2d0p+7"),
    (10752, 2560, 512, "0x1.8dcdf446d7a5ap+7"),
    (10752, 2560, 539, "0x1.a2545542141cap+7"),
    (11776, 3584, 512, "0x1.088015b0797fep+8"),
    (19456, 3072, 1085, "0x1.0ad2e50fbe392p+8"),
    (138, 120, 8, "0x1.0c48faba16fa4p+4"),
    (588, 456, 33, "0x1.d70310d08305ap+5"),
    (1164, 373, 785, "-0x1.89099fcab0ef8p+6"),
    (561, 2, 6, "0x1.fcc949d3e7000p-6"),
    (2420, 14, 1385, "0x1.82b874e500c40p-1"),
)


def test_radii_table_values():
    assert radii(1876, 40).ld_errors == 41
    assert radii(1728, 64).ld_errors == 67
    assert radii(19456, 1024).ld_errors == 1085
    assert radii(5120, 256).ld_errors == 270  # formula value, not the printed one


def test_radii_ordering_on_grid():
    # t <= generic <= bernstein always; bernstein <= tau2 exactly when
    # (2t+3)^2 >= 4n (the two radii cross near t = sqrt(n))
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randrange(64, 20001)
        t = rng.randrange(1, (n - 2) // 4 + 1)
        rep = radii(n, t)
        assert t <= rep.generic_johnson <= rep.bernstein
        assert t <= rep.tau2 <= n / 2
        if (2 * t + 3) ** 2 >= 4 * n:
            assert rep.bernstein <= rep.tau2 + 1e-9
        else:
            assert rep.bernstein > rep.tau2
        assert rep.ld_errors == math.ceil(rep.tau2) - 1


def test_radii_boundary_and_domain():
    # at 4t + 2 = n the binary radius reaches n/2
    rep = radii(514, 128)
    assert abs(rep.tau2 - 257) / 257 < 0.01
    with pytest.raises(ValueError):
        radii(512, 128)
    with pytest.raises(ValueError):
        radii(100, 0)


def test_workfactor_calibration_anchors():
    assert abs(fs_workfactor(1893, 1431, 42) - 80.025) <= 1.0
    assert abs(fs_workfactor(1876, 1436, 41) - 80.043) <= 1.0
    assert abs(fs_workfactor(7680, 1024, 552) - 113.084) <= 1.0


def test_workfactor_monotone_in_w():
    prev = None
    for w in range(30, 61, 3):
        wf = fs_workfactor(1893, 1431, w)
        if prev is not None:
            assert wf >= prev
        prev = wf


@pytest.mark.parametrize("n, k, w, want", WF_PINS)
def test_workfactor_bit_exact(n, k, w, want):
    assert fs_workfactor(n, k, w).hex() == want


def test_workfactor_domain():
    for fn in (fs_workfactor, lambda n, k, w: fs_reaches(n, k, w, 80)):
        with pytest.raises(ValueError):
            fn(100, 0, 5)
        with pytest.raises(ValueError):
            fn(100, 60, 40)  # w not below n - k
        with pytest.raises(ValueError):
            fn(100, 60, 0)


def test_search_feasibility_matches_workfactor():
    # the search's short-circuit test against the full minimum, at the
    # exact workfactor and one ulp either side of it
    rng = random.Random(14)
    inside = outside = 0
    for _ in range(200):
        m = rng.randrange(10, 17)
        r = rng.randrange(1, 120)
        # one point in five has k <= 0, and on LD often 4r + 2 > n too
        n = m * r + (rng.randrange(1, 4000) if rng.random() < 0.8
                     else -rng.randrange(0, m * r - 1))
        decoder = rng.choice(("ud", "ld"))
        try:
            w = radii(n, r).ld_errors if decoder == "ld" else r
            wf = fs_workfactor(n, n - m * r, w)
        except ValueError:
            outside += 1
            for target in (60, 300, -math.inf):
                assert _feasible(n, m, r, decoder, target) is False
            continue
        inside += 1
        for target in (math.nextafter(wf, -math.inf), wf,
                       math.nextafter(wf, math.inf)):
            assert _feasible(n, m, r, decoder, target) == (wf >= target)
    assert inside >= 140 and outside >= 20


def test_scan_matches_the_split_cost_generator():
    # one loop for both estimators against the generator it replaced: the
    # minimum bit for bit, and the verdict at each workfactor, one ulp
    # either side of it and at a split cost between the least and the last
    rng = random.Random(19)
    between = 0
    for _ in range(300):
        n = rng.randrange(64, 12000)
        k = rng.randrange(1, n - 2)
        w = rng.randrange(1, min(n - k, 700))
        costs = list(_split_costs(n, k, w))
        wf = min(costs)
        assert fs_workfactor(n, k, w).hex() == wf.hex()
        targets = [wf, math.nextafter(wf, -math.inf),
                   math.nextafter(wf, math.inf)]
        mids = sorted(c for c in set(costs) if wf < c < costs[-1])
        if mids:
            targets.append(mids[len(mids) // 2])
            between += 1
        for target in targets:
            assert fs_reaches(n, k, w, target) == \
                all(cost >= target for cost in _split_costs(n, k, w))
    assert between >= 100


def test_keysize():
    assert keysize("generic", 11, 1431, 42) == 661122
    assert keysize("dyadic", 11, 1024) == 11264
    assert keysize("dyadic", 16, 2560) == 40960
    with pytest.raises(ValueError):
        keysize("generic", 11, 1431)
    with pytest.raises(ValueError):
        keysize("hybrid", 11, 1431, 42)


def test_countermeasures():
    assert check_countermeasures(11, 1792, 64).cm1
    assert not check_countermeasures(11, 1893, 42).cm1
    assert check_countermeasures(16, 5120, 256).cm2
    assert not check_countermeasures(15, 5120, 256).cm2
    with pytest.raises(ValueError):
        check_countermeasures(0, 10, 1)


def test_gain():
    assert gain(661122, 631840) == 4.43
    assert gain(16896, 13312) == 21.21
    assert gain(5000, 5000) == 0.0
    assert gain(100000, 99875) == 0.13  # 0.125 rounds half-up
    with pytest.raises(ValueError):
        gain(0, 1)

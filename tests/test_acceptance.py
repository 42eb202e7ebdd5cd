"""Acceptance checks, one test per release criterion.

Each test prints one summary line (visible under pytest -s or -rA); the
test name carries the criterion number so a plain -v run already shows
one pass/fail line per criterion.  Tolerances: workfactors within 1.0
bit of the published figures, everything else exact.  Known-bad
published rows are asserted to be flagged, never silently corrected.
"""

import random
from collections import Counter

from goppacrypt.cli import main, search_params
from goppacrypt.decode import list_decode
from goppacrypt.dyadic import (
    compact_pubkey, expand_pubkey, gen_signature, signature_to_code,
)
from goppacrypt.gf2m import Poly, is_squarefree, make_field, \
    random_monic_irreducible
from goppacrypt.goppa import CodeConstructionError, build_code
from goppacrypt.prng import SeededStream
from goppacrypt.scheme import decrypt, encrypt, keygen, validate_params
from goppacrypt.security import check_countermeasures, fs_workfactor, \
    gain, radii
from goppacrypt.tables import TABLE1, TABLE2, TABLE3, TABLES, verify_table
import pytest
from testlib import (
    encode, gen, signature_roots, sphere_oracle, verify_prop1,
)


def report(num, label, detail):
    print("criterion %02d %s: PASS (%s)" % (num, label, detail))


def _irreducible_code(m, n, r, tag):
    field = make_field(m)
    stream = SeededStream(tag)
    g = random_monic_irreducible(field, r, stream.child(b"g"))
    support = tuple(stream.child(b"L").sample_distinct(field.order, n))
    return build_code(field, support, g)


def test_criterion_01_keysize_exactness():
    assert 661122 == 11 * 1431 * 42 and 11264 == 11 * 1024
    assert 49152 == 16 * 3072
    off = []
    for num in (1, 2, 3):
        for method, m, n, k, r, tau2, wf, ks, g in TABLES[num]:
            re_ks = k * (n - k) if num == 1 else m * k
            if re_ks != ks:
                off.append((num, n, re_ks, ks))
    # the printed 15360 equals m*k only under m = 12; the row says 13
    assert off == [(2, 2816, 16640, 15360)]
    report(1, "keysize exactness",
           "30/31 rows exact; the one bad printed value is flagged "
           "(recomputed 16640 vs printed 15360)")


def test_criterion_02_tau2_column():
    printed = (41, 59, 66, 98, 133, 67, 134, 552, 134, 269, 539,
               269, 542, 539, 1085)
    rows = [row for row in TABLE1 + TABLE2 if row[0] == "LD"]
    rows += [row for row in TABLE3[3:] if row[0] == "LD"]
    got = tuple(radii(row[2], row[4]).ld_errors for row in rows)
    assert got == printed == tuple(row[5] for row in rows)
    # the remaining LD row prints 134 where the formula gives 270
    assert TABLE3[1][5] == 134 and radii(5120, 256).ld_errors == 270
    assert verify_table(3)[1]["mismatches"] == ("tau2",)
    report(2, "list-radius column",
           "15/15 printed values match; the known-bad row is flagged "
           "(recomputed 270 vs printed 134)")


def test_criterion_03_workfactor_calibration():
    for args, want in (((1893, 1431, 42), 80.025), ((1876, 1436, 41), 80.043),
                       ((7680, 1024, 552), 113.084),
                       ((7008, 5318, 133), 257.471)):
        assert abs(fs_workfactor(*args) - want) <= 1.0
    flagged = {(1, 2868), (3, 5632)}  # WF anomalies alongside the k != n - mr row
    inside = 0
    for num in (1, 2, 3):
        for res in verify_table(num):
            delta = abs(res["wf"] - res["printed"][6])
            if (num, res["n"]) in flagged and res["method"] == "LD":
                assert delta > 1.0
            else:
                assert delta <= 1.0
                inside += 1
    assert inside == 29
    report(3, "workfactor calibration",
           "29/31 printed values within 1.0 bit; 2 anomalous rows flagged")


def test_criterion_04_gain_column():
    printed = (4.43, 3.23, 2.81, 3.78, 3.11,
               5.88, 9.09, 21.21, 7.69, 10.00, 14.29,
               0.0, 14.29, 14.29, 0.0, 14.29)
    got = []
    for num in (1, 2, 3):
        prev_ud = None
        for row in TABLES[num]:
            if row[0] == "UD":
                prev_ud = row[7]
            else:
                got.append(gain(prev_ud, row[7]))
                assert got[-1] == row[8]
    assert tuple(got) == printed
    report(4, "gain column", "16/16 printed gains match to 2 decimals")


def test_criterion_05_keysize_ratios():
    out = verify_table(4)
    assert [r["ratio"] for r in out] == [11.0, 6.5, 6.0, 3.9, 3.0]
    assert all(r["status"] == "MATCH" for r in out)
    report(5, "reference keysize ratios", "5/5 ratios reproduced exactly")


def test_criterion_06_square_free_equivalence():
    rng = random.Random(61)
    checked = 0
    for m in (4, 5, 6):
        field = make_field(m)
        for _ in range(36):
            n = field.order - rng.randrange(0, 5)
            support = tuple(rng.sample(range(field.order), n))
            while True:
                g = Poly(field, [rng.randrange(field.order)
                                 for _ in range(rng.choice((2, 3)))] + [1])
                if is_squarefree(g) and all(g.eval_all(support)):
                    break
            assert verify_prop1(field, support, g)
            checked += 1
    assert checked == 108
    report(6, "Goppa square-free equivalence",
           "108/108 random instances at m in {4,5,6}")


def test_criterion_07_patterson_roundtrip():
    rng = random.Random(71)
    done = 0
    for m, n, r in ((6, 64, 6), (8, 200, 12)):
        code = _irreducible_code(m, n, r, b"accept/patterson/%d" % m)
        for _ in range(500):
            word = encode(code, rng.randrange(1 << code.k))
            noisy = word
            for j in rng.sample(range(n), r):
                noisy ^= 1 << j
            assert list_decode(code, noisy, code.r).candidates == ((word, r),)
            done += 1
    assert done == 1000
    report(7, "Patterson roundtrip",
           "1000/1000 weight-r corruptions corrected at (64,6) and (200,12)")


def test_criterion_08_list_decoder_completeness():
    code = _irreducible_code(5, 32, 4, b"accept/list")
    tau = radii(32, 4).ld_errors
    assert tau == 5
    rng = random.Random(81)
    words = [rng.randrange(1 << 32) for _ in range(100)]
    for _ in range(100):  # plant errors one past the unique radius
        word = encode(code, rng.randrange(1 << code.k))
        for j in rng.sample(range(32), tau):
            word ^= 1 << j
        words.append(word)
    multi = 0
    for y in words:
        got = list_decode(code, y, tau)
        assert got.candidates == sphere_oracle(code, y, tau).candidates
        multi += len(got.candidates) > 1
    report(8, "list-decoder completeness",
           "200/200 words agree with the sphere oracle at radius r+1; "
           "%d had several candidates" % multi)


def test_criterion_09_beyond_unique_witness():
    kp = keygen("generic", 7, 87, 6, "ld", b"accept/witness")
    assert kp.w_enc == radii(87, 6).ld_errors == kp.r + 1 == 7
    unique_failures = 0
    for i in range(5):
        ct = encrypt(kp, b"Z", b"accept/w%d" % i)
        assert ct.weight == 7
        if not list_decode(kp.code(), ct.vector, kp.r).candidates:
            unique_failures += 1
        assert decrypt(kp, ct) == b"Z"
    assert unique_failures >= 1
    report(9, "beyond-unique witness",
           "5/5 list decryptions recovered the plaintext while unique "
           "decoding failed on %d of 5" % unique_failures)


def test_criterion_10_dyadic_structure():
    for s in range(50):
        m = 7 + s % 3
        field = make_field(m)
        sig = gen_signature(field, 1 << (m - 1), b"accept/sig/%d" % s)
        e = sig.e
        size = len(e)
        for i in range(size):
            for j in range(size):
                assert e[i ^ j] == e[i] ^ e[j] ^ e[0]
    field = make_field(7)
    m, n, r = 7, 64, 8
    for t in range(64):
        sig = gen_signature(field, 64, b"accept/cauchy/%d" % t)
        z = signature_roots(sig, r)
        u = sig.points()
        h = [field.inv(v) for v in sig.e]
        assert all(field.inv(z[i] ^ u[j]) == h[i ^ j]
                   for i in range(r) for j in range(64))
        try:
            code = signature_to_code(sig, n, r, b"accept/blk/%d" % t)
            break
        except CodeConstructionError:
            continue
    else:
        raise AssertionError("no systemizable draw in 64 attempts")
    blob = compact_pubkey(m, r, code.systematic[1])
    assert (len(blob) - 9) * 8 == m * code.k  # payload is exactly mk bits
    em, er, mat = expand_pubkey(blob)
    assert (em, er) == (m, r)
    G = gen(code)
    assert all(mat.bits[i] == G.bits[i] >> code.k for i in range(code.k))
    report(10, "dyadic structure",
           "signature identity on 50 seeds, Cauchy equivalence, and an "
           "mk-bit compact key that expands back exactly")


def test_criterion_11_countermeasure_gate():
    for m, n, r in ((10, 256, 4), (11, 1792, 32), (15, 2048, 32)):
        assert r * (r + 1) <= n and m < 16
        with pytest.raises(ValueError):
            validate_params("dyadic", m, n, r)
    with pytest.raises(ValueError):
        keygen("dyadic", 10, 256, 4, "ud", b"gate")
    # every published dyadic row passes the countermeasure gate; the
    # ones validate_params refuses, it refuses for decoding reach or for
    # the signature pool, never as insecure
    outcome = Counter()
    for table in (TABLE2, TABLE3):
        for method, m, n, k, r, tau2, wf, ks, g in table:
            cm = check_countermeasures(m, n, r)
            assert cm.cm1 if table is TABLE2 else cm.cm2
            try:
                got_k, _ = validate_params("dyadic", m, n, r,
                                           method.lower())
            except ValueError as exc:
                assert "insecure" not in str(exc)
                outcome["reach" if "decoders reach" in str(exc)
                        else "pool"] += 1
                continue
            outcome["accepted"] += 1
            assert got_k == k
    assert outcome == {"accepted": 6, "reach": 11, "pool": 4}
    report(11, "countermeasure gate",
           "3 underdetermined shapes refused; all 21 published dyadic "
           "rows pass their countermeasure (6 keyable, 11 past the "
           "decoders' reach, 4 past the signature pool)")


def test_criterion_12_search_dominance():
    dyadic_bounds = {80: 11264, 112: 13312, 128: 18432, 192: 29952,
                     256: 46080}
    dyadic_found = {}
    for target, bound in dyadic_bounds.items():
        row = search_params(target, "dyadic", "ld", "cm1")
        assert row["wf"] >= target
        assert row["keysize"] <= bound
        dyadic_found[target] = row["keysize"]
    assert dyadic_found == {80: 9216, 112: 13312, 128: 18432,
                            192: 28672, 256: 43008}
    generic_bounds = {80: 631840, 112: 1475712, 128: 1935960,
                      192: 5018208, 256: 8987420}
    generic_found = {}
    for target, bound in generic_bounds.items():
        row = search_params(target, "generic", "ld")
        assert row["wf"] >= target
        generic_found[target] = row["keysize"]
        if target == 192:
            # the published 5018208 row recomputes to 191.56 bits, just
            # under target, so the grid optimum sits 0.24% above it
            assert row["keysize"] == 5030350
        else:
            assert row["keysize"] <= bound
    assert generic_found[80] == 629013
    report(12, "search dominance",
           "9/10 targets at or below the published keysizes; generic 192 "
           "reaches the grid optimum 5030350 because the published row "
           "falls 0.44 bits short of its target")


def test_criterion_13_determinism(tmp_path):
    paths = []
    for run in (0, 1):
        kg = tmp_path / ("g%d.key" % run)
        kd = tmp_path / ("d%d.key" % run)
        ct = tmp_path / ("c%d.ct" % run)
        csvf = tmp_path / ("t%d.csv" % run)
        keygen("generic", 8, 200, 12, "ud", b"accept/det").save(str(kg))
        kp = keygen("dyadic", 10, 256, 16, "ud", b"accept/det")
        kp.save(str(kd))
        encrypt(kp, b"determi", b"accept/ct").save(str(ct))
        assert main(["table", "1", "--out", str(csvf)]) == 2
        paths.append((kg, kd, ct, csvf))
    for first, second in zip(*paths):
        assert first.read_bytes() == second.read_bytes()
    report(13, "determinism",
           "key files, ciphertexts, and table CSVs byte-identical "
           "across two runs")

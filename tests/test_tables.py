import pytest

from goppacrypt.security import gain, radii
from goppacrypt.tables import (
    TABLE1, TABLE2, TABLE3, TABLE4, TABLES, table_variant, verify_table,
)

# rows whose printed values the recomputation cannot reproduce, keyed by
# (table, n, method): the verifier must flag exactly these, nothing else
KNOWN_BAD = {
    (1, 2868, "LD"): ("r", "wf"),
    (2, 2816, "LD"): ("r", "keysize"),
    (3, 5120, "LD"): ("tau2",),
    (3, 5632, "LD"): ("wf",),
}


def test_fixture_shape():
    assert len(TABLE1) == 10 and len(TABLE2) == 11 and len(TABLE3) == 10
    assert table_variant(1) == "generic"
    assert table_variant(2) == "dyadic" and table_variant(3) == "dyadic"
    lds = 0
    for num, table in TABLES.items():
        for row in table:
            method, m, n, k, r, tau2, wf, ks, g = row
            assert method in ("UD", "LD")
            if method == "UD":
                assert tau2 is None and g is None
            else:
                assert tau2 is not None and g is not None
                lds += 1
            assert n > k > 0 and r > 0 and wf > 0 and ks > 0
    assert lds == 16


def test_verifier_flags_exactly_the_known_bad_rows():
    flagged = {}
    for num in (1, 2, 3):
        for res in verify_table(num):
            if res["status"] == "MISMATCH":
                flagged[(num, res["n"], res["method"])] = res["mismatches"]
            else:
                assert res["mismatches"] == ()
    assert flagged == KNOWN_BAD


def test_table1_recomputation():
    out = verify_table(1)
    assert [r["status"] for r in out] == (
        ["MATCH"] * 3 + ["MISMATCH"] + ["MATCH"] * 6)
    first = out[0]
    assert first["keysize"] == 1431 * (1893 - 1431) == 661122
    assert first["tau2"] is None and first["gain"] is None
    assert abs(first["wf"] - 80.025) <= 1.0
    second = out[1]
    assert second["tau2"] == 41 and second["gain"] == 4.43
    # the flagged row: keysize and tau2 still agree; r and WF are off,
    # since n - k = 672 = 12*56 while the row prints r = 58
    bad = out[3]
    assert bad["mismatches"] == ("r", "wf")
    assert bad["tau2"] == 59 and bad["keysize"] == 1475712
    assert bad["wf"] - 112.026 > 1.0


def test_table2_recomputation():
    out = verify_table(2)
    bad = [r for r in out if r["status"] == "MISMATCH"]
    assert len(bad) == 1 and bad[0]["n"] == 2816
    # printed 15360 is m*k only under m = 12; the row says m = 13
    assert bad[0]["keysize"] == 13 * 1280 == 16640
    assert bad[0]["tau2"] == 134 and abs(bad[0]["wf"] - 113.896) <= 1.0
    big = next(r for r in out if r["n"] == 7680)
    assert big["tau2"] == 552 and big["keysize"] == 13312
    assert big["gain"] == 21.21


def test_table3_recomputation():
    out = verify_table(3)
    first_ld = out[1]
    assert first_ld["mismatches"] == ("tau2",)
    assert first_ld["tau2"] == 270  # printed column says 134
    assert abs(first_ld["wf"] - 86.216) <= 1.0  # WF agrees at the true radius
    wf_bad = next(r for r in out if r["n"] == 5632 and r["method"] == "LD")
    assert wf_bad["mismatches"] == ("wf",)
    assert wf_bad["wf"] - 116.400 > 1.0
    # zero-gain pairs share their keysize with the preceding UD row
    for res in out:
        if res["gain"] == 0.0:
            assert res["keysize"] == 16384 or res["keysize"] == 40960


def test_tau2_column_against_printed():
    printed = (41, 59, 66, 98, 133, 67, 134, 552, 134, 269, 539,
               269, 542, 539, 1085)
    rows = [row for row in TABLE1 + TABLE2 if row[0] == "LD"]
    rows += [row for row in TABLE3[3:] if row[0] == "LD"]  # row 1 is the known bad one
    assert len(rows) == 15
    for row, want in zip(rows, printed):
        _, _, n, _, r, p_tau2, _, _, _ = row
        assert p_tau2 == want
        assert radii(n, r).ld_errors == want


def test_wf_calibration_within_one_bit():
    checked = 0
    for num in (1, 2, 3):
        for res in verify_table(num):
            delta = abs(res["wf"] - res["printed"][6])
            if (num, res["n"], res["method"]) in KNOWN_BAD and \
                    "wf" in KNOWN_BAD[(num, res["n"], res["method"])]:
                assert delta > 1.0
            else:
                assert delta <= 1.0
                checked += 1
    assert checked == 29


def test_gain_column_against_printed():
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
    assert tuple(got) == printed


def test_table4_ratios():
    out = verify_table(4)
    assert [r["ratio"] for r in out] == [11.0, 6.5, 6.0, 3.9, 3.0]
    assert all(r["status"] == "MATCH" for r in out)
    assert [r["dlp"] for r in out] == [1024, 2048, 3072, 7680, 15360]
    assert [r["mceliece"] for r in out] == [11264, 13312, 18432, 29952, 46080]
    assert TABLE4[0][3] == 11.0


def test_verify_table_domain():
    with pytest.raises(ValueError):
        verify_table(5)
    with pytest.raises(ValueError):
        verify_table(0)

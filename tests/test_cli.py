import csv
import io
import itertools
import os
import random
from collections import Counter

import pytest

from goppacrypt import cli
from goppacrypt.cli import main, search_params
from goppacrypt.scheme import KeyPair
from goppacrypt.security import check_countermeasures
from testlib import search_params_unpruned

TABLE_HEADER = "method,m,n,k,r,tau2,wf,keysize,gain,status"
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def run(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_table_exit_codes_and_shape(capsys):
    for num, nrows, bad in ((1, 10, 1), (2, 11, 1), (3, 10, 2)):
        code, out, _ = run(capsys, ["table", str(num)])
        assert code == 2  # every published table has at least one bad row
        lines = out.splitlines()
        assert lines[0] == TABLE_HEADER
        assert len(lines) == 1 + nrows
        assert sum(line.endswith("MISMATCH") for line in lines[1:]) == bad
    code, out, _ = run(capsys, ["table", "4"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "level,dlp,mceliece,ratio"
    assert lines[1] == "80,1024,11264,11.0"
    assert lines[-1] == "256,15360,46080,3.0"


def test_table_row_formatting(capsys):
    _, out, _ = run(capsys, ["table", "1"])
    rows = out.splitlines()[1:]
    # UD rows leave tau2 and gain blank; LD rows fill both
    assert rows[0].startswith("UD,11,1893,1431,42,,")
    assert rows[0].endswith(",661122,,MATCH")
    assert rows[1].startswith("LD,11,1876,1436,40,41,")
    assert rows[1].endswith(",631840,4.43,MATCH")
    wf = float(rows[0].split(",")[6])
    assert abs(wf - 80.025) <= 1.0


def test_table_output_file_and_tsv(tmp_path, capsys):
    dest = tmp_path / "t4.tsv"
    code, out, _ = run(capsys, ["table", "4", "--out", str(dest),
                                "--format", "tsv"])
    assert code == 0 and out == ""
    text = dest.read_text()
    assert "\t" in text and "," not in text
    assert len(text.splitlines()) == 6


def test_table_deterministic(capsys):
    _, first, _ = run(capsys, ["table", "2"])
    _, second, _ = run(capsys, ["table", "2"])
    assert first == second


def test_bounds_output(capsys):
    code, out, _ = run(capsys, ["bounds", "300", "12"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["t", "t_over_n", "unique", "generic", "bernstein",
                       "tau2"]
    assert len(rows) == 13
    prev_tau2 = 0.0
    for t, row in enumerate(rows[1:], 1):
        assert int(row[0]) == t
        vals = [float(v) for v in row[1:]]
        assert vals[0] == vals[1] == pytest.approx(t / 300, abs=5e-7)
        assert vals[1] <= vals[2] <= vals[3]  # unique <= generic <= bernstein
        assert vals[4] < 0.5
        assert vals[4] > prev_tau2
        prev_tau2 = vals[4]


def test_bounds_saturates_near_half(capsys):
    # at 4*tmax + 2 = n the binary radius approaches n/2
    code, out, _ = run(capsys, ["bounds", "50", "12"])
    assert code == 0
    last = out.splitlines()[-1].split(",")
    assert float(last[5]) > 0.45


def test_bounds_domain_error(capsys):
    code, _, err = run(capsys, ["bounds", "49", "12"])
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, ["bounds", "300", "0"])
    assert code == 1 and "error:" in err


def test_search_dyadic_compact(capsys):
    code, out, _ = run(capsys, ["search", "80", "--variant", "dyadic",
                                "--decoder", "ld", "--countermeasure",
                                "cm1"])
    assert code == 0
    head, row = out.splitlines()
    assert head == TABLE_HEADER[:-7]  # same columns minus status
    fields = row.split(",")
    assert fields[0] == "LD"
    assert int(fields[7]) == 9216  # beats the published 11264
    assert (int(fields[1]), int(fields[2]), int(fields[4])) == (12, 3840, 256)
    assert float(fields[6]) >= 80


def test_search_generic(capsys):
    code, out, _ = run(capsys, ["search", "80", "--variant", "generic",
                                "--decoder", "ud"])
    assert code == 0
    fields = out.splitlines()[1].split(",")
    assert fields[5] == ""  # no list radius on UD rows
    assert (int(fields[1]), int(fields[2]), int(fields[4])) == (11, 1895, 42)
    assert int(fields[7]) == 662046
    assert float(fields[6]) >= 80

    code, out, _ = run(capsys, ["search", "80", "--variant", "generic",
                                "--decoder", "ld"])
    assert code == 0
    fields = out.splitlines()[1].split(",")
    assert int(fields[7]) == 629013  # beats the published 631840
    assert float(fields[6]) >= 80


@pytest.mark.parametrize("target, cm", [("128", "cm2"), ("80", "cm1")])
def test_search_generic_honours_countermeasure(capsys, target, cm):
    # the generic grid caps n below r(r+1) under cm1 and keeps m = 16
    # under cm2, as the dyadic grid does
    code, out, _ = run(capsys, ["search", target, "--variant", "generic",
                                "--decoder", "ud", "--countermeasure", cm])
    assert code == 0
    fields = out.splitlines()[1].split(",")
    m, n, r = int(fields[1]), int(fields[2]), int(fields[4])
    assert getattr(check_countermeasures(m, n, r), cm)
    assert float(fields[6]) >= float(target)


@pytest.mark.parametrize("target, row", [
    (140, (12, 3520, 2668, 71, 73, 2273136)),
    (220, (13, 5828, 4294, 118, 121, 6586996)),
    (260, (13, 7117, 5414, 131, 134, 9220042)),
    (280, (13, 7740, 5933, 139, 142, 10720931)),
])
def test_search_rows_follow_bisection_path(target, row):
    # the workfactor is not monotone in n everywhere, so these rows are
    # the ones the bisection reaches by probing hi first, then halving;
    # capping hi at the best keysize so far would change all four
    got = search_params(target, "generic", "ld")
    assert tuple(got[f] for f in ("m", "n", "k", "r", "tau2", "keysize")) \
        == row
    assert got["wf"] >= target


def test_search_pruning_keeps_every_row(monkeypatch):
    # the pruned walk against the same walk with every bisection run in
    # full: identical rows, wf included, and fewer probes on generic
    # searches.  Probe verdicts are shared through a memo, which leaves
    # every call counted and every verdict the same
    rng = random.Random(17)
    grid = list(itertools.product(range(60, 301, 5), ("generic", "dyadic"),
                                  ("ud", "ld"), ("none", "cm1", "cm2")))
    cases = [(t, "generic", "ld", "none") for t in (140, 220, 260, 280)]
    cases += rng.sample(grid, 26)
    verdicts = {}
    probes = Counter()
    feasible = cli._feasible

    def counted(*args):
        probes[who] += 1
        if args not in verdicts:
            verdicts[args] = feasible(*args)
        return verdicts[args]
    monkeypatch.setattr(cli, "_feasible", counted)
    for case in cases:
        probes.clear()
        who = "full"
        want = search_params_unpruned(*case)
        who = "pruned"
        assert repr(search_params(*case)) == repr(want), case
        if case[1] == "generic":
            assert probes["pruned"] < probes["full"], case
    assert sum(case[1] == "generic" for case in cases) >= 10


def test_search_params_fields():
    row = search_params(80, "dyadic", "ld", "cm1")
    assert row["method"] == "LD" and row["tau2"] == 276
    assert row["keysize"] == row["m"] * row["k"] == 9216
    row = search_params(80, "generic", "ud")
    assert row["method"] == "UD" and row["tau2"] is None
    assert row["keysize"] == row["m"] * row["r"] * row["k"]
    with pytest.raises(ValueError):
        search_params(59, "generic", "ud")
    with pytest.raises(ValueError):
        search_params(301, "generic", "ud")


def test_search_target_out_of_range(capsys):
    code, _, err = run(capsys, ["search", "59", "--variant", "generic",
                                "--decoder", "ud"])
    assert code == 1 and "error:" in err
    with pytest.raises(SystemExit):  # argparse rejects unknown choices
        main(["search", "80", "--variant", "cyclic", "--decoder", "ud"])


def test_file_roundtrip(tmp_path, capsys):
    key = tmp_path / "test.key"
    code, out, _ = run(capsys, ["keygen", "--variant", "generic",
                                "--decoder", "ud", "-m", "8", "-n", "200",
                                "-r", "12", "--seed", "6b657931",
                                "--out", str(key)])
    assert code == 0
    assert "generic ud key: n=200 k=104 r=12 w_enc=12 capacity=8B" in out

    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"hello")
    ct = tmp_path / "msg.ct"
    code, _, _ = run(capsys, ["encrypt", "--key", str(key), "--in",
                              str(msg), "--seed", "aa01", "--out", str(ct)])
    assert code == 0
    pt = tmp_path / "msg.out"
    code, _, _ = run(capsys, ["decrypt", "--key", str(key), "--in",
                              str(ct), "--out", str(pt)])
    assert code == 0
    assert pt.read_bytes() == b"hello"

    # same seeds, same bytes on disk
    key2 = tmp_path / "again.key"
    run(capsys, ["keygen", "--variant", "generic", "--decoder", "ud",
                 "-m", "8", "-n", "200", "-r", "12", "--seed", "6b657931",
                 "--out", str(key2)])
    assert key2.read_bytes() == key.read_bytes()
    ct2 = tmp_path / "again.ct"
    run(capsys, ["encrypt", "--key", str(key), "--in", str(msg),
                 "--seed", "aa01", "--out", str(ct2)])
    assert ct2.read_bytes() == ct.read_bytes()


def test_readme_dyadic_walkthrough(tmp_path, monkeypatch, capsys):
    # the README's keygen / encrypt / decrypt walkthrough, run as written
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, ["keygen", "--variant", "dyadic",
                                "--decoder", "ld", "-m", "10", "-n", "256",
                                "-r", "16", "--seed", "00ff12",
                                "--out", "demo.key"])
    assert code == 0
    with open(README, encoding="utf-8") as fh:
        assert out.strip() in fh.read().splitlines()
    (tmp_path / "demo.msg").write_bytes(b"at dawn")
    assert main(["encrypt", "--key", "demo.key", "--in", "demo.msg",
                 "--seed", "abcdef", "--out", "demo.ct"]) == 0
    assert main(["decrypt", "--key", "demo.key", "--in", "demo.ct",
                 "--out", "demo.out"]) == 0
    assert (tmp_path / "demo.out").read_bytes() == b"at dawn"


def test_cli_error_paths(tmp_path, capsys):
    key = tmp_path / "k"
    # seed must be nonempty hex
    code, _, err = run(capsys, ["keygen", "--variant", "generic",
                                "--decoder", "ud", "-m", "6", "-n", "64",
                                "-r", "2", "--seed", "zz", "--out",
                                str(key)])
    assert code == 1 and "hex" in err
    # dyadic keygen enforces the structural-attack gate
    code, _, err = run(capsys, ["keygen", "--variant", "dyadic",
                                "--decoder", "ud", "-m", "8", "-n", "128",
                                "-r", "8", "--seed", "aa", "--out",
                                str(key)])
    assert code == 1 and "error:" in err
    # decrypting garbage reports an error instead of raising
    run(capsys, ["keygen", "--variant", "generic", "--decoder", "ud",
                 "-m", "6", "-n", "64", "-r", "2", "--seed", "aa",
                 "--out", str(key)])
    bad = tmp_path / "bad.ct"
    bad.write_bytes(b"GCTXjunk")
    out = tmp_path / "bad.out"
    code, _, err = run(capsys, ["decrypt", "--key", str(key), "--in",
                                str(bad), "--out", str(out)])
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, ["decrypt", "--key", str(key), "--in",
                                str(tmp_path / "missing.ct"), "--out",
                                str(out)])
    assert code == 1 and "error:" in err


def test_wrong_ciphertext_weight_exits_cleanly(tmp_path, capsys):
    key = tmp_path / "k"
    run(capsys, ["keygen", "--variant", "generic", "--decoder", "ud",
                 "-m", "8", "-n", "144", "-r", "8", "--seed", "77",
                 "--out", str(key)])
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"hi")
    ct = tmp_path / "msg.ct"
    code, _, _ = run(capsys, ["encrypt", "--key", str(key), "--in",
                              str(msg), "--seed", "01", "--out", str(ct)])
    assert code == 0
    blob = bytearray(ct.read_bytes())
    blob[8:12] = (9).to_bytes(4, "big")  # the recorded weight; r = 8
    ct.write_bytes(bytes(blob))
    code, _, err = run(capsys, ["decrypt", "--key", str(key), "--in",
                                str(ct), "--out", str(tmp_path / "out")])
    assert code == 1
    assert err.startswith("error: ") and "weight" in err
    assert "Traceback" not in err


def test_capacity_error_exits_cleanly(tmp_path, capsys):
    # a generic LD key at r = 24 would need w_enc = 27 = r + 3, past every
    # decoder, so keygen refuses it and writes no key file
    key = tmp_path / "ld.key"
    code, out, err = run(capsys, ["keygen", "--variant", "generic",
                                  "--decoder", "ld", "-m", "8", "-n", "256",
                                  "-r", "24", "--seed", "cafe", "--out",
                                  str(key)])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "r + 2" in err and "Traceback" not in err
    assert not key.exists()
    # the LD key an earlier keygen issued there is the UD key with the
    # decoder byte set and w_enc = r + 3 (the seed schedule ignores the
    # decoder); loading it applies the same gate, so encrypt refuses it in
    # one line and writes no ciphertext
    code, _, _ = run(capsys, ["keygen", "--variant", "generic",
                              "--decoder", "ud", "-m", "8", "-n", "256",
                              "-r", "24", "--seed", "cafe", "--out",
                              str(key)])
    assert code == 0
    blob = bytearray(key.read_bytes())
    assert blob[6] == 0 and int.from_bytes(blob[20:24], "big") == 24
    blob[6] = 1
    blob[20:24] = (24 + 3).to_bytes(4, "big")
    key.write_bytes(bytes(blob))
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"hi")
    ct = tmp_path / "msg.ct"
    code, out, err = run(capsys, ["encrypt", "--key", str(key), "--in",
                                  str(msg), "--seed", "01", "--out", str(ct)])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "r + 2" in err and "Traceback" not in err
    assert not ct.exists()


def test_hostile_key_files_exit_cleanly(tmp_path, capsys):
    key = tmp_path / "k"
    run(capsys, ["keygen", "--variant", "dyadic", "--decoder", "ud",
                 "-m", "10", "-n", "256", "-r", "16", "--seed", "bad5",
                 "--out", str(key)])
    kp = KeyPair.load(str(key))
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"hi")
    ct = tmp_path / "msg.ct"
    code, _, _ = run(capsys, ["encrypt", "--key", str(key), "--in",
                              str(msg), "--seed", "01", "--out", str(ct)])
    assert code == 0

    # a version-1 key file, which carried a column order, is refused
    blob = bytearray(key.read_bytes())
    blob[4] = 1
    old = tmp_path / "v1.key"
    old.write_bytes(bytes(blob))
    code, _, err = run(capsys, ["decrypt", "--key", str(old), "--in",
                                str(ct), "--out", str(tmp_path / "v1.out")])
    assert code == 1
    assert err.startswith("error: ") and "version 1" in err
    assert "Traceback" not in err

    # a support that holds a root of G is refused when decrypt builds the code
    root = kp.gpoly.eval_all(range(kp.field.order)).index(0)
    rooted = tmp_path / "rooted.key"
    KeyPair(kp.variant, kp.decoder, kp.field, (root,) + kp.support[1:],
            kp.gpoly, kp.public).save(str(rooted))
    code, _, err = run(capsys, ["decrypt", "--key", str(rooted), "--in",
                                str(ct), "--out", str(tmp_path / "out")])
    assert code == 1
    assert err.startswith("error: ") and "root of G" in err

"""The benchmark's own checks, on its short mode.

    python3 -m pytest -q perfbench/selfcheck.py

For every workload this runs ``run.py --short`` once untraced and once
traced (about a minute in all) and checks that:

- every metric BENCHMARK.json names is reported, with its unit;
- the layers' self times plus the bench-side time account for the traced
  op time;
- the artifact digests agree between the untraced run, the traced run's
  untraced pass and its traced replay (the fixed prefix, and the hash
  chain over the ops they share), and no op failed in an unexpected way;
- no timed op failed, and each known defect ran once, outside them.
"""

import functools
import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("files", "library", "params")
SEED = 7


@functools.lru_cache(maxsize=None)
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@functools.lru_cache(maxsize=None)
def run(workload, trace):
    """(last line, REPORT object) of one short run."""
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", "2", "--trace",
         str(trace), "--short"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
        stdin=subprocess.DEVNULL)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    report = [line for line in lines if line.startswith("REPORT ")]
    assert len(report) == 1 and lines[-2] == report[0]
    return json.loads(lines[-1]), json.loads(report[0][len("REPORT "):])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_reported_with_its_unit(workload, trace):
    result, _ = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"]
    want = spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == {
        name: val["unit"] for name, val in result["metrics"].items()}
    for val in result["metrics"].values():
        assert isinstance(val["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_design_metrics_carry_units_and_sample_counts(workload):
    result, report = run(workload, 0)
    design = report["design"]
    assert not set(design) & set(result["metrics"])
    for name in ("setup_wall_s", "ops_per_s_wall", "failed_frac"):
        assert design[name]["unit"]
    kinds = [name for name in design if name.endswith(("_p50", "_p90"))]
    assert kinds
    for name in kinds:
        assert design[name]["samples"] >= 1 and design[name]["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_account_for_traced_op_time(workload):
    result, report = run(workload, 1)
    acc = report["accounting"]
    total = acc["layer_self_s"] + acc["bench_s"]
    assert acc["op_time_s"] > 0
    assert abs(total - acc["op_time_s"]) <= 1e-6 * acc["op_time_s"] + 1e-6
    assert acc["bench_s"] >= -1e-9
    assert acc["min_span_self_s"] >= -1e-9
    assert acc["spans_outside_ops"] == 0
    layers = sum(result["metrics"][name]["value"]
                 for name in result["metrics"] if name.endswith(".self_s"))
    assert abs(layers - acc["layer_self_s"]) <= 1e-9 + 1e-9 * layers


@pytest.mark.parametrize("workload", WORKLOADS)
def test_artifact_digests_are_stable(workload):
    _, plain = run(workload, 0)
    _, traced = run(workload, 1)
    a, b = plain["digest"], traced["digest"]
    assert a["prefix_ops"] <= min(a["ops"], b["ops"])
    assert a["prefix_sha256"] == b["prefix_sha256"]
    assert a["chain"][a["prefix_ops"] - 1] == a["prefix_sha256"][:16]
    common = min(a["ops"], b["ops"])
    assert a["chain"][:common] == b["chain"][:common]
    assert traced["traced_sha256"] == b["sha256"]
    for report in (plain, traced):
        assert report["failures"]["unexpected"] == {}
        assert report["fresh_keys"]["duplicates"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_known_defects_run_outside_the_timed_ops(workload):
    want = {"files": 0, "library": 1, "params": 2}[workload]
    for trace in (0, 1):
        result, report = run(workload, trace)
        assert result["failed"] == 0
        defects = report["defects"]
        assert defects["ops"] == want and defects["unexpected"] == {}
        assert sum(defects["known"].values()) + defects["fixed"] == want
        if trace:
            assert result["metrics"]["defects.known_failures"]["value"] == \
                sum(defects["known"].values())


def test_import_is_pinned_to_this_checkout():
    _, report = run("files", 0)
    assert report["provenance"]["package"] == os.path.realpath(
        os.path.join(ROOT, "src", "goppacrypt"))
    assert report["provenance"]["nproc"] >= 1

"""goppacrypt benchmark: three closed-loop workloads, one client each.

    python3 perfbench/run.py --workload files|library|params|all \
        --seed N --seconds S --trace 0|1 [--short]

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
first runs the workload untraced, then replays the same ops with every
package entry point wrapped in a span (see spans.py), and reports the
per-layer metrics and the tracing overhead.  ``--short`` does one set-up
instead of several, for the benchmark's own checks.  ``--workload all``
runs each workload untraced and then traced, one process at a time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
starts with ``REPORT`` and holds the rest of the result: provenance,
per-kind latencies under the names of the design notes (README.md),
failure breakdown and the artifact digests.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

from spans import LAYERS, Tracer, summarize
from speed import SpeedProbe, pin_to_current_cpu
from workloads import WORKLOADS, derive

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
TAIL_MIN_SAMPLES = 100  # a p90 needs ten samples beyond it

# per-kind latencies in the design notes' names and units
KIND_METRICS = {
    "keygen": ("keygen_s", "s", 1.0),
    "encrypt": ("encrypt_ms", "ms", 1e3),
    "decrypt_ud": ("decrypt_ud_ms", "ms", 1e3),
    "decrypt_ld": ("decrypt_ld_ms", "ms", 1e3),
    "search": ("search_ms", "ms", 1e3),
    "table": ("table_ms", "ms", 1e3),
}


def import_pinned():
    """Import goppacrypt from this checkout's src/, or refuse to run."""
    sys.path.insert(0, SRC)
    try:
        import goppacrypt
        import goppacrypt.cli  # noqa: F401  (all ten layers are loaded)
    except ImportError as exc:
        sys.exit("perfbench: cannot import goppacrypt from %s: %s"
                 % (SRC, exc))
    want = os.path.realpath(os.path.join(SRC, "goppacrypt"))
    got = os.path.realpath(os.path.dirname(goppacrypt.__file__))
    if got != want:
        sys.exit("perfbench: goppacrypt resolves to %s, not %s" % (got, want))
    return goppacrypt


def git(*args):
    try:
        out = subprocess.run(["git", "-C", ROOT] + list(args),
                             capture_output=True, text=True, timeout=30,
                             stdin=subprocess.DEVNULL)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(pkg):
    top = git("rev-parse", "--show-toplevel")
    # a checkout outside git may sit inside some other repository
    inside = top is not None and os.path.realpath(top) == \
        os.path.realpath(ROOT)
    commit = git("rev-parse", "HEAD") if inside else None
    dirty = None
    if commit is not None:
        status = git("status", "--porcelain", "--untracked-files=no")
        dirty = bool(status) if status is not None else None
    return {
        "package": os.path.realpath(os.path.dirname(pkg.__file__)),
        "commit": commit,
        "dirty": dirty,
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def percentile(values, q):
    """Linear-interpolated percentile of sorted values (inf allowed)."""
    pos = (len(values) - 1) * q
    lo = int(pos)
    frac = pos - lo
    if frac == 0:
        return values[lo]
    a, b = values[lo], values[lo + 1]
    if math.isinf(b):
        return b
    return a + (b - a) * frac


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def clear_memos(pkg):
    """Empty every functools cache in the package before a replay."""
    for name in LAYERS:
        for obj in vars(getattr(pkg, name)).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


class Record:
    __slots__ = ("op", "kind", "group", "t0", "t1", "speed", "status",
                 "reason")

    def __init__(self, op, kind, group, t0, t1, speed, outcome):
        self.op, self.kind, self.group = op, kind, group
        self.t0, self.t1 = t0, t1
        self.speed = speed  # the speed factor of the probe before the op
        self.status, self.reason = outcome.status, outcome.reason

    def normalized(self):
        return (self.t1 - self.t0) / self.speed


def run_ops(workload, seconds, min_ops, count=None, tracer=None, speed=None):
    """Closed loop: time each op, check it untimed, stop after ``seconds``
    (but not before ``min_ops``), or after exactly ``count`` ops.  The
    speed probe, if given, runs between ops.

    Returns the records, the loop's wall time and the hash chain: one
    SHA-256 runs over the set-up artifacts and then every op's artifacts,
    and ``chain[i]`` is its hex digest after op i."""
    perf = time.perf_counter
    digest = hashlib.sha256()
    for blob in workload.setup_artifacts:
        digest.update(len(blob).to_bytes(8, "big") + blob)
    records, chain = [], []
    start = perf()
    deadline = start + seconds
    for i, op in enumerate(workload.ops()):
        if count is not None:
            if i >= count:
                break
        elif i >= min_ops and perf() >= deadline:
            break
        if tracer is not None:
            tracer.op = i
        factor = speed.current() if speed is not None else 1.0
        t0 = perf()
        try:
            result, error = op.run(), None
        except Exception as exc:  # every failure is counted, none escapes
            result, error = None, exc
        t1 = perf()
        if tracer is not None:
            tracer.op = -1
        outcome = op.check(result, error)
        records.append(Record(i, op.kind, op.group, t0, t1, factor,
                              outcome))
        for blob in outcome.artifacts:
            digest.update(len(blob).to_bytes(8, "big") + blob)
        chain.append(digest.hexdigest())
        if speed is not None:
            speed.maybe_sample()
    wall = perf() - start
    return records, wall, chain


def probe_defects(workload):
    """Run each op of a known defect once, untimed and outside the op
    count.  An op that now succeeds is counted as fixed; one that fails
    in another way than the known one makes the run incorrect."""
    digest = hashlib.sha256()
    known, unexpected, fixed = Counter(), Counter(), 0
    ops = workload.defects()
    for op in ops:
        try:
            result, error = op.run(), None
        except Exception as exc:
            result, error = None, exc
        outcome = op.check(result, error)
        if outcome.status == "ok":
            fixed += 1
        elif outcome.status == "known":
            known[outcome.reason] += 1
        else:
            unexpected[outcome.reason] += 1
        for blob in outcome.artifacts:
            digest.update(len(blob).to_bytes(8, "big") + blob)
    return {"ops": len(ops), "known": dict(known), "fixed": fixed,
            "unexpected": dict(unexpected), "sha256": digest.hexdigest()}


def digest_report(workload, chain):
    """The fixed-prefix digest, which every run at one seed shares, and
    the whole chain, which two runs share over their common length."""
    n = workload.digest_ops
    return {"prefix_ops": n, "prefix_sha256": chain[n - 1],
            "ops": len(chain), "sha256": chain[-1],
            "chain": [h[:16] for h in chain]}


def setup_workload(workload, reps, speed):
    """Medians of the raw and the speed-normalized set-up times.

    Every repetition does the same work on emptied package memos, after
    the garbage of the one before is collected."""
    times, normalized = [], []
    for _ in range(reps):
        clear_memos(workload.pkg)
        gc.collect()
        raw, norm = speed.timed(workload.setup)
        times.append(raw)
        normalized.append(norm)
    return statistics.median(times), statistics.median(normalized), times


def peak_rss_mb(name):
    who = resource.RUSAGE_CHILDREN if name == "params" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def latency_summary(records, workload):
    """Per-kind and per-group latency percentiles.

    Design-note metrics count a failed op as +inf; the headline group
    percentiles use every attempted op's speed-normalized time."""
    by_kind, by_group = {}, {}
    for rec in records:
        dur = rec.t1 - rec.t0
        by_kind.setdefault(rec.kind, []).append(
            dur if rec.status == "ok" else math.inf)
        by_group.setdefault(rec.group, []).append(rec.normalized())
    kinds = {}
    for kind, vals in by_kind.items():
        vals.sort()
        name, unit, scale = KIND_METRICS[kind]
        p90 = percentile(vals, 0.9) if len(vals) >= TAIL_MIN_SAMPLES else None
        for suffix, val in (("p50", percentile(vals, 0.5)), ("p90", p90)):
            if val is not None and not math.isinf(val):
                val *= scale
            elif val is not None:
                val = "inf"
            kinds["%s_%s" % (name, suffix)] = {
                "value": val, "unit": unit, "samples": len(vals)}
    groups = {}
    for group in workload.groups:
        vals = sorted(by_group.get(group, ()))
        if not vals:
            raise RuntimeError("no %s op completed" % group)
        groups[group] = {"p50_ms": percentile(vals, 0.5) * 1e3,
                         "p75_ms": percentile(vals, 0.75) * 1e3,
                         "samples": len(vals)}
    return kinds, groups


def outcome_counts(records):
    known = Counter(r.reason for r in records if r.status == "known")
    unexpected = Counter(r.reason for r in records if r.status == "bad")
    return dict(known), dict(unexpected)


def end_to_end(workload, records, wall, setup_s, setup_norm):
    """The headline metrics, BENCHMARK.json's end_to_end list
    (speed-normalized times), and the design metrics (raw wall times)."""
    kinds, groups = latency_summary(records, workload)
    completed = sum(rec.status == "ok" for rec in records)
    # the op-time-weighted speed factor also normalizes the loop's wall time
    factor = sum(r.t1 - r.t0 for r in records) / sum(
        r.normalized() for r in records)
    headline = {
        "setup_s": {"value": setup_norm, "unit": "s"},
        "ops_per_s": {"value": completed / wall * factor, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb(workload.name), "unit": "MB"},
        "latency_p50_ms": {"value": geomean(
            [g["p50_ms"] for g in groups.values()]), "unit": "ms"},
        "latency_p75_ms": {"value": geomean(
            [g["p75_ms"] for g in groups.values()]), "unit": "ms"},
    }
    design = {
        "setup_wall_s": {"value": setup_s, "unit": "s"},
        "ops_per_s_wall": {"value": completed / wall, "unit": "ops/s"},
        "failed_frac": {"value": 1 - completed / len(records),
                        "unit": "ratio"},
    }
    design.update(kinds)
    return headline, design, groups


def gf2m_kernels(pkg, seed):
    """Two field-arithmetic rates, timed outside the traced phase."""
    rng = random.Random(derive(seed, "kernels"))
    perf = time.perf_counter
    mul_rates, sq_rates = [], []
    fields = [pkg.make_field(m) for m in (8, 9, 10, 11)]
    operands = [[(rng.randrange(f.order), rng.randrange(f.order))
                 for _ in range(20000)] for f in fields]
    f9 = pkg.make_field(9)
    G = pkg.Poly(f9, [rng.randrange(f9.order) for _ in range(12)] + [1])
    polys = [pkg.Poly(f9, [rng.randrange(f9.order) for _ in range(12)])
             for _ in range(1000)]
    for _ in range(3):
        t0 = perf()
        for f, pairs in zip(fields, operands):
            mul = f.mul
            for a, b in pairs:
                mul(a, b)
        mul_rates.append(sum(map(len, operands)) / (perf() - t0))
        t0 = perf()
        for p in polys:
            p.square() % G
        sq_rates.append(len(polys) / (perf() - t0))
    return statistics.median(mul_rates), statistics.median(sq_rates)


def per_layer(pkg, workload, base, traced, tracer, overhead):
    summary = summarize(tracer, [(r.op, r.t0, r.t1) for r in traced])
    op_time = summary["op_time_s"]
    calls, ok_calls = summary["calls"], summary["ok_calls"]
    counts = summary["counts"]
    mul_per_s, sqmod_per_s = gf2m_kernels(pkg, workload.seed)
    startup = sorted(getattr(workload, "startup_s", ()))

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for layer in LAYERS:
        put(layer + ".self_s", summary["self_s"][layer], "s")
        put(layer + ".self_frac", ratio(summary["self_s"][layer], op_time),
            "ratio")
    put("bench.self_frac", ratio(summary["bench_s"], op_time), "ratio")
    for name in ("gf2m.is_irreducible", "binmat.rref", "binmat.null_space",
                 "goppa.build_code", "goppa.syndrome_poly",
                 "decode.patterson_decode", "decode.list_decode",
                 "dyadic.gen_signature", "dyadic.signature_to_code",
                 "dyadic.expand_pubkey", "security.fs_workfactor",
                 "security.radii", "prng.SeededStream.sample_distinct"):
        put(name.replace("SeededStream.", "") + ".calls",
            calls.get(name, 0), "count")
    put("gf2m.irreducible_yield", ratio(
        ok_calls.get("gf2m.random_monic_irreducible", 0),
        calls.get("gf2m.is_irreducible", 0)), "ratio")
    put("gf2m.mul_per_s", mul_per_s, "1/s")
    put("gf2m.sqmod_per_s", sqmod_per_s, "1/s")
    put("decode.key_equations", summary["key_equations"], "count")
    put("decode.locator_evals", counts.get("decode.locator_evals", 0),
        "count")
    put("decode.candidates", counts.get("decode.candidates", 0), "count")
    put("decode.candidate_yield", ratio(counts.get("decode.candidates", 0),
                                        summary["key_equations"]), "ratio")
    put("decode.g2_fallbacks", summary["g2_fallbacks"], "count")
    put("dyadic.attempt_yield", ratio(
        ok_calls.get("dyadic.signature_to_code", 0),
        calls.get("dyadic.signature_to_code", 0)), "ratio")
    put("scheme.key_loads", calls.get("scheme.KeyPair.from_bytes", 0),
        "count")
    put("scheme.tag_checks", counts.get("scheme.tag_checks", 0), "count")
    put("scheme.tag_rejects", counts.get("scheme.tag_rejects", 0), "count")
    put("cli.startup_ms_p50",
        percentile(startup, 0.5) * 1e3 if startup else 0.0, "ms")
    put("trace.ops", len(traced), "count")
    put("trace.overhead_frac", overhead, "ratio")
    put("ops.failed_frac", ratio(sum(r.status != "ok" for r in base),
                                 len(base)), "ratio")
    return m, summary


def write_spans(workload, tracer, traced):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "spans-%s-seed%d.json" % (workload.name,
                                                       workload.seed))
    with open(path, "w") as fh:
        json.dump({"fields": ["parent", "op", "name", "t0", "t1", "ok"],
                   "spans": tracer.spans,
                   "ops": [[r.op, r.kind, r.t0, r.t1, r.status]
                           for r in traced]}, fh)
    return path


def run_one(args):
    pkg = import_pinned()
    prov = provenance(pkg)
    prov["pinned_cpu"] = pin_to_current_cpu()
    workload = WORKLOADS[args.workload](pkg, ROOT, args.seed)
    reps = 1 if args.short else workload.setup_reps
    speed = SpeedProbe()
    setup_s, setup_norm, setup_times = setup_workload(workload, reps, speed)
    min_ops = workload.digest_ops
    report = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "provenance": prov, "setup_runs_s": setup_times}

    if not args.trace:
        records, wall, chain = run_ops(workload, args.seconds, min_ops,
                                       speed=speed)
        headline, design, groups = end_to_end(workload, records, wall,
                                              setup_s, setup_norm)
        report["speed"] = speed.report()
        metrics = headline
        report["design"] = design
        report["latency_groups"] = groups
        base = records
    else:
        half = args.seconds / 2.0
        base, _, chain = run_ops(workload, half, min_ops, speed=speed)
        clear_memos(pkg)
        workload.reset()
        workload.rewarm()
        tracer = Tracer()
        workload.tracer = tracer
        tracer.install(pkg)
        try:
            traced, _, traced_chain = run_ops(workload, 0, 0,
                                              count=len(base), tracer=tracer,
                                              speed=speed)
        finally:
            tracer.uninstall()
            workload.tracer = None
        # speed-normalized, so that machine drift between the passes
        # does not read as tracing overhead
        untraced_s = sum(r.normalized() for r in base)
        traced_s = sum(r.normalized() for r in traced)
        metrics, summary = per_layer(pkg, workload, base, traced, tracer,
                                     traced_s / untraced_s - 1.0)
        report["traced_sha256"] = traced_chain[-1]
        report["traced_ops"] = dict(Counter(r.kind for r in traced))
        report["accounting"] = {
            "op_time_s": summary["op_time_s"],
            "layer_self_s": sum(summary["self_s"].values()),
            "bench_s": summary["bench_s"],
            "min_span_self_s": summary["min_span_self_s"],
            "spans_outside_ops": summary["spans_outside_ops"]}
        report["spans_file"] = os.path.relpath(
            write_spans(workload, tracer, traced), ROOT)
        replay_ok = traced_chain == chain and all(
            a.status == b.status for a, b in zip(base, traced))
    # after the metrics, so the defect ops move none of them
    defects = probe_defects(workload)
    if args.trace:
        metrics["defects.known_failures"] = {
            "value": sum(defects["known"].values()), "unit": "count"}
    known, unexpected = outcome_counts(base)
    if args.trace and not replay_ok:
        unexpected["traced replay differs from the untraced run"] = 1
    report["defects"] = defects
    report["digest"] = digest_report(workload, chain)
    report["failures"] = {"known": known, "unexpected": unexpected}
    report["fresh_keys"] = {"keys": len(workload.fresh.seen),
                            "duplicates": workload.fresh.duplicates}
    result = {"correct": not unexpected and not defects["unexpected"]
              and not workload.fresh.duplicates,
              "attempted": len(base),
              "failed": sum(r.status != "ok" for r in base),
              "metrics": metrics}
    print("REPORT " + json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload, untraced then traced, each in its own process."""
    combined = {}
    for name in ("files", "library", "params"):
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload",
                   name, "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd + ["--short"] * args.short, cwd=ROOT,
                                  capture_output=True, text=True,
                                  stdin=subprocess.DEVNULL)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                sys.stderr.write(proc.stderr)
                return proc.returncode or 1
            print("\n".join(lines[:-1]))
            combined["%s/trace%d" % (name, trace)] = json.loads(lines[-1])
    print(json.dumps({"correct": all(r["correct"]
                                     for r in combined.values()),
                      "runs": combined}))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("files", "library", "params", "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--short", action="store_true",
                   help="one set-up instead of several")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

"""tiersim benchmark: host time and memory of the simulator on fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from the root of a checkout. NAME is one of swap-disk-density,
flash-both-density or trace-rw (see workloads.py), or `all` for the three in
turn. Each repetition runs the whole workload serially (jobs=1) in a fresh
process; repetitions are repeated while the next one would end within S
seconds (at least MIN_REPS of them) and the medians are reported.

Host times are scaled to a reference host speed, measured by a reference
kernel sampled throughout each repetition (see child.py). The unscaled
wall time and the host's speed are printed beside them.

Simulated output is deterministic: it is checked, not scored. Every point
is audited with MemoryModel.check_full(), its result row must match the
plan, and its bytes must repeat in every repetition. A point that raised,
failed a check or changed its bytes counts as failed.

With --trace 0 the last line is a JSON object holding the end-to-end
metrics; with --trace 1, one more repetition runs under the layer tracer
(layers.py) and the JSON holds the per-layer metrics, including
trace.overhead_s, the traced wall time minus the untraced median. The lines
before it give every metric with its unit, quartiles and sample count.
"""

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import PER_LAYER_UNITS
from workloads import WORKLOADS, write_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

MIN_REPS = 3
# a guard against a hung repetition, not a stop rule: at the baseline one
# untraced repetition takes about 7 s and a traced one about 25 s
CHILD_TIMEOUT_S = 120

END_TO_END = [
    ("wall_s", "s"),
    ("slowest_point_s", "s"),
    ("sim_events_per_s", "events/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]


def run_child(wl, seed, rep_dir, quick, traced, trace_args):
    rep_dir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", wl.name,
           "--seed", str(seed), "--out", str(rep_dir)]
    cmd += trace_args
    if quick:
        cmd.append("--quick")
    if traced:
        cmd.append("--traced")
    # a fixed string-hash seed keeps dict and set layouts, and so host
    # time, from varying between repetitions
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawn = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd + ["--spawn-ns", str(spawn)], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"repetition timed out after {CHILD_TIMEOUT_S} s"}
    try:
        with open(rep_dir / "result.json") as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        return {"error": f"exit {proc.returncode}, no result: {proc.stderr.strip()}"}
    if result["error"] is None and proc.returncode != 0:
        result["error"] = f"exit {proc.returncode}: {proc.stderr.strip()}"
    return result


def failed_points(rep, reference, npoints):
    """Indices of the points of one repetition that failed, and why."""
    if rep.get("error"):
        return {i: rep["error"].strip().splitlines()[-1] for i in range(npoints)}
    out = {}
    for i in range(npoints):
        why = list(rep["problems"][i])
        digests = rep["point_digests"]
        if i >= len(digests) or digests[i] != reference[i]:
            why.append("result bytes differ from the first repetition")
        if why:
            out[i] = "; ".join(why)
    return out


def bench_workload(wl, seed, seconds, traced, quick):
    wdir = OUT / wl.name
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    trace_args = []
    if wl.kind == "trace":
        path = wdir / "input.trace"
        n = wl.trace_accesses_quick if quick else wl.trace_accesses
        accesses, distinct = write_trace(path, seed, n, wl.flags["mem.dram_pages"])
        trace_args = ["--trace-file", str(path),
                      "--trace-meta", f"{accesses},{distinct}"]
    t0 = time.monotonic()
    reps, took = [], []
    while True:
        r0 = time.monotonic()
        reps.append(run_child(wl, seed, wdir / f"rep-{len(reps)}", quick, False,
                              trace_args))
        now = time.monotonic()
        took.append(now - r0)
        # stop before a repetition that would end past --seconds
        if len(reps) >= MIN_REPS and now - t0 + statistics.median(took) > seconds:
            break
    traced_rep = None
    if traced:
        traced_rep = run_child(wl, seed, wdir / "traced", quick, True, trace_args)
    return summarize(wl, reps, traced_rep)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(wl, reps, traced_rep):
    npoints = len(wl.points())
    good = [r for r in reps if not r.get("error")]
    reference = good[0]["point_digests"] if good else [None] * npoints
    failures = []
    for k, rep in enumerate(reps + ([traced_rep] if traced_rep else [])):
        label = "traced" if k == len(reps) else f"rep {k}"
        for i, why in failed_points(rep, reference, npoints).items():
            failures.append(f"{label} point {'/'.join(map(str, wl.points()[i]))}: {why}")
    attempted = npoints * (len(reps) + (1 if traced_rep else 0))
    samples = {
        "wall_s": [r["wall_s"] for r in good],
        "sim_events_per_s": [r["events"] / r["run_s"] for r in good],
        "setup_s": [r["setup_s"] for r in good],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
        "host_speed": [r["host_speed"] for r in good],
        "raw_wall_s": [r["raw_wall_s"] for r in good],
    }
    # the slowest point by its median, so one slow repetition of a fast
    # point does not stand in for it
    by_point = zip(*[[p["seconds"] for p in r["points"]] for r in good])
    samples["slowest_point_s"] = list(max(by_point, key=statistics.median, default=[]))
    return {
        "name": wl.name,
        "reps": len(reps),
        "good": good,
        "digest": good[0]["digest"] if good else None,
        "attempted": attempted,
        "failures": failures,
        "samples": samples,
        "traced": traced_rep,
    }


def report(res, traced, prefix, metrics):
    """Print one workload's figures; add its JSON metrics to `metrics`."""
    name = res["name"]
    digests = {r["digest"] for r in res["good"]}
    if res["traced"] and not res["traced"].get("error"):
        digests.add(res["traced"]["digest"])
    agree = "all repetitions agree" if len(digests) == 1 else "DIGESTS DIFFER"
    print(f"{name}: {res['reps']} repetitions, result sha256 {res['digest']} ({agree})")
    for line in res["failures"]:
        print(f"{name}: FAILED {line}")
    nfail = len(res["failures"])
    print(f"{name} failed_frac = {nfail / res['attempted']:.4g} ratio "
          f"({nfail} of {res['attempted']} points)")
    for metric, unit in END_TO_END + [("raw_wall_s", "s"), ("host_speed", "x")]:
        values = res["samples"][metric]
        q1, med, q3 = quartiles(values)
        print(f"{name} {metric} = {med:.6g} {unit} "
              f"(median of {len(values)}; q1 {q1:.6g}, q3 {q3:.6g})")
        if not traced and (metric, unit) in END_TO_END:
            metrics[prefix + metric] = {"value": med, "unit": unit}
    if not traced:
        return
    tr = res["traced"]
    if tr.get("error"):
        print(f"{name}: traced repetition failed: {tr['error']}")
        return
    layer = dict(tr["layers"])
    overhead = tr["wall_s"] - statistics.median(res["samples"]["wall_s"])
    layer["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    for metric, unit in PER_LAYER_UNITS:
        m = layer[metric]
        shown = "absent" if m.get("absent") else f"{m['value']:.6g} {unit}"
        print(f"{name} {metric} = {shown}")
        metrics[prefix + metric] = m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny simulated lengths, for the smoke test")
    args = ap.parse_args(argv)
    if not (SRC / "tiersim" / "__init__.py").is_file():
        print(f"perfbench: no tiersim sources under {SRC}", file=sys.stderr)
        return 2
    # the first repetition should not pay for byte-compiling the sources
    compileall.compile_dir(str(SRC), quiet=1)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics = {}
    attempted = failed = 0
    for name in names:
        res = bench_workload(WORKLOADS[name], args.seed, args.seconds,
                             bool(args.trace), args.quick)
        if not res["good"]:
            for line in res["failures"][:3]:
                print(f"perfbench: {name}: {line}", file=sys.stderr)
            print(f"perfbench: {name}: no repetition succeeded", file=sys.stderr)
            return 1
        prefix = f"{name}." if len(names) > 1 else ""
        report(res, bool(args.trace), prefix, metrics)
        attempted += res["attempted"]
        failed += len(res["failures"])
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

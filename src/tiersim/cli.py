"""Command-line front end.

Two entry forms:
  tiersim [flags]              run a sweep (or a trace replay with --trace)
  tiersim compare A B [--out]  ratio table from two existing result dirs

Exit codes: 0 ok, 1 usage or config error (--check and --dump-accesses
apply to sweeps, not --trace replays), a trace or output path that
cannot be read or used, or a sweep CSV that compare cannot parse, 2
simulation abort, 3 acceptance-check failure under --check.
"""

import argparse
import os
import sys

from .acceptance import evaluate
from .config import DEFAULTS, ConfigError, parse_config_file, resolve
from .core import SimulationError
from .experiment import run_sweep, run_trace
from .report import _fmt, read_sweep_csv
from .workload import TraceError


def _build_parser():
    p = argparse.ArgumentParser(
        prog="tiersim",
        description="Two-tier memory simulator: container-density sweeps "
                    "under reactive swap or predictive tiering.")
    p.add_argument("--config", metavar="PATH", help="key = value config file")
    p.add_argument("--policy", choices=["swap", "dmx", "both"])
    p.add_argument("--device", choices=["flash", "disk"])
    p.add_argument("--containers", metavar="LIST",
                   help="comma list or start:stop[:step], e.g. 1:49:2")
    p.add_argument("--duration", metavar="S", dest="duration_s",
                   help="simulated seconds per point")
    p.add_argument("--warmup", metavar="S", dest="warmup_s",
                   help="seconds excluded from stats")
    p.add_argument("--seed", metavar="N")
    p.add_argument("--scale", metavar="SIGMA",
                   help="footprint divisor for the noise image catalog")
    p.add_argument("--out", metavar="DIR", default="results")
    p.add_argument("--jobs", metavar="N", type=int, default=1)
    p.add_argument("--check", action="store_true",
                   help="evaluate acceptance criteria on the sweep output")
    p.add_argument("--trace", metavar="PATH",
                   help="replay an access trace instead of running workloads")
    p.add_argument("--dump-events", action="store_true", dest="dump_events")
    p.add_argument("--dump-accesses", action="store_true", dest="dump_accesses",
                   help="write per-run access logs in trace format")
    return p


def _print_summaries(summaries, out):
    cols = ("containers", "policy", "device", "tps", "p99_us",
            "demand_faults", "evictions")
    widths = [10, 6, 6, 10, 10, 13, 10]
    print(" ".join(c.rjust(w) for c, w in zip(cols, widths)), file=out)
    for s in summaries:
        cells = []
        for c, w in zip(cols, widths):
            v = getattr(s, c)
            if v is None:
                v = "-"
            elif isinstance(v, float):
                v = f"{v:.1f}"
            cells.append(str(v).rjust(w))
        print(" ".join(cells), file=out)


def _make_out_dir(path):
    """Create the output directory, so that an unusable --out is reported
    before anything runs."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {path}: {exc}")


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "compare":
        return _compare(argv[1:])
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        file_values = parse_config_file(args.config) if args.config else {}
        # a flag whose dest is a config key sets it; values stay raw
        # strings, which resolve() parses
        flag_values = {key: val for key, val in vars(args).items()
                       if key in DEFAULTS and val is not None}
        cfg = resolve(file_values, flag_values)
        if args.trace and cfg["policy"] == "both":
            raise ConfigError("--trace replays one policy; pick swap or dmx")
        if args.trace and args.check:
            raise ConfigError("--check evaluates sweeps, not --trace replays")
        if args.trace and args.dump_accesses:
            raise ConfigError("--dump-accesses logs sweeps, not --trace replays")
        if args.jobs < 1:
            raise ConfigError("--jobs must be >= 1")
        _make_out_dir(args.out)
    except ConfigError as exc:
        print(f"tiersim: {exc}", file=sys.stderr)
        return 1
    try:
        if args.trace:
            summary, driver = run_trace(cfg, args.trace, args.out,
                                        args.dump_events)
            print(f"replayed {driver.accesses} accesses from {args.trace}")
            _print_summaries([summary], sys.stdout)
        else:
            summaries = run_sweep(cfg, args.out, args.jobs,
                                  dump_events=args.dump_events,
                                  dump_accesses=args.dump_accesses)
            _print_summaries(summaries, sys.stdout)
            print(f"results written to {args.out}/sweep.csv")
            if args.check:
                return _run_checks(summaries, cfg)
    except TraceError as exc:
        print(f"tiersim: {exc}", file=sys.stderr)
        return 1
    except SimulationError as exc:
        print(f"tiersim: aborted: {exc}", file=sys.stderr)
        return 2
    return 0


def _run_checks(summaries, cfg):
    results = evaluate(summaries, cfg["mem.dram_pages"], cfg["scale"])
    if not results:
        print("CHECK: no criteria applicable to this sweep shape")
        return 3
    failed = 0
    for r in results:
        mark = "PASS" if r.ok else "FAIL"
        print(f"{mark} {r.name}: {r.detail}")
        failed += 0 if r.ok else 1
    return 3 if failed else 0


def _compare(argv):
    p = argparse.ArgumentParser(
        prog="tiersim compare",
        description="Per-point B/A ratio table from two sweep result dirs.")
    p.add_argument("dir_a")
    p.add_argument("dir_b")
    p.add_argument("--out", metavar="DIR", default=".")
    try:
        args = p.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        rows_a = read_sweep_csv(os.path.join(args.dir_a, "sweep.csv"))
        rows_b = read_sweep_csv(os.path.join(args.dir_b, "sweep.csv"))
        _make_out_dir(args.out)
    except (OSError, SimulationError, ConfigError) as exc:
        print(f"tiersim: {exc}", file=sys.stderr)
        return 1

    def keyed(rows):
        return {(s.policy, s.device, s.containers): s for s in rows}

    ka, kb = keyed(rows_a), keyed(rows_b)
    if len(ka) != len(rows_a) or len(kb) != len(rows_b):
        print("tiersim: duplicate sweep points in input", file=sys.stderr)
        return 1
    if ka.keys() != kb.keys():
        only_a = sorted(ka.keys() - kb.keys())
        only_b = sorted(kb.keys() - ka.keys())
        print("tiersim: sweep points do not match", file=sys.stderr)
        if only_a:
            print(f"  only in {args.dir_a}: {only_a}", file=sys.stderr)
        if only_b:
            print(f"  only in {args.dir_b}: {only_b}", file=sys.stderr)
        return 1

    def ratio(b, a):
        if a is None or b is None or a == 0:
            return None
        return b / a

    header = ("policy", "device", "containers", "tps_a", "tps_b", "tps_ratio",
              "p99_a", "p99_b", "p99_ratio")
    lines = [",".join(header)]
    print(" ".join(h.rjust(10) for h in header))
    for key in sorted(ka):
        a, b = ka[key], kb[key]
        tr = ratio(b.tps, a.tps)
        pr = ratio(b.p99_us, a.p99_us)
        row = [a.policy, a.device, a.containers, a.tps, b.tps, tr,
               a.p99_us, b.p99_us, pr]
        cells = ["-" if v is None else f"{v:.3f}" if isinstance(v, float)
                 else str(v) for v in row]
        print(" ".join(c.rjust(10) for c in cells))
        lines.append(",".join(_fmt(v) for v in row))
    out_path = os.path.join(args.out, "compare.csv")
    with open(out_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"comparison written to {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

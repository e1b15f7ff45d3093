"""One repetition of one workload, in a fresh process started by run.py.

A fresh process per repetition makes setup time (process start to the
first Simulator.run) and peak resident memory belong to that repetition
alone. Writes result.json into --out; run.py reads it.

Host times are scaled by the reference clock (RefClock): a fixed
pure-Python kernel, sampled every REF_EVERY_S from a SIGALRM handler on
the same core as the simulator, gives how fast the host ran during each
interval. The host's speed drifts by about a third within minutes, and CPU
time drifts with it, so an unscaled time says as much about the
neighbours as about the program.

Point-level hooks run in every repetition: they time each point, count
kernel events, and after each point audit the captured memory model with
MemoryModel.check_full() and read its simulated counters. That work is
kept out of the reported host times. With --traced, the layer tracer is
installed as well.
"""

import argparse
import hashlib
import json
import os
import resource
import signal
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import layers
from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"

# One reference sample takes about REF_KERNEL_NS on the machine the
# benchmark was defined on (2-core Xeon, Python 3.11), so a scaled time
# reads close to the unscaled one there. Sampling costs about 2% of host
# time, which the program clock leaves out.
REF_EVERY_S = 0.015
REF_KERNEL_NS = 260_000


def ref_kernel():
    """SplitMix64 steps and small-dict updates, the simulator's staple work."""
    s, mask, counts = 0x9E3779B97F4A7C15, (1 << 64) - 1, {}
    for _ in range(600):
        s = (s + 0x9E3779B97F4A7C15) & mask
        z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & mask
        counts[z & 255] = counts.get(z & 255, 0) + 1
    return counts


class RefClock:
    """Program time, and the reference samples taken so far.

    now() is monotonic time less the time spent in reference samples.
    speed(a, b) is REF_KERNEL_NS over the mean sample between two marks:
    below 1 on a host slower than the reference. A time measured between
    the marks, times that speed, is the reported (scaled) time."""

    def __init__(self):
        self.tally = (0, 0)         # samples, ns in samples; replaced whole
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)

    def _sample(self, signum, frame):
        t0 = time.monotonic_ns()
        ref_kernel()
        n, ns = self.tally
        self.tally = (n + 1, ns + time.monotonic_ns() - t0)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def now(self):
        return time.monotonic_ns() - self.tally[1]

    def mark(self):
        return self.tally

    def speed(self, a=(0, 0), b=None):
        n, ns = b or self.tally
        n, ns = n - a[0], ns - a[1]
        return REF_KERNEL_NS * n / ns if n else None


class Probe:
    def __init__(self, modules, clock, traced_counters):
        self.modules = modules
        self.clock = clock
        self.points = []            # one record per point or replay
        self.first_run_ns = None
        self.events = 0
        self.run_ns = 0
        self.hidden_ns = 0          # audit and counter reads, not host time
        self.sim = defaultdict(int)
        self.ran = set()
        self._cur = None
        self._counters = traced_counters
        core, experiment, workload = (modules["core"], modules["experiment"],
                                      modules["workload"])
        self._patch(core.Simulator, "run", self._run)
        self._patch(experiment, "make_policy", self._make_policy)
        self._patch(experiment, "run_point", self._point)
        self._patch(experiment, "run_trace", self._point)
        self._patch(workload.CriticalService, "start", self._capture("critical"))
        self._patch(workload.NoiseSystem, "start", self._capture("noise"))

    @staticmethod
    def _patch(owner, attr, make):
        setattr(owner, attr, make(getattr(owner, attr)))

    def _run(self, orig):
        def run(sim, until):
            t0 = self.clock.now()
            if self.first_run_ns is None:
                self.first_run_ns = t0
            cur = self._cur
            if cur is not None:
                cur["sim"] = sim
                if cur["first_run"] is None:
                    cur["first_run"] = t0
            n = orig(sim, until)
            self.run_ns += self.clock.now() - t0
            self.events += n
            return n
        return run

    def _make_policy(self, orig):
        def make_policy(*args, **kwargs):
            policy = orig(*args, **kwargs)
            if self._cur is not None:
                self._cur["policy"] = policy
            return policy
        return make_policy

    def _capture(self, key):
        def make(orig):
            def start(obj, *args, **kwargs):
                if self._cur is not None:
                    self._cur[key] = obj
                return orig(obj, *args, **kwargs)
            return start
        return make

    def _point(self, orig):
        def point(*args, **kwargs):
            cur = self._cur = {"first_run": None, "policy": None, "sim": None,
                               "critical": None, "noise": None}
            m0, t0 = self.clock.mark(), self.clock.now()
            try:
                result = orig(*args, **kwargs)
            except Exception as exc:
                self.points.append({"error": f"{type(exc).__name__}: {exc}"})
                self._cur = None
                raise
            t1 = self.clock.now()
            record = {"raw_s": (t1 - t0) / 1e9,
                      "speed": self.clock.speed(m0, self.clock.mark()),
                      "setup_s": ((cur["first_run"] or t1) - t0) / 1e9}
            record.update(self._finish(cur, result))
            self.points.append(record)
            self._cur = None
            self.hidden_ns += self.clock.now() - t1
            return result
        return point

    def _finish(self, cur, result):
        """Audit the point's model and read its simulated counters."""
        policy = cur["policy"]
        model = policy.model
        out = {"audit": "ok"}
        try:
            model.check_full()
        except self.modules["core"].SimulationError as exc:
            out["audit"] = f"check_full: {exc}"
        if isinstance(result, tuple):           # run_trace: (summary, driver)
            out["trace_accesses"] = result[1].accesses
            out["pages_total"] = model.total
        if not self._counters:
            return out
        sim, name = self.sim, policy.name
        self.ran.add(name)
        for key, value in policy.snapshot_counters().items():
            sim[f"sim.{name}.{key}"] += value
        device = policy.device
        for key, value in device.stats.items():
            sim[f"sim.media.{key}"] += value
        sim["sim.slot_us"] += device.profile.max_inflight * cur["sim"].now
        dram = self.modules["memory"].DRAM
        resident = {id(c) for ctx in model.contexts.values()
                    for c in ctx.pages.values() if c.tier == dram}
        sim["sim.cohorts_end"] += len(resident)
        if name == "dmx":
            sim["sim.dmx.resident_cohorts"] += len(resident)
            wheel = getattr(policy, "_expiry", None)
            if wheel is not None:
                sim["sim.dmx.wheel_entries"] += sum(len(b) for b in wheel.values())
        if cur["critical"] is not None:
            sim["sim.critical_txns"] += cur["critical"].completed
        if cur["noise"] is not None:
            sim["sim.noise_requests"] += cur["noise"].requests
        if "trace_accesses" in out:
            sim["sim.trace_accesses"] += out["trace_accesses"]
        return out

    def simulated(self):
        """Summed simulated counters; a component this workload never ran
        reads 0 (one that ran but no longer reports a counter stays absent)."""
        sim = dict(self.sim)
        for key in ("sim.critical_txns", "sim.noise_requests", "sim.trace_accesses"):
            sim.setdefault(key, 0)
        if "swap" not in self.ran:
            for c in layers.SWAP_COUNTERS:
                sim[f"sim.swap.{c}"] = 0
        if "dmx" not in self.ran:
            for c in layers.DMX_COUNTERS:
                sim[f"sim.dmx.{c}"] = 0
            sim["sim.dmx.resident_cohorts"] = sim["sim.dmx.wheel_entries"] = 0
        sim["sim.events"] = self.events
        return sim


def _rows(path):
    with open(path, "rb") as fh:
        data = fh.read()
    lines = [ln for ln in data.decode().splitlines() if ln and not ln.startswith("#")]
    return data, lines[1:]


def check_outputs(wl, out_dir, probe, trace_meta):
    """Digest the result bytes and check them against the plan. Returns the
    workload digest, one digest per point, and per point a list of the
    checks it failed."""
    expected = wl.points()
    if wl.kind == "sweep":
        data, rows = _rows(os.path.join(out_dir, "sweep.csv"))
        blobs = [data]
    else:
        blobs, rows = [], []
        for policy in wl.policies:
            data, r = _rows(os.path.join(out_dir, policy, "sweep.csv"))
            blobs.append(data)
            rows += r
    problems = [[] for _ in expected]
    if len(rows) != len(expected) or len(probe.points) != len(expected):
        for p in problems:
            p.append(f"{len(rows)} result rows and {len(probe.points)} points "
                     f"run for {len(expected)} planned")
    for i, ((policy, device, n), row, rec) in enumerate(zip(expected, rows,
                                                             probe.points)):
        if not row.startswith(f"{n},{policy},{device},"):
            problems[i].append(f"row {row!r} is not point {policy}/{device}/{n}")
        if rec.get("audit") != "ok":
            problems[i].append(rec.get("audit") or rec.get("error"))
        if trace_meta is not None:
            accesses, distinct = trace_meta
            if rec.get("trace_accesses") != accesses:
                problems[i].append(f"replayed {rec.get('trace_accesses')} "
                                   f"of {accesses} accesses")
            if rec.get("pages_total") != distinct:
                problems[i].append(f"holds {rec.get('pages_total')} pages, "
                                   f"the trace touches {distinct}")
    digest = hashlib.sha256(b"".join(blobs)).hexdigest()
    point_digests = [hashlib.sha256(r.encode()).hexdigest() for r in rows]
    return digest, point_digests, problems


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawn-ns", type=int, required=True)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--trace-file")
    ap.add_argument("--trace-meta", help="accesses,distinct pages")
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    result = {"error": None}
    clock = RefClock()
    try:
        sys.path.insert(0, str(SRC))
        from tiersim import config, core, dmx, experiment, media, memory
        from tiersim import metrics, swap, workload
        # report's functions are wrapped where experiment calls them
        modules = {"core": core, "memory": memory, "media": media, "swap": swap,
                   "dmx": dmx, "workload": workload, "metrics": metrics,
                   "experiment": experiment, "config": config}
        tracer = None
        if args.traced:
            tracer = layers.Tracer()
            tracer.install(modules)
        probe = Probe(modules, clock, traced_counters=args.traced)
        flags = dict(wl.flags, seed=args.seed)
        if args.quick:
            flags.update(wl.quick_flags)
        if wl.kind == "sweep":
            cfg = config.resolve(flag_values=flags)
            experiment.run_sweep(cfg, args.out, jobs=1)
        else:
            for policy in wl.policies:
                cfg = config.resolve(flag_values=dict(flags, policy=policy))
                experiment.run_trace(cfg, args.trace_file,
                                     os.path.join(args.out, policy))
        t_end = clock.now()
        clock.stop()
        speed = clock.speed()
        # a point too short to hold a sample takes the repetition's speed
        for p in probe.points:
            p["seconds"] = p["raw_s"] * (p.pop("speed") or speed)
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        meta = (tuple(int(x) for x in args.trace_meta.split(","))
                if args.trace_meta else None)
        digest, point_digests, problems = check_outputs(wl, args.out, probe, meta)
        result.update(
            points=probe.points,
            host_speed=speed,
            raw_wall_s=(t_end - args.spawn_ns - probe.hidden_ns) / 1e9,
            setup_s=(probe.first_run_ns - args.spawn_ns) / 1e9 * speed,
            wall_s=(t_end - args.spawn_ns - probe.hidden_ns) / 1e9 * speed,
            events=probe.events,
            run_s=probe.run_ns / 1e9 * speed,
            peak_rss_mb=rss_kib / 1024,
            digest=digest,
            point_digests=point_digests,
            problems=problems,
        )
        if tracer is not None:
            setup = sum(p["setup_s"] for p in probe.points)
            result["layers"] = layers.layer_values(tracer, probe.simulated(), setup)
            tracer.write_spans(os.path.join(args.out, "spans.tsv"))
    except Exception:
        result["error"] = traceback.format_exc()
    finally:
        clock.stop()
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 1 if result["error"] else 0


if __name__ == "__main__":
    sys.exit(main())

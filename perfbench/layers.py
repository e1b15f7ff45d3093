"""Per-layer measurement from outside the simulator.

The tracer replaces public functions and methods of tiersim's modules with
timing wrappers at run time; nothing under src/ changes. Each call through
a wrapper is a span with a name, a start, an end and a parent span. A
span's self time is its duration minus the time its child spans cover.
Scheduled callbacks are wrapped through Simulator.schedule, so every kernel
event is a parent span named after its kind.

Hot leaf functions (called more than about once per event) are counted and
timed in aggregate only; every other call is also stored as a span, up to
SPAN_CAP spans, so the traced run's memory stays bounded.

A target that no longer exists is not an error: its metrics are reported
as absent, so the benchmark keeps running across refactors that remove or
rename the function.
"""

import time
from array import array

SPAN_CAP = 100_000

SPAN = "span"
HOT = "hot"

# (timer name, tiersim module, attribute path, how)
TIMED = [
    ("core.run", "core", "Simulator.run", SPAN),
    ("core.rng.next_u64", "core", "SplitMix64.next_u64", HOT),
    ("core.rng.randrange", "core", "SplitMix64.randrange", HOT),
    ("core.rng.random", "core", "SplitMix64.random", HOT),
    ("memory.extract", "memory", "MemoryModel.extract", HOT),
    ("memory.transition", "memory", "MemoryModel.transition", HOT),
    ("memory.lookup", "memory", "MemoryModel.lookup", HOT),
    ("memory.create", "memory", "MemoryModel.create", HOT),
    ("memory.pagelist.append", "memory", "PageList.append", HOT),
    ("memory.pagelist.remove", "memory", "PageList.remove", HOT),
    ("memory.pagelist.insert_before", "memory", "PageList.insert_before", HOT),
    ("memory.pagelist.insert_after", "memory", "PageList.insert_after", HOT),
    ("memory.pagelist.move_to_tail", "memory", "PageList.move_to_tail", HOT),
    ("media.submit_demand", "media", "Device.submit_demand", SPAN),
    ("media.submit_background", "media", "Device.submit_background", SPAN),
    ("media.dispatch", "media", "Device._dispatch", SPAN),
    ("media.complete", "media", "Device._complete", SPAN),
    ("swap.access_range", "swap", "SwapPolicy.access_range", SPAN),
    ("swap.reclaim", "swap", "SwapPolicy._reclaim", SPAN),
    ("swap.on_allocate", "swap", "SwapPolicy.on_allocate", SPAN),
    ("dmx.access_range", "dmx", "DmxPolicy.access_range", SPAN),
    ("dmx.tick", "dmx", "DmxPolicy.tick", SPAN),
    ("dmx.take_victims", "dmx", "DmxPolicy._take_victims", SPAN),
    ("dmx.victims_from", "dmx", "DmxPolicy._victims_from", SPAN),
    ("dmx.rebalance_quotas", "dmx", "DmxPolicy.rebalance_quotas", SPAN),
    ("dmx.expire_sweep", "dmx", "DmxPolicy._expire_sweep", SPAN),
    ("dmx.close_windows", "dmx", "DmxPolicy._close_windows", SPAN),
    ("dmx.wheel_add", "dmx", "DmxPolicy._wheel_add", HOT),
    ("dmx.ensure_frames", "dmx", "DmxPolicy._ensure_frames", HOT),
    ("workload.walk_ranges", "workload", "walk_ranges", SPAN),
    ("workload.draw_record", "workload", "CriticalService.draw_record", HOT),
    # experiment imports these by name, so they are replaced where it calls them
    ("workload.load_trace", "experiment", "load_trace", SPAN),
    ("report.write_sweep_csv", "experiment", "write_sweep_csv", SPAN),
    ("report.write_charts", "experiment", "write_charts", SPAN),
    ("metrics.record", "metrics", "Collector.record", HOT),
    ("metrics.summarize", "metrics", "Collector.summarize", SPAN),
    ("config.resolve", "config", "resolve", SPAN),
]

EVENT_KINDS = ("io-done", "noise-wake", "txn-done", "tick", "trace")


def lookup_attr(modules, module, path):
    """(owner, attribute name, current value) or None when it is gone."""
    owner = modules.get(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter_ns
        self.origin = self.clock()
        self.stats = {}             # timer name -> [calls, total ns, self ns]
        self.names = []             # span name table
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.dropped = 0
        self.absent = set()         # timer names whose target is gone
        self.counts = {}            # counters kept by probes
        self._stack = []            # [child ns, nearest stored span id]

    def timer(self, name, spanned):
        if name not in self.stats:
            self.stats[name] = [0, 0, 0]
            self.names.append(name)
        return (self.stats[name], self.names.index(name) if spanned else -1)

    def call(self, timer, fn, args, kwargs):
        stat, name_id = timer
        stack = self._stack
        span = -1
        t0 = self.clock()
        if name_id >= 0:
            if len(self.span_start) < SPAN_CAP:
                span = len(self.span_start)
                self.span_name.append(name_id)
                self.span_start.append(t0)
                self.span_end.append(t0)
                self.span_parent.append(stack[-1][1] if stack else -1)
            else:
                self.dropped += 1
        frame = [0, span if span >= 0 else (stack[-1][1] if stack else -1)]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = self.clock()
            stack.pop()
            d = t1 - t0
            stat[0] += 1
            stat[1] += d
            stat[2] += d - frame[0]
            if stack:
                stack[-1][0] += d
            if span >= 0:
                self.span_end[span] = t1

    def hide(self, ns):
        """Charge probe work to nobody's self time."""
        if self._stack:
            self._stack[-1][0] += ns

    def wrap(self, name, fn, how, probe=None):
        timer = self.timer(name, how == SPAN)
        call = self.call
        if probe is None:
            def wrapper(*args, **kwargs):
                return call(timer, fn, args, kwargs)
        else:
            clock = self.clock

            def wrapper(*args, **kwargs):
                h0 = clock()
                done = probe(args)
                h1 = clock()
                result = call(timer, fn, args, kwargs)
                h2 = clock()
                done(result)
                self.hide(h1 - h0 + clock() - h2)
                return result
        return wrapper

    def install(self, modules):
        """Wrap every target in TIMED, plus Simulator.schedule."""
        probes = {
            "swap.access_range": self._pages_touched("swap.pages_touched"),
            "dmx.access_range": self._pages_touched("dmx.pages_touched"),
            "dmx.victims_from": self._victim_scan,
        }
        for name, module, path, how in TIMED:
            found = lookup_attr(modules, module, path)
            if found is None:
                self.absent.add(name)
                continue
            owner, attr, fn = found
            setattr(owner, attr, self.wrap(name, fn, how, probes.get(name)))
        self._count_victim_scan(modules)
        found = lookup_attr(modules, "core", "Simulator.schedule")
        if found is None:
            self.absent.add("core.schedule")
            return
        owner, attr, schedule = found
        kinds = {kind: self.timer(f"core.event.{kind}", True) for kind in EVENT_KINDS}
        sched_stat = self.timer("core.schedule", False)[0]
        call = self.call

        def traced_schedule(sim, at, kind, fn):
            sched_stat[0] += 1
            timer = kinds.get(kind)
            if timer is None:
                timer = kinds[kind] = self.timer(f"core.event.{kind}", True)
            return schedule(sim, at, kind, lambda t: call(timer, fn, (t,), {}))

        setattr(owner, attr, traced_schedule)

    def _pages_touched(self, counter):
        self.counts[counter] = 0

        def probe(args):
            # access_range(self, ctx, lo, hi, t, ...)
            self.counts[counter] += args[3] - args[2]
            return _ignore
        return probe

    def _count_victim_scan(self, modules):
        """Count the cohorts that PageList iteration yields while a
        _victims_from call runs: the cohorts victim selection walks."""
        counts = self.counts
        counts["dmx.victim_scan_cohorts"] = 0
        counts["dmx.victim_pages"] = 0
        self._in_victims = 0
        found = lookup_attr(modules, "memory", "PageList.__iter__")
        if found is None:
            self.absent.add("dmx.victim_scan")
            return
        owner, attr, orig_iter = found

        def counted(it):
            for c in it:
                counts["dmx.victim_scan_cohorts"] += 1
                yield c

        def traced_iter(plist):
            it = orig_iter(plist)
            return counted(it) if self._in_victims else it

        setattr(owner, attr, traced_iter)

    def _victim_scan(self, args):
        self._in_victims += 1

        def done(taken):
            self._in_victims -= 1
            self.counts["dmx.victim_pages"] += taken
        return done

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write(f"# spans={len(self.span_start)} dropped={self.dropped} "
                     "times in ns from the trace origin; parent -1 is a root\n")
            fh.write("id\tname\tstart_ns\tend_ns\tparent\n")
            names, origin = self.names, self.origin
            for i in range(len(self.span_start)):
                fh.write(f"{i}\t{names[self.span_name[i]]}\t"
                         f"{self.span_start[i] - origin}\t"
                         f"{self.span_end[i] - origin}\t{self.span_parent[i]}\n")


def _ignore(result):
    pass


# -- per-layer metrics ---------------------------------------------------------

SWAP_COUNTERS = ("demand_faults", "fault_clusters", "evictions", "writeback_pages")
DMX_COUNTERS = ("demand_faults", "fault_clusters", "evictions", "prefetch_issued",
                "prefetch_landed", "prefetch_hits", "mispredictions",
                "demand_evict_waits", "emergency_reclaims")
MEDIA_STATS = ("demand_ios", "evict_ios", "prefetch_ios", "pages_read",
               "pages_written")


def _ratio(a, b):
    """A ratio with nothing to divide by (the layer did no work) reads 0."""
    return a / b if b else 0.0


def _timed(name, *fields):
    out = []
    for f in fields:
        if f == "calls":
            out.append((f"{name}.calls", "count", lambda v, n=name: v[n][0]))
        else:
            out.append((f"{name}.self_s", "s", lambda v, n=name: v[n][2] / 1e9))
    return out


def _sum_timers(prefix, names):
    def calls(v):
        return sum(v[f"{prefix}.{n}"][0] for n in names)

    def self_s(v):
        return sum(v[f"{prefix}.{n}"][2] for n in names) / 1e9
    return [(f"{prefix}.calls", "count", calls), (f"{prefix}.self_s", "s", self_s)]


def _metric_table():
    m = [("core.events", "count", lambda v: v["sim.events"]),
         ("core.schedule.calls", "count", lambda v: v["core.schedule"][0])]
    m += _timed("core.run", "self_s")
    for kind in EVENT_KINDS:
        m += _timed(f"core.event.{kind}", "calls", "self_s")
    m += [("core.rng.draws", "count", lambda v: v["core.rng.next_u64"][0]),
          ("core.rng.self_s", "s", lambda v: sum(
              v[f"core.rng.{n}"][2] for n in ("next_u64", "randrange", "random")) / 1e9)]
    for f in ("extract", "transition", "lookup", "create"):
        m += _timed(f"memory.{f}", "calls", "self_s")
    m += _sum_timers("memory.pagelist", ("append", "remove", "insert_before",
                                         "insert_after", "move_to_tail"))
    m += [("memory.cohorts_end", "count", lambda v: v["sim.cohorts_end"])]
    for f in ("submit_demand", "submit_background", "dispatch", "complete"):
        m += _timed(f"media.{f}", "calls", "self_s")
    for s in MEDIA_STATS:
        m += [(f"media.{s}", "count", lambda v, s=s: v[f"sim.media.{s}"])]
    m += [("media.utilization", "ratio",
           lambda v: _ratio(v["sim.media.busy_us"], v["sim.slot_us"])),
          ("media.dropped_ratio", "ratio",
           lambda v: _ratio(v["sim.media.dropped_requests"],
                            v["sim.media.dropped_requests"] + v["sim.media.evict_ios"]
                            + v["sim.media.prefetch_ios"]))]
    for f in ("access_range", "reclaim", "on_allocate"):
        m += _timed(f"swap.{f}", "calls", "self_s")
    m += [("swap.pages_touched", "count", lambda v: v["swap.pages_touched"]),
          ("swap.hit_ratio", "ratio", lambda v: _ratio(
              v["swap.pages_touched"] - v["sim.swap.demand_faults"],
              v["swap.pages_touched"]))]
    for c in SWAP_COUNTERS:
        m += [(f"swap.{c}", "count", lambda v, c=c: v[f"sim.swap.{c}"])]
    for f in ("access_range", "tick", "take_victims", "victims_from",
              "rebalance_quotas"):
        m += _timed(f"dmx.{f}", "calls", "self_s")
    m += _timed("dmx.expire_sweep", "self_s")
    m += _timed("dmx.close_windows", "self_s")
    m += _timed("dmx.wheel_add", "calls")
    m += _timed("dmx.ensure_frames", "calls")
    m += [("dmx.wheel_entries_per_cohort", "ratio", lambda v: _ratio(
              v["sim.dmx.wheel_entries"], v["sim.dmx.resident_cohorts"])),
          ("dmx.victim_scan_cohorts", "count",
           lambda v: v["dmx.victim_scan"]["dmx.victim_scan_cohorts"]),
          ("dmx.victim_scan_per_page", "ratio", lambda v: _ratio(
              v["dmx.victim_scan"]["dmx.victim_scan_cohorts"],
              v["dmx.victim_scan"]["dmx.victim_pages"])),
          ("dmx.hit_ratio", "ratio", lambda v: _ratio(
              v["dmx.pages_touched"] - v["sim.dmx.demand_faults"],
              v["dmx.pages_touched"]))]
    for c in DMX_COUNTERS:
        m += [(f"dmx.{c}", "count", lambda v, c=c: v[f"sim.dmx.{c}"])]
    m += [("dmx.prefetch_accuracy", "ratio", lambda v: _ratio(
        v["sim.dmx.prefetch_hits"], v["sim.dmx.prefetch_issued"]))]
    m += _timed("workload.walk_ranges", "calls", "self_s")
    m += _timed("workload.draw_record", "calls", "self_s")
    for c in ("critical_txns", "noise_requests", "trace_accesses"):
        m += [(f"workload.{c}", "count", lambda v, c=c: v[f"sim.{c}"])]
    m += [("workload.load_trace_s", "s", lambda v: v["workload.load_trace"][1] / 1e9)]
    m += _timed("metrics.record", "calls", "self_s")
    m += [("metrics.summarize_s", "s", lambda v: v["metrics.summarize"][1] / 1e9),
          ("report.write_sweep_csv_s", "s",
           lambda v: v["report.write_sweep_csv"][1] / 1e9),
          ("report.write_charts_s", "s", lambda v: v["report.write_charts"][1] / 1e9),
          ("experiment.point_setup_s", "s", lambda v: v["experiment.point_setup_s"]),
          ("config.resolve_s", "s", lambda v: v["config.resolve"][1] / 1e9)]
    return m


METRICS = _metric_table()
OVERHEAD = ("trace.overhead_s", "s")    # computed by the parent from two runs
PER_LAYER_UNITS = [(name, unit) for name, unit, _ in METRICS] + [OVERHEAD]


def layer_values(tracer, sim, point_setup_s):
    """Per-layer metrics from a traced run: {name: {"value", "unit"}}, with
    {"value": None, "absent": True} for a metric whose target is gone.
    `sim` holds the simulated counters summed over the run's points."""
    v = {name: stat for name, stat in tracer.stats.items()
         if name not in tracer.absent}
    for policy in ("swap", "dmx"):
        if f"{policy}.access_range" in v:
            v[f"{policy}.pages_touched"] = tracer.counts[f"{policy}.pages_touched"]
    if "dmx.victims_from" in v and "dmx.victim_scan" not in tracer.absent:
        v["dmx.victim_scan"] = tracer.counts
    v.update(sim)
    v["experiment.point_setup_s"] = point_setup_s
    out = {}
    for name, unit, fn in METRICS:
        try:
            out[name] = {"value": fn(v), "unit": unit}
        except KeyError:
            out[name] = {"value": None, "unit": unit, "absent": True}
    return out

"""The benchmark's workloads: fixed lists of sweep points or trace replays.

Each workload records why it was chosen and which layers of the simulator
it exercises or bypasses. Simulated output is deterministic, so the
benchmark scores host time and memory and only checks the simulated bytes.

The simulated length of a point is fixed here and is the same on every
commit the benchmark compares. `quick` lengths are for the smoke test only.
"""

import bisect
import random
from dataclasses import dataclass
from itertools import accumulate


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "sweep" (one run_sweep) or "trace" (run_trace per policy)
    flags: dict               # config values handed to config.resolve
    quick_flags: dict         # overrides for the smoke-test length
    why: str
    exercises: tuple
    bypasses: tuple
    policies: tuple = ()      # trace replays, in order
    trace_accesses: int = 0
    trace_accesses_quick: int = 0

    def points(self):
        """(policy, device, containers) per point, in the order they run.
        Planned here rather than taken from tiersim, so that the output
        check does not trust the program's own plan."""
        if self.kind == "trace":
            return [(p, self.flags["device"], 0) for p in self.policies]
        policies = (["swap", "dmx"] if self.flags["policy"] == "both"
                    else [self.flags["policy"]])
        return [(p, self.flags["device"], n)
                for p in policies for n in self.flags["containers"]]


# Not in BENCHMARK.json: a third workload would shorten every run of a full
# comparison (see README.md). It stays runnable.
SWAP_DISK_DENSITY = Workload(
    name="swap-disk-density",
    kind="sweep",
    flags={"policy": "swap", "device": "disk", "containers": [1, 13, 25, 49],
           "duration_s": 20.0, "warmup_s": 2.0},
    quick_flags={"duration_s": 1.5, "warmup_s": 0.5},
    why=("The default disk sweep thinned to four densities. The idle point "
         "(one container) dominates: every access is a DRAM hit, so the "
         "kernel, the RNG and the shared hit path do most of the work. The "
         "dense points cross the swap cliff, where the critical service "
         "stalls on the single disk slot and the host does little."),
    exercises=("core (heap, dispatch, SplitMix64)", "swap hit path",
               "swap fault path on disk", "memory extract/PageList",
               "workload generators", "metrics and report"),
    bypasses=("dmx (tick, aging, quotas, victims)", "background IO",
              "trace parsing"),
)

FLASH_BOTH_DENSITY = Workload(
    name="flash-both-density",
    kind="sweep",
    flags={"policy": "both", "device": "flash", "containers": [1, 25, 49],
           "duration_s": 15.0, "warmup_s": 2.0},
    quick_flags={"duration_s": 1.5, "warmup_s": 0.5},
    why=("swap and dmx on flash at low, middle and high density. dmx/flash/25 "
         "is the slowest point and its profile is led by the aging wheel "
         "(_wheel_add, _expire_sweep); swap/flash/25 is the heaviest swap "
         "fault path (extract, _reclaim, submit_demand). An aging fix must "
         "show here."),
    exercises=("dmx tick (aging wheel, windows, quotas, reserve refill)",
               "dmx hit and fault paths", "swap fault path on flash",
               "background evict and prefetch IO", "memory extract/transition"),
    bypasses=("trace parsing", "write accesses (only page births write)"),
)

TRACE_RW = Workload(
    name="trace-rw",
    kind="trace",
    flags={"device": "flash", "mem.dram_pages": 8192},
    quick_flags={},
    policies=("swap", "dmx"),
    trace_accesses=40_000,
    trace_accesses_quick=2_000,
    why=("A seeded write-heavy trace replayed by run_trace under swap and "
         "then dmx on flash: 8 contexts, contiguous 8-page runs with "
         "Zipf(0.9) popularity, 30% of runs written, an address space of "
         "8x DRAM. Dirty write-back and buffered evict writes carry the load."),
    exercises=("trace parsing (load_trace)", "per-page access",
               "dirty write-back", "dmx emergency reclaim "
               "(_take_victims/_victims_from, which re-sorts a queue level "
               "per reclaim)"),
    bypasses=("dmx tick: run_trace schedules none, so aging, quotas and "
              "reserve refill never run", "workload generators"),
)

WORKLOADS = {w.name: w for w in (SWAP_DISK_DENSITY, FLASH_BOTH_DENSITY, TRACE_RW)}

# trace-rw shape
TRACE_CONTEXTS = 8
TRACE_RUN_PAGES = 8
TRACE_DRAM_MULTIPLE = 8
TRACE_ZIPF = 0.9
TRACE_WRITE_FRAC = 0.3
TRACE_RUN_GAP_US = 50


def write_trace(path, seed, accesses, dram_pages):
    """Write a trace of at least `accesses` page accesses, made from `seed`
    alone. Returns (accesses written, distinct pages touched)."""
    rnd = random.Random(seed)
    runs_per_ctx = dram_pages * TRACE_DRAM_MULTIPLE // (TRACE_CONTEXTS * TRACE_RUN_PAGES)
    nruns = runs_per_ctx * TRACE_CONTEXTS
    by_rank = list(range(nruns))
    rnd.shuffle(by_rank)          # popularity rank -> run, scattered over contexts
    cum = list(accumulate((r + 1) ** -TRACE_ZIPF for r in range(nruns)))
    touched = set()
    t = n = 0
    lines = []
    while n < accesses:
        rank = min(bisect.bisect_left(cum, rnd.random() * cum[-1]), nruns - 1)
        ctx, run = divmod(by_rank[rank], runs_per_ctx)
        op = "w" if rnd.random() < TRACE_WRITE_FRAC else "r"
        touched.add(by_rank[rank])
        lo = run * TRACE_RUN_PAGES
        for page in range(lo, lo + TRACE_RUN_PAGES):
            lines.append(f"{t} c{ctx} {page} {op}\n")
            t += 1
        n += TRACE_RUN_PAGES
        t += TRACE_RUN_GAP_US
    with open(path, "w") as fh:
        fh.writelines(lines)
    return n, len(touched) * TRACE_RUN_PAGES

"""The acceptance gate: one test per numbered criterion, in order, so the
-v output reads as a pass/fail line per criterion. The first six run the
real default-scale sweeps (25 points x 60 simulated seconds per policy and
device) through session fixtures, so this file takes a few minutes; the
rest are oracle comparisons, an invariant fuzz, and determinism checks.
"""

import time

import pytest

from helpers import build, mq_law_holds
from oracles import LruOracle, percentile_oracle
from tiersim.acceptance import evaluate
from tiersim.config import resolve
from tiersim.core import SplitMix64
from tiersim.dmx import INDEX_SLACK, DmxPolicy
from tiersim.experiment import run_point, run_sweep
from tiersim.media import PREFETCH
from tiersim.metrics import percentile
from tiersim.swap import SwapPolicy

SWEEP_BUDGET_S = 300


def _check(results, name):
    res = next(r for r in results if r.name == name)
    assert res.ok, f"{res.name}: {res.detail}"


@pytest.fixture(scope="session")
def disk_sweep(tmp_path_factory):
    cfg = resolve()
    t0 = time.monotonic()
    rows = run_sweep(cfg, str(tmp_path_factory.mktemp("disk")), 1)
    elapsed = time.monotonic() - t0
    return evaluate(rows, cfg["mem.dram_pages"], cfg["scale"]), elapsed


@pytest.fixture(scope="session")
def flash_checks(tmp_path_factory):
    cfg = resolve(None, {"device": "flash", "policy": "both"})
    rows = run_sweep(cfg, str(tmp_path_factory.mktemp("flash")), 1)
    return evaluate(rows, cfg["mem.dram_pages"], cfg["scale"])


def test_criterion_01_baseline_cliff_within_budget(disk_sweep):
    results, elapsed = disk_sweep
    _check(results, "baseline-cliff")
    assert elapsed < SWEEP_BUDGET_S, f"sweep took {elapsed:.0f}s"


def test_criterion_02_tail_latency_structure(disk_sweep):
    _check(disk_sweep[0], "tail-structure")


def test_criterion_03_media_independence_on_flash(flash_checks):
    _check(flash_checks, "media-independence")


def test_criterion_04_dmx_stays_stable_at_density(flash_checks):
    _check(flash_checks, "dmx-stability")


def test_criterion_05_dmx_overhead_is_bounded_when_idle(flash_checks):
    _check(flash_checks, "dmx-overhead")


def test_criterion_06_crossover_holds_to_the_end(flash_checks):
    _check(flash_checks, "crossover")


def test_criterion_07_swap_matches_the_lru_oracle():
    rng = SplitMix64(4242)
    for trial in range(200):
        cap = 4 + rng.randrange(509)
        length = 10_000 if trial % 40 == 0 else 100 + rng.randrange(1200)
        sim, m, dev = build(dram=cap, flash=16384)
        pol = SwapPolicy(sim, m, dev, fault_overhead_us=0, reclaim_batch=1)
        oracle = LruOracle(cap)
        ctxs = []
        for i in range(1 + rng.randrange(3)):
            ctx = pol.register(m.new_context(f"c{i}"))
            pages = 2 + rng.randrange(2 * cap)
            pol.on_allocate(ctx, 0, pages, sim.now)
            oracle.allocate(ctx.cid, 0, pages)
            sim.drain()
            ctxs.append((ctx, pages))
        for _ in range(length):
            ctx, pages = ctxs[rng.randrange(len(ctxs))]
            page = rng.randrange(pages)
            before = pol.counters["demand_faults"]
            pol.access_range(ctx, page, page + 1, sim.now, batch=False)
            sim.drain()
            faulted = pol.counters["demand_faults"] > before
            assert faulted == oracle.access(ctx.cid, page), (
                f"trial {trial}: fault bit diverged on {ctx.cid}:{page}")
        assert pol.counters["evictions"] == len(oracle.evicted)
        got = [(c.ctx.cid, i) for c in pol.lru for i in range(c.lo, c.hi)]
        assert got == oracle.order, f"trial {trial}: recency order diverged"
        m.check_full()


def test_criterion_08_percentiles_match_the_scan_oracle():
    rng = SplitMix64(808)
    for _ in range(100):
        n = 1 + rng.randrange(500)
        samples = [rng.randrange(1_000_000) for _ in range(n)]
        for p in (1 + rng.randrange(100), 1 + rng.randrange(100),
                  50, 90, 95, 99, 99.9, 100):
            assert percentile(samples, p) == percentile_oracle(samples, p)


def _check_dmx_state(pol):
    """dmx holds no state for dead contexts, and each victim index stays
    within a constant number of entries per listed run."""
    assert all(ctx.alive for ctx in pol.contexts)
    assert all(ctx.alive for ctx in pol._victim_index)
    for ctx, index in pol._victim_index.items():
        listed = sum(plist.cohorts for plist in ctx.levels)
        assert index.size() <= 4 * listed + INDEX_SLACK, (ctx.cid, listed)


def _fuzz(policy_name, seed, target_events=1_000_000):
    sim, m, dev = build(dram=1024, flash=32768)
    dev.dispatch_log = []
    if policy_name == "swap":
        pol = SwapPolicy(sim, m, dev, fault_overhead_us=10, reclaim_batch=8)
    else:
        # fast activity decay so the focus rotation below actually drives
        # contexts through dormancy and prefetched reactivation
        pol = DmxPolicy(sim, m, dev, window_us=50_000, floor_pages=16,
                        alpha=0.7, dormant_windows=2)
    events = [0]

    def hook():
        events[0] += 1
        m.check_counters()      # census identity + DRAM bound, every event

    sim.post_event_hook = hook
    rng = SplitMix64(seed)
    ctxs = []
    born = 0

    def spawn(t):
        nonlocal born
        ctx = pol.register(m.new_context(f"c{born}"))
        born += 1
        pages = 64 + rng.randrange(400)
        pol.on_allocate(ctx, 0, pages, max(t, sim.now))
        ctxs.append([ctx, pages])

    for _ in range(4):
        spawn(0)
    sim.drain()
    t = 1000
    next_tick = 50_000
    focus = [0, 1]
    phase_left = 0
    rounds = 0
    while events[0] < target_events and rounds < 3_000_000:
        rounds += 1
        t = max(t, sim.now) + 1 + rng.randrange(3000)
        while next_tick <= t:
            if policy_name == "dmx":
                _check_dmx_state(pol)   # the tick drops every index
            pol.tick(max(next_tick, sim.now))
            next_tick += 50_000
        if phase_left == 0:
            # rotate the busy pair so the others can go dormant and be
            # prefetched back in on their next touch
            phase_left = 250 + rng.randrange(250)
            focus = [rng.randrange(len(ctxs)), rng.randrange(len(ctxs))]
        phase_left -= 1
        roll = rng.randrange(100)
        if roll < 1 and rng.randrange(5) == 0 and len(ctxs) > 2:
            slot = rng.randrange(len(ctxs))
            pol.on_teardown(ctxs[slot][0])
            if policy_name == "dmx":
                _check_dmx_state(pol)
            ctxs.pop(slot)
            spawn(t)
            focus = [0, 1]
            continue
        ctx, pages = ctxs[focus[rng.randrange(2)] % len(ctxs)]
        if roll < 6:
            if m.total + 80 <= m.dram_pages + m.flash_pages - 2048:
                grow = 16 + rng.randrange(64)
                pol.on_allocate(ctx, pages, pages + grow, max(t, sim.now))
                for slot in ctxs:
                    if slot[0] is ctx:
                        slot[1] += grow
            continue
        lo = rng.randrange(pages)
        hi = min(pages, lo + 1 + rng.randrange(24))
        res = pol.access_range(ctx, lo, hi, t, batch=roll % 2 == 0,
                               write=roll % 3 == 0)
        if res.wait is not None:
            sim.drain()
            if ctx.alive and res.next_idx < hi:
                pol.access_range(ctx, res.next_idx, hi,
                                 max(t, sim.now) + 1, batch=True)
        if rounds % 4 == 0:
            sim.drain()
        if rounds % 5000 == 0:
            sim.drain()
            m.check_full()
            assert mq_law_holds(m)
            if policy_name == "dmx":
                live = [c for c in pol.contexts if c.alive]
                assert all(c.quota >= pol.floor_pages for c in live)
                assert sum(c.quota for c in live) <= m.dram_pages - pol.reserve
                _check_dmx_state(pol)
    sim.drain()
    m.check_full()
    if policy_name == "dmx":
        _check_dmx_state(pol)
    assert events[0] >= target_events, f"starved at {events[0]} events"
    for entry in dev.dispatch_log:
        if entry[1] == PREFETCH:
            assert entry[2] == 0, f"prefetch dispatched past evicts: {entry}"
    counters = pol.snapshot_counters()
    if policy_name == "dmx":
        assert counters["prefetch_issued"] > 0
        assert (counters["prefetch_hits"] + counters["mispredictions"]
                <= counters["prefetch_issued"])
    return counters


def test_criterion_09_invariant_fuzz_both_policies():
    _fuzz("swap", seed=13)
    _fuzz("dmx", seed=31)


def test_criterion_10_sweeps_are_deterministic(tmp_path):
    cfg = resolve(None, {"device": "flash", "policy": "both",
                         "containers": "3,9", "duration_s": "6",
                         "warmup_s": "1"})
    run_sweep(cfg, str(tmp_path / "a"), 1)
    run_sweep(cfg, str(tmp_path / "b"), 1)
    run_sweep(cfg, str(tmp_path / "c"), 2)
    first = (tmp_path / "a" / "sweep.csv").read_bytes()
    assert (tmp_path / "b" / "sweep.csv").read_bytes() == first
    assert (tmp_path / "c" / "sweep.csv").read_bytes() == first


def test_criterion_11_degenerate_capacity_is_policy_neutral():
    cfg = resolve(None, {"device": "flash", "duration_s": "30",
                         "warmup_s": "5"})
    swap_row = run_point(cfg, "swap", "flash", 3)
    dmx_row = run_point(cfg, "dmx", "flash", 3)
    assert swap_row.demand_faults == 0
    assert dmx_row.demand_faults == 0
    assert dmx_row.evictions == 0
    assert abs(dmx_row.tps - swap_row.tps) <= 0.01 * swap_row.tps

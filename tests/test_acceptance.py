"""The acceptance gate: one test per numbered criterion, in order, so the
-v output reads as a pass/fail line per criterion. The first six run the
real default-scale sweeps (25 points x 60 simulated seconds per policy and
device) through session fixtures, so this file takes a few minutes; the
rest are oracle comparisons, an invariant fuzz, and determinism checks.
"""

import hashlib
import os
import time

import pytest

from helpers import (build, check_selections_in_list_order,
                     dmx_wheel_is_exact, listed_pages, mq_law_holds,
                     runs_agree_with_their_requests)
from oracles import LruOracle, percentile_oracle
from tiersim.acceptance import evaluate
from tiersim.config import micros, resolve
from tiersim.core import US_PER_S, SplitMix64
from tiersim.dmx import DmxPolicy
from tiersim.experiment import run_point, run_sweep
from tiersim.media import PREFETCH
from tiersim.memory import DRAM
from tiersim.metrics import percentile
from tiersim.swap import SwapPolicy

SWEEP_BUDGET_S = 300

# SHA-256 of the sweep.csv that `tiersim` and `tiersim --device flash
# --policy both` write: the simulator's reference output bytes
DISK_SWEEP_SHA256 = "618cc7eb2b4aecf6810e51645d41e5e04b409ba27b20170499d71d3c11843e90"
FLASH_BOTH_SWEEP_SHA256 = "2afdae2037dac616e7e8ba4bf307f8dbbfa2c395b4942d83debaee870c5e2678"


def _check(results, name):
    res = next(r for r in results if r.name == name)
    assert res.ok, f"{res.name}: {res.detail}"


def _sha256(out_dir):
    return hashlib.sha256((out_dir / "sweep.csv").read_bytes()).hexdigest()


@pytest.fixture(scope="session")
def disk_sweep(tmp_path_factory):
    cfg = resolve()
    out = tmp_path_factory.mktemp("disk")
    t0 = time.monotonic()
    rows = run_sweep(cfg, str(out), 1)
    elapsed = time.monotonic() - t0
    results = evaluate(rows, cfg["mem.dram_pages"], cfg["scale"])
    return results, elapsed, rows, _sha256(out)


@pytest.fixture(scope="session")
def flash_checks(tmp_path_factory):
    # criterion 10 shows that --jobs leaves the bytes unchanged; the disk
    # sweep stays serial because criterion 1's budget is set for one job
    cfg = resolve(None, {"device": "flash", "policy": "both"})
    jobs = min(2, len(os.sched_getaffinity(0)))
    out = tmp_path_factory.mktemp("flash")
    rows = run_sweep(cfg, str(out), jobs)
    return evaluate(rows, cfg["mem.dram_pages"], cfg["scale"]), rows, _sha256(out)


def test_criterion_01_baseline_cliff_within_budget(disk_sweep):
    results, elapsed = disk_sweep[:2]
    _check(results, "baseline-cliff")
    assert elapsed < SWEEP_BUDGET_S, f"sweep took {elapsed:.0f}s"


def test_criterion_02_tail_latency_structure(disk_sweep):
    _check(disk_sweep[0], "tail-structure")


def test_criterion_03_media_independence_on_flash(flash_checks):
    _check(flash_checks[0], "media-independence")


def test_criterion_04_dmx_stays_stable_at_density(flash_checks):
    _check(flash_checks[0], "dmx-stability")


def test_criterion_05_dmx_overhead_is_bounded_when_idle(flash_checks):
    _check(flash_checks[0], "dmx-overhead")


def test_criterion_06_crossover_holds_to_the_end(flash_checks):
    _check(flash_checks[0], "crossover")


def test_the_default_sweeps_write_the_reference_bytes(disk_sweep, flash_checks):
    assert disk_sweep[3] == DISK_SWEEP_SHA256
    assert flash_checks[2] == FLASH_BOTH_SWEEP_SHA256


def test_every_sweep_row_obeys_the_output_laws(disk_sweep, flash_checks):
    """The laws every summary row must obey, on the rows of the disk and
    flash-both default sweeps: ordered latencies no faster than the base
    service, at most the closed-loop bound of completions (equal at idle),
    non-negative counters, and no more prefetch outcomes than prefetches."""
    rows = disk_sweep[2] + flash_checks[1]
    assert len(rows) == 75
    cfg = resolve()
    base = cfg["critical.base_service_us"]
    window_us = micros(cfg["duration_s"]) - micros(cfg["warmup_s"])
    bound = cfg["critical.threads"] * (window_us / base + 1)
    for r in rows:
        where = (r.policy, r.device, r.containers)
        assert r.min_us is not None, where
        assert r.min_us <= r.p90_us <= r.p95_us <= r.p99_us <= r.max_us, where
        assert base <= r.min_us <= r.avg_us <= r.max_us, where
        assert round(r.tps * window_us / US_PER_S) <= bound, where
        counters = (r.demand_faults, r.prefetch_issued, r.prefetch_hits,
                    r.mispredictions, r.evictions)
        assert min(counters) >= 0, where
        assert r.prefetch_hits + r.mispredictions <= r.prefetch_issued, where


def test_criterion_07_swap_matches_the_lru_oracle():
    rng = SplitMix64(4242)
    for trial in range(200):
        cap = 4 + rng.randrange(509)
        length = 10_000 if trial % 40 == 0 else 100 + rng.randrange(1200)
        sim, m, dev = build(dram=cap, flash=16384)
        pol = SwapPolicy(m, dev, fault_overhead_us=0, reclaim_batch=1)
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


def _check_dmx_state(pol, ctxs):
    """dmx holds a record for exactly the contexts it registered, in
    registration order; its level lists hold exactly each context's DRAM
    runs, each in the list of its level, so the list-order victim check
    every selection runs in the fuzz sees every candidate; and the expiry
    wheel holds each listed run that aging can demote or reset exactly
    once, in the bucket of its expiry, and nothing else."""
    assert list(pol.contexts) == [ctx for ctx, _ in ctxs]
    assert all(rec.ctx is ctx for ctx, rec in pol.contexts.items())
    for ctx, rec in pol.contexts.items():
        listed = {c: level for level, plist in enumerate(rec.levels)
                  for c in plist}
        dram = [c for c in ctx.pages.values() if c.tier == DRAM]
        assert len(listed) == len(dram), ctx.cid
        assert all(listed.get(c) == c.level for c in dram), ctx.cid
    assert dmx_wheel_is_exact(pol)


def _check_swap_state(pol, m):
    """swap's LRU holds each DRAM run of every context exactly once and
    nothing else, so its pages are exactly the DRAM pages."""
    listed = list(pol.lru)
    dram = {c for ctx in m.contexts.values() for c in ctx.pages.values()
            if c.tier == DRAM}
    assert len(listed) == len(dram) and set(listed) == dram
    assert listed_pages(pol.lru) == m.dram_used


# Criterion 9's fuzz registers at most FUZZ_CONTEXTS contexts: 4 at the
# start and up to 4 mid-run, of at most 463 pages each. Contexts live for
# the whole run, so the growth branch stops adding pages at FUZZ_PAGES in
# all; without a cap they would fill the flash, and the audits that run
# every tick walk every cohort. Both caps leave the flash far from full,
# and 8 floors of 16 pages stay far below the 1,024 DRAM frames.
FUZZ_CONTEXTS = 8
FUZZ_PAGES = 8192

# A lull of this many 50 ms windows with no access lets every activity
# score decay to 0.0 in floating point (at alpha 0.7 a score of 1,000 gets
# there in about 625 windows), so the ticks in it split DRAM evenly among
# the contexts, as at the start. A context drained to its floor while
# dormant then wakes with a quota above what it holds, and prefetches its
# hot set back: without a lull, no quota rises while its context sleeps.
FUZZ_LULL_WINDOWS = 800


def _fuzz(policy_name, seed, target_events=1_000_000):
    sim, m, dev = build(dram=1024, flash=32768)
    dispatched = []
    dev.dispatch_log = dispatched.append
    if policy_name == "swap":
        pol = SwapPolicy(m, dev, fault_overhead_us=10, reclaim_batch=8)
    else:
        # fast activity decay so the focus rotation below actually drives
        # contexts through dormancy and prefetched reactivation
        pol = DmxPolicy(m, dev, window_us=50_000, floor_pages=16,
                        alpha=0.7, dormant_windows=2)
        selections = check_selections_in_list_order(pol)
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
            assert runs_agree_with_their_requests(m)
            if policy_name == "dmx":
                _check_dmx_state(pol, ctxs)
            pol.tick(max(next_tick, sim.now))
            next_tick += 50_000
        if phase_left == 0:
            # rotate the busy pair so the others can go dormant and be
            # prefetched back in on their next touch
            phase_left = 250 + rng.randrange(250)
            focus = [rng.randrange(len(ctxs)), rng.randrange(len(ctxs))]
        phase_left -= 1
        roll = rng.randrange(100)
        if roll < 1 and rng.randrange(5) == 0 and len(ctxs) < FUZZ_CONTEXTS:
            spawn(t)            # mid-run registration, as a trace replay does
            if policy_name == "dmx":
                _check_dmx_state(pol, ctxs)
            continue
        if roll == 99 and rng.randrange(100) == 0:
            sim.drain()
            for _ in range(FUZZ_LULL_WINDOWS):
                pol.tick(max(next_tick, sim.now))
                next_tick += 50_000
            t = next_tick - 50_000
            phase_left = 0      # and a new busy pair after it
            continue
        ctx, pages = ctxs[focus[rng.randrange(2)]]
        if roll < 6:
            if m.total + 80 <= FUZZ_PAGES:
                grow = 16 + rng.randrange(64)
                pol.on_allocate(ctx, pages, pages + grow, max(t, sim.now))
                for slot in ctxs:
                    if slot[0] is ctx:
                        slot[1] += grow
            continue
        lo = rng.randrange(pages)
        hi = min(pages, lo + 1 + rng.randrange(24))
        _, wait, next_idx = pol.access_range(ctx, lo, hi, t, batch=roll % 2 == 0,
                                             write=roll % 3 == 0)
        if wait is not None:
            sim.drain()
            if next_idx < hi:
                pol.access_range(ctx, next_idx, hi,
                                 max(t, sim.now) + 1, batch=True)
        if rounds % 4 == 0:
            sim.drain()
        if rounds % 5000 == 0:
            sim.drain()
            m.check_full()
            assert runs_agree_with_their_requests(m)
            if policy_name == "swap":
                _check_swap_state(pol, m)
            else:
                assert mq_law_holds(pol)
                recs = pol.contexts.values()
                assert all(r.quota >= pol.floor_pages for r in recs)
                assert sum(r.quota for r in recs) <= m.dram_pages - pol.reserve
                _check_dmx_state(pol, ctxs)
    sim.drain()
    m.check_full()
    assert runs_agree_with_their_requests(m)
    if policy_name == "swap":
        _check_swap_state(pol, m)
    else:
        _check_dmx_state(pol, ctxs)
    assert events[0] >= target_events, f"starved at {events[0]} events"
    for entry in dispatched:
        if entry[1] == PREFETCH:
            assert entry[2] == 0, f"prefetch dispatched past evicts: {entry}"
    counters = pol.snapshot_counters()
    if policy_name == "dmx":
        assert selections["selections"] > 0
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

import pytest

from helpers import (build, check_selections_in_list_order,
                     dmx_wheel_is_exact, mq_law_holds)
from oracles import aged_expiry
from tiersim.core import SplitMix64
from tiersim.memory import DRAM, FLASH, TO_DRAM, TO_FLASH
from tiersim.media import EVICT, PREFETCH
from tiersim.dmx import ACTIVATING, ACTIVE, DORMANT, DmxPolicy
from tiersim.workload import walk_ranges


def dmx_stack(dram=2048, flash=16384, **kw):
    sim, m, dev = build(dram=dram, flash=flash)
    pol = DmxPolicy(m, dev, **kw)
    return sim, m, dev, pol


def register(pol, m, cid):
    """Register a new context with dmx and return dmx's record of it."""
    return pol.contexts[pol.register(m.new_context(cid))]


def assert_quota_law(pol, m):
    recs = pol.contexts.values()
    assert all(r.quota >= pol.floor_pages for r in recs)
    assert sum(r.quota for r in recs) <= m.dram_pages - pol.reserve


# -- frequency queues ------------------------------------------------------

def test_first_touch_lands_in_queue_zero():
    sim, m, dev, pol = dmx_stack()
    ctx = pol.register(m.new_context("a"))
    assert pol.on_allocate(ctx, 0, 1, 0) == 0
    c = m.lookup(ctx, 0)
    assert (c.level, c.freq) == (0, 1)
    assert c.owner is pol.contexts[ctx].levels[0]
    assert pol.contexts[ctx].window_count == 1


def test_eight_accesses_reach_queue_three():
    sim, m, dev, pol = dmx_stack()
    ctx = pol.register(m.new_context("a"))
    pol.on_allocate(ctx, 0, 1, 0)
    for i in range(7):
        pol.access_range(ctx, 0, 1, i + 1)
    c = m.lookup(ctx, 0)
    # promotions fired at freq 2, 4 and 8
    assert (c.level, c.freq) == (3, 8)
    assert c.owner is pol.contexts[ctx].levels[3]


def test_top_queue_caps_promotion():
    sim, m, dev, pol = dmx_stack(levels=4)
    ctx = pol.register(m.new_context("a"))
    pol.on_allocate(ctx, 0, 1, 0)
    for i in range(100):
        pol.access_range(ctx, 0, 1, i + 1)
    c = m.lookup(ctx, 0)
    assert c.level == 3 and c.freq == 101


def test_idle_pages_demote_one_level_per_lifetime():
    sim, m, dev, pol = dmx_stack()
    ctx = pol.register(m.new_context("a"))
    pol.on_allocate(ctx, 0, 1, 0)
    for i in range(7):
        pol.access_range(ctx, 0, 1, i + 1)
    pol.tick(200_000)
    c = m.lookup(ctx, 0)
    assert (c.level, c.freq) == (2, 4)   # freq snaps to 2^level
    assert c.expire == 300_000
    pol.tick(400_000)
    assert (c.level, c.freq) == (1, 2)
    assert mq_law_holds(pol)


def test_touch_preempts_demotion():
    sim, m, dev, pol = dmx_stack()
    ctx = pol.register(m.new_context("a"))
    pol.on_allocate(ctx, 0, 1, 0)
    for i in range(3):
        pol.access_range(ctx, 0, 1, i + 1)
    pol.access_range(ctx, 0, 1, 150_000)  # refreshed inside the second window
    pol.tick(200_000)
    c = m.lookup(ctx, 0)
    assert (c.level, c.freq) == (2, 5)    # survived the sweep untouched


def test_interior_hit_leaves_the_right_piece_aging():
    sim, m, dev, pol = dmx_stack()
    ctx = pol.register(m.new_context("a"))
    pol.on_allocate(ctx, 0, 8, 0)
    for i in range(3):
        pol.access_range(ctx, 0, 8, i + 1)    # freq 4, level 2
    pol.access_range(ctx, 3, 5, 10)           # cuts [0,3) [3,5) [5,8)
    right = m.lookup(ctx, 5)
    assert (right.lo, right.hi, right.level, right.freq) == (5, 8, 2, 4)
    pol.tick(200_000)
    assert (right.level, right.freq) == (1, 2)
    pol.tick(400_000)
    assert (right.level, right.freq) == (0, 1)
    assert mq_law_holds(pol)


@pytest.mark.parametrize("lifetime_us", [40_000, 100_000, 250_000])
def test_lazy_aging_matches_an_eager_sweep(lifetime_us):
    """After each tick, at irregular times, every listed run's level and
    freq are what an eager sweep of every run gives: a run whose expiry is
    at or below the tick's cutoff demotes one level, its freq snaps to
    2^level and it re-arms to t + lifetime. The sweep skips level-0 runs at
    freq 1, which it could not change; each run it can change (the wheel
    holds those) carries the expiry the eager sweep gives it."""
    sim, m, dev, pol = dmx_stack(dram=256, flash=8192, floor_pages=8,
                                 lifetime_us=lifetime_us, window_us=100_000)
    rng = SplitMix64(lifetime_us)
    ctxs = [[pol.register(m.new_context(f"c{i}")), 0] for i in range(3)]
    ticks = []
    seen = {"ticks": 0, "demoted": 0, "level0_skipped": 0}
    t = 0
    for step in range(3000):
        t = max(t, sim.now) + rng.randrange(8000)
        sim.run(t)
        slot = ctxs[rng.randrange(len(ctxs))]
        ctx, pages = slot
        roll = rng.randrange(100)
        if pages < 16 or roll < 6:
            n = 1 + rng.randrange(24)
            pol.on_allocate(ctx, pages, pages + n, t)
            slot[1] += n
        elif roll < 10:
            if roll < 8:
                # a round tick time, so re-arms meet later cutoffs exactly
                t = -(-t // 20_000) * 20_000
                sim.run(t)
            cutoff = t // pol.window_us * pol.window_us
            expect = {}
            for c in (c for cx, _ in ctxs for c in _listed(pol, cx)):
                level, freq, e = c.level, c.freq, c.expire
                if e <= cutoff:
                    seen["demoted"] += level > 0
                    seen["level0_skipped"] += level == 0
                    level = max(level - 1, 0)
                    freq, e = 1 << level, t + lifetime_us
                expect[c] = (level, freq, e)
            ticks.append(t)
            pol.tick(t)
            seen["ticks"] += 1
            for cx, _ in ctxs:
                for c in _listed(pol, cx):
                    level, freq, e = expect[c]
                    assert (c.level, c.freq) == (level, freq), c
                    if c.level or c.freq != 1:
                        assert c.expire == e == aged_expiry(
                            c.expire, ticks, lifetime_us, pol.window_us), c
            assert dmx_wheel_is_exact(pol)
        else:
            lo = rng.randrange(pages)
            hi = min(pages, lo + 1 + rng.randrange(10))
            _, wait, _ = pol.access_range(ctx, lo, hi, t, batch=roll % 2 == 0)
            if wait is not None:
                sim.drain()
    sim.drain()
    m.check_full()
    assert mq_law_holds(pol)
    assert all(n > 20 for n in seen.values()), seen


# -- quotas ----------------------------------------------------------------

def test_quota_split_is_proportional_above_the_floor():
    sim, m, dev, pol = dmx_stack(dram=1000, floor_pages=100, reserve_frac=0.0)
    a = register(pol, m, "a")
    b = register(pol, m, "b")
    a.score, b.score = 3.0, 1.0
    pol.rebalance_quotas()
    assert (a.quota, b.quota) == (700, 300)
    assert_quota_law(pol, m)


def test_lone_context_gets_everything_but_the_reserve():
    sim, m, dev, pol = dmx_stack(dram=1000)
    a = register(pol, m, "a")
    a.score = 123.4
    pol.rebalance_quotas()
    assert pol.reserve == 20
    assert a.quota == 980


def test_zero_scores_split_the_surplus_equally():
    sim, m, dev, pol = dmx_stack(dram=1000, floor_pages=100, reserve_frac=0.0)
    recs = [register(pol, m, f"c{i}") for i in range(4)]
    pol.rebalance_quotas()
    assert [r.quota for r in recs] == [250, 250, 250, 250]


def test_quota_law_under_arbitrary_scores():
    sim, m, dev, pol = dmx_stack(dram=4096)
    rng = SplitMix64(5)
    recs = [register(pol, m, f"c{i}") for i in range(9)]
    for trial in range(50):
        for r in recs:
            r.score = rng.random() * rng.randrange(1000)
        pol.rebalance_quotas()
        assert_quota_law(pol, m)


# -- dormancy --------------------------------------------------------------

def test_quiet_windows_put_a_context_to_sleep():
    sim, m, dev, pol = dmx_stack(dormant_windows=3)
    rec = register(pol, m, "a")
    pol.on_allocate(rec.ctx, 0, 4, 0)
    pol.tick(100_000)                     # score 1.2: busy enough
    assert rec.state == ACTIVE and rec.low_windows == 0
    pol.tick(200_000)                     # decays 0.84
    pol.tick(300_000)                     # 0.588
    assert rec.state == ACTIVE and rec.low_windows == 2
    pol.tick(400_000)                     # 0.41: third quiet window
    assert rec.state == DORMANT
    assert rec.hot_set == [(0, 4)]


def test_one_busy_window_resets_the_dormancy_count():
    sim, m, dev, pol = dmx_stack(dormant_windows=3, alpha=1.0)
    rec = register(pol, m, "a")
    pol.on_allocate(rec.ctx, 0, 4, 0)
    pol.tick(100_000)                     # allocation made this window busy
    pol.tick(200_000)
    pol.tick(300_000)
    assert rec.state == ACTIVE and rec.low_windows == 2
    pol.access_range(rec.ctx, 0, 2, 350_000)
    pol.tick(400_000)                     # score 2.0 clears the streak
    assert rec.low_windows == 0
    pol.tick(500_000)
    assert rec.state == ACTIVE and rec.low_windows == 1


def test_hot_set_ranks_by_level_then_freq_capped_at_quota():
    sim, m, dev, pol = dmx_stack()
    ctx = pol.register(m.new_context("a"))
    pol.on_allocate(ctx, 0, 4, 0)
    for i in range(4):
        pol.access_range(ctx, 0, 4, i + 1)    # freq 5, level 2
    pol.on_allocate(ctx, 4, 6, 5)
    pol.access_range(ctx, 4, 6, 6)            # freq 2, level 1
    pol.on_allocate(ctx, 6, 8, 7)             # freq 1, level 0
    rec = pol.contexts[ctx]
    rec.quota = 6
    assert pol._snapshot_hot_set(rec) == [(0, 4), (4, 6)]


# -- reactivation ----------------------------------------------------------

def _dormant_ctx(pol, m, hot_pages, resident=0, quota=200):
    """A dormant context and dmx's record of it."""
    ctx = pol.register(m.new_context("sleeper"))
    if resident:
        c = m.create(ctx, 0, resident)
        pol._enqueue(ctx, c, 0)
    m.create(ctx, resident, hot_pages, tier=FLASH, dirty=False)
    rec = pol.contexts[ctx]
    rec.state = DORMANT
    rec.hot_set = [(0, hot_pages)]
    rec.quota = quota
    return ctx, rec


def test_reactivation_prefetches_only_the_missing_pages():
    sim, m, dev, pol = dmx_stack()
    ctx, rec = _dormant_ctx(pol, m, hot_pages=64, resident=10)
    pol._wake(rec, 0)
    assert rec.state == ACTIVATING
    assert pol.counters["prefetch_issued"] == 54
    sim.drain()
    assert pol.counters["prefetch_landed"] == 54
    assert rec.state == ACTIVE and rec.hot_set is None
    assert ctx.resident == 64
    assert dev.stats["prefetch_ios"] == 1 and dev.stats["pages_read"] == 54


def test_reactivation_respects_quota_headroom():
    sim, m, dev, pol = dmx_stack()
    ctx, rec = _dormant_ctx(pol, m, hot_pages=64, resident=10, quota=30)
    pol._wake(rec, 0)
    assert pol.counters["prefetch_issued"] == 20   # top-ranked 20 only
    sim.drain()
    assert ctx.resident == 30


def test_fully_resident_hot_set_skips_the_device():
    sim, m, dev, pol = dmx_stack()
    ctx = pol.register(m.new_context("a"))
    pol.on_allocate(ctx, 0, 8, 0)
    rec = pol.contexts[ctx]
    rec.state = DORMANT
    rec.hot_set = [(0, 8)]
    pol._wake(rec, 10)
    assert rec.state == ACTIVE and rec.hot_set is None
    assert pol.counters["prefetch_issued"] == 0
    assert sim.drain() == 0


def test_fault_during_inflight_prefetch_shares_the_read():
    sim, m, dev, pol = dmx_stack()
    ctx, rec = _dormant_ctx(pol, m, hot_pages=8)
    pol._wake(rec, 0)                      # 8-page read lands at 111
    done_at, _, _ = pol.access_range(ctx, 0, 1, 81)
    assert done_at == 111                  # 30us residual stall, no new IO
    again, _, _ = pol.access_range(ctx, 1, 2, 90)
    assert again == 111
    # the flying run is credited once, however many of its pages get touched
    assert pol.counters["prefetch_hits"] == 1
    assert pol.counters["demand_faults"] == 0
    sim.drain()
    assert dev.stats["demand_ios"] == 0 and dev.stats["prefetch_ios"] == 1
    assert rec.state == ACTIVE


def test_first_touch_of_sleeper_pairs_demand_with_prefetch():
    sim, m, dev, pol = dmx_stack()
    ctx, rec = _dormant_ctx(pol, m, hot_pages=64)
    done_at, _, _ = pol.access_range(ctx, 0, 1, 0)
    assert done_at == 84                   # only the touched page stalls
    assert rec.state == ACTIVATING
    assert pol.counters["demand_faults"] == 1
    assert pol.counters["prefetch_issued"] == 63
    sim.drain()
    assert dev.stats["demand_ios"] == 1 and dev.stats["prefetch_ios"] == 1
    assert dev.stats["pages_read"] == 64
    assert rec.state == ACTIVE and ctx.resident == 64
    m.check_full()


def test_sleeper_wakes_after_the_first_range_of_a_walk():
    """A dormant context wakes once the walk's first range is done, and
    plans its reactivation before the second range is touched: that range
    then shares the prefetch read instead of faulting on its own."""
    sim, m, dev, pol = dmx_stack()
    ctx, rec = _dormant_ctx(pol, m, hot_pages=64)
    woke = []
    wake = pol._wake

    def spy(rec, t):
        woke.append((t, m.lookup(ctx, 0).tier, m.lookup(ctx, 1).tier))
        wake(rec, t)

    pol._wake = spy
    before = rec.window_count
    ends = []
    walk_ranges(pol, ctx, [(0, 1), (1, 2)], 0, batch=False, write=False,
                done=ends.append)
    # woken at the walk's start time, with page 0's read in flight and
    # page 1 not yet touched
    assert woke == [(0, TO_DRAM, FLASH)]
    assert rec.state == ACTIVATING
    assert pol.counters["demand_faults"] == 1
    assert pol.counters["prefetch_issued"] == 63
    assert pol.counters["prefetch_hits"] == 1
    assert rec.window_count == before + 2
    assert len(ends) == 1
    sim.drain()
    assert len(woke) == 1 and len(ends) == 1
    assert dev.stats["demand_ios"] == 1 and dev.stats["prefetch_ios"] == 1
    assert rec.state == ACTIVE and ctx.resident == 64
    m.check_full()


# -- eviction pressure -----------------------------------------------------

def test_pressure_tick_restores_twice_the_reserve():
    sim, m, dev, pol = dmx_stack(dram=1000, flash=4096)
    ctx = pol.register(m.new_context("a"))
    pol.on_allocate(ctx, 0, 990, 0)
    assert m.free_frames() == 10           # under the 20-frame reserve
    pol.tick(100_000)
    assert m.free_frames() == 40           # victims buffered instantly
    sim.drain()
    assert pol.counters["evictions"] == 30
    assert dev.stats["evict_ios"] == 1 and dev.stats["pages_written"] == 30
    m.check_full()


def test_eviction_drains_the_most_over_quota_context_first():
    sim, m, dev, pol = dmx_stack(dram=1000, flash=4096)
    a = pol.register(m.new_context("a"))
    b = pol.register(m.new_context("b"))
    pol.on_allocate(a, 0, 150, 0)
    pol.on_allocate(b, 0, 80, 0)
    pol.contexts[a].quota = 100            # a is 50 pages over
    pol.contexts[b].quota = 200
    pol._take_victims(30, 0)
    assert a.resident == 120 and b.resident == 80
    sim.drain()
    assert pol.counters["evictions"] == 30


def test_a_short_first_victim_context_hands_over_in_quota_order():
    """When the most over-quota context cannot cover the need, the others
    follow by how far over quota they are, ties by context id."""
    sim, m, dev, pol = dmx_stack(dram=1000, flash=4096)
    over = {"d": 10, "b": 30, "c": 20, "a": 20}
    ctxs = {cid: pol.register(m.new_context(cid)) for cid in over}
    for cid, ctx in ctxs.items():
        pol.on_allocate(ctx, 0, 100, 0)
    for cid, ctx in ctxs.items():
        pol.contexts[ctx].quota = 100 - over[cid]
    assert pol._take_victims(55, 0) == 55
    assert {cid: 100 - ctx.resident for cid, ctx in ctxs.items()} == {
        "b": 30, "a": 20, "c": 5, "d": 0}
    sim.drain()
    assert pol.counters["evictions"] == 55
    m.check_full()


@pytest.mark.parametrize("cids", [(1, "1"), ("1", 1)])
def test_contexts_whose_ids_print_alike_give_up_pages_in_registration_order(cids):
    """Two contexts with the same `key` and the same standing are taken in
    the order they registered, in the over-quota pass and in the
    largest-residents fallback, and their records are never compared."""
    sim, m, dev, pol = dmx_stack(dram=1000, flash=4096)
    first, second = (pol.register(m.new_context(cid)) for cid in cids)
    for ctx in (first, second):
        pol.on_allocate(ctx, 0, 100, 0)
        pol.contexts[ctx].quota = 80       # both 20 pages over
    assert pol._take_victims(30, 0) == 30
    assert (first.resident, second.resident) == (80, 90)
    pol.contexts[first].quota = pol.contexts[second].quota = 90
    pol.on_allocate(first, 100, 110, 0)    # nobody over quota, equal residents
    assert (first.resident, second.resident) == (90, 90)
    assert pol._take_victims(15, 0) == 15
    assert (first.resident, second.resident) == (75, 90)
    sim.drain()
    assert pol.counters["evictions"] == 45
    m.check_full()


def test_victims_leave_lowest_level_first_from_the_head():
    sim, m, dev, pol = dmx_stack()
    ctx = pol.register(m.new_context("a"))
    pol.on_allocate(ctx, 5, 6, 0)              # level 0, head
    pol.on_allocate(ctx, 0, 1, 90_000)         # level 0, behind it
    pol.on_allocate(ctx, 20, 21, 0)
    pol.access_range(ctx, 20, 21, 1)           # freq 2, level 1
    pol.on_allocate(ctx, 10, 11, 0)
    pol.access_range(ctx, 10, 11, 2)           # freq 2, level 1, behind 20
    victims = []
    pol._victims_from(pol.contexts[ctx], 4, 150_000, victims)
    assert [v.lo for v in victims] == [5, 0, 20, 10]


def test_a_hit_that_does_not_promote_moves_the_run_to_its_tail():
    """MQ keeps each level in LRU order: a touch moves a run to the tail of
    its level even when its freq stays below the next level's threshold."""
    sim, m, dev, pol = dmx_stack()
    ctx = pol.register(m.new_context("a"))
    for lo in (0, 1):
        pol.on_allocate(ctx, lo, lo + 1, 0)
        pol.access_range(ctx, lo, lo + 1, 1)   # freq 2, level 1: A, then B
    pol.access_range(ctx, 0, 1, 2)             # freq 3: A stays at level 1
    assert [(c.lo, c.level) for c in pol.contexts[ctx].levels[1]] == [
        (1, 1), (0, 1)]
    victims = []
    pol._victims_from(pol.contexts[ctx], 1, 3, victims)
    assert [v.lo for v in victims] == [1]


def test_clean_victims_drop_without_io():
    sim, m, dev, pol = dmx_stack()
    ctx = pol.register(m.new_context("a"))
    pol.on_allocate(ctx, 0, 8, 0)
    m.lookup(ctx, 0).dirty = False
    pol.contexts[ctx].quota = 0
    free_before = m.free_frames()
    pol._take_victims(8, 0)
    assert m.free_frames() == free_before + 8
    assert pol.counters["evictions"] == 8      # counted on the spot
    assert sim.drain() == 0
    assert m.lookup(ctx, 0).tier == FLASH


def test_touching_a_buffered_victim_waits_for_the_write():
    sim, m, dev, pol = dmx_stack()
    ctx = pol.register(m.new_context("a"))
    pol.on_allocate(ctx, 0, 8, 0)
    pol.contexts[ctx].quota = 0
    pol._take_victims(8, 0)
    c = m.lookup(ctx, 3)
    assert c.tier == TO_FLASH
    _, wait, next_idx = pol.access_range(ctx, 3, 4, 5)
    assert wait is not None and next_idx == 3
    assert pol.counters["demand_evict_waits"] == 1
    sim.drain()


def test_emergency_reclaim_covers_fault_bursts():
    sim, m, dev, pol = dmx_stack(dram=64, flash=1024, floor_pages=8)
    ctx = pol.register(m.new_context("a"))
    pol.on_allocate(ctx, 0, 64, 0)             # DRAM completely full
    m.create(ctx, 64, 80, tier=FLASH, dirty=False)
    done_at, _, _ = pol.access_range(ctx, 64, 80, 10, batch=True)
    assert pol.counters["emergency_reclaims"] == 1
    assert done_at > 10                    # a read happened
    sim.drain()
    assert m.lookup(ctx, 64).tier == DRAM
    m.check_full()


def test_emergency_reclaim_outlasts_a_prefetch_taking_the_freed_frames():
    sim, m, dev, pol = dmx_stack(dram=64, flash=1024, floor_pages=8)
    ctx = pol.register(m.new_context("a"))
    pol.on_allocate(ctx, 0, 64, 0)             # DRAM full of dirty pages
    sleeper, rec = _dormant_ctx(pol, m, hot_pages=4)
    pol._wake(rec, 0)                          # its prefetch waits for frames
    assert len(dev._queues[PREFETCH]) == 1
    m.create(ctx, 64, 68, tier=FLASH, dirty=False)
    # the victims' write-back dispatches the waiting prefetch, which takes
    # the four frames they freed; a second round frees four more
    done_at, _, _ = pol.access_range(ctx, 64, 68, 10, batch=True)
    assert not dev._queues[PREFETCH]
    assert pol.counters["emergency_reclaims"] == 1
    assert done_at > 10
    sim.drain()
    assert [m.lookup(ctx, i).tier for i in (64, 67)] == [DRAM, DRAM]
    assert sleeper.resident == 4 and rec.state == ACTIVE
    assert pol.counters["evictions"] == 8
    m.check_full()


# -- prefetch accounting ---------------------------------------------------

def test_prefetch_accounting_reconciles_after_teardown():
    sim, m, dev, pol = dmx_stack()
    ctx, rec = _dormant_ctx(pol, m, hot_pages=8)
    pol._wake(rec, 0)
    sim.drain()
    assert pol.counters["prefetch_landed"] == 8
    pol.access_range(ctx, 0, 3, 200)
    assert pol.counters["prefetch_hits"] == 3
    rec.quota = 0
    assert pol._take_victims(5, 300) == 5      # the five untouched pages
    assert [m.lookup(ctx, i).tier for i in (2, 3, 7)] == [DRAM, FLASH, FLASH]
    assert pol.counters["mispredictions"] == 5
    c = pol.counters
    assert c["prefetch_hits"] + c["mispredictions"] == c["prefetch_issued"]


def test_evicting_an_untouched_prefetched_page_is_a_misprediction():
    sim, m, dev, pol = dmx_stack()
    ctx, rec = _dormant_ctx(pol, m, hot_pages=8)
    pol._wake(rec, 0)
    sim.drain()
    rec.quota = 0
    pol._take_victims(8, 500)
    assert pol.counters["mispredictions"] == 8
    assert pol.counters["evictions"] == 8
    assert sim.drain() == 0                    # prefetched pages land clean


def test_a_dram_hit_credits_a_prefetched_run_its_own_pages_once():
    """A prefetched run that starts past page 0 lands whole; the first hit
    on it credits exactly its pages as prefetch hits, a second hit none."""
    sim, m, dev, pol = dmx_stack()
    ctx, rec = _dormant_ctx(pol, m, hot_pages=64, resident=10)
    pol._wake(rec, 0)
    sim.drain()
    run = m.lookup(ctx, 10)
    assert (run.lo, run.hi, run.tier, run.prefetched) == (10, 64, DRAM, True)
    for t in (1000, 2000):
        pol.access_range(ctx, 10, 64, t)
        assert pol.counters["prefetch_hits"] == 54
    assert pol.counters["mispredictions"] == 0
    assert not run.prefetched


# -- whole-policy property smoke -------------------------------------------

def test_mq_and_quota_laws_hold_under_mixed_traffic():
    sim, m, dev, pol = dmx_stack(dram=512, flash=4096, floor_pages=16)
    rng = SplitMix64(77)
    ctxs = []
    for i in range(3):
        ctx = pol.register(m.new_context(f"c{i}"))
        pol.on_allocate(ctx, 0, 200, 0)
        ctxs.append(ctx)
    t = 1000
    for round_ in range(300):
        t = max(t, sim.now) + 1000 + rng.randrange(5000)
        ctx = ctxs[rng.randrange(len(ctxs))]
        lo = rng.randrange(190)
        _, wait, next_idx = pol.access_range(ctx, lo, lo + 1 + rng.randrange(8),
                                             t, batch=True)
        if wait is not None:
            sim.drain()
            pol.access_range(ctx, next_idx, lo + 9, max(t, sim.now) + 1,
                             batch=True)
        if round_ % 25 == 24:
            pol.tick(max(t, sim.now))
            sim.drain()
            assert mq_law_holds(pol)
            assert_quota_law(pol, m)
            m.check_full()
    sim.drain()
    assert mq_law_holds(pol)
    m.check_full()


# -- victim order ----------------------------------------------------------

HELD_IO = object()      # stands in for a pending request on a DRAM run


def _listed(pol, ctx):
    return [c for plist in pol.contexts[ctx].levels for c in plist]


def test_every_selection_matches_the_list_order_reference():
    """Every selection, including the ones emergency reclaims and ticks
    make, takes exactly the pieces tests/oracles.py reads off the level
    lists just before the call, in its order."""
    sim, m, dev, pol = dmx_stack(dram=192, flash=8192, floor_pages=8)
    rng = SplitMix64(2718)
    seen = check_selections_in_list_order(pol)
    seen.update(io_held=0, interior_hits=0, ticks=0)
    ctxs = [[pol.register(m.new_context(f"c{i}")), 0] for i in range(3)]
    held = None          # a DRAM run made to look as if IO were pending
    t = 0
    for step in range(2500):
        t = max(t, sim.now) + rng.randrange(6000)
        sim.run(t)
        slot = ctxs[rng.randrange(len(ctxs))]
        ctx, pages = slot
        roll = rng.randrange(100)
        if pages < 16 or roll < 8:
            n = 1 + rng.randrange(24)
            pol.on_allocate(ctx, pages, pages + n, t)
            slot[1] += n
        elif roll < 12:
            pol.tick(t)
            seen["ticks"] += 1
        elif roll < 24:
            seen["io_held"] += (held is not None and held.ctx is ctx
                                and held.owner is not None)
            out = []
            pol._victims_from(pol.contexts[ctx], 1 + rng.randrange(12), t, out)
            if out:
                dev.submit_background(EVICT, out, t, cb=pol._on_evicted)
        elif roll < 28:
            if held is not None and held.io is HELD_IO:
                held.io = None
            runs = _listed(pol, ctx)
            held = runs[rng.randrange(len(runs))] if runs else None
            if held is not None:
                held.io = HELD_IO
        else:
            lo = rng.randrange(pages)
            hi = min(pages, lo + 1 + rng.randrange(10))
            c = m.lookup(ctx, lo)
            seen["interior_hits"] += (c.tier == DRAM and c.lo < lo
                                      and hi < c.hi)
            _, wait, _ = pol.access_range(ctx, lo, hi, t, batch=roll % 2 == 0,
                                          write=roll % 3 == 0)
            if wait is not None:
                sim.drain()
        if step % 200 == 199:
            sim.drain()
            m.check_full()
            assert mq_law_holds(pol)
            assert dmx_wheel_is_exact(pol)
    if held is not None and held.io is HELD_IO:
        held.io = None
    sim.drain()
    m.check_full()
    assert all(n > 20 for n in seen.values()), seen


def test_the_expiry_wheel_stays_exact_without_ticks():
    """With no tick to sweep it, the expiry wheel still holds one entry per
    run it ages while emergency reclaims take victims."""
    sim, m, dev, pol = dmx_stack(dram=128, flash=4096, floor_pages=8)
    ctx = pol.register(m.new_context("a"))
    rng = SplitMix64(11)
    t = 0
    for step in range(6000):
        t = max(t, sim.now) + 1 + rng.randrange(50)
        sim.run(t)
        if step < 512:
            pol.on_allocate(ctx, step, step + 1, t)
        else:
            page = rng.randrange(64) if rng.randrange(4) else rng.randrange(512)
            if pol.access_range(ctx, page, page + 1, t)[1] is not None:
                sim.drain()
        if step % 10 == 0:
            assert dmx_wheel_is_exact(pol)
    assert pol.counters["emergency_reclaims"] > 1000

import pytest

from helpers import build, mq_law_holds
from oracles import victim_order_reference
from tiersim.core import SimulationError, SplitMix64
from tiersim.memory import (
    DRAM, FLASH, INFLIGHT, TO_FLASH, ACTIVE, DORMANT, ACTIVATING,
)
from tiersim.media import EVICT
from tiersim.dmx import INDEX_SLACK, DmxPolicy


def dmx_stack(dram=2048, flash=16384, **kw):
    sim, m, dev = build(dram=dram, flash=flash)
    pol = DmxPolicy(sim, m, dev, **kw)
    return sim, m, dev, pol


def assert_quota_law(pol, m):
    live = [c for c in pol.contexts if c.alive]
    assert all(c.quota >= pol.floor_pages for c in live)
    assert sum(c.quota for c in live) <= m.dram_pages - pol.reserve


# -- frequency queues ------------------------------------------------------

def test_first_touch_lands_in_queue_zero():
    sim, m, dev, pol = dmx_stack()
    ctx = pol.register(m.new_context("a"))
    assert pol.on_allocate(ctx, 0, 1, 0) == 0
    c = m.lookup(ctx, 0)
    assert (c.level, c.freq) == (0, 1)
    assert c.owner is ctx.levels[0]
    assert ctx.window_count == 1


def test_eight_accesses_reach_queue_three():
    sim, m, dev, pol = dmx_stack()
    ctx = pol.register(m.new_context("a"))
    pol.on_allocate(ctx, 0, 1, 0)
    for i in range(7):
        pol.access_range(ctx, 0, 1, i + 1)
    c = m.lookup(ctx, 0)
    # promotions fired at freq 2, 4 and 8
    assert (c.level, c.freq) == (3, 8)
    assert c.owner is ctx.levels[3]


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
    assert mq_law_holds(m)


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


# -- quotas ----------------------------------------------------------------

def test_quota_split_is_proportional_above_the_floor():
    sim, m, dev, pol = dmx_stack(dram=1000, floor_pages=100, reserve_frac=0.0)
    a = pol.register(m.new_context("a"))
    b = pol.register(m.new_context("b"))
    a.score, b.score = 3.0, 1.0
    pol.rebalance_quotas()
    assert (a.quota, b.quota) == (700, 300)
    assert_quota_law(pol, m)


def test_lone_context_gets_everything_but_the_reserve():
    sim, m, dev, pol = dmx_stack(dram=1000)
    a = pol.register(m.new_context("a"))
    a.score = 123.4
    pol.rebalance_quotas()
    assert pol.reserve == 20
    assert a.quota == 980


def test_zero_scores_split_the_surplus_equally():
    sim, m, dev, pol = dmx_stack(dram=1000, floor_pages=100, reserve_frac=0.0)
    ctxs = [pol.register(m.new_context(f"c{i}")) for i in range(4)]
    pol.rebalance_quotas()
    assert [c.quota for c in ctxs] == [250, 250, 250, 250]


def test_quota_law_under_arbitrary_scores():
    sim, m, dev, pol = dmx_stack(dram=4096)
    rng = SplitMix64(5)
    ctxs = [pol.register(m.new_context(f"c{i}")) for i in range(9)]
    for trial in range(50):
        for c in ctxs:
            c.score = rng.random() * rng.randrange(1000)
        pol.rebalance_quotas()
        assert_quota_law(pol, m)


# -- dormancy --------------------------------------------------------------

def test_quiet_windows_put_a_context_to_sleep():
    sim, m, dev, pol = dmx_stack(dormant_windows=3)
    ctx = pol.register(m.new_context("a"))
    pol.on_allocate(ctx, 0, 4, 0)
    pol.tick(100_000)                     # score 1.2: busy enough
    assert ctx.state == ACTIVE and ctx.low_windows == 0
    pol.tick(200_000)                     # decays 0.84
    pol.tick(300_000)                     # 0.588
    assert ctx.state == ACTIVE and ctx.low_windows == 2
    pol.tick(400_000)                     # 0.41: third quiet window
    assert ctx.state == DORMANT
    assert ctx.hot_set == [(0, 4)]


def test_one_busy_window_resets_the_dormancy_count():
    sim, m, dev, pol = dmx_stack(dormant_windows=3, alpha=1.0)
    ctx = pol.register(m.new_context("a"))
    pol.on_allocate(ctx, 0, 4, 0)
    pol.tick(100_000)                     # allocation made this window busy
    pol.tick(200_000)
    pol.tick(300_000)
    assert ctx.state == ACTIVE and ctx.low_windows == 2
    pol.access_range(ctx, 0, 2, 350_000)
    pol.tick(400_000)                     # score 2.0 clears the streak
    assert ctx.low_windows == 0
    pol.tick(500_000)
    assert ctx.state == ACTIVE and ctx.low_windows == 1


def test_hot_set_ranks_by_level_then_freq_capped_at_quota():
    sim, m, dev, pol = dmx_stack()
    ctx = pol.register(m.new_context("a"))
    pol.on_allocate(ctx, 0, 4, 0)
    for i in range(4):
        pol.access_range(ctx, 0, 4, i + 1)    # freq 5, level 2
    pol.on_allocate(ctx, 4, 6, 5)
    pol.access_range(ctx, 4, 6, 6)            # freq 2, level 1
    pol.on_allocate(ctx, 6, 8, 7)             # freq 1, level 0
    ctx.quota = 6
    assert pol._snapshot_hot_set(ctx) == [(0, 4), (4, 6)]


# -- reactivation ----------------------------------------------------------

def _dormant_ctx(pol, m, hot_pages, resident=0, quota=200):
    ctx = pol.register(m.new_context("sleeper"))
    if resident:
        c = m.create(ctx, 0, resident)
        pol._enqueue(ctx, c, 0)
    m.create(ctx, resident, hot_pages, tier=FLASH, dirty=False)
    ctx.state = DORMANT
    ctx.hot_set = [(0, hot_pages)]
    ctx.quota = quota
    return ctx


def test_reactivation_prefetches_only_the_missing_pages():
    sim, m, dev, pol = dmx_stack()
    ctx = _dormant_ctx(pol, m, hot_pages=64, resident=10)
    pol._wake(ctx, 0)
    assert ctx.state == ACTIVATING
    assert pol.counters["prefetch_issued"] == 54
    sim.drain()
    assert pol.counters["prefetch_landed"] == 54
    assert ctx.state == ACTIVE and ctx.hot_set is None
    assert ctx.resident == 64
    assert dev.stats["prefetch_ios"] == 1 and dev.stats["pages_read"] == 54


def test_reactivation_respects_quota_headroom():
    sim, m, dev, pol = dmx_stack()
    ctx = _dormant_ctx(pol, m, hot_pages=64, resident=10, quota=30)
    pol._wake(ctx, 0)
    assert pol.counters["prefetch_issued"] == 20   # top-ranked 20 only
    sim.drain()
    assert ctx.resident == 30


def test_fully_resident_hot_set_skips_the_device():
    sim, m, dev, pol = dmx_stack()
    ctx = pol.register(m.new_context("a"))
    pol.on_allocate(ctx, 0, 8, 0)
    ctx.state = DORMANT
    ctx.hot_set = [(0, 8)]
    pol._wake(ctx, 10)
    assert ctx.state == ACTIVE and ctx.hot_set is None
    assert pol.counters["prefetch_issued"] == 0
    assert sim.drain() == 0


def test_fault_during_inflight_prefetch_shares_the_read():
    sim, m, dev, pol = dmx_stack()
    ctx = _dormant_ctx(pol, m, hot_pages=8)
    pol._wake(ctx, 0)                      # 8-page read lands at 111
    res = pol.access_range(ctx, 0, 1, 81)
    assert res.done_at == 111              # 30us residual stall, no new IO
    again = pol.access_range(ctx, 1, 2, 90)
    assert again.done_at == 111
    # the flying run is credited once, however many of its pages get touched
    assert pol.counters["prefetch_hits"] == 1
    assert pol.counters["demand_faults"] == 0
    sim.drain()
    assert dev.stats["demand_ios"] == 0 and dev.stats["prefetch_ios"] == 1
    assert ctx.state == ACTIVE


def test_first_touch_of_sleeper_pairs_demand_with_prefetch():
    sim, m, dev, pol = dmx_stack()
    ctx = _dormant_ctx(pol, m, hot_pages=64)
    res = pol.access_range(ctx, 0, 1, 0)
    assert res.done_at == 84               # only the touched page stalls
    assert ctx.state == ACTIVATING
    assert pol.counters["demand_faults"] == 1
    assert pol.counters["prefetch_issued"] == 63
    sim.drain()
    assert dev.stats["demand_ios"] == 1 and dev.stats["prefetch_ios"] == 1
    assert dev.stats["pages_read"] == 64
    assert ctx.state == ACTIVE and ctx.resident == 64
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
    a.quota, b.quota = 100, 200            # a is 50 pages over
    pol._take_victims(30, 0)
    assert a.resident == 120 and b.resident == 80
    sim.drain()
    assert pol.counters["evictions"] == 30


def test_victims_leave_lowest_level_first_expired_before_live():
    sim, m, dev, pol = dmx_stack()
    ctx = pol.register(m.new_context("a"))
    pol.on_allocate(ctx, 5, 6, 0)              # level 0, expires at 100k
    pol.on_allocate(ctx, 0, 1, 90_000)         # level 0, expires at 190k
    pol.on_allocate(ctx, 10, 11, 0)
    pol.access_range(ctx, 10, 11, 1)           # freq 2, level 1
    pol.on_allocate(ctx, 20, 21, 0)
    pol.access_range(ctx, 20, 21, 1)
    pol.access_range(ctx, 20, 21, 2)           # freq 3, level 1
    victims = []
    pol._victims_from(ctx, 4, 150_000, victims)
    assert [v.lo for v in victims] == [5, 0, 10, 20]


def test_clean_victims_drop_without_io():
    sim, m, dev, pol = dmx_stack()
    ctx = pol.register(m.new_context("a"))
    pol.on_allocate(ctx, 0, 8, 0)
    m.lookup(ctx, 0).dirty = False
    ctx.quota = 0
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
    ctx.quota = 0
    pol._take_victims(8, 0)
    c = m.lookup(ctx, 3)
    assert c.tier == INFLIGHT and c.dir == TO_FLASH
    res = pol.access_range(ctx, 3, 4, 5)
    assert res.wait is not None and res.next_idx == 3
    assert pol.counters["demand_evict_waits"] == 1
    sim.drain()


def test_emergency_reclaim_covers_fault_bursts():
    sim, m, dev, pol = dmx_stack(dram=64, flash=1024, floor_pages=8)
    ctx = pol.register(m.new_context("a"))
    pol.on_allocate(ctx, 0, 64, 0)             # DRAM completely full
    m.create(ctx, 64, 80, tier=FLASH, dirty=False)
    res = pol.access_range(ctx, 64, 80, 10, batch=True)
    assert pol.counters["emergency_reclaims"] == 1
    assert res.done_at > 10                    # a read happened
    sim.drain()
    assert ctx.pages[64].tier == DRAM
    m.check_full()


# -- prefetch accounting ---------------------------------------------------

def test_prefetch_accounting_reconciles_after_teardown():
    sim, m, dev, pol = dmx_stack()
    ctx = _dormant_ctx(pol, m, hot_pages=8)
    pol._wake(ctx, 0)
    sim.drain()
    assert pol.counters["prefetch_landed"] == 8
    pol.access_range(ctx, 0, 3, 200)
    assert pol.counters["prefetch_hits"] == 3
    pol.on_teardown(ctx)
    assert pol.counters["mispredictions"] == 5
    c = pol.counters
    assert c["prefetch_hits"] + c["mispredictions"] == c["prefetch_issued"]


def test_evicting_an_untouched_prefetched_page_is_a_misprediction():
    sim, m, dev, pol = dmx_stack()
    ctx = _dormant_ctx(pol, m, hot_pages=8)
    pol._wake(ctx, 0)
    sim.drain()
    ctx.quota = 0
    pol._take_victims(8, 500)
    assert pol.counters["mispredictions"] == 8
    assert pol.counters["evictions"] == 8
    assert sim.drain() == 0                    # prefetched pages land clean


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
        res = pol.access_range(ctx, lo, lo + 1 + rng.randrange(8), t,
                               batch=True)
        if res.wait is not None:
            sim.drain()
            pol.access_range(ctx, res.next_idx, lo + 9, max(t, sim.now) + 1,
                             batch=True)
        if round_ % 25 == 24:
            pol.tick(max(t, sim.now))
            sim.drain()
            assert mq_law_holds(m)
            assert_quota_law(pol, m)
            m.check_full()
    sim.drain()
    assert mq_law_holds(m)
    m.check_full()


# -- victim index ----------------------------------------------------------

HELD_IO = object()      # stands in for a pending request on a DRAM run


def _listed(ctx):
    return [c for plist in ctx.levels for c in plist]


def test_victim_index_matches_the_reference_order():
    """Every selection, including the ones emergency reclaims and ticks
    make, takes exactly the pieces the full sort of tests/oracles.py would,
    in its order, computed just before the call."""
    sim, m, dev, pol = dmx_stack(dram=192, flash=8192, floor_pages=8)
    rng = SplitMix64(2718)
    seen = {"calls": 0, "partial": 0, "expire_is_t": 0, "io_held": 0,
            "earlier_t": 0, "interior_hits": 0, "ticks": 0}
    last_t = {}
    select = pol._victims_from

    def checked(ctx, allow, t, dirty_out):
        expect, left = [], allow
        for c in victim_order_reference(ctx.levels, t):
            if left == 0:
                break
            take = min(c.pages(), left)
            expect.append((c.lo, c.lo + take))
            seen["partial"] += take < c.pages()
            left -= take
        listed = _listed(ctx)
        seen["calls"] += 1
        seen["expire_is_t"] += any(c.expire == t for c in listed)
        seen["io_held"] += any(c.io is not None for c in listed)
        seen["earlier_t"] += t < last_t.get(ctx.cid, -1)
        last_t[ctx.cid] = t
        pages_before = {i for c in listed for i in range(c.lo, c.hi)}
        pieces = []
        extract = m.extract
        m.extract = lambda c, lo, hi: pieces.append((lo, hi)) or extract(c, lo, hi)
        try:
            got = select(ctx, allow, t, dirty_out)
        finally:
            del m.extract
        assert pieces == expect
        assert got == allow - left
        pages_after = {i for c in _listed(ctx) for i in range(c.lo, c.hi)}
        assert pages_before - pages_after == {
            i for lo, hi in expect for i in range(lo, hi)}
        return got

    pol._victims_from = checked
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
            # a direct selection at a run's own expiry, which may lie
            # before or after the last selection's time
            runs = _listed(ctx)
            when = runs[rng.randrange(len(runs))].expire if runs else t
            if rng.randrange(3) == 0:
                when = max(0, t - rng.randrange(150_000))
            out = []
            pol._victims_from(ctx, 1 + rng.randrange(12), when, out)
            if out:
                dev.submit_background(EVICT, out, t, cb=pol._on_evicted)
        elif roll < 28:
            if held is not None and held.io is HELD_IO:
                held.io = None
            runs = _listed(ctx)
            held = runs[rng.randrange(len(runs))] if runs else None
            if held is not None:
                held.io = HELD_IO
        else:
            lo = rng.randrange(pages)
            hi = min(pages, lo + 1 + rng.randrange(10))
            c = m.lookup(ctx, lo)
            seen["interior_hits"] += (c.tier == DRAM and c.lo < lo
                                      and hi < c.hi)
            res = pol.access_range(ctx, lo, hi, t, batch=roll % 2 == 0,
                                   write=roll % 3 == 0)
            if res.wait is not None:
                sim.drain()
        if step % 200 == 199:
            sim.drain()
            m.check_full()
            assert mq_law_holds(m)
    if held is not None and held.io is HELD_IO:
        held.io = None
    sim.drain()
    m.check_full()
    assert all(n > 20 for n in seen.values()), seen


def test_victim_index_stays_bounded_without_ticks():
    """With no tick to drop it, the index is trimmed by rebuilds: it never
    holds more than 4 entries per listed run, beyond the slack."""
    sim, m, dev, pol = dmx_stack(dram=128, flash=4096, floor_pages=8)
    ctx = pol.register(m.new_context("a"))
    rng = SplitMix64(11)
    last, rebuilds = None, 0
    t = 0
    for step in range(6000):
        t = max(t, sim.now) + 1 + rng.randrange(50)
        sim.run(t)
        if step < 512:
            pol.on_allocate(ctx, step, step + 1, t)
        else:
            page = rng.randrange(64) if rng.randrange(4) else rng.randrange(512)
            if pol.access_range(ctx, page, page + 1, t).wait is not None:
                sim.drain()
        index = pol._victim_index.get(ctx)
        if index is not None:
            rebuilds += index is not last
            last = index
            listed = sum(plist.cohorts for plist in ctx.levels)
            assert index.size() <= 4 * listed + INDEX_SLACK
    assert pol.counters["emergency_reclaims"] > 1000
    assert rebuilds > 5                # it was rebuilt along the way

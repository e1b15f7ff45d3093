import pytest

from helpers import build
from tiersim.core import SimulationError
from tiersim.memory import DRAM, FLASH, TO_DRAM, TO_FLASH
from tiersim.media import (
    PROFILES, service_time_us, DEMAND, EVICT, PREFETCH,
)


def test_service_times_flash():
    p = PROFILES["flash"]
    assert service_time_us(p, 1, write=False) == 84
    assert service_time_us(p, 2, write=False) == 88
    assert service_time_us(p, 64, write=False) == 325
    assert service_time_us(p, 1, write=True) == 204
    assert service_time_us(p, 2, write=True) == 208


def test_service_times_disk():
    p = PROFILES["disk"]
    assert service_time_us(p, 1, write=False) == 4027
    assert service_time_us(p, 32, write=True) == 4834
    assert service_time_us(p, 64, write=False) == 5667
    assert service_time_us(p, 64, write=True) == 5667


def test_service_time_rejects_empty():
    with pytest.raises(SimulationError):
        service_time_us(PROFILES["flash"], 0, write=False)


def test_large_read_splits_into_batches():
    sim, m, dev = build()
    ctx = m.new_context("a")
    c = m.create(ctx, 0, 130, tier=FLASH)
    h = dev.submit_demand([c], 0)
    # 130 pages -> 64 + 64 + 2, all in flight at once on an 8-way device
    assert h.remaining == 3
    assert h.done_t == 325
    assert m.census()["inflight"] == 130
    times = []
    h.wait(times.append)
    sim.drain()
    assert times == [325] and h.remaining == 0
    assert dev.stats["demand_ios"] == 3
    assert dev.stats["pages_read"] == 130
    assert m.census() == {"dram": 130, "flash": 0, "inflight": 0, "total": 130}
    assert (dev.stats["pages_read"] + dev.stats["pages_written"]) * 4096 == 130 * 4096
    m.check_full()


def test_single_slot_serializes_demand():
    sim, m, dev = build(max_inflight=1)
    ctx = m.new_context("a")
    c1 = m.create(ctx, 0, 1, tier=FLASH)
    c2 = m.create(ctx, 1, 2, tier=FLASH)
    h1 = dev.submit_demand([c1], 0)
    h2 = dev.submit_demand([c2], 0)
    assert (h1.done_t, h2.done_t) == (84, 168)
    sim.drain()
    assert c1.tier == DRAM and c2.tier == DRAM


@pytest.mark.parametrize("busy,slot", [
    ([0] * 8, 0), ([5, 2, 2, 7], 1), ([3, 3, 1, 1], 2), ([9, 8, 7, 7], 2),
    ([4], 0),
])
def test_least_busy_slot_takes_the_lowest_index_on_a_tie(busy, slot):
    sim, m, dev = build(max_inflight=len(busy))
    dev._busy[:] = busy
    assert dev._least_busy_slot() == slot


def test_not_before_delays_the_reservation():
    sim, m, dev = build(max_inflight=1)
    c = m.create(m.new_context("a"), 0, 1, tier=FLASH)
    h = dev.submit_demand([c], 0, not_before=100)
    assert h.done_t == 184
    sim.drain()


def test_demand_overtakes_queued_prefetch():
    sim, m, dev = build(max_inflight=2)
    dispatched = []
    dev.dispatch_log = dispatched.append
    ctx = m.new_context("a")
    c1 = m.create(ctx, 0, 1, tier=FLASH)
    c2 = m.create(ctx, 1, 2, tier=FLASH)
    c3 = m.create(ctx, 2, 3, tier=FLASH)
    p1 = m.create(ctx, 10, 11, tier=FLASH)
    p2 = m.create(ctx, 11, 12, tier=FLASH)
    dev.submit_demand([c1], 0)
    dev.submit_demand([c2], 0)          # both slots busy until 84
    hp1 = dev.submit_background(PREFETCH, [p1], 0)
    hp2 = dev.submit_background(PREFETCH, [p2], 0)
    assert len(dev._queues[PREFETCH]) == 2
    assert p1.tier == FLASH             # prefetch holds no frame while queued
    h3 = dev.submit_demand([c3], 10)
    assert h3.done_t == 168             # reserved ahead of both prefetches
    sim.drain()
    assert dispatched == [(84, PREFETCH, 0, 1), (168, PREFETCH, 0, 0)]
    assert (hp1.done_t, hp2.done_t) == (168, 252)
    assert dev.stats["demand_ios"] == 3 and dev.stats["prefetch_ios"] == 2


def test_evict_dispatches_before_earlier_prefetch():
    sim, m, dev = build(max_inflight=1)
    dispatched = []
    dev.dispatch_log = dispatched.append
    ctx = m.new_context("a")
    c = m.create(ctx, 0, 1, tier=FLASH)
    p = m.create(ctx, 1, 2, tier=FLASH)
    d = m.create(ctx, 2, 3)            # dram, dirty
    dev.submit_demand([c], 0)          # slot busy until 84
    dev.submit_background(PREFETCH, [p], 0)
    dev.submit_background(EVICT, [d], 0)
    assert d.tier == TO_FLASH  # buffered at submit
    sim.drain()
    assert dispatched == [(84, EVICT, 0, 1), (288, PREFETCH, 0, 0)]
    for t, klass, evict_q, _ in dispatched:
        if klass == PREFETCH:
            assert evict_q == 0        # prefetch never jumps an evict
    assert d.tier == FLASH and d.dirty is False
    assert p.tier == DRAM


def test_stale_queued_prefetch_is_dropped():
    sim, m, dev = build(max_inflight=1)
    ctx = m.new_context("a")
    c = m.create(ctx, 0, 1, tier=FLASH)
    p = m.create(ctx, 1, 2, tier=FLASH)
    dev.submit_demand([c], 0)
    hp = dev.submit_background(PREFETCH, [p], 0)
    dev.submit_demand([p], 1)          # demand fault beats the queued prefetch
    sim.drain()
    assert dev.stats["dropped_requests"] == 1
    assert dev.stats["prefetch_ios"] == 0 and dev.stats["demand_ios"] == 2
    # the drop is noticed at the first dispatch attempt with an idle slot,
    # which is when the demand read of p itself completes
    assert hp.remaining == 0 and hp.done_t == 168
    assert p.tier == DRAM
    m.check_full()


def test_prefetch_blocks_on_frames_until_eviction_frees_them():
    sim, m, dev = build(dram=4, flash=64, max_inflight=2)
    ctx = m.new_context("a")
    hot = m.create(ctx, 0, 4)                  # fills DRAM
    cold = m.create(ctx, 4, 6, tier=FLASH)
    hp = dev.submit_background(PREFETCH, [cold], 0)
    assert len(dev._queues[PREFETCH]) == 1     # slots idle, no frames
    assert cold.tier == FLASH
    he = dev.submit_background(EVICT, [hot], 5)
    # buffered eviction frees the frames at submit, so the prefetch goes out
    # immediately instead of waiting for the 4-page write to land
    assert hp.done_t is None or hp.done_t <= he.done_t
    sim.drain()
    assert (hp.done_t, he.done_t) == (5 + 88, 5 + 216)
    assert m.census() == {"dram": 2, "flash": 4, "inflight": 0, "total": 6}
    m.check_full()


def test_empty_submissions_complete_inline():
    sim, m, dev = build()
    h = dev.submit_demand([], 7)
    assert h.remaining == 0 and h.done_t == 7
    hb = dev.submit_background(EVICT, [], 7)
    assert hb.remaining == 0
    with pytest.raises(SimulationError):
        h.wait(lambda t: None)
    assert sim.drain() == 0


def test_background_rejects_demand_class():
    sim, m, dev = build()
    with pytest.raises(SimulationError):
        dev.submit_background(DEMAND, [], 0)


def test_busy_time_respects_bandwidth():
    sim, m, dev = build()
    ctx = m.new_context("a")
    c = m.create(ctx, 0, 130, tier=FLASH)
    dev.submit_demand([c], 0)
    sim.drain()
    moved = (dev.stats["pages_read"] + dev.stats["pages_written"]) * 4096
    floor_us = moved * 1_000_000 // dev.profile.bandwidth_bps
    assert dev.stats["busy_us"] >= floor_us


def test_an_evict_queue_that_never_empties_holds_only_waiting_requests():
    """One-page write-backs arrive every 100 us and take 204 us on the one
    slot, so the evict queue is never empty again after the first; it still
    lets go of each request once that request starts."""
    sim, m, dev = build(max_inflight=1)
    ctx = m.new_context("a")
    runs = [m.create(ctx, k, k + 1) for k in range(40)]    # dram, dirty
    for k, c in enumerate(runs):
        sim.schedule(100 * k, "evict",
                     lambda t, c=c: dev.submit_background(EVICT, [c], t))
    for until in (1_000, 2_000, 3_900):
        sim.run(until)
        queue = dev._queues[EVICT]
        assert len(queue) > 0
        assert all(req.done_t is None for req in queue)     # none started
        started = dev.stats["evict_ios"] + 1                # one in flight
        assert started + len(queue) == until // 100 + 1
    sim.drain()
    assert not dev._queues[EVICT]
    assert dev.stats["evict_ios"] == 40


def test_background_rejects_a_demand_request_and_names_its_class():
    sim, m, dev = build()
    ctx = m.new_context("a")
    c = m.create(ctx, 0, 4)
    with pytest.raises(SimulationError, match=rf"got {DEMAND}$"):
        dev.submit_background(DEMAND, [c], 0)
    assert not dev._queues[EVICT] and not dev._queues[PREFETCH]
    assert m.census()["inflight"] == 0

"""The shared page walk and the hooks each policy fills in."""

import pytest

from helpers import build, logged_accesses
from tiersim.dmx import DmxPolicy
from tiersim.media import service_time_us
from tiersim.memory import DRAM, FLASH, TO_DRAM, TO_FLASH
from tiersim.swap import SwapPolicy
from tiersim.workload import walk_ranges


def spy_on_hooks(pol):
    """Record every call of the walk's hooks as (hook, detail), then run
    the policy's own hook."""
    calls = []
    details = {
        "_on_hit": lambda ctx, piece, t, split: (piece.lo, piece.hi, split),
        "_make_room": lambda pages, t: pages,
        "_on_landed": lambda req, landed, t: [(c.lo, c.hi) for c in landed],
    }
    for hook, detail in details.items():
        fn = getattr(pol, hook)

        def spy(*args, hook=hook, fn=fn, detail=detail):
            calls.append((hook, detail(*args)))
            return fn(*args)
        setattr(pol, hook, spy)
    return calls


@pytest.mark.parametrize("policy_cls", [SwapPolicy, DmxPolicy],
                         ids=["swap", "dmx"])
def test_access_range_returns_done_at_or_a_wait_exit(policy_cls):
    """A finished walk returns (done_at, None, None); a walk that reaches a
    victim still draining to flash returns (t, the write's handle, the
    page to resume at)."""
    sim, m, dev = build(dram=64, flash=1024)
    pol = policy_cls(m, dev, fault_overhead_us=0)
    ctx = pol.register(m.new_context("a"))
    pol.on_allocate(ctx, 0, 8, 0)
    m.create(ctx, 8, 12, tier=FLASH, dirty=False)
    read_4 = service_time_us(dev.profile, 4, False)
    assert pol.access_range(ctx, 0, 8, 10) == (10, None, None)
    assert pol.access_range(ctx, 8, 12, 20, batch=True) == (20 + read_4, None, None)
    sim.drain()
    draining = m.create(ctx, 12, 16, tier=DRAM)
    write = dev.submit_demand([draining], 200, write=True)
    assert pol.access_range(ctx, 0, 16, 200, batch=True) == (200, write, 12)
    sim.drain()
    t = write.done_t
    assert pol.access_range(ctx, 12, 16, t, batch=True) == (t + read_4, None, None)
    sim.drain()
    m.check_full()


@pytest.mark.parametrize("policy_cls", [SwapPolicy, DmxPolicy],
                         ids=["swap", "dmx"])
def test_walk_calls_each_hook_once_per_piece_cluster_and_read(policy_cls):
    sim, m, dev = build(dram=64, flash=1024)
    pol = policy_cls(m, dev, fault_overhead_us=0)
    ctx = pol.register(m.new_context("a"))
    pol.on_allocate(ctx, 0, 8, 0)
    m.create(ctx, 8, 12, tier=FLASH, dirty=False)
    m.create(ctx, 12, 16, tier=FLASH, dirty=False)
    m.create(ctx, 16, 19, tier=FLASH, dirty=False)
    calls = spy_on_hooks(pol)

    pol.access_range(ctx, 0, 8, 10)                 # whole-run hit
    pol.access_range(ctx, 2, 4, 20)                 # partial hit
    assert calls == [("_on_hit", (0, 8, False)), ("_on_hit", (2, 4, True))]
    del calls[:]
    pol.access_range(ctx, 0, 8, 30)                 # three whole runs
    assert calls == [("_on_hit", (0, 2, False)), ("_on_hit", (2, 4, False)),
                     ("_on_hit", (4, 8, False))]
    del calls[:]

    # one batched cluster across two flash runs, then a walk that shares
    # its read in flight and calls no hook
    pol.access_range(ctx, 8, 16, 40, batch=True)
    assert calls == [("_make_room", 8)]
    assert m.lookup(ctx, 9).tier == TO_DRAM
    pol.access_range(ctx, 9, 11, 41)
    assert calls == [("_make_room", 8)]
    # unbatched: one cluster per page
    pol.access_range(ctx, 16, 19, 50, batch=False)
    assert calls[1:] == [("_make_room", 1)] * 3
    del calls[:]

    sim.drain()                                     # short reads land first
    assert sorted(calls) == [("_on_landed", [(8, 12), (12, 16)]),
                             ("_on_landed", [(16, 17)]),
                             ("_on_landed", [(17, 18)]),
                             ("_on_landed", [(18, 19)])]
    assert dev.stats["demand_ios"] == 4
    assert pol.counters["demand_faults"] == 8 + 2 + 3
    assert pol.counters["fault_clusters"] == 1 + 1 + 3
    assert all(m.lookup(ctx, i).tier == DRAM for i in range(19))
    m.check_full()


def test_dmx_window_counts_each_walked_page_once():
    sim, m, dev = build(dram=64, flash=1024)
    pol = DmxPolicy(m, dev, floor_pages=0)
    ctx = pol.register(m.new_context("a"))
    pol.on_allocate(ctx, 0, 8, 0)
    m.create(ctx, 8, 12, tier=FLASH, dirty=False)
    pol.access_range(ctx, 0, 4, 1)                  # [0, 4) climbs a level
    rec = pol.contexts[ctx]
    rec.quota = 4
    pol._take_victims(4, 1)                         # so [4, 8) drains
    assert m.lookup(ctx, 4).tier == TO_FLASH
    pol.access_range(ctx, 8, 12, 1, batch=True)     # a read in flight
    before = rec.window_count
    ends = []

    # shares the read, hits [0, 4), waits at page 4, then faults [4, 8)
    walk_ranges(pol, ctx, [(8, 12), (0, 8)], 2, batch=True, write=False,
                done=ends.append)
    assert not ends
    assert pol.counters["demand_evict_waits"] == 1
    assert rec.window_count == before + 4 + 4
    sim.drain()
    assert len(ends) == 1
    assert pol.counters["demand_evict_waits"] == 1
    assert rec.window_count == before + 12
    assert all(m.lookup(ctx, i).tier == DRAM for i in range(12))
    m.check_full()


@pytest.mark.parametrize("policy_cls", [SwapPolicy, DmxPolicy],
                         ids=["swap", "dmx"])
def test_a_wait_in_range_two_of_three_resumes_then_walks_range_three(policy_cls):
    """The walk stops at the draining victim in its second range, hands the
    write-back a resumption that starts at that page, walks the third range
    once the write lands, and calls done exactly once. Each range is logged
    and reported to _on_walked with the time the walk reached it."""
    sim, m, dev = build(dram=64, flash=1024)
    pol = policy_cls(m, dev, fault_overhead_us=0)
    ctx = pol.register(m.new_context("a"))
    pol.on_allocate(ctx, 0, 8, 0)
    m.create(ctx, 8, 12, tier=FLASH, dirty=False)
    m.create(ctx, 16, 20, tier=FLASH, dirty=False)
    draining = m.create(ctx, 12, 16, tier=DRAM)
    write = dev.submit_demand([draining], 100, write=True)
    read_4 = service_time_us(dev.profile, 4, False)
    log = []
    pol.access_log = log.append
    walked = []
    on_walked = pol._on_walked

    def spy(ctx, lo, end, t, waited):
        walked.append((lo, end, t, waited))
        on_walked(ctx, lo, end, t, waited)

    pol._on_walked = spy
    ends = []
    walk_ranges(pol, ctx, [(0, 8), (8, 16), (16, 20)], 100, batch=True,
                write=False, done=ends.append)
    assert ends == []
    assert walked == [(0, 8, 100, False), (8, 12, 100, True)]
    sim.drain()
    tw = write.done_t
    assert walked == [(0, 8, 100, False), (8, 12, 100, True),
                      (12, 16, tw, False), (16, 20, tw + read_4, False)]
    assert ends == [tw + 2 * read_4]
    logged = [(t, idx) for t, _, idx, _ in logged_accesses(log)]
    assert logged == ([(100, i) for i in range(16)] +
                      [(tw, i) for i in range(12, 16)] +
                      [(tw + read_4, i) for i in range(16, 20)])
    assert all(m.lookup(ctx, i).tier == DRAM for i in range(20))
    m.check_full()


@pytest.mark.parametrize("policy_cls", [SwapPolicy, DmxPolicy],
                         ids=["swap", "dmx"])
def test_access_range_is_the_walk_of_one_range(policy_cls):
    """access_range and a one-range walk touch the same pages at the same
    times and leave the same state."""
    logs, ends = [], []
    for one_range in (True, False):
        sim, m, dev = build(dram=64, flash=1024)
        pol = policy_cls(m, dev, fault_overhead_us=0)
        log = []
        pol.access_log = log.append
        ctx = pol.register(m.new_context("a"))
        pol.on_allocate(ctx, 0, 8, 0)
        m.create(ctx, 8, 16, tier=FLASH, dirty=False)
        for t, (lo, hi) in enumerate([(2, 6), (0, 12), (6, 16)], start=1):
            if one_range:
                ends.append(pol.access_range(ctx, lo, hi, t, batch=True)[0])
            else:
                pol.walk(ctx, [(lo, hi)], t, True, False, ends.append)
        sim.drain()
        logs.append((logged_accesses(log), pol.snapshot_counters(),
                     sorted((c.lo, c.hi, c.tier) for c in set(ctx.pages.values()))))
    assert logs[0] == logs[1]
    assert ends[:3] == ends[3:]

import pytest

from helpers import build, logged_accesses
from oracles import LruOracle
from tiersim.core import SimulationError, SplitMix64
from tiersim.memory import DRAM, FLASH
from tiersim.swap import SwapPolicy


def swap_stack(dram=256, flash=8192, overhead=0, batch=1, **dev):
    sim, m, dev_ = build(dram=dram, flash=flash, **dev)
    pol = SwapPolicy(m, dev_, fault_overhead_us=overhead,
                     reclaim_batch=batch)
    return sim, m, dev_, pol


def lru_pages(pol):
    return [(c.ctx.cid, i) for c in pol.lru for i in range(c.lo, c.hi)]


def test_allocation_evicts_the_least_recent_page():
    sim, m, dev, pol = swap_stack(dram=3)
    ctx = pol.register(m.new_context("a"))
    for p in range(3):
        pol.on_allocate(ctx, p, p + 1, 0)
    pol.access_range(ctx, 0, 1, 0)          # order now 1, 2, 0
    pol.on_allocate(ctx, 3, 4, 0)           # page 1 is coldest
    sim.drain()
    assert m.lookup(ctx, 1).tier == FLASH
    assert lru_pages(pol) == [("a", 2), ("a", 0), ("a", 3)]
    assert pol.counters["evictions"] == 1


def test_oversized_allocation_spills_its_own_prefix():
    sim, m, dev, pol = swap_stack(dram=100, flash=800)
    ctx = pol.register(m.new_context("a"))
    ready = pol.on_allocate(ctx, 0, 150, 0)
    assert ready == 391                     # one 50-page buffered write-back
    sim.drain()
    assert ctx.resident == 100
    assert pol.counters["evictions"] == 50
    assert m.census() == {"dram": 100, "flash": 50, "inflight": 0, "total": 150}
    assert lru_pages(pol) == [("a", i) for i in range(50, 150)]
    m.check_full()


def test_clean_fault_costs_one_read():
    sim, m, dev, pol = swap_stack(dram=2)
    ctx = pol.register(m.new_context("a"))
    pol.on_allocate(ctx, 0, 1, 0)
    pol._reclaim(1, 0)                  # force page 0 out (dirty write)
    sim.drain()
    c = m.lookup(ctx, 0)
    assert c.tier == FLASH and not c.dirty
    done_at, _, _ = pol.access_range(ctx, 0, 1, 1000)
    assert done_at == 1084              # free frame: just the 84us read
    sim.drain()
    assert m.lookup(ctx, 0).tier == DRAM
    assert pol.counters["demand_faults"] == 1
    assert pol.counters["fault_clusters"] == 1


def test_dirty_victim_chains_write_then_read():
    sim, m, dev, pol = swap_stack(dram=1)
    ctx = pol.register(m.new_context("a"))
    pol.on_allocate(ctx, 0, 1, 0)
    assert pol.on_allocate(ctx, 1, 2, 0) == 204   # page 0 written back
    sim.drain()
    done_at, _, _ = pol.access_range(ctx, 0, 1, 1000)
    # victim write-back (204) then the read (84) serialized behind it
    assert done_at == 1000 + 204 + 84
    sim.drain()
    assert m.lookup(ctx, 0).tier == DRAM
    assert m.lookup(ctx, 1).tier == FLASH
    assert pol.counters["evictions"] == 2


def test_two_dirty_victims_share_one_write():
    sim, m, dev, pol = swap_stack(dram=2, batch=32)
    ctx = pol.register(m.new_context("a"))
    pol.on_allocate(ctx, 0, 1, 0)
    pol.on_allocate(ctx, 1, 2, 0)
    ready = pol.on_allocate(ctx, 2, 4, 0)
    assert ready == 208                     # one batched 2-page write
    sim.drain()
    assert dev.stats["demand_ios"] == 1
    assert dev.stats["pages_written"] == 2
    assert dev.stats["evict_ios"] == 0      # reclaim writes are demand-class


def test_allocation_into_free_dram_is_instant():
    sim, m, dev, pol = swap_stack()
    ctx = pol.register(m.new_context("a"))
    assert pol.on_allocate(ctx, 0, 64, 5) == 5
    assert sim.drain() == 0
    assert pol.counters["demand_faults"] == 0


def test_unbatched_walk_faults_page_by_page():
    sim, m, dev, pol = swap_stack()
    ctx = pol.register(m.new_context("a"))
    m.create(ctx, 0, 3, tier=FLASH)
    done_at, _, _ = pol.access_range(ctx, 0, 3, 0, batch=False)
    assert done_at == 3 * 84            # serialized: each read waits
    sim.drain()
    assert pol.counters["fault_clusters"] == 3
    assert dev.stats["demand_ios"] == 3


def test_batched_walk_folds_the_run_into_one_fault():
    sim, m, dev, pol = swap_stack()
    ctx = pol.register(m.new_context("a"))
    m.create(ctx, 0, 3, tier=FLASH)
    done_at, _, _ = pol.access_range(ctx, 0, 3, 0, batch=True)
    assert done_at == 92                # one 3-page read
    sim.drain()
    assert pol.counters["fault_clusters"] == 1
    assert pol.counters["demand_faults"] == 3
    assert dev.stats["demand_ios"] == 1


def test_fault_overhead_is_charged_per_cluster():
    sim, m, dev, pol = swap_stack(overhead=6000)
    ctx = pol.register(m.new_context("a"))
    m.create(ctx, 0, 1, tier=FLASH)
    done_at, _, _ = pol.access_range(ctx, 0, 1, 0)
    assert done_at == 6084
    sim.drain()


def test_concurrent_faulters_share_the_inflight_read():
    sim, m, dev, pol = swap_stack()
    ctx = pol.register(m.new_context("a"))
    m.create(ctx, 0, 1, tier=FLASH)
    first, _, _ = pol.access_range(ctx, 0, 1, 0)
    second, _, _ = pol.access_range(ctx, 0, 1, 10)
    assert first == 84
    assert second == 84             # rides the same read
    sim.drain()
    assert pol.counters["demand_faults"] == 2
    assert dev.stats["demand_ios"] == 1


def test_touching_a_draining_victim_blocks_then_refaults():
    sim, m, dev, pol = swap_stack(dram=1)
    ctx = pol.register(m.new_context("a"))
    pol.on_allocate(ctx, 0, 1, 0)
    pol.on_allocate(ctx, 1, 2, 0)           # page 0 now draining to flash
    _, wait, next_idx = pol.access_range(ctx, 0, 1, 0)
    assert wait is not None and next_idx == 0
    results = []
    wait.wait(lambda t: results.append(
        pol.access_range(ctx, next_idx, 1, t)))
    sim.drain()
    # resumed at 204 when the write-back landed, then evict page 1 (write
    # finishes at 408) and read page 0 back behind it
    assert results[0][0] == 408 + 84
    assert pol.counters["demand_faults"] == 1
    assert pol.counters["evictions"] == 2


def test_baseline_never_issues_background_io():
    sim, m, dev, pol = swap_stack(dram=4)
    ctx = pol.register(m.new_context("a"))
    pol.on_allocate(ctx, 0, 12, 0)
    sim.drain()
    for p in range(12):
        pol.access_range(ctx, p, p + 1, 1000 * (p + 1))
        sim.drain()
    assert dev.stats["evict_ios"] == 0 and dev.stats["prefetch_ios"] == 0
    assert pol.counters["prefetch_issued"] == 0
    snap = pol.snapshot_counters()
    assert snap["prefetch_issued"] == 0 and snap["mispredictions"] == 0
    assert snap["writeback_pages"] == dev.stats["pages_written"]


def test_access_log_records_every_page_touch():
    sim, m, dev, pol = swap_stack()
    log = []
    pol.access_log = log.append
    ctx = pol.register(m.new_context("a"))
    pol.on_allocate(ctx, 0, 2, 5)
    pol.access_range(ctx, 1, 2, 9, write=False)
    assert logged_accesses(log) == [(5, "a", 0, "w"), (5, "a", 1, "w"), (9, "a", 1, "r")]


def test_matches_page_lru_oracle_on_a_random_trace():
    sim, m, dev, pol = swap_stack(dram=8, flash=128)
    oracle = LruOracle(8)
    ctx = pol.register(m.new_context("a"))
    pol.on_allocate(ctx, 0, 32, 0)
    oracle.allocate("a", 0, 32)
    sim.drain()
    rng = SplitMix64(99)
    t = 1000
    for _ in range(2000):
        page = rng.randrange(32)
        before = pol.counters["demand_faults"]
        pol.access_range(ctx, page, page + 1, t, batch=False)
        sim.drain()
        faulted = pol.counters["demand_faults"] > before
        assert faulted == oracle.access("a", page), f"page {page} diverged"
        t += 1000
    assert pol.counters["evictions"] == len(oracle.evicted)
    assert lru_pages(pol) == oracle.order
    m.check_full()

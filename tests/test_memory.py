import random

import pytest

from helpers import listed_pages
from tiersim.core import SimulationError
from tiersim.memory import (
    MemoryModel, PageList, Cohort, DRAM, FLASH, TO_DRAM, TO_FLASH,
)


def model(dram=100, flash=800):
    return MemoryModel(dram, flash)


def test_fresh_allocation_census():
    m = model()
    ctx = m.new_context("a")
    m.create(ctx, 0, 10)
    assert m.census() == {"dram": 10, "flash": 0, "inflight": 0, "total": 10}
    assert m.free_frames() == 90
    assert ctx.resident == 10


def test_capacity_exhaustion_aborts():
    m = model(dram=100, flash=100)
    ctx = m.new_context("a")
    m.create(ctx, 0, 100)
    m.create(ctx, 100, 200, tier=FLASH)
    with pytest.raises(SimulationError):
        m.create(ctx, 200, 201, tier=FLASH)


def test_dram_overcommit_aborts():
    m = model(dram=10)
    ctx = m.new_context("a")
    m.create(ctx, 0, 10)
    with pytest.raises(SimulationError):
        m.create(ctx, 10, 11)
    # flash side is still open
    m.create(ctx, 10, 11, tier=FLASH)


def test_duplicate_page_and_context_abort():
    m = model()
    ctx = m.new_context("a")
    m.create(ctx, 0, 4)
    with pytest.raises(SimulationError):
        m.create(ctx, 3, 5)
    with pytest.raises(SimulationError):
        m.new_context("a")


def test_inflight_census_and_frame_hold():
    m = model()
    ctx = m.new_context("a")
    c = m.create(ctx, 0, 16, tier=FLASH)
    m.transition(c, TO_DRAM)
    assert m.census() == {"dram": 0, "flash": 0, "inflight": 16, "total": 16}
    # inbound IO reserves its destination frames
    assert m.free_frames() == 84
    m.transition(c, DRAM)
    assert m.free_frames() == 84
    assert ctx.resident == 16


def test_outbound_inflight_frees_frames_immediately():
    m = model()
    ctx = m.new_context("a")
    c = m.create(ctx, 0, 16)
    assert m.free_frames() == 84
    m.transition(c, TO_FLASH)
    assert m.free_frames() == 100
    assert ctx.resident == 0
    m.transition(c, FLASH)
    assert m.census() == {"dram": 0, "flash": 16, "inflight": 0, "total": 16}


def test_same_tier_same_direction_transition_is_noop():
    m = model()
    ctx = m.new_context("a")
    c = m.create(ctx, 0, 8)
    m.transition(c, TO_FLASH)
    before = m.census()
    m.transition(c, TO_FLASH)
    assert m.census() == before and c.tier == TO_FLASH


def test_unknown_tier_is_rejected():
    """A rejected transition, to an unknown tier or into frames DRAM does
    not have, leaves the run where it was and every counter balanced."""
    m = model(dram=4)
    ctx = m.new_context("a")
    c = m.create(ctx, 0, 4)
    with pytest.raises(SimulationError, match="bad tier"):
        m.transition(c, 7)
    assert c.tier == DRAM and ctx.resident == 4
    m.check_full()
    out = m.create(ctx, 4, 6, tier=FLASH)
    with pytest.raises(SimulationError, match="frame overcommit"):
        m.transition(out, TO_DRAM)
    assert out.tier == FLASH
    assert m.census() == {"dram": 4, "flash": 2, "inflight": 0, "total": 6}
    m.check_full()


def test_extract_prefix_suffix_interior_and_identity():
    m = model()
    ctx = m.new_context("a")
    c = m.create(ctx, 0, 100)
    # full range: same object back, nothing split
    assert m.extract(c, 0, 100) is c
    assert sum(c.hi - c.lo for c in ctx.pages.values()) == 100

    pre = m.extract(c, 0, 10)
    assert (pre.lo, pre.hi) == (0, 10) and (c.lo, c.hi) == (10, 100)
    suf = m.extract(c, 90, 100)
    assert (suf.lo, suf.hi) == (90, 100) and (c.lo, c.hi) == (10, 90)
    mid = m.extract(c, 40, 60)
    assert (mid.lo, mid.hi) == (40, 60)
    assert (c.lo, c.hi) == (10, 40)
    # page map resolves every index to the piece that now holds it
    assert m.lookup(ctx, 5) is pre and m.lookup(ctx, 45) is mid
    assert m.lookup(ctx, 70).lo == 60 and m.lookup(ctx, 70).hi == 90
    assert m.lookup(ctx, 95) is suf
    assert m.census()["total"] == 100
    m.check_full()


def test_extract_inherits_policy_state_but_not_io():
    m = model()
    ctx = m.new_context("a")
    c = m.create(ctx, 0, 20)
    c.freq, c.level, c.expire, c.prefetched = 8, 3, 12345, True
    c.io = object()
    out = m.extract(c, 4, 8)
    assert (out.freq, out.level, out.expire) == (8, 3, 12345)
    assert out.prefetched and out.io is None
    assert c.io is not None


def test_extract_keeps_list_order_and_page_count():
    m = model()
    ctx = m.new_context("a")
    lst = PageList()
    a = m.create(ctx, 0, 10)
    b = m.create(ctx, 10, 40)
    lst.append(a)
    lst.append(b)
    mid = m.extract(b, 20, 30)
    order = [(x.lo, x.hi) for x in lst]
    assert sorted(order) == [(0, 10), (10, 20), (20, 30), (30, 40)]
    # remainder pieces keep their relative order; callers reposition the
    # extracted piece themselves (move_to_tail on access), so its slot is free
    assert order.index((10, 20)) < order.index((30, 40))
    assert mid.owner is lst
    assert listed_pages(lst) == 40 and len(order) == 4
    pre = m.extract(a, 0, 3)
    assert [(x.lo, x.hi) for x in lst][:2] == [(0, 3), (3, 10)]
    assert pre.owner is lst and listed_pages(lst) == 40


def test_extract_out_of_range_aborts():
    m = model()
    c = m.create(m.new_context("a"), 10, 20)
    for lo, hi in [(5, 15), (15, 25), (12, 12), (0, 30)]:
        with pytest.raises(SimulationError):
            m.extract(c, lo, hi)


def test_pagelist_basics():
    m = model()
    ctx = m.new_context("a")
    lst = PageList()
    a, b, c = (m.create(ctx, i * 10, i * 10 + 10) for i in range(3))
    lst.append(a)
    lst.append(b)
    lst.append(c)
    assert lst.head is a and lst.tail is c and len(list(lst)) == 3
    lst.move_to_tail(a)
    assert [x.lo for x in lst] == [10, 20, 0]
    lst.remove(b)
    assert [x.lo for x in lst] == [20, 0] and listed_pages(lst) == 20
    with pytest.raises(SimulationError):
        lst.append(a)  # already owned
    other = PageList()
    with pytest.raises(SimulationError):
        other.remove(a)


def twin_lists(rng, n):
    """Two PageLists holding equal cohorts in the same order."""
    ctx = MemoryModel(10_000, 10_000).new_context("a")
    sizes = [rng.randint(1, 9) for _ in range(n)]
    twins = []
    for _ in range(2):
        lst, cohorts, lo = PageList(), [], 0
        for size in sizes:
            c = Cohort(ctx, lo, lo + size, DRAM, False)
            lst.append(c)
            cohorts.append(c)
            lo += size
        twins.append((lst, cohorts))
    return twins


def links(lst, cohorts):
    """Every link of the list, with cohorts named by their index."""
    name = lambda c: None if c is None else cohorts.index(c)
    return (name(lst.head), name(lst.tail), len(list(lst)), listed_pages(lst),
            [(name(c.prev), name(c.next), c.owner is lst) for c in cohorts])


@pytest.mark.parametrize("seed", range(20))
def test_move_to_tail_matches_remove_then_append(seed):
    rng = random.Random(seed)
    n = 1 if seed == 0 else rng.randint(2, 12)
    (lst, cohorts), (ref, ref_cohorts) = twin_lists(rng, n)
    # the head, an interior cohort, the tail (the only cohort when n == 1),
    # then random picks
    order = [lst.head, lst.tail]
    if n > 2:
        order.insert(1, cohorts[rng.randrange(1, n - 1)])
    for c in order + [rng.choice(cohorts) for _ in range(30)]:
        i = cohorts.index(c)
        lst.move_to_tail(c)
        ref.remove(ref_cohorts[i])
        ref.append(ref_cohorts[i])
        assert links(lst, cohorts) == links(ref, ref_cohorts)
    assert [c.lo for c in lst] == [c.lo for c in ref]
    # a cohort of another list, or of none, does not move and moves nothing
    before = links(lst, cohorts)
    ref.remove(ref_cohorts[0])
    for stranger in ref_cohorts:
        with pytest.raises(SimulationError):
            lst.move_to_tail(stranger)
    assert links(lst, cohorts) == before


def test_full_audit_catches_counter_drift():
    m = model()
    ctx = m.new_context("a")
    m.create(ctx, 0, 10)
    m.check_full()
    m.dram_used += 1
    m.total += 1
    with pytest.raises(SimulationError):
        m.check_full()
    m.dram_used -= 1
    m.total -= 1
    ctx.resident += 2
    with pytest.raises(SimulationError):
        m.check_full()


def test_the_every_event_check_counts_inbound_frames_against_dram():
    """check_counters fails when the frames held by reads in flight to DRAM
    break the bound that DRAM alone keeps. transition refuses to get there,
    so the counters are set by hand, census identity kept."""
    m = model(dram=100)
    ctx = m.new_context("a")
    m.create(ctx, 0, 60)
    m.inflight = m.inflight_in = 40
    m.total = 100
    m.check_counters()                  # exactly full is allowed
    m.inflight = m.inflight_in = 41
    m.total = 101
    with pytest.raises(SimulationError,
                       match="DRAM overcommitted: used=60 inbound=41 cap=100"):
        m.check_counters()


def test_a_colliding_create_writes_nothing():
    m = model()
    ctx = m.new_context("a")
    m.create(ctx, 10, 20)
    before = (m.census(), m.inflight_in, ctx.resident, m.free_frames())
    for lo, hi, page in [(5, 15, 10), (15, 25, 15), (0, 30, 10), (10, 20, 10)]:
        with pytest.raises(SimulationError, match=f"page {page} already allocated"):
            m.create(ctx, lo, hi)
        assert all(m.lookup(ctx, i) is None for i in range(0, 10))
        assert all(m.lookup(ctx, i) is None for i in range(20, 30))
        assert (m.census(), m.inflight_in, ctx.resident,
                m.free_frames()) == before
        assert list(ctx.pages) == list(ctx.starts) == [10]
        m.check_full()
    with pytest.raises(SimulationError, match="DRAM or FLASH"):
        m.create(ctx, 0, 5, tier=TO_DRAM)
    assert m.lookup(ctx, 0) is None and m.census() == before[0]
    m.check_full()


def _reference_bounds(ref, lo, hi, bounds):
    for idx in range(lo, hi):
        ref[idx] = bounds


@pytest.mark.parametrize("seed", range(3))
def test_page_map_matches_a_per_page_reference(seed):
    """Random creates (with collisions and gaps) and prefix, suffix,
    interior and whole extracts, against a per-page reference of each
    page's cohort bounds, over a few thousand first pages."""
    rng = random.Random(seed)
    space = 6144
    m = MemoryModel(10, 4 * space)
    ctx = m.new_context("a")
    ref = {}                        # page -> (lo, hi) of the cohort holding it
    born = []                       # the allocated pages, in birth order

    def audit(pages):
        for idx in pages:
            c = m.lookup(ctx, idx)
            if idx not in ref:
                assert c is None, idx
            else:
                assert (c.lo, c.hi) == ref[idx], idx
                assert m.lookup(ctx, c.lo) is c
        assert list(ctx.starts) == sorted(ctx.pages)

    def audit_all():
        audit(range(-1, space + 8))
        assert sorted(ctx.pages) == sorted({lo for lo, _ in ref.values()})
        m.check_full()

    collisions = 0
    for step in range(3072):
        if not ref or rng.random() < 0.5:
            lo = rng.randrange(space)
            hi = lo + rng.randint(1, 6)
            touched = range(lo - 1, hi + 1)
            if any(idx in ref for idx in range(lo, hi)):
                collisions += 1
                with pytest.raises(SimulationError, match="already allocated"):
                    m.create(ctx, lo, hi, tier=FLASH)
            else:
                c = m.create(ctx, lo, hi, tier=FLASH)
                assert (c.lo, c.hi) == (lo, hi)
                _reference_bounds(ref, lo, hi, (lo, hi))
                born.extend(range(lo, hi))
        else:
            c = m.lookup(ctx, rng.choice(born))
            clo, chi = c.lo, c.hi
            kind = rng.choice(("prefix", "suffix", "interior", "whole"))
            n = chi - clo
            if kind == "whole" or n == 1:
                lo, hi = clo, chi
            elif kind == "prefix":
                lo, hi = clo, clo + rng.randint(1, n - 1)
            elif kind == "suffix":
                lo, hi = chi - rng.randint(1, n - 1), chi
            elif n >= 3:
                lo = rng.randint(clo + 1, chi - 2)
                hi = rng.randint(lo + 1, chi - 1)
            else:
                lo, hi = clo, clo + 1
            out = m.extract(c, lo, hi)
            assert (out.lo, out.hi) == (lo, hi)
            assert (out is c) == ((lo, hi) == (clo, chi))
            if clo < lo:
                _reference_bounds(ref, clo, lo, (clo, lo))
                assert m.lookup(ctx, clo) is c
            if hi < chi:
                _reference_bounds(ref, hi, chi, (hi, chi))
            _reference_bounds(ref, lo, hi, (lo, hi))
            touched = range(clo - 1, chi + 1)
        audit(touched)
        if step % 500 == 0:
            audit_all()
    audit_all()
    assert collisions > 50
    assert sum(c.hi - c.lo for c in ctx.pages.values()) == len(ref) == m.total


def _split_map():
    m = model()
    ctx = m.new_context("a")
    for i in range(4):
        m.create(ctx, 10 * i, 10 * i + 10)
    c = m.lookup(ctx, 30)
    m.extract(c, 34, 36)
    m.check_full()
    return m, ctx


def test_full_audit_rejects_a_stale_key():
    m, ctx = _split_map()
    ctx.pages[36] = ctx.pages[34]           # key 36 no longer starts its cohort
    with pytest.raises(SimulationError, match="not the first page"):
        m.check_full()


def test_full_audit_rejects_an_index_out_of_order_or_out_of_step():
    m, ctx = _split_map()
    starts = ctx.starts
    starts[1], starts[2] = starts[2], starts[1]
    with pytest.raises(SimulationError, match="out of step"):
        m.check_full()
    starts[1], starts[2] = starts[2], starts[1]
    m.check_full()
    starts.remove(36)                       # a key the index lost
    with pytest.raises(SimulationError, match="out of step"):
        m.check_full()


def test_full_audit_rejects_overlapping_cohorts():
    m, ctx = _split_map()
    a, b = m.lookup(ctx, 0), m.lookup(ctx, 10)
    a.hi, b.hi = 12, 18                     # same page count, overlapping
    with pytest.raises(SimulationError, match="overlap"):
        m.check_full()


def test_collisions_and_lookups_at_every_first_page():
    """Births on every other page, last page first; at every first page, a
    birth that reaches only that page collides, and one that stops short of
    it fits the gap below."""
    m = MemoryModel(10, 5120)
    ctx = m.new_context("a")
    n = 1025
    for i in reversed(range(n)):
        m.create(ctx, 2 * i + 1, 2 * i + 2, tier=FLASH)
    firsts = list(ctx.starts)
    assert firsts == [2 * i + 1 for i in range(n)]
    for first in firsts:
        with pytest.raises(SimulationError, match=f"page {first} already allocated"):
            m.create(ctx, first - 1, first + 1, tier=FLASH)
        assert m.lookup(ctx, first - 1) is None
        assert m.lookup(ctx, first).lo == first
    for first in firsts:
        m.create(ctx, first - 1, first, tier=FLASH)
    assert [m.lookup(ctx, i) is None for i in range(2 * n + 1)] == [
        i == 2 * n for i in range(2 * n + 1)]
    m.check_full()

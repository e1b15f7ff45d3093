import gc
import random
from types import SimpleNamespace

import pytest

from helpers import build
from oracles import KernelOracle, mix_seed_reference, splitmix64_reference
from tiersim import core
from tiersim.config import resolve
from tiersim.core import (BLOCK, Simulator, SplitMix64, SimulationError, _block,
                          mix_seed, rejection_limit)
from tiersim.dmx import DORMANT, DmxPolicy
from tiersim.experiment import run_point, run_trace
from tiersim.memory import FLASH
from tiersim.workload import walk_ranges


def test_empty_run_advances_clock_and_processes_nothing():
    sim = Simulator()
    assert sim.run(10_000_000) == 0
    assert sim.now == 10_000_000


def test_equal_times_fire_in_schedule_order():
    sim = Simulator()
    out = []
    sim.schedule(5, "a", lambda t: out.append(("a", t)))
    sim.schedule(3, "b", lambda t: out.append(("b", t)))
    sim.schedule(3, "c", lambda t: out.append(("c", t)))
    sim.run(10)
    assert out == [("b", 3), ("c", 3), ("a", 5)]


def test_run_until_is_inclusive():
    sim = Simulator()
    hits = []
    sim.schedule(7, "x", hits.append)
    assert sim.run(7) == 1
    assert hits == [7]


def test_schedule_into_past_is_fatal():
    sim = Simulator()
    sim.schedule(5, "x", lambda t: None)
    sim.run(5)
    with pytest.raises(SimulationError):
        sim.schedule(4, "x", lambda t: None)


def test_drain_empties_the_queue():
    sim = Simulator()
    out = []
    sim.schedule(3, "a", lambda t: sim.schedule(t + 4, "b", out.append))
    assert sim.drain() == 2
    assert out == [7]


def test_drain_fires_an_event_queued_past_everything_it_started_with():
    """drain runs up to the latest time queued when a pass starts; an event
    that pass fires may queue a later one, which the next pass fires, and
    the clock ends at its time."""
    sim = Simulator()
    out = []
    sim.schedule(10, "early", lambda t: sim.schedule(t + 100, "late", out.append))
    sim.schedule(20, "last", out.append)
    assert sim.drain() == 3
    assert out == [20, 110]
    assert sim.now == 110 and not sim._heap


@pytest.mark.parametrize("enabled", [True, False])
def test_run_pauses_the_collector_and_restores_it(enabled):
    sim = Simulator()
    seen = []
    sim.schedule(1, "x", lambda t: seen.append(gc.isenabled()))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert sim.run(5) == 1
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False]


@pytest.mark.parametrize("enabled", [True, False])
def test_an_event_that_raises_leaves_the_collector_as_it_was(enabled):
    sim = Simulator()

    def fail(t):
        raise SimulationError("boom")

    sim.schedule(1, "x", fail)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(SimulationError, match="boom"):
            sim.run(5)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


# -- same-time events share a heap entry --------------------------------------

def test_a_burst_for_one_future_time_shares_one_heap_entry():
    sim = Simulator()
    fired = []
    seqs = [sim.schedule(50, f"e{i}", lambda t, i=i: fired.append((t, i)))
            for i in range(16)]
    assert len(sim._heap) == 1
    assert seqs == list(range(16))
    assert sim.run(50) == 16
    assert fired == [(50, i) for i in range(16)]
    assert not sim._heap and not sim._joined


def test_a_schedule_for_another_time_starts_a_new_entry():
    sim = Simulator()
    fired = []
    for kind, at in (("a", 50), ("b", 50), ("x", 60), ("c", 50), ("d", 50)):
        sim.schedule(at, kind, lambda t, kind=kind: fired.append(kind))
    assert len(sim._heap) == 3
    assert sim.drain() == 5
    assert fired == ["a", "b", "c", "d", "x"]


def test_a_schedule_for_the_current_time_never_joins():
    """Neither inside an event, where the entry pushed last may be the one
    being fired, nor after a run that stopped on its time."""
    sim = Simulator()
    fired, entries = [], []

    def fire(t):
        for k in range(3):
            sim.schedule(t, f"now{k}", lambda t, k=k: fired.append(k))
        entries.append(len(sim._heap))

    sim.schedule(10, "first", fire)
    assert sim.run(10) == 4
    assert entries == [3] and fired == [0, 1, 2]
    for k in range(3):
        sim.schedule(10, f"after{k}", lambda t, k=k: fired.append(k))
    assert len(sim._heap) == 3
    assert sim.run(10) == 3 and fired == [0, 1, 2, 0, 1, 2]


@pytest.mark.parametrize("raiser", ["event-a", "event-b", "event-c",
                                    "hook-a", "hook-b"])
def test_an_event_that_raises_keeps_its_neighbours_queued(raiser):
    """a, b and c share a time; the one named raises, from its event or
    from the hook after it. Those after it stay queued, with their seqs and
    log lines, and a second run fires them, as a plain heap would."""
    source, name = raiser.split("-")
    sim = Simulator()
    fired, lines = [], []
    sim.event_log = lines.append

    def event(kind):
        def fire(t):
            fired.append(kind)
            if source == "event" and kind == name:
                raise SimulationError(kind)
        return fire

    def hook():
        if source == "hook" and fired[-1] == name:
            raise SimulationError(name)

    sim.post_event_hook = hook
    for kind in "abc":
        sim.schedule(5, kind, event(kind))
    with pytest.raises(SimulationError, match=name):
        sim.run(5)
    rest = "abc"["abc".index(name) + 1:]
    assert fired == list("abc"[:len(fired)]) and fired[-1] == name
    assert sim.run(5) == len(rest)
    assert fired == list("abc")
    assert lines == [f"5\t{i}\t{kind}\n" for i, kind in enumerate("abc")]
    assert sim.now == 5 and not sim._heap


def _play(kernel, seed):
    """One seeded schedule on `kernel`, and all it lets a caller see: each
    event's (at, seq, kind) as it fires, each run or drain call's return
    value or raise and the clock after it, and the event log.

    Events schedule others at their own time, in bursts of up to 16 for one
    later time, and for a time between two halves of a burst; between run
    calls more are scheduled for `now` and later. Each event's conduct
    comes from its own seq, so a misordered kernel diverges at once.
    About 3% of events raise. Two seeds in three log their events, every
    other seed has a hook, and on every fourth the hook raises too."""
    rnd = random.Random(seed)
    fired, calls, lines = [], [], []
    if seed % 3:
        kernel.event_log = lines.append
    budget = [rnd.randint(40, 240)]
    hook_raises = set(rnd.sample(range(1, 200), 3)) if seed % 4 == 0 else set()
    hook_calls = [0]

    def hook():
        hook_calls[0] += 1
        if hook_calls[0] in hook_raises:
            raise SimulationError(f"hook {hook_calls[0]}")

    if seed % 2 == 0:
        kernel.post_event_hook = hook

    def add(at, kind):
        if budget[0] <= 0:
            return
        budget[0] -= 1
        cell = []

        def fire(t):
            seq = cell[0]
            fired.append((t, seq, kind))
            own = random.Random(seed * 1_000_003 + seq)
            if own.random() < 0.03:
                raise SimulationError(f"event {seq}")
            for _ in range(own.choice((0, 1, 1, 1, 2, 3))):
                spawn(t, own)

        cell.append(kernel.schedule(at, kind, fire))

    def spawn(t, r):
        shape = r.choice(("now", "burst", "burst", "split", "one"))
        d = r.choice((1, 2, 5, 10, 25))
        if shape == "now":
            for _ in range(r.randint(1, 3)):
                add(t, "now")
        elif shape == "burst":
            for _ in range(r.randint(2, 16)):
                add(t + d, "burst")
        elif shape == "split":
            add(t + d, "split")
            add(t + d + r.choice((-1, 1, 3)) if d > 1 else t + d + 1, "other")
            add(t + d, "split")
        else:
            add(t + r.choice((0, 1, 3, d)), "one")

    def call(fn, *args):
        try:
            calls.append(fn(*args))
        except SimulationError as exc:
            calls.append(str(exc))
        calls.append(kernel.now)

    for _ in range(rnd.randint(1, 4)):
        spawn(0, rnd)
    for _ in range(rnd.randint(0, 30)):
        call(kernel.run, kernel.now + rnd.choice((0, 1, 3, 5, 10, 25)))
        if rnd.random() < 0.4:
            spawn(kernel.now, rnd)
    while len(calls) < 2 or isinstance(calls[-2], str):
        call(kernel.drain)
    return fired, calls, lines


def test_the_kernel_matches_a_plain_heap_on_seeded_schedules(monkeypatch):
    """Simulator and KernelOracle see the same 250 seeded schedules alike.
    The counts show that the schedules made joined entries (fewer pushes
    than events) and raised inside them (entries queued again)."""
    pushes, requeues = [0], [0]
    push, requeue = core.heappush, Simulator._requeue

    def counted_push(heap, entry):
        pushes[0] += 1
        push(heap, entry)

    def counted_requeue(sim, *args):
        requeues[0] += 1
        requeue(sim, *args)

    monkeypatch.setattr(core, "heappush", counted_push)
    monkeypatch.setattr(Simulator, "_requeue", counted_requeue)
    events = raised = 0
    for seed in range(250):
        got, want = _play(Simulator(), seed), _play(KernelOracle(), seed)
        assert got == want, seed
        events += len(want[0])
        raised += sum(isinstance(c, str) for c in want[1])
    assert pushes[0] < events * 3 // 4
    assert raised > 250 and requeues[0] > 50


# -- no cyclic garbage inside a run ------------------------------------------

@pytest.fixture
def run_garbage(monkeypatch):
    """Wraps Simulator.run: each call starts after a full collection and
    ends with one under DEBUG_SAVEALL, so every object that a call's events
    left unreachable, and only the cyclic collector could free, is kept
    and its type recorded in `found`. The model stays alive in the caller
    meanwhile. `events` holds each call's event count."""
    found, events = [], []
    run = Simulator.run

    def checked(self, until):
        gc.collect()
        gc.garbage.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            n = run(self, until)
            gc.collect()
            found.extend(type(o).__name__ for o in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        events.append(n)
        return n

    monkeypatch.setattr(Simulator, "run", checked)
    return SimpleNamespace(found=found, events=events)


@pytest.mark.parametrize("policy,device,extra", [
    ("swap", "flash", {}),
    ("dmx", "flash", {}),
    ("swap", "disk", {}),
    ("dmx", "flash", {"dmx.dormant_threshold": "60"}),
], ids=["swap-flash", "dmx-flash", "swap-disk", "dmx-dormant"])
def test_a_point_leaves_no_cyclic_garbage(run_garbage, tmp_path, monkeypatch,
                                          policy, device, extra):
    """Faults, evictions and ticks at a 25-container point; with a high
    dormant threshold, dmx contexts also fall dormant and wake."""
    wakes = []
    wake = DmxPolicy._wake
    monkeypatch.setattr(DmxPolicy, "_wake", lambda self, rec, t: (
        wakes.append(t), wake(self, rec, t))[1])
    cfg = resolve(None, {"device": device, "policy": policy,
                         "duration_s": "6", "warmup_s": "1", **extra})
    events = tmp_path / "events.log"
    summary = run_point(cfg, policy, device, 25, str(events))
    kinds = {line.split("\t")[2] for line in events.read_text().splitlines()}
    assert {"io-done", "tick", "txn-done", "noise-wake"} <= kinds
    assert summary.demand_faults > 0 and summary.evictions > 0
    assert run_garbage.events[0] > 10_000
    assert bool(wakes) == bool(extra)
    assert run_garbage.found == []


def test_a_dmx_wake_and_its_prefetch_leave_no_cyclic_garbage(run_garbage):
    sim, m, dev = build(dram=2048, flash=16384)
    pol = DmxPolicy(m, dev)
    ctx = pol.register(m.new_context("sleeper"))
    m.create(ctx, 0, 64, tier=FLASH, dirty=False)
    rec = pol.contexts[ctx]
    rec.state = DORMANT
    rec.hot_set = [(0, 64)]
    rec.quota = 200
    ends = []
    sim.schedule(10, "wake", lambda t: walk_ranges(
        pol, ctx, [(0, 1), (1, 2)], t, False, False, ends.append))
    sim.run(10_000)
    assert pol.counters["prefetch_issued"] == 63
    assert pol.counters["prefetch_landed"] == 63 and len(ends) == 1
    assert run_garbage.found == []


def _write_trace(path, seed=7, records=3000):
    """Two contexts of 160 pages, skewed toward low pages, 40% writes, 1 to
    250 us apart: in 128 frames, walks often wait for a victim's write."""
    rnd = random.Random(seed)
    t, lines = 0, []
    for _ in range(records):
        page = min(int(rnd.expovariate(1 / 40)), 159)
        op = "w" if rnd.random() < 0.4 else "r"
        lines.append(f"{t} {rnd.choice('ab')} {page} {op}\n")
        t += rnd.choice((1, 3, 10, 60, 250))
    path.write_text("".join(lines))


@pytest.mark.parametrize("policy", ["swap", "dmx"])
def test_a_trace_replay_leaves_no_cyclic_garbage(run_garbage, tmp_path, policy):
    """Births, faults, evictions and walks that wait on a victim's write
    and resume, over every run call of the replay and its drain."""
    trace = tmp_path / "rw.trace"
    _write_trace(trace)
    cfg = resolve(None, {"policy": policy, "device": "flash",
                         "mem.dram_pages": "128"})
    _, driver = run_trace(cfg, str(trace), str(tmp_path / "out"))
    counters = driver.policy.counters
    assert driver.accesses == 3000 and len(run_garbage.events) > 1
    assert counters["demand_faults"] > 0 and counters["evictions"] > 0
    if policy == "dmx":
        assert counters["demand_evict_waits"] > 0
    assert run_garbage.found == []


def _cascade_log(seed):
    sim = Simulator()
    lines = []
    sim.event_log = lines.append
    rng = SplitMix64(seed)
    budget = [2_000]

    def fire(t):
        kids = 1 + rng.randrange(3)
        for _ in range(min(kids, budget[0])):
            budget[0] -= 1
            sim.schedule(t + 1 + rng.randrange(50), "hop", fire)

    sim.schedule(0, "hop", fire)
    sim.drain()
    return lines


def test_seeded_runs_produce_identical_event_logs():
    a = _cascade_log(42)
    b = _cascade_log(42)
    assert a == b
    assert all(line.endswith("\n") for line in a)
    t, seq, kind = a[0].rstrip("\n").split("\t")
    assert (int(t), kind) == (0, "hop")
    assert int(seq) == 0


def test_splitmix_reference_stream():
    # published reference vector for this generator, seed 0
    g = SplitMix64(0)
    assert g.next_u64() == 0xE220A8397B1DCDAF
    assert g.next_u64() == 0x6E789E6AA1B965F4
    assert g.next_u64() == 0x06C45D188009454F


def test_randrange_singleton_and_bounds():
    g = SplitMix64(7)
    assert all(g.randrange(1) == 0 for _ in range(100))
    assert all(0 <= g.randrange(13) < 13 for _ in range(10_000))
    with pytest.raises(ValueError):
        g.randrange(0)


def test_rejection_limit_takes_bounds_up_to_2_64():
    """Above 2**64 the limit would be 0, and a rejection loop never ends."""
    assert rejection_limit(1) == 1 << 64
    assert rejection_limit(1 << 64) == 1 << 64
    assert rejection_limit((1 << 63) + 1) == (1 << 63) + 1
    for n in ((1 << 64) + 1, 1 << 65, 3 << 64):
        with pytest.raises(ValueError, match="at most 2\\*\\*64"):
            rejection_limit(n)


def test_randrange_uniformity_over_a_million_draws():
    g = SplitMix64(1234)
    counts = [0] * 10
    for _ in range(1_000_000):
        counts[g.randrange(10)] += 1
    for c in counts:
        assert abs(c - 100_000) <= 1_000  # within 1%


def test_random_unit_interval():
    g = SplitMix64(3)
    vals = [g.random() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert 0.4 < sum(vals) / len(vals) < 0.6


def test_fork_depends_on_seed_not_consumption():
    a = SplitMix64(42)
    b = SplitMix64(42)
    for _ in range(17):
        b.next_u64()
    assert [a.fork(5).next_u64() for _ in range(4)] == \
           [b.fork(5).next_u64() for _ in range(4)]
    assert a.fork(5).next_u64() != a.fork(6).next_u64()


def test_mix_seed_is_order_sensitive():
    assert mix_seed(1, 2) != mix_seed(2, 1)
    assert mix_seed(1) != mix_seed(1, 0)
    assert mix_seed(9, 9) == mix_seed(9, 9)


SEEDS = [0, 1, 2 ** 64 - 1, -1] + [random.Random(2014 + i).getrandbits(64)
                                    for i in range(4)]
LENGTH = 3 * BLOCK + 7


@pytest.mark.parametrize("seed", SEEDS)
def test_block_stream_matches_the_scalar_reference(seed):
    g, ref = SplitMix64(seed), splitmix64_reference(seed)
    assert [g.next_u64() for _ in range(LENGTH)] == \
           [ref.next_u64() for _ in range(LENGTH)]


def test_block_takes_its_state_modulo_2_64():
    """The stream's block states count up without bound; a block depends
    on its state's low 64 bits alone."""
    ref = splitmix64_reference(12345)
    want = [ref.next_u64() for _ in range(BLOCK)]
    for high in (1 << 64, 1 << 200, -(1 << 64)):
        assert list(_block(12345 + high)) == want


@pytest.mark.parametrize("seed", SEEDS)
def test_mixed_readers_cross_block_boundaries(seed):
    """next_u64, random and randrange (some bounds reject almost half the
    outputs) in a seeded order read one stream, as they do from the
    reference, across several block boundaries."""
    g, ref = SplitMix64(seed), splitmix64_reference(seed)
    order = random.Random(seed)
    bounds = (1, 7, 1500, 2 ** 63 + 1, 2 ** 64 - 1)
    got, want = [], []
    for _ in range(2 * LENGTH):
        reader = order.choice(("next_u64", "random", "randrange"))
        args = (order.choice(bounds),) if reader == "randrange" else ()
        got.append(getattr(g, reader)(*args))
        want.append(getattr(ref, reader)(*args))
    assert got == want
    assert g.next_u64() == ref.next_u64()


def test_fork_and_mix_seed_match_the_reference():
    parts = [random.Random(7 + i).getrandbits(64) for i in range(6)]
    for seed in SEEDS:
        assert mix_seed(seed) == mix_seed_reference(seed)
        assert mix_seed(seed, *parts) == mix_seed_reference(seed, *parts)
        for salt in (1, 2, -1):
            g, ref = SplitMix64(seed).fork(salt), splitmix64_reference(seed).fork(salt)
            assert g.seed == ref.seed
            assert [g.next_u64() for _ in range(BLOCK + 1)] == \
                   [ref.next_u64() for _ in range(BLOCK + 1)]


def test_every_public_name_resolves():
    import tiersim
    assert all(hasattr(tiersim, name) for name in tiersim.__all__)
    assert {"TO_DRAM", "TO_FLASH"} <= set(tiersim.__all__)
    assert "INFLIGHT" not in tiersim.__all__ and not hasattr(tiersim, "INFLIGHT")

import random

import pytest

from oracles import mix_seed_reference, splitmix64_reference
from tiersim.core import (BLOCK, Simulator, SplitMix64, SimulationError, _block,
                          mix_seed)


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


def _cascade_log(path, seed):
    sim = Simulator()
    sim.enable_event_log()
    rng = SplitMix64(seed)
    budget = [2_000]

    def fire(t):
        kids = 1 + rng.randrange(3)
        for _ in range(min(kids, budget[0])):
            budget[0] -= 1
            sim.schedule(t + 1 + rng.randrange(50), "hop", fire)

    sim.schedule(0, "hop", fire)
    sim.drain()
    sim.dump_events(str(path))
    return path.read_bytes()


def test_seeded_runs_produce_identical_event_logs(tmp_path):
    a = _cascade_log(tmp_path / "a.log", 42)
    b = _cascade_log(tmp_path / "b.log", 42)
    assert a == b
    first = a.splitlines()[0].decode()
    t, seq, kind = first.split("\t")
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

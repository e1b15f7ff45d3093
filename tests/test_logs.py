"""The event and access logs are written as the run makes them.

A log is a sink (Simulator.event_log, Policy.access_log): run_point and
run_trace hand it an open file's `write`, so no run keeps its log in
memory, an aborted run keeps every line up to the event that raised, and
a sweep's logs do not depend on how many processes ran its points.
"""

import tracemalloc

import pytest

from tiersim.config import resolve
from tiersim.core import SimulationError, Simulator, SplitMix64
from tiersim.dmx import DmxPolicy
from tiersim.experiment import run_point, run_sweep, run_trace


@pytest.mark.parametrize("k", [1, 4])
def test_an_aborted_run_logs_up_to_the_event_that_raised(tmp_path, k):
    path = tmp_path / "events.log"
    sim = Simulator()
    fired = []

    def fire(t):
        fired.append(t)
        if len(fired) == k:
            raise SimulationError("abort")

    for i in range(8):
        sim.schedule(10 * i, f"e{i}", fire)
    with open(path, "w") as fh:
        sim.event_log = fh.write
        with pytest.raises(SimulationError):
            sim.run(1_000)
    lines = path.read_text().splitlines()
    assert len(lines) == k
    assert lines[-1] == f"{10 * (k - 1)}\t{k - 1}\te{k - 1}"


def test_an_aborted_point_keeps_its_logs_up_to_the_raising_event(
        tmp_path, monkeypatch):
    """The third dmx tick raises: each log is a prefix of the whole run's,
    and the event log ends with that tick."""
    cfg = resolve(None, {"duration_s": "1", "warmup_s": "0.5"})
    whole = [tmp_path / "events.log", tmp_path / "accesses.trace"]
    run_point(cfg, "dmx", "flash", 1, *map(str, whole))
    ticks = []
    tick = DmxPolicy.tick

    def failing_tick(self, t):
        ticks.append(t)
        if len(ticks) == 3:
            raise SimulationError("abort")
        tick(self, t)

    monkeypatch.setattr(DmxPolicy, "tick", failing_tick)
    cut = [tmp_path / "cut-events.log", tmp_path / "cut-accesses.trace"]
    with pytest.raises(SimulationError):
        run_point(cfg, "dmx", "flash", 1, *map(str, cut))
    for w, c in zip(whole, cut):
        assert 0 < len(c.read_bytes()) < len(w.read_bytes())
        assert w.read_bytes().startswith(c.read_bytes()), c.name
    lines = cut[0].read_text().splitlines()
    assert [ln.split("\t")[2] for ln in lines].count("tick") == 3
    assert lines[-1].startswith(f"{ticks[-1]}\t") and lines[-1].endswith("\ttick")


def test_a_sweep_logs_the_same_bytes_on_one_or_two_jobs(tmp_path):
    cfg = resolve(None, {"policy": "swap", "device": "flash",
                         "containers": "1,3", "duration_s": "1",
                         "warmup_s": "0.5"})
    logs = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}"
        run_sweep(cfg, str(out), jobs, dump_events=True, dump_accesses=True)
        logs.append({p.name: p.read_bytes() for p in out.iterdir()
                     if p.suffix in (".log", ".trace")})
    assert sorted(logs[0]) == ["accesses-swap-flash-1.trace",
                               "accesses-swap-flash-3.trace",
                               "events-swap-flash-1.log",
                               "events-swap-flash-3.log"]
    assert all(logs[0].values())
    assert logs[0] == logs[1]


def test_a_logged_point_keeps_no_log_in_memory(tmp_path):
    """A 1.5 s dmx/flash/25 point with both logs writes about 7 MiB of
    access log; its traced Python allocations peak near 2 MiB. Kept as
    lists, the logs peaked near 34 MiB."""
    cfg = resolve(None, {"duration_s": "1.5", "warmup_s": "0.5"})
    accesses = tmp_path / "accesses.trace"
    tracemalloc.start()
    try:
        run_point(cfg, "dmx", "flash", 25, str(tmp_path / "events.log"),
                  str(accesses))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert accesses.stat().st_size > 4 * 2**20
    assert peak < 8 * 2**20


def test_a_logged_replay_keeps_no_log_in_memory(tmp_path):
    """A 20,000-record replay with --dump-events writes about 37,000 event
    lines; its traced Python allocations peak near 0.7 MiB. Kept as a
    list, the event log peaked near 5.5 MiB."""
    rng = SplitMix64(5)
    t, lines = 0, []
    for _ in range(20_000):
        t += 1 + rng.randrange(100)
        lines.append(f"{t} {'ab'[rng.randrange(2)]} {rng.randrange(160)} "
                     f"{'rw'[rng.randrange(2)]}\n")
    trace, events = tmp_path / "in.trace", tmp_path / "out" / "events-trace.log"
    trace.write_text("".join(lines))
    cfg = resolve(None, {"policy": "swap", "device": "flash",
                         "mem.dram_pages": "128"})
    tracemalloc.start()
    try:
        run_trace(cfg, str(trace), str(tmp_path / "out"), dump_events=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(events.read_text().splitlines()) > 35_000
    assert peak < 3 * 2**20, peak

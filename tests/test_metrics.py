import math

import pytest

from oracles import percentile_oracle
from tiersim.core import SimulationError, SplitMix64
from tiersim.metrics import percentile, Collector, RunSummary
from tiersim.report import (
    write_sweep_csv, read_sweep_csv, write_charts, line_chart,
)


def make_summary(containers=1, policy="swap", device="flash", tps=100.0,
                 lat=5000, counters=None, seed=7):
    c = Collector(0, 1_000_000)
    if lat is not None:
        c.record(lat, 10)
    return c.summarize(containers, policy, device, counters or {}, seed)


# -- percentile ------------------------------------------------------------

def test_percentile_is_nearest_rank():
    assert percentile(list(range(1, 101)), 99) == 99
    assert percentile([1, 2, 3, 4], 50) == 2
    assert percentile([1, 2, 3, 4], 100) == 4
    assert percentile([7], 99) == 7


def test_percentile_rejects_bad_input():
    with pytest.raises(SimulationError):
        percentile([], 50)
    for p in (0, -1, 101):
        with pytest.raises(SimulationError):
            percentile([1, 2], p)


def test_percentile_matches_scan_oracle():
    rng = SplitMix64(8)
    for trial in range(30):
        n = 1 + rng.randrange(500)
        samples = [rng.randrange(10_000) for _ in range(n)]
        for p in (50, 90, 95, 99, 100):
            assert percentile(samples, p) == percentile_oracle(samples, p)


# -- collector -------------------------------------------------------------

def test_warmup_samples_are_dropped():
    c = Collector(5_000_000, 60_000_000)
    c.record(111, 4_999_999)
    c.record(222, 5_000_000)
    c.record(333, 6_000_000)
    assert c.counts == {222: 1, 333: 1}


def summary_reference(samples):
    """min, avg, max and p90/p95/p99 from a plain sorted list."""
    ordered = sorted(samples)
    return dict(min_us=ordered[0], avg_us=sum(ordered) / len(ordered),
                max_us=ordered[-1],
                **{f"p{p}_us": percentile_oracle(ordered, p)
                   for p in (90, 95, 99)})


def sample_sets():
    rng = SplitMix64(1717)
    yield [4321]
    for n in range(1, 501):
        yield [rng.randrange(1_000_000) for _ in range(n)]
        # the dmx shape: all at the 5000us base service, a sparse tail
        yield [5000 + (rng.randrange(9000) if rng.randrange(40) == 0 else 0)
               for _ in range(n)]
    # each rank ceil(p * n / 100) lands exactly on the last copy of a value
    for n in (20, 100, 200, 300, 1000, 1001):
        for p in (90, 95, 99):
            rank = math.ceil(p * n / 100)
            yield [1000] * rank + [2000] * (n - rank)
        r90, r95, r99 = (math.ceil(p * n / 100) for p in (90, 95, 99))
        yield ([10] * r90 + [20] * (r95 - r90) + [30] * (r99 - r95)
               + [40] * (n - r99))


def test_summarize_matches_a_sorted_list_reference():
    keys = ("min_us", "avg_us", "max_us", "p90_us", "p95_us", "p99_us")
    for samples in sample_sets():
        c = Collector(0, 1_000_000)
        for v in reversed(samples):
            c.record(v, 0)
        s = c.summarize(1, "swap", "flash", {}, 1)
        got = {k: getattr(s, k) for k in keys}
        assert got == summary_reference(samples), len(samples)
        assert s.tps == len(samples)


def test_tps_is_completions_over_measured_window():
    c = Collector(0, 10_000_000)
    for i in range(1000):
        c.record(5000, 10 * i)
    s = c.summarize(4, "swap", "flash", {}, 1)
    assert s.tps == 100.0
    assert s.min_us == s.max_us == s.p99_us == 5000


def test_single_sample_collapses_the_stats():
    s = make_summary(lat=777)
    assert s.min_us == s.avg_us == s.max_us == 777
    assert s.p90_us == s.p95_us == s.p99_us == 777


def test_empty_run_reports_no_latencies():
    s = make_summary(lat=None)
    assert s.tps == 0.0
    assert s.min_us is None and s.p99_us is None and s.avg_us is None


def test_duration_must_exceed_warmup():
    with pytest.raises(SimulationError):
        Collector(5_000_000, 5_000_000)


def test_counters_flow_into_the_summary():
    s = make_summary(counters={"demand_faults": 3, "prefetch_hits": 2,
                               "prefetch_issued": 9})
    assert s.demand_faults == 3 and s.prefetch_hits == 2
    assert s.prefetch_issued == 9 and s.mispredictions == 0


# -- csv -------------------------------------------------------------------

def test_csv_round_trips_exactly(tmp_path):
    rows = [
        make_summary(containers=1, tps=123.456),
        make_summary(containers=9, policy="dmx", lat=None, seed=12),
    ]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(str(path), rows)
    text = path.read_text().splitlines()
    assert text[0] == "# schema=1"
    assert text[1].split(",")[:4] == ["containers", "policy", "device", "tps"]
    assert len(text) == 4
    back = read_sweep_csv(str(path))
    assert back == rows
    assert back[1].min_us is None           # empty cell, not zero


def test_csv_rejects_foreign_files(tmp_path):
    bad = tmp_path / "x.csv"
    bad.write_text("who,knows\n1,2\n")
    with pytest.raises(SimulationError):
        read_sweep_csv(str(bad))
    short = tmp_path / "y.csv"
    write_sweep_csv(str(short), [make_summary()])
    lines = short.read_text().splitlines()
    lines[-1] = lines[-1] + ",9,9"
    short.write_text("\n".join(lines) + "\n")
    with pytest.raises(SimulationError):
        read_sweep_csv(str(short))


# -- charts ----------------------------------------------------------------

def sweep_rows():
    rows = []
    for policy in ("swap", "dmx"):
        for n in (1, 5, 9):
            rows.append(make_summary(containers=n, policy=policy,
                                     tps=1000.0 / n, lat=5000 * n))
    return rows


def test_charts_are_written_and_deterministic(tmp_path):
    names = write_charts(str(tmp_path), sweep_rows())
    assert names == ["tps.svg", "latency.svg", "latency_log.svg",
                     "percentiles.svg"]
    first = {n: (tmp_path / n).read_bytes() for n in names}
    assert all(body.startswith(b"<svg") for body in first.values())
    write_charts(str(tmp_path), sweep_rows())
    assert {n: (tmp_path / n).read_bytes() for n in names} == first


def test_chart_with_no_data_is_an_error(tmp_path):
    with pytest.raises(SimulationError):
        line_chart(str(tmp_path / "empty.svg"), "t", "x", "y",
                   [("s", [(1, None)])])

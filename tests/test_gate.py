"""Negative controls for the acceptance gate: hand-built sweep rows just
inside each bound of each check must PASS, rows just past it must FAIL, and
the detail line names the value either way. No simulation runs here."""

import pytest

from tiersim.acceptance import (check_cliff, check_crossover, check_dmx_stability,
                                check_media, check_overhead, check_tails)
from tiersim.metrics import RunSummary
from tiersim.workload import NoiseCatalog

SCALE = 1024
PER = NoiseCatalog(SCALE).total_pages     # one container's noise footprint
DRAM = 5 * PER                            # the footprint crosses DRAM at 6


def row(containers, tps, lat=1000, policy="swap", device="flash", **lats):
    """A sweep row whose latencies are all `lat` unless named in `lats`."""
    fields = dict(min_us=lat, avg_us=lat, max_us=lat, p90_us=lat,
                  p95_us=lat, p99_us=lat)
    fields.update(lats)
    return RunSummary(containers=containers, policy=policy, device=device,
                      tps=tps, demand_faults=0, prefetch_issued=0,
                      prefetch_hits=0, mispredictions=0, evictions=0, seed=1,
                      **fields)


def curve(tps):
    """Swap rows at 1..len(tps) containers with the given throughputs."""
    return [row(n, t) for n, t in enumerate(tps, start=1)]


def assert_verdict(res, ok, text):
    assert res.ok is ok, res.detail
    assert text in res.detail, res.detail


# -- baseline-cliff: last/first tps <= 0.6, onset within 2 of the crossing --

# the onset (first tps under 0.9x the first) is the 6th point, the crossing
CLIFF = [1000, 1000, 1000, 1000, 1000, 800, 600]


@pytest.mark.parametrize("last, ok, text", [
    (600, True, "tps_ratio=0.600"),
    (601, False, "tps_ratio=0.601"),
])
def test_cliff_ratio_bound(last, ok, text):
    res = check_cliff(curve(CLIFF[:-1] + [last]), DRAM, SCALE)
    assert_verdict(res, ok, text)
    assert "onset at 6 vs footprint crossing at 6" in res.detail


@pytest.mark.parametrize("onset, ok, text", [
    (4, True, "onset at 4 vs footprint crossing at 6 containers "
              "(2 sweep points apart"),
    (3, False, "onset at 3 vs footprint crossing at 6 containers "
               "(3 sweep points apart"),
])
def test_cliff_onset_distance_bound(onset, ok, text):
    tps = [1000 if n < onset else 800 for n in range(1, 8)]
    tps[-1] = 500
    assert_verdict(check_cliff(curve(tps), DRAM, SCALE), ok, text)


@pytest.mark.parametrize("dip, ok, text", [
    (900, True, "onset at 6"),      # exactly 0.9x the first is no onset
    (899, False, "onset at 3"),
])
def test_cliff_onset_threshold(dip, ok, text):
    tps = list(CLIFF)
    tps[2] = dip
    assert_verdict(check_cliff(curve(tps), DRAM, SCALE), ok, text)


def test_cliff_that_never_crosses_dram_fails():
    res = check_cliff(curve(CLIFF), 7 * PER, SCALE)
    assert_verdict(res, False, "crossing_idx=None onset_idx=5")


# -- tail-structure: p99 x>=10, max x>=50, p95 x<=3, min x<=1.5 -------------

TAIL_EDGE = dict(p99_us=10_000, max_us=50_000, p95_us=3_000, min_us=1_500)


@pytest.mark.parametrize("field, value, ok, text", [
    ("p99_us", 10_000, True, "p99x10.0 (>=10)"),
    ("p99_us", 9_900, False, "p99x9.9 (>=10)"),
    ("max_us", 50_000, True, "maxx50.0 (>=50)"),
    ("max_us", 49_900, False, "maxx49.9 (>=50)"),
    ("p95_us", 3_000, True, "p95x3.00 (<=3)"),
    ("p95_us", 3_010, False, "p95x3.01 (<=3)"),
    ("min_us", 1_500, True, "minx1.50 (<=1.5)"),
    ("min_us", 1_510, False, "minx1.51 (<=1.5)"),
])
def test_tail_bounds(field, value, ok, text):
    loaded = row(3, 100, **dict(TAIL_EDGE, **{field: value}))
    rows = [row(1, 1000), row(2, 900), loaded]
    assert_verdict(check_tails(rows), ok, text)


# -- media-independence: last/first tps <= 0.75, p99 x>=5 ------------------

@pytest.mark.parametrize("last_tps, p99, ok, text", [
    (750, 5_000, True, "tps_ratio=0.750 (<=0.75) p99x5.0"),
    (751, 5_000, False, "tps_ratio=0.751"),
    (750, 4_900, False, "p99x4.9 (>=5)"),
])
def test_media_bounds(last_tps, p99, ok, text):
    rows = [row(1, 1000), row(2, last_tps, p99_us=p99)]
    assert_verdict(check_media(rows), ok, text)


# -- dmx-stability: last/first tps >= 0.85, worst p99 x<=3 ------------------

@pytest.mark.parametrize("last_tps, p99, ok, text", [
    (850, 3_000, True, "tps_ratio=0.850 (>=0.85) worst p99x3.00"),
    (849, 3_000, False, "tps_ratio=0.849"),
    (850, 3_010, False, "worst p99x3.01 (<=3)"),
])
def test_dmx_stability_bounds(last_tps, p99, ok, text):
    rows = [row(1, 1000, policy="dmx"), row(2, 1000, p99_us=p99, policy="dmx"),
            row(3, last_tps, policy="dmx")]
    assert_verdict(check_dmx_stability(rows), ok, text)


# -- dmx-overhead: dmx/swap tps at the first point within [0.80, 1.00] -----

@pytest.mark.parametrize("dmx_tps, ok, text", [
    (800, True, "= 0.800"),
    (799, False, "= 0.799"),
    (1000, True, "= 1.000"),
    (1001, False, "= 1.001"),
])
def test_overhead_bounds(dmx_tps, ok, text):
    res = check_overhead([row(1, dmx_tps, policy="dmx")], [row(1, 1000)])
    assert_verdict(res, ok, text)


def test_overhead_needs_the_same_first_point():
    res = check_overhead([row(2, 1000, policy="dmx")], [row(1, 1000)])
    assert_verdict(res, False, "first sweep points differ")


# -- crossover: dmx strictly beats swap on tps and p99 to the last point ---

SWAP = [row(n, 1000, lat=2000) for n in (1, 2, 3, 4)]


def dmx(*points):
    return [row(n, tps, lat=p99, policy="dmx")
            for n, (tps, p99) in enumerate(points, start=1)]


@pytest.mark.parametrize("points, ok, text", [
    # wins from the 3rd point on; the win at the 1st is not the crossover
    ([(1001, 1999), (1000, 2000), (1001, 1999), (1001, 1999)], True,
     "from 3 containers onward"),
    ([(999, 2001), (999, 2001), (999, 2001), (1001, 1999)], True,
     "from 4 containers onward"),
    # wins from the 2nd point, then reverts at the last
    ([(999, 2001), (1001, 1999), (1001, 1999), (999, 1999)], False,
     "never strictly beats swap through the last point"),
    # equal tps or equal p99 at the last point is no win
    ([(1001, 1999), (1001, 1999), (1001, 1999), (1000, 1999)], False,
     "never strictly beats"),
    ([(1001, 1999), (1001, 1999), (1001, 1999), (1001, 2000)], False,
     "never strictly beats"),
])
def test_crossover_walks_back_from_the_last_point(points, ok, text):
    assert_verdict(check_crossover(dmx(*points), SWAP), ok, text)


def test_crossover_needs_matching_points():
    res = check_crossover(dmx((1001, 1999)), SWAP)
    assert_verdict(res, False, "no matching sweep points")

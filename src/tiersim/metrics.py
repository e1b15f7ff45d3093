"""Per-run latency collection and summary statistics.

A run's samples are counted as they arrive (latency -> occurrences), not
kept one by one, so they take one entry per distinct latency; where every
transaction takes the 5000 us base service, that is one entry in all.
Percentiles are nearest-rank (value at rank ceil(p/100 * n), 1-based, of
the sorted samples), no interpolation; they are read off the counts,
walked in value order. Samples recorded during warm-up are dropped; TPS
is completions over the measured window.
"""

import math
from collections import Counter
from dataclasses import dataclass, fields

from .core import SimulationError, US_PER_S


def _nearest_ranks(values, counts, n, ps):
    """The nearest-rank percentiles ps (ascending) of n samples, given
    their distinct values in ascending order and counts[v], the number of
    samples equal to v: for each p, the least value whose cumulative
    count reaches rank ceil(p * n / 100)."""
    ranks = [math.ceil(p * n / 100) for p in ps]
    out = []
    seen = 0
    for v in values:
        seen += counts[v]
        while len(out) < len(ranks) and seen >= ranks[len(out)]:
            out.append(v)
    return out


def percentile(samples, p):
    if not samples:
        raise SimulationError("percentile of an empty sample set")
    if not (0 < p <= 100):
        raise SimulationError(f"percentile {p} outside (0, 100]")
    counts = Counter(samples)
    return _nearest_ranks(sorted(counts), counts, len(samples), (p,))[0]


@dataclass
class RunSummary:
    containers: int
    policy: str
    device: str
    tps: float
    min_us: object        # int, or None when the run had no completions
    avg_us: object
    max_us: object
    p90_us: object
    p95_us: object
    p99_us: object
    demand_faults: int
    prefetch_issued: int
    prefetch_hits: int
    mispredictions: int
    evictions: int
    seed: int

    @staticmethod
    def field_names():
        return [f.name for f in fields(RunSummary)]


class Collector:
    def __init__(self, warmup_us, duration_us):
        if duration_us <= warmup_us:
            raise SimulationError(
                f"duration {duration_us}us must exceed warmup {warmup_us}us")
        self.warmup_us = warmup_us
        self.duration_us = duration_us
        self.counts = {}            # latency_us -> samples equal to it

    def record(self, latency_us, t):
        if t >= self.warmup_us:
            counts = self.counts
            counts[latency_us] = counts.get(latency_us, 0) + 1

    def summarize(self, containers, policy, device, counters, seed) -> RunSummary:
        """The run's summary row, read off the counts: min and max are the
        least and greatest distinct values, and avg is the exact integer
        sum of the samples over n."""
        window_s = (self.duration_us - self.warmup_us) / US_PER_S
        counts = self.counts
        n = sum(counts.values())
        if n:
            values = sorted(counts)
            p90, p95, p99 = _nearest_ranks(values, counts, n, (90, 95, 99))
            lat = dict(
                min_us=values[0],
                avg_us=sum(v * k for v, k in counts.items()) / n,
                max_us=values[-1], p90_us=p90, p95_us=p95, p99_us=p99,
            )
        else:
            lat = dict(min_us=None, avg_us=None, max_us=None,
                       p90_us=None, p95_us=None, p99_us=None)
        return RunSummary(
            containers=containers, policy=policy, device=device,
            tps=n / window_s,
            demand_faults=counters.get("demand_faults", 0),
            prefetch_issued=counters.get("prefetch_issued", 0),
            prefetch_hits=counters.get("prefetch_hits", 0),
            mispredictions=counters.get("mispredictions", 0),
            evictions=counters.get("evictions", 0),
            seed=seed, **lat,
        )

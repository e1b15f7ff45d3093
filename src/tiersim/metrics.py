"""Per-run latency collection and summary statistics.

Percentiles are nearest-rank (value at index ceil(p/100 * n), 1-based, of
the sorted samples), no interpolation. Samples recorded during warm-up are
dropped; TPS is completions over the measured window.
"""

import math
from dataclasses import dataclass, fields

from .core import SimulationError, US_PER_S


def percentile(samples, p):
    if not samples:
        raise SimulationError("percentile of an empty sample set")
    if not (0 < p <= 100):
        raise SimulationError(f"percentile {p} outside (0, 100]")
    rank = math.ceil(p * len(samples) / 100)
    return sorted(samples)[rank - 1]


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
        self.samples = []

    def record(self, latency_us, t):
        if t >= self.warmup_us:
            self.samples.append(latency_us)

    def summarize(self, containers, policy, device, counters, seed) -> RunSummary:
        """The run's summary row; leaves the samples sorted."""
        window_s = (self.duration_us - self.warmup_us) / US_PER_S
        s = self.samples
        if s:
            # sorted once, in place so that no second copy is alive beside
            # the one percentile makes; its sort of sorted input is linear
            s.sort()
            lat = dict(
                min_us=s[0], avg_us=sum(s) / len(s), max_us=s[-1],
                p90_us=percentile(s, 90), p95_us=percentile(s, 95),
                p99_us=percentile(s, 99),
            )
        else:
            lat = dict(min_us=None, avg_us=None, max_us=None,
                       p90_us=None, p95_us=None, p99_us=None)
        return RunSummary(
            containers=containers, policy=policy, device=device,
            tps=len(s) / window_s,
            demand_faults=counters.get("demand_faults", 0),
            prefetch_issued=counters.get("prefetch_issued", 0),
            prefetch_hits=counters.get("prefetch_hits", 0),
            mispredictions=counters.get("mispredictions", 0),
            evictions=counters.get("evictions", 0),
            seed=seed, **lat,
        )

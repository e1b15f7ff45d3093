"""tiersim: a deterministic simulator for two-tier DRAM/flash memory
management under container colocation.

A discrete-event kernel drives a page-granular memory model, a queueing
model of the paging media, and two management policies: reactive LRU swap
and predictive per-context tiering. The CLI sweeps container density and
reports critical-service throughput and latency percentiles.
"""

from .core import Simulator, SplitMix64, SimulationError, mix_seed, US_PER_S
from .memory import MemoryModel, DRAM, FLASH, TO_DRAM, TO_FLASH, PAGE_BYTES
from .media import Device, DeviceProfile, PROFILES
from .swap import SwapPolicy
from .dmx import DmxPolicy
from .metrics import Collector, RunSummary, percentile

__version__ = "0.1.0"

__all__ = [
    "Simulator", "SplitMix64", "SimulationError", "mix_seed", "US_PER_S",
    "MemoryModel", "DRAM", "FLASH", "TO_DRAM", "TO_FLASH", "PAGE_BYTES",
    "Device", "DeviceProfile", "PROFILES",
    "SwapPolicy", "DmxPolicy",
    "Collector", "RunSummary", "percentile",
    "__version__",
]

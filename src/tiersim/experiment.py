"""Run assembly: wire the kernel, memory model, device, policy and
workloads for one sweep point; execute point lists serially or across
worker processes; write the merged CSV, charts, and a resolved-config echo
that reproduces the run.

Each point's RNG seed mixes the global seed with the container count, and
container identities are constructed in a fixed order, so growing the sweep
adds containers without disturbing the catalog layout of existing ones.
The policy never enters the seed: swap and dmx points at equal density see
identical workload draws.
"""

import gc
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

from .core import Simulator, SplitMix64, mix_seed, SimulationError
from .memory import MemoryModel
from .media import Device, PROFILES
from .swap import SwapPolicy
from .dmx import DmxPolicy
from .metrics import Collector
from .workload import NoiseSystem, CriticalService, TraceDriver, load_trace
from .report import write_sweep_csv, write_charts
from . import config as configmod

_PROFILE_KEYS = ("read_lat_us", "write_lat_us", "bandwidth_bps",
                 "batch_pages", "max_inflight")


def build_profile(cfg, device_name):
    overrides = {k: cfg[f"device.{k}"] for k in _PROFILE_KEYS
                 if cfg.get(f"device.{k}") is not None}
    return replace(PROFILES[device_name], **overrides)


def make_policy(name, cfg, sim, model, device):
    if name == "swap":
        return SwapPolicy(
            sim, model, device,
            fault_overhead_us=cfg["swap.fault_overhead_us"],
            reclaim_batch=cfg["swap.reclaim_batch"])
    if name == "dmx":
        return DmxPolicy(
            sim, model, device,
            levels=cfg["dmx.levels"],
            lifetime_us=cfg["dmx.lifetime_us"],
            window_us=cfg["dmx.window_us"],
            alpha=cfg["dmx.alpha"],
            dormant_threshold=cfg["dmx.dormant_threshold"],
            dormant_windows=cfg["dmx.dormant_windows"],
            floor_pages=cfg["dmx.floor_pages"],
            reserve_frac=cfg["dmx.reserve_frac"],
            fault_overhead_us=cfg["dmx.fault_overhead_us"])
    raise SimulationError(f"unknown policy {name!r}")


def run_point(cfg, policy_name, device_name, containers,
              events_path=None, accesses_path=None):
    run_seed = mix_seed(cfg["seed"], containers)
    duration_us = round(cfg["duration_s"] * 1_000_000)
    warmup_us = round(cfg["warmup_s"] * 1_000_000)
    sim = Simulator()
    if events_path is not None:
        sim.enable_event_log()
    model = MemoryModel(cfg["mem.dram_pages"], cfg["mem.flash_pages"])
    device = Device(sim, model, build_profile(cfg, device_name))
    policy = make_policy(policy_name, cfg, sim, model, device)
    if accesses_path is not None:
        policy.access_log = []
    collector = Collector(warmup_us, duration_us)
    rng = SplitMix64(run_seed)
    critical = CriticalService(
        sim, model, policy, collector, rng.fork(1),
        threads=cfg["critical.threads"],
        base_service_us=cfg["critical.base_service_us"],
        hot_records=cfg["critical.hot_records"],
        hot_record_pages=cfg["critical.hot_record_pages"],
        cold_records=cfg["critical.cold_records"],
        cold_record_pages=cfg["critical.cold_record_pages"],
        cold_frac=cfg["critical.cold_frac"],
        skew=cfg["critical.skew"],
        draws_per_txn=cfg["critical.draws_per_txn"])
    noise = NoiseSystem(
        sim, model, policy, rng.fork(2), containers,
        clients=cfg["noise.clients"],
        think_us=cfg["noise.think_us"],
        scale=cfg["scale"])
    critical.start()
    noise.start()
    window = cfg["dmx.window_us"]

    def tick(t):
        policy.tick(t)
        if t + window <= duration_us:
            sim.schedule(t + window, "tick", tick)

    if window <= duration_us:
        sim.schedule(window, "tick", tick)
    sim.run(duration_us)
    if events_path is not None:
        sim.dump_events(events_path)
    if accesses_path is not None:
        with open(accesses_path, "w") as fh:
            for t, cid, idx, op in policy.access_log:
                fh.write(f"{t} {cid} {idx} {op}\n")
    return collector.summarize(containers, policy_name, device_name,
                               policy.snapshot_counters(), run_seed)


def _collected_point(args):
    """run_point, then a full collection outside its timing. A point's
    model is cyclic (context, cohorts and page lists refer to each other),
    and Simulator.run pauses the cyclic collector, so this collection is
    the one that frees it; without it one point's whole graph would live
    on into the next."""
    summary = run_point(*args)
    gc.collect()
    return summary


def sweep_plan(cfg):
    policies = ["swap", "dmx"] if cfg["policy"] == "both" else [cfg["policy"]]
    return [(p, cfg["device"], n) for p in policies for n in cfg["containers"]]


def run_sweep(cfg, out_dir, jobs=1, dump_events=False, dump_accesses=False):
    os.makedirs(out_dir, exist_ok=True)
    plan = sweep_plan(cfg)
    args = []
    for policy_name, device_name, n in plan:
        tag = f"{policy_name}-{device_name}-{n}"
        args.append((
            cfg, policy_name, device_name, n,
            os.path.join(out_dir, f"events-{tag}.log") if dump_events else None,
            os.path.join(out_dir, f"accesses-{tag}.trace") if dump_accesses else None,
        ))
    if jobs > 1 and len(args) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            summaries = list(pool.map(_collected_point, args))
    else:
        summaries = [_collected_point(a) for a in args]
    write_sweep_csv(os.path.join(out_dir, "sweep.csv"), summaries)
    write_charts(out_dir, summaries)
    with open(os.path.join(out_dir, "config.txt"), "w") as fh:
        fh.write(configmod.render(cfg))
    return summaries


def run_trace(cfg, trace_path, out_dir, events_path=None):
    records = load_trace(trace_path)
    sim = Simulator()
    if events_path is not None:
        sim.enable_event_log()
    model = MemoryModel(cfg["mem.dram_pages"], cfg["mem.flash_pages"])
    device = Device(sim, model, build_profile(cfg, cfg["device"]))
    policy = make_policy(cfg["policy"], cfg, sim, model, device)
    driver = TraceDriver(sim, model, policy, records)
    driver.start()
    last_t = records[-1][0] if records else 0
    sim.run(last_t)
    sim.drain()
    if events_path is not None:
        sim.dump_events(events_path)
    collector = Collector(0, max(last_t, 1))
    summary = collector.summarize(0, cfg["policy"], cfg["device"],
                                  policy.snapshot_counters(), cfg["seed"])
    os.makedirs(out_dir, exist_ok=True)
    write_sweep_csv(os.path.join(out_dir, "sweep.csv"), [summary])
    with open(os.path.join(out_dir, "config.txt"), "w") as fh:
        fh.write(configmod.render(cfg))
    return summary, driver

"""Run assembly: build the kernel, memory model, device, policy and
workloads for one sweep point; execute point lists serially or across
worker processes; write the merged CSV, charts, and a resolved-config echo
that reproduces the run.

Each part is built from its config section: a key `section.param` sets the
constructor parameter `param` of the part that section configures (`mem`
the memory model, `device` the device profile, `swap` and `dmx` the
policies, `critical` and `noise` the workloads). A new parameter needs its
DEFAULTS row in config.py and its constructor parameter, nothing here.

A log is a sink fed each line as the run makes it: run_point and run_trace
open the log files first and close them in one `with`.

Each point's RNG seed mixes the global seed with the container count, and
container identities are constructed in a fixed order, so growing the sweep
adds containers without disturbing the catalog layout of existing ones.
The policy never enters the seed: swap and dmx points at equal density see
identical workload draws.
"""

import gc
import os
from contextlib import ExitStack
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

POLICIES = {"swap": SwapPolicy, "dmx": DmxPolicy}


def _section(cfg, name):
    """The set (non-None) values of the keys `name.<param>`, by param."""
    prefix = name + "."
    return {key[len(prefix):]: val for key, val in cfg.items()
            if key.startswith(prefix) and val is not None}


def make_policy(name, cfg, model, device):
    if name not in POLICIES:
        raise SimulationError(f"unknown policy {name!r}")
    return POLICIES[name](model, device, **_section(cfg, name))


def _stack(cfg, policy_name, device_name):
    """Build the simulator, memory model, device and policy of one run;
    returns (sim, model, policy), and the device is policy.device."""
    sim = Simulator()
    model = MemoryModel(**_section(cfg, "mem"))
    profile = replace(PROFILES[device_name], **_section(cfg, "device"))
    device = Device(sim, model, profile)
    return sim, model, make_policy(policy_name, cfg, model, device)


def _sink(files, path):
    return None if path is None else files.enter_context(open(path, "w")).write


def run_point(cfg, policy_name, device_name, containers,
              events_path=None, accesses_path=None):
    run_seed = mix_seed(cfg["seed"], containers)
    duration_us = configmod.micros(cfg["duration_s"])
    warmup_us = configmod.micros(cfg["warmup_s"])
    sim, model, policy = _stack(cfg, policy_name, device_name)
    collector = Collector(warmup_us, duration_us)
    rng = SplitMix64(run_seed)
    with ExitStack() as files:
        sim.event_log = _sink(files, events_path)
        policy.access_log = _sink(files, accesses_path)
        critical = CriticalService(sim, model, policy, collector, rng.fork(1),
                                   **_section(cfg, "critical"))
        noise = NoiseSystem(sim, model, policy, rng.fork(2), containers,
                            scale=cfg["scale"], **_section(cfg, "noise"))
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
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(args))) as pool:
            summaries = list(pool.map(_collected_point, args))
    else:
        summaries = [_collected_point(a) for a in args]
    write_sweep_csv(os.path.join(out_dir, "sweep.csv"), summaries)
    write_charts(out_dir, summaries)
    with open(os.path.join(out_dir, "config.txt"), "w") as fh:
        fh.write(configmod.render(cfg))
    return summaries


def run_trace(cfg, trace_path, out_dir, dump_events=False):
    # the twin of _collected_point's collection: an earlier replay's model
    # in this process is cyclic garbage that the paused collector has not
    # freed, and this frees it before the trace is parsed
    gc.collect()
    trace = load_trace(trace_path)
    sim, model, policy = _stack(cfg, cfg["policy"], cfg["device"])
    last_t = trace.times[-1] if trace else 0
    os.makedirs(out_dir, exist_ok=True)
    with ExitStack() as files:
        sim.event_log = _sink(files, os.path.join(out_dir, "events-trace.log")
                              if dump_events else None)
        driver = TraceDriver(sim, model, policy, trace)
        driver.start()
        sim.run(last_t)
        sim.drain()
    collector = Collector(0, max(last_t, 1))
    summary = collector.summarize(0, cfg["policy"], cfg["device"],
                                  policy.snapshot_counters(), cfg["seed"])
    write_sweep_csv(os.path.join(out_dir, "sweep.csv"), [summary])
    with open(os.path.join(out_dir, "config.txt"), "w") as fh:
        fh.write(configmod.render(cfg))
    return summary, driver

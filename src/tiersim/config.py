"""Experiment configuration: a flat `key = value` file format with dotted
keys, a typed defaults registry, and strict unknown-key rejection.
Precedence is flags > file > defaults. The resolved configuration can be
rendered back out; re-running from that echo reproduces the run.

A dotted key `section.param` sets the constructor parameter `param` of the
part its section configures (experiment.py builds each part from its
section), so DEFAULTS is the one place a setting is named, with its
parser, default and least value. Undotted keys shape the sweep, and the
command-line flag of each has its key as dest.
"""

import math


class ConfigError(Exception):
    pass


def _int(s):
    return int(s, 0) if isinstance(s, str) else int(s)


def _float(s):
    v = float(s)
    if not math.isfinite(v):
        raise ValueError("must be finite")
    return v


def _str(s):
    return str(s)


def _containers(s):
    if isinstance(s, list):
        return list(s)
    s = s.strip()
    if ":" in s:
        parts = s.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"bad range {s!r}")
        start, stop = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
        if step <= 0:
            raise ValueError("range step must be positive")
        return list(range(start, stop + 1, step))
    return [int(x) for x in s.split(",") if x.strip()]


# key -> (parser, default, least): a None default leaves the key unset (the
# device profile's value applies); an int key with a least value must be at
# least that (1: positive, 0: non-negative) when set
DEFAULTS = {
    "policy": (_str, "swap", None),
    "device": (_str, "disk", None),
    "containers": (_containers, list(range(1, 50, 2)), None),
    "duration_s": (_float, 60.0, None),
    "warmup_s": (_float, 5.0, None),
    "seed": (_int, 42, None),
    "scale": (_int, 1024, 1),
    "mem.dram_pages": (_int, 65536, 1),
    "mem.flash_pages": (_int, 524288, 1),
    "device.read_lat_us": (_int, None, 0),
    "device.write_lat_us": (_int, None, 0),
    "device.bandwidth_bps": (_int, None, 1),
    "device.batch_pages": (_int, None, 1),
    "device.max_inflight": (_int, None, 1),
    "noise.clients": (_int, 192, 0),
    "noise.think_us": (_int, 150_000, 1),
    "critical.threads": (_int, 16, 1),
    "critical.base_service_us": (_int, 5000, 1),
    "critical.hot_records": (_int, 64, 1),
    "critical.hot_record_pages": (_int, 32, 1),
    "critical.cold_records": (_int, 1500, 0),
    "critical.cold_record_pages": (_int, 12, 0),
    "critical.cold_frac": (_float, 0.024, None),
    "critical.skew": (_float, 0.99, None),
    "critical.draws_per_txn": (_int, 2, 1),
    "swap.fault_overhead_us": (_int, 6000, 0),
    "swap.reclaim_batch": (_int, 32, 1),
    "dmx.levels": (_int, 8, 1),
    "dmx.lifetime_us": (_int, 100_000, 1),
    "dmx.window_us": (_int, 100_000, 1),
    "dmx.alpha": (_float, 0.3, None),
    "dmx.dormant_threshold": (_float, 1.0, None),
    "dmx.dormant_windows": (_int, 5, 0),
    "dmx.floor_pages": (_int, 64, 0),
    "dmx.reserve_frac": (_float, 0.02, None),
    "dmx.fault_overhead_us": (_int, 0, 0),
}

_POLICIES = ("swap", "dmx", "both")
_DEVICES = ("flash", "disk")


def parse_config_file(path):
    values = {}
    try:
        fh = open(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    with fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected `key = value`")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


def resolve(file_values=None, flag_values=None):
    cfg = {k: default for k, (_, default, _) in DEFAULTS.items()}
    for source, values in (("config", file_values), ("flag", flag_values)):
        for key, raw in (values or {}).items():
            if key not in DEFAULTS:
                raise ConfigError(f"unknown {source} key: {key}")
            parser = DEFAULTS[key][0]
            try:
                cfg[key] = parser(raw)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"bad value for {key}: {raw!r} ({exc})")
    validate(cfg)
    return cfg


def validate(cfg):
    if cfg["policy"] not in _POLICIES:
        raise ConfigError(f"policy must be one of {_POLICIES}")
    if cfg["device"] not in _DEVICES:
        raise ConfigError(f"device must be one of {_DEVICES}")
    cs = cfg["containers"]
    if not cs:
        raise ConfigError("containers: list must be non-empty")
    if any(b <= a for a, b in zip(cs, cs[1:])):
        raise ConfigError("containers: list must be strictly increasing")
    if cs[0] < 0:
        raise ConfigError("containers: counts must be non-negative")
    if cfg["warmup_s"] < 0:
        raise ConfigError("warmup_s must be non-negative")
    if micros(cfg["duration_s"]) <= micros(cfg["warmup_s"]):
        raise ConfigError(
            f"duration_s={cfg['duration_s']} must exceed warmup_s="
            f"{cfg['warmup_s']} once both are rounded to whole microseconds")
    for key, (_, _, least) in DEFAULTS.items():
        if least is not None and cfg[key] is not None and cfg[key] < least:
            raise ConfigError(
                f"{key} must be {'positive' if least else 'non-negative'}")
    if not _hot_weights_finite(cfg["critical.hot_records"], cfg["critical.skew"]):
        raise ConfigError(
            f"critical.skew={cfg['critical.skew']!r} makes the hot-record "
            "weights or their total overflow")
    if not (0.0 <= cfg["critical.cold_frac"] <= 1.0):
        raise ConfigError("critical.cold_frac must be in [0, 1]")
    if not (0.0 < cfg["dmx.alpha"] <= 1.0):
        raise ConfigError("dmx.alpha must be in (0, 1]")
    if not (0.0 <= cfg["dmx.reserve_frac"] < 1.0):
        raise ConfigError("dmx.reserve_frac must be in [0, 1)")


def micros(seconds):
    """A run length in seconds as the whole microseconds a run lasts."""
    return round(seconds * 1_000_000)


def _hot_weights_finite(hot_records, skew):
    """Whether the critical service's hot-record weights (r + 1) ** -skew,
    r < hot_records, and their running total are finite floats. The total
    is summed in the service's order; the weights are positive, so every
    partial total is finite when the last one is."""
    total = 0.0
    try:
        for r in range(hot_records):
            total += (r + 1) ** -skew
    except OverflowError:
        return False
    return math.isfinite(total)


def render(cfg):
    lines = []
    for key in sorted(cfg):
        val = cfg[key]
        if val is None:
            continue
        if key == "containers":
            val = ",".join(str(c) for c in val)
        elif isinstance(val, float):
            val = repr(val)
        lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"

import inspect
from dataclasses import fields

import pytest

from helpers import deadline
from tiersim import experiment
from tiersim.config import (
    ConfigError, DEFAULTS, parse_config_file, resolve, render, validate,
)
from tiersim.dmx import DmxPolicy
from tiersim.media import DeviceProfile
from tiersim.memory import MemoryModel
from tiersim.swap import SwapPolicy
from tiersim.workload import CriticalService, NoiseSystem


def test_defaults_resolve_cleanly():
    cfg = resolve()
    assert cfg["policy"] == "swap" and cfg["device"] == "disk"
    assert cfg["containers"] == list(range(1, 50, 2))
    assert cfg["seed"] == 42 and cfg["scale"] == 1024
    assert cfg["device.read_lat_us"] is None


def test_file_overrides_defaults(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("policy = dmx   # inline comment\n\nseed = 0x10\n")
    cfg = resolve(parse_config_file(str(p)))
    assert cfg["policy"] == "dmx"
    assert cfg["seed"] == 16               # 0x literals accepted
    assert cfg["device"] == "disk"         # untouched default


def test_flags_beat_the_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("seed = 1\ndevice = disk\n")
    cfg = resolve(parse_config_file(str(p)), {"seed": "2", "device": "flash"})
    assert cfg["seed"] == 2 and cfg["device"] == "flash"


def test_unknown_keys_name_their_source():
    with pytest.raises(ConfigError) as err:
        resolve({"mem.dram_page": "1"})
    assert "config key: mem.dram_page" in str(err.value)
    with pytest.raises(ConfigError) as err:
        resolve(None, {"polizy": "swap"})
    assert "flag key: polizy" in str(err.value)


def test_bad_values_name_the_key():
    with pytest.raises(ConfigError) as err:
        resolve({"seed": "twelve"})
    assert "seed" in str(err.value)


def test_config_file_syntax_errors(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("policy dmx\n")
    with pytest.raises(ConfigError) as err:
        parse_config_file(str(p))
    assert ":1:" in str(err.value)
    with pytest.raises(ConfigError):
        parse_config_file(str(tmp_path / "missing.cfg"))


def test_container_range_forms():
    assert resolve(None, {"containers": "1:9:2"})["containers"] == [1, 3, 5, 7, 9]
    assert resolve(None, {"containers": "3:5"})["containers"] == [3, 4, 5]
    assert resolve(None, {"containers": "4,8,16"})["containers"] == [4, 8, 16]
    assert resolve(None, {"containers": "0"})["containers"] == [0]


def test_container_lists_must_increase():
    with pytest.raises(ConfigError):
        resolve(None, {"containers": "5,3"})
    with pytest.raises(ConfigError):
        resolve(None, {"containers": "4,4"})
    with pytest.raises(ConfigError):
        resolve(None, {"containers": ""})
    with pytest.raises(ConfigError):
        resolve(None, {"containers": "1:9:0"})


def test_validation_guards():
    with pytest.raises(ConfigError):
        resolve(None, {"policy": "fifo"})
    with pytest.raises(ConfigError):
        resolve(None, {"device": "tape"})
    with pytest.raises(ConfigError):
        resolve(None, {"duration_s": "5", "warmup_s": "5"})
    with pytest.raises(ConfigError):
        resolve(None, {"scale": "0"})
    with pytest.raises(ConfigError):
        resolve(None, {"mem.dram_pages": "0"})
    with pytest.raises(ConfigError):
        resolve(None, {"dmx.alpha": "0"})
    with pytest.raises(ConfigError):
        resolve(None, {"dmx.reserve_frac": "1.0"})
    with pytest.raises(ConfigError):
        resolve(None, {"critical.cold_frac": "1.5"})


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN", "1e999"])
@pytest.mark.parametrize("key", ["duration_s", "warmup_s", "critical.skew",
                                 "critical.cold_frac", "dmx.alpha"])
def test_non_finite_floats_are_bad_values(key, raw):
    with pytest.raises(ConfigError) as err:
        resolve(None, {key: raw})
    assert str(err.value).startswith(f"bad value for {key}: {raw!r}")
    assert "must be finite" in str(err.value)


@pytest.mark.parametrize("raw", ["-171", "-400"])
def test_skew_whose_weights_overflow_is_rejected(raw):
    """The largest hot-record weight, 64 ** -skew, is past the float range."""
    with pytest.raises(ConfigError) as err:
        resolve(None, {"critical.skew": raw})
    assert str(err.value).startswith(f"critical.skew={float(raw)!r} makes")


def test_skew_whose_weights_fit_is_accepted():
    assert resolve(None, {"critical.skew": "-170"})["critical.skew"] == -170.0
    # 100,000 finite weights, the largest about 3e307, whose total overflows;
    # one page a record keeps the hot set inside the capacity
    with pytest.raises(ConfigError, match="critical.skew"):
        resolve(None, {"critical.skew": "-61.5", "critical.hot_records": "100000",
                       "critical.hot_record_pages": "1"})


@pytest.mark.parametrize("raw", ["0", "-1"])
def test_draws_per_txn_must_be_positive(raw):
    with pytest.raises(ConfigError) as err:
        resolve({"critical.draws_per_txn": raw})
    assert str(err.value) == "critical.draws_per_txn must be positive"


def test_cold_records_past_2_64_are_rejected():
    """A cold pick draws randrange(cold_records) from 64-bit outputs; with
    no cold pages the capacity check would let a larger count through."""
    few = {"critical.cold_record_pages": "0"}
    assert resolve(few, {"critical.cold_records": str(1 << 64)})[
        "critical.cold_records"] == 1 << 64
    for n in ((1 << 64) + 1, 1 << 70):
        with pytest.raises(ConfigError) as err:
            resolve(few, {"critical.cold_records": str(n)})
        assert str(err.value) == "critical.cold_records must be at most 2**64"


def test_a_hot_set_past_the_capacity_is_rejected_at_once():
    """The hot set must fit in DRAM and flash together. The bound is checked
    before the hot-record weights are summed, which for 10**10 records
    would take about 950 s."""
    small = {"mem.dram_pages": "64", "mem.flash_pages": "64",
             "critical.hot_record_pages": "1"}
    assert resolve(small, {"critical.hot_records": "128"})[
        "critical.hot_records"] == 128
    with pytest.raises(ConfigError) as err:
        resolve(small, {"critical.hot_records": "129"})
    assert str(err.value) == (
        "critical.hot_records * critical.hot_record_pages = 129 exceeds "
        "the 128 pages of mem.dram_pages + mem.flash_pages")
    with deadline(5), pytest.raises(ConfigError, match="exceeds the 589824 "):
        resolve(None, {"critical.hot_records": str(10**10)})


def test_render_echo_reproduces_the_config(tmp_path):
    cfg = resolve(None, {"policy": "both", "containers": "1:7:3",
                         "dmx.alpha": "0.25"})
    echo = tmp_path / "echo.cfg"
    echo.write_text(render(cfg))
    again = resolve(parse_config_file(str(echo)))
    assert again == cfg


def test_every_default_key_parses_its_own_rendering():
    cfg = resolve()
    for key, val in cfg.items():
        if val is None:
            continue
        parser = DEFAULTS[key][0]
        if key == "containers":
            assert parser(",".join(str(c) for c in val)) == val
        else:
            assert parser(str(val)) == val


# the part each config section configures
SECTION_PARTS = {"mem": MemoryModel, "swap": SwapPolicy, "dmx": DmxPolicy,
                 "critical": CriticalService, "noise": NoiseSystem}

# every section key at a value other than its default, and, within a part,
# other than its neighbours' (dmx.lifetime_us and dmx.window_us share a
# default, so a swapped mapping of the two would pass every golden digest)
NON_DEFAULT = {
    "mem.dram_pages": 60_000, "mem.flash_pages": 500_000,
    "device.read_lat_us": 81, "device.write_lat_us": 201,
    "device.bandwidth_bps": 2**30 + 1, "device.batch_pages": 63,
    "device.max_inflight": 7,
    "noise.clients": 191, "noise.think_us": 149_999,
    "critical.threads": 15, "critical.base_service_us": 4999,
    "critical.hot_records": 63, "critical.hot_record_pages": 31,
    "critical.cold_records": 1499, "critical.cold_record_pages": 11,
    "critical.cold_frac": 0.025, "critical.skew": 0.98,
    "critical.draws_per_txn": 3,
    "swap.fault_overhead_us": 5999, "swap.reclaim_batch": 33,
    "dmx.levels": 7, "dmx.lifetime_us": 40_000, "dmx.window_us": 50_000,
    "dmx.alpha": 0.4, "dmx.dormant_threshold": 2.0, "dmx.dormant_windows": 4,
    "dmx.floor_pages": 65, "dmx.reserve_frac": 0.03,
    "dmx.fault_overhead_us": 1,
}


def test_every_section_key_names_a_parameter_of_its_part():
    params = {name: set(inspect.signature(part).parameters)
              for name, part in SECTION_PARTS.items()}
    params["device"] = {f.name for f in fields(DeviceProfile)}
    for key in DEFAULTS:
        if "." in key:
            section, param = key.split(".")
            assert param in params[section], key


def test_each_section_key_reaches_its_part(monkeypatch):
    assert set(NON_DEFAULT) == {k for k in DEFAULTS if "." in k}
    for key, value in NON_DEFAULT.items():
        assert value != DEFAULTS[key][1], key
    cfg = resolve({k: str(v) for k, v in NON_DEFAULT.items()},
                  {"duration_s": "0.2", "warmup_s": "0.1"})
    parts = {}
    for section in ("critical", "noise"):
        cls = SECTION_PARTS[section]
        monkeypatch.setattr(experiment, cls.__name__,
                            lambda *a, _s=section, _cls=cls, **kw:
                            parts.setdefault(_s, _cls(*a, **kw)))
    experiment.run_point(cfg, "dmx", "flash", 1)
    _, parts["mem"], parts["dmx"] = experiment._stack(cfg, "dmx", "flash")
    parts["swap"] = experiment._stack(cfg, "swap", "flash")[2]
    parts["device"] = parts["dmx"].device.profile
    unchecked = set()
    for key, value in NON_DEFAULT.items():
        section, param = key.split(".")
        if hasattr(parts[section], param):
            assert getattr(parts[section], param) == value, key
        else:
            unchecked.add(key)
    # the two parameters a part keeps only in derived form
    assert unchecked == {"critical.skew", "dmx.reserve_frac"}

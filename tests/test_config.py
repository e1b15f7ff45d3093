import pytest

from tiersim.config import (
    ConfigError, DEFAULTS, parse_config_file, resolve, render, validate,
)


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
    # 100,000 finite weights, the largest about 3e307, whose total overflows
    with pytest.raises(ConfigError, match="critical.skew"):
        resolve(None, {"critical.skew": "-61.5", "critical.hot_records": "100000"})


@pytest.mark.parametrize("raw", ["0", "-1"])
def test_draws_per_txn_must_be_positive(raw):
    with pytest.raises(ConfigError) as err:
        resolve({"critical.draws_per_txn": raw})
    assert str(err.value) == "critical.draws_per_txn must be positive"


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

import hashlib
import os
import subprocess
import sys

import pytest

import tiersim
from tiersim.cli import main
from tiersim.config import resolve
from tiersim.experiment import run_sweep, sweep_plan
from tiersim.metrics import Collector
from tiersim.report import CSV_COLUMNS, write_sweep_csv, read_sweep_csv


def summary_row(containers, policy="swap", device="flash", tps=100.0, lat=5000):
    c = Collector(0, 1_000_000)
    c.record(lat, 10)
    return c.summarize(containers, policy, device, {}, 7)


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    assert "container" in capsys.readouterr().out


def test_unknown_flag_fails(capsys):
    assert main(["--bogus"]) == 1


def test_unknown_config_key_fails(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mem.dram_page = 12\n")
    assert main(["--config", str(cfg)]) == 1
    assert "mem.dram_page" in capsys.readouterr().err


def test_jobs_must_be_positive(capsys):
    assert main(["--jobs", "0", "--containers", "1"]) == 1


def test_trace_needs_a_single_policy(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    trace.write_text("0 a 0 w\n")
    assert main(["--trace", str(trace), "--policy", "both"]) == 1
    assert "one policy" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--check", "--dump-accesses"])
def test_trace_rejects_sweep_only_flags_before_running(tmp_path, capsys, flag):
    trace = tmp_path / "t.trace"
    trace.write_text("0 a 0 w\n")
    out = tmp_path / "out"
    assert main(["--trace", str(trace), "--policy", "swap", flag,
                 "--out", str(out)]) == 1
    stdout, err = capsys.readouterr()
    assert err.startswith(f"tiersim: {flag} ") and err.count("\n") == 1
    assert stdout == "" and not out.exists()


# a short flash run under memory pressure, where a bad device or swap value
# that got past validation would reach the device and the reclaim path
_PRESSED = ["--device", "flash", "--containers", "9", "--duration", "2",
            "--warmup", "1"]


@pytest.mark.parametrize("flags, cfg_text, key", [
    (["--duration", "nan"], None, "duration_s"),
    (["--warmup", "nan"], None, "warmup_s"),
    (["--duration", "inf"], None, "duration_s"),
    (["--duration", "1", "--warmup", "-5"], None, "warmup_s"),
    (["--duration", "0.0000001", "--warmup", "0"], None, "duration_s"),
    ([], "critical.draws_per_txn = -1\n", "critical.draws_per_txn"),
    ([], "critical.draws_per_txn = 0\n", "critical.draws_per_txn"),
    ([], "critical.skew = nan\n", "critical.skew"),
    ([], "critical.skew = -171\n", "critical.skew"),
    ([], "critical.skew = -400\n", "critical.skew"),
    (_PRESSED, "mem.dram_pages = 8192\ndevice.max_inflight = 0\n",
     "device.max_inflight"),
    (_PRESSED, "mem.dram_pages = 8192\ndevice.bandwidth_bps = 0\n",
     "device.bandwidth_bps"),
    (_PRESSED, "mem.dram_pages = 8192\ndevice.batch_pages = 0\n",
     "device.batch_pages"),
    (_PRESSED, "mem.dram_pages = 8192\ndevice.read_lat_us = -100000\n",
     "device.read_lat_us"),
    (_PRESSED, "mem.dram_pages = 8192\ndevice.write_lat_us = -100000\n",
     "device.write_lat_us"),
    (_PRESSED, "mem.dram_pages = 8192\nswap.reclaim_batch = 0\n",
     "swap.reclaim_batch"),
], ids=["duration-nan", "warmup-nan", "duration-inf", "warmup-negative",
        "duration-under-a-microsecond", "draws-negative",
        "draws-zero", "skew-nan", "skew-171", "skew-400", "max-inflight-zero",
        "bandwidth-zero", "batch-pages-zero", "read-lat-negative",
        "write-lat-negative", "reclaim-batch-zero"])
def test_bad_numbers_exit_one_with_a_message(tmp_path, capsys, flags,
                                             cfg_text, key):
    argv = ["--containers", "1", "--out", str(tmp_path / "out")] + flags
    if cfg_text is not None:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(cfg_text)
        argv += ["--config", str(cfg)]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err.count("\n") == 1 and err.startswith("tiersim: ")
    assert key in err and "Traceback" not in out + err
    assert not (tmp_path / "out").exists()


def test_largest_negative_skew_that_fits_still_runs(tmp_path, capsys):
    """critical.skew = -170 is inside the float range and writes the same
    bytes as before the skew check existed."""
    cfg = tmp_path / "skew.cfg"
    cfg.write_text("critical.skew = -170\n")
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--containers", "1", "--duration", "2",
                 "--warmup", "1", "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest()
    assert digest == ("c88f250cf4658781164b1b81e58873f9"
                      "3e6cb3decb7713b0f47aeba8d122c5b3")


def test_default_plan_covers_the_sweep():
    cfg = resolve()
    plan = sweep_plan(cfg)
    assert len(plan) == 25
    assert plan[0] == ("swap", "disk", 1) and plan[-1] == ("swap", "disk", 49)
    both = resolve(None, {"policy": "both"})
    assert len(sweep_plan(both)) == 50


def test_tiny_sweep_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "policy = swap\ndevice = flash\ncontainers = 0\n"
        "duration_s = 2\nwarmup_s = 1\ncritical.threads = 2\n")
    out = tmp_path / "results"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "results written to" in printed
    rows = read_sweep_csv(str(out / "sweep.csv"))
    assert len(rows) == 1 and rows[0].containers == 0
    assert rows[0].tps > 0 and rows[0].demand_faults == 0
    for name in ("tps.svg", "latency.svg", "latency_log.svg",
                 "percentiles.svg", "config.txt"):
        assert (out / name).exists()
    assert "policy = swap" in (out / "config.txt").read_text()


def test_a_serial_sweep_loads_no_process_pool(tmp_path):
    """With --jobs 1 every point runs in this process, and a fresh
    interpreter imports neither concurrent.futures nor multiprocessing."""
    code = ("import sys\n"
            "from tiersim.cli import main\n"
            "assert main(['--policy', 'swap', '--device', 'flash',"
            " '--containers', '1,3', '--duration', '0.2', '--warmup', '0.1',"
            " '--out', sys.argv[1]]) == 0\n"
            "print([m for m in ('concurrent.futures', 'multiprocessing')"
            " if m in sys.modules])\n")
    src = os.path.dirname(os.path.dirname(tiersim.__file__))
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[]"


def test_a_parallel_sweep_starts_no_more_workers_than_points(tmp_path,
                                                             monkeypatch):
    """A pool that forks its workers at the first submit is asked for one
    per point at most. A stand-in records the request and runs the points
    here, so no process starts."""
    import concurrent.futures

    asked = []

    class Pool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    cfg = resolve(None, {"policy": "swap", "device": "flash",
                         "containers": "1,3", "duration_s": "0.2",
                         "warmup_s": "0.1"})
    rows = run_sweep(cfg, str(tmp_path), 64)
    assert asked == [2] and [r.containers for r in rows] == [1, 3]


def test_capacity_exhaustion_aborts_with_code_two(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "policy = swap\ndevice = flash\ncontainers = 0\n"
        "duration_s = 2\nwarmup_s = 1\n"
        "mem.dram_pages = 4096\nmem.flash_pages = 4096\n")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "r")]) == 2
    assert "aborted" in capsys.readouterr().err


def test_a_failed_check_exits_three_with_a_fail_line(tmp_path, capsys):
    """A disk swap sweep whose containers never outgrow DRAM has no cliff
    to find: baseline-cliff fails and --check exits 3."""
    out = tmp_path / "results"
    assert main(["--policy", "swap", "--device", "disk", "--containers", "0,1",
                 "--duration", "0.4", "--warmup", "0.1", "--check",
                 "--out", str(out)]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("FAIL baseline-cliff: ") and "crossing_idx=None"
               in line for line in lines)


def test_trace_replay_end_to_end(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    trace.write_text("0 a 0 w\n100 a 0 r\n200 b 3 w\n")
    out = tmp_path / "results"
    assert main(["--trace", str(trace), "--policy", "swap",
                 "--out", str(out)]) == 0
    assert "replayed 3 accesses" in capsys.readouterr().out
    rows = read_sweep_csv(str(out / "sweep.csv"))
    assert len(rows) == 1 and rows[0].tps == 0.0


def test_malformed_trace_fails_cleanly(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    trace.write_text("0 a 0 q\n")
    assert main(["--trace", str(trace), "--policy", "swap",
                 "--out", str(tmp_path / "r")]) == 1
    assert "rw flag" in capsys.readouterr().err


def test_a_value_past_64_bits_exits_one_naming_its_line(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    trace.write_text("0 web 0 r\n10 web 9223372036854775808 w\n")
    assert main(["--trace", str(trace), "--policy", "swap",
                 "--out", str(tmp_path / "r")]) == 1
    out, err = capsys.readouterr()
    assert err == (f"tiersim: {trace}:2: time or page index does not fit "
                   "in 64 bits\n")
    assert "Traceback" not in out


def _unreadable_trace(tmp_path, case):
    if case == "missing":
        return tmp_path / "nope.trace"
    if case == "directory":
        return tmp_path
    trace = tmp_path / "t.trace"
    trace.write_bytes(b"0 a 0 w\n\xff\xfe 1 r\n")
    return trace


@pytest.mark.parametrize("case, reason", [
    ("missing", "No such file"),
    ("directory", "Is a directory"),
    ("not-utf8", "can't decode byte 0xff"),
], ids=["missing", "directory", "not-utf8"])
def test_unreadable_trace_exits_one_with_a_message(tmp_path, capsys, case,
                                                   reason):
    trace = _unreadable_trace(tmp_path, case)
    assert main(["--trace", str(trace), "--policy", "swap",
                 "--out", str(tmp_path / "r")]) == 1
    out, err = capsys.readouterr()
    assert err.startswith(f"tiersim: cannot read trace {trace}: ")
    assert reason in err and err.count("\n") == 1 and "Traceback" not in out + err


@pytest.mark.parametrize("argv", [
    ["--containers", "1"],
    ["--trace", "t.trace", "--policy", "swap"],
    ["compare", "a", "a"],
], ids=["sweep", "trace", "compare"])
def test_out_path_that_is_a_file_exits_one_before_running(tmp_path, capsys,
                                                          argv):
    (tmp_path / "t.trace").write_text("0 a 0 w\n")
    (tmp_path / "a").mkdir()
    write_sweep_csv(str(tmp_path / "a" / "sweep.csv"), [summary_row(1)])
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    argv = [str(tmp_path / a) if a in ("t.trace", "a") else a for a in argv]
    assert main(argv + ["--out", str(blocker)]) == 1
    out, err = capsys.readouterr()
    assert err.startswith(f"tiersim: cannot use output directory {blocker}: ")
    assert err.count("\n") == 1 and "Traceback" not in out + err
    assert out == ""                        # nothing ran or was printed


def test_compare_identical_runs_reports_unit_ratios(tmp_path, capsys):
    rows = [summary_row(1), summary_row(3), summary_row(5)]
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        write_sweep_csv(str(d / "sweep.csv"), rows)
    out = tmp_path / "cmp"
    assert main(["compare", str(a), str(b), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "1.000" in printed
    body = (out / "compare.csv").read_text().splitlines()
    assert body[0].startswith("policy,device,containers")
    assert len(body) == 4
    assert all(",1.0," in row or row.endswith("1.0") for row in body[1:])


def test_compare_rejects_mismatched_sweeps(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    write_sweep_csv(str(a / "sweep.csv"), [summary_row(1)])
    write_sweep_csv(str(b / "sweep.csv"), [summary_row(1), summary_row(3)])
    assert main(["compare", str(a), str(b), "--out", str(tmp_path)]) == 1
    assert "only in" in capsys.readouterr().err


@pytest.mark.parametrize("column, cell, reason", [
    ("containers", b"x", "bad containers 'x' in row '"),
    ("tps", b"fast", "bad tps 'fast' in row '"),
    ("policy", b"\xff", "line 4 is not UTF-8 text"),
], ids=["bad-int", "bad-float", "not-utf8"])
def test_compare_malformed_csv_exits_one_naming_file_and_row(tmp_path, capsys,
                                                             column, cell,
                                                             reason):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        write_sweep_csv(str(d / "sweep.csv"), [summary_row(1), summary_row(3)])
    path = b / "sweep.csv"
    lines = path.read_bytes().split(b"\n")      # comment, header, two rows
    cells = lines[3].split(b",")
    cells[CSV_COLUMNS.index(column)] = cell
    lines[3] = b",".join(cells)
    path.write_bytes(b"\n".join(lines))
    assert main(["compare", str(a), str(b), "--out", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert err.startswith(f"tiersim: {path}: {reason}")
    assert err.count("\n") == 1 and "Traceback" not in out + err
    assert out == ""


def test_compare_missing_dir_fails(tmp_path, capsys):
    assert main(["compare", str(tmp_path / "nope"),
                 str(tmp_path / "nope2")]) == 1

"""Smoke test for the benchmark: at a tiny simulated length every workload
prints every end-to-end metric of BENCHMARK.json with its unit, and the
traced run prints every per-layer metric.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(result, spec_metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    got = result["metrics"]
    assert set(got) == {m["name"] for m in spec_metrics}
    for m in spec_metrics:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert got[m["name"]]["unit"] == m["unit"]
        assert isinstance(got[m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_with_its_unit(workload):
    check(bench(workload, 0), SPEC["end_to_end"])


def test_traced_run_reports_every_layer_metric():
    check(bench("trace-rw", 1), SPEC["per_layer"])


def test_benchmark_workloads_are_defined():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)

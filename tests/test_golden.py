"""Pins the simulator's output bytes.

A short flash sweep of both policies (1, 25 and 49 containers, 3 simulated
seconds each) must write a `sweep.csv` with exactly the SHA-256 below. It
runs the workloads, both policies' hit, fault and eviction paths, dmx aging,
quotas, dormancy and background IO, so a change to simulated behaviour
that reaches these points shows here as a changed digest, in about two
seconds. The acceptance sweeps and the unit tests cover what it misses.

A change that alters the output on purpose updates the pin: run

    tiersim --device flash --policy both --containers 1,25,49 \\
        --duration 3 --warmup 1 --out golden
    sha256sum golden/sweep.csv

on the new code, put the digest in SWEEP_SHA256, and name the behaviour
change and the new digest in CHANGES.md. A change meant to keep the output
must leave this test passing as it is.
"""

import hashlib

from tiersim.config import resolve
from tiersim.experiment import run_sweep

SWEEP_SHA256 = "77b2c26a4e0cd5d27aabdf7e086135e66310fc1dfd9acf0626a83e619fae8f5c"


def test_short_flash_sweep_writes_the_pinned_bytes(tmp_path):
    cfg = resolve(None, {"device": "flash", "policy": "both",
                         "containers": "1,25,49", "duration_s": "3",
                         "warmup_s": "1"})
    run_sweep(cfg, str(tmp_path), 1)
    data = (tmp_path / "sweep.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == SWEEP_SHA256

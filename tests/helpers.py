"""Shared scaffolding for the unit tests."""

from dataclasses import replace

from tiersim.core import Simulator
from tiersim.memory import MemoryModel
from tiersim.media import Device, PROFILES


def build(dram=256, flash=8192, profile="flash", **overrides):
    """A fresh kernel + memory model + device stack."""
    sim = Simulator()
    model = MemoryModel(dram, flash)
    prof = PROFILES[profile]
    if overrides:
        prof = replace(prof, **overrides)
    return sim, model, Device(sim, model, prof)


def mq_law_holds(pol):
    """Every DRAM cohort of a context dmx registered satisfies freq >= 2^level."""
    for ctx in pol.contexts:
        for c in ctx.pages.values():
            if c.tier == 0 and c.freq < (1 << c.level):  # DRAM
                return False
    return True


def dmx_wheel_is_exact(pol):
    """dmx's expiry wheel holds exactly the listed runs that aging can
    demote or reset (level > 0 or freq != 1), each once, in the bucket of
    its expiry window."""
    want = {}
    for rec in pol.contexts.values():
        for plist in rec.levels:
            for c in plist:
                if c.level > 0 or c.freq != 1:
                    want[id(c)] = -(-c.expire // pol.window_us)
    got = [(id(c), key) for key, bucket in pol._expiry.items() for c in bucket]
    return (all(bucket for bucket in pol._expiry.values())
            and len(got) == len(want) and dict(got) == want)


class RecordingPolicy:
    """A policy stand-in for workload tests: it registers contexts and
    records (cid, lo, hi), in call order, for every allocation and every
    range a walk touches; every access hits at once."""

    def __init__(self):
        self.touched = []

    def register(self, ctx):
        return ctx

    def on_allocate(self, ctx, lo, hi, t):
        self.touched.append((ctx.cid, lo, hi))
        return t

    def walk(self, ctx, ranges, t, batch, write, done):
        for lo, hi in ranges:
            self.touched.append((ctx.cid, lo, hi))
        done(t)

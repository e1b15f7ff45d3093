"""Shared scaffolding for the unit tests."""

import signal
from contextlib import contextmanager
from dataclasses import replace

from oracles import victim_order_reference
from tiersim.core import Simulator
from tiersim.memory import MemoryModel, DRAM, FLASH, TO_DRAM, TO_FLASH
from tiersim.media import Device, PREFETCH, PROFILES


@contextmanager
def deadline(seconds):
    """Raise TimeoutError inside the block once it has run `seconds`, so a
    test of a call that used to hang fails instead of hanging. It uses
    SIGALRM, so it works only in the main thread."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def build(dram=256, flash=8192, profile="flash", **overrides):
    """A fresh kernel + memory model + device stack."""
    sim = Simulator()
    model = MemoryModel(dram, flash)
    prof = PROFILES[profile]
    if overrides:
        prof = replace(prof, **overrides)
    return sim, model, Device(sim, model, prof)


def logged_accesses(chunks):
    """The (t, cid, idx, op) records of the access-log text in `chunks`,
    the strings a Policy.access_log sink was handed."""
    return [(int(t), cid, int(idx), op) for t, cid, idx, op in
            (line.split() for line in "".join(chunks).splitlines())]


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


def listed_pages(*lists):
    """The pages of the runs the page lists `lists` hold."""
    return sum(c.hi - c.lo for lst in lists for c in lst)


def check_selections_in_list_order(pol):
    """Make every victim selection of dmx policy `pol` compare itself with
    victim_order_reference taken just before it: it must cut exactly the
    reference's leading pieces, in order, up to what it was allowed, and
    take them off the level lists. Returns the dict of counts the checks
    keep: selections, and selections that cut a run short."""
    model = pol.model
    select = pol._victims_from
    seen = {"selections": 0, "partial": 0}

    def checked(rec, allow, t, dirty_out):
        expect, left = [], allow
        for c in victim_order_reference(rec.levels):
            if left == 0:
                break
            take = min(c.hi - c.lo, left)
            expect.append((c.lo, c.lo + take))
            seen["partial"] += take < c.hi - c.lo
            left -= take
        seen["selections"] += 1
        before = listed_pages(*rec.levels)
        pieces = []
        extract = model.extract

        def spy(c, lo, hi):
            pieces.append(extract(c, lo, hi))
            return pieces[-1]

        model.extract = spy
        try:
            got = select(rec, allow, t, dirty_out)
        finally:
            del model.extract
        assert [(p.lo, p.hi) for p in pieces] == expect, (rec.key, t, allow)
        assert got == allow - left == before - listed_pages(*rec.levels)
        assert all(p.owner is None for p in pieces)
        return got

    pol._victims_from = checked
    return seen


def runs_agree_with_their_requests(model):
    """Every run's tier agrees with its `io`, and each request it names
    lists it: a run in flight to DRAM has a read's request and one in
    flight to flash a write's, a DRAM run has none, and a flash run has
    none or a prefetch still queued (not yet started)."""
    for ctx in model.contexts.values():
        for c in ctx.pages.values():
            io = c.io
            if c.tier == DRAM:
                ok = io is None
            elif c.tier == FLASH:
                ok = io is None or (io.klass == PREFETCH and io.done_t is None)
            elif c.tier == TO_DRAM:
                ok = io is not None and not io.write
            elif c.tier == TO_FLASH:
                ok = io is not None and io.write
            else:
                ok = False
            if not ok or (io is not None and c not in io.cohorts):
                return False
    return True


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

"""Naive reference implementations the property tests compare against.

Deliberately slow and obvious: flat lists, linear scans, no code or data
structures shared with the package under test.
"""

import bisect

from tiersim.core import SimulationError
from tiersim.workload import TraceError

_MASK64 = (1 << 64) - 1


class LruOracle:
    """Page-granular strict LRU. Pages are born at the MRU end (allocation
    spills the coldest page when full); a hit moves the page to MRU; a miss
    evicts exactly one coldest page before the refill."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.order = []     # index 0 = coldest; entries are (cid, page)
        self.evicted = []

    def allocate(self, cid, lo, hi):
        for page in range(lo, hi):
            if len(self.order) >= self.capacity:
                self.evicted.append(self.order.pop(0))
            self.order.append((cid, page))

    def access(self, cid, page):
        """Returns True when the access faulted."""
        key = (cid, page)
        if key in self.order:
            self.order.remove(key)
            self.order.append(key)
            return False
        if len(self.order) >= self.capacity:
            self.evicted.append(self.order.pop(0))
        self.order.append(key)
        return True


class KernelOracle:
    """The event kernel as a flat list of pending events, one per schedule,
    each fired in (time, seq) order by a linear scan: the order, seqs, log
    lines and counts Simulator must give. Same interface as Simulator; like
    it, run reads the log and the hook once per call, and an event that
    raises is gone while the rest stay pending."""

    def __init__(self):
        self.now = 0
        self.pending = []   # (at, seq, kind, fn), in schedule order
        self.next_seq = 0
        self.event_log = None
        self.post_event_hook = None

    def schedule(self, at, kind, fn):
        if at < self.now:
            raise SimulationError(f"schedule into the past: at={at} now={self.now}")
        seq = self.next_seq
        self.next_seq += 1
        self.pending.append((at, seq, kind, fn))
        return seq

    def run(self, until):
        log, hook = self.event_log, self.post_event_hook
        processed = 0
        while self.pending:
            event = min(self.pending)   # seqs are unique: (at, seq) decide
            at, seq, kind, fn = event
            if at > until:
                break
            self.pending.remove(event)
            self.now = at
            if log is not None:
                log(f"{at}\t{seq}\t{kind}\n")
            fn(at)
            processed += 1
            if hook is not None:
                hook()
        self.now = max(self.now, until)
        return processed

    def drain(self):
        processed = 0
        while self.pending:
            processed += self.run(min(e[0] for e in self.pending))
        return processed


def percentile_oracle(samples, p):
    """Smallest sample such that at least p percent of the samples are at
    or below it, found by linear scan over the sorted values."""
    ordered = sorted(samples)
    n = len(ordered)
    for i, v in enumerate(ordered, start=1):
        if i * 100 >= p * n:
            return v
    return ordered[-1]


def aged_expiry(expire, ticks, lifetime, window):
    """A run's dmx expiry after the ticks at times `ticks`, applied one by
    one the way an eager sweep would: a tick at t re-arms an expiry at or
    below its cutoff, (t // window) * window, to t + lifetime."""
    for t in ticks:
        if expire <= t // window * window:
            expire = t + lifetime
    return expire


def victim_order_reference(levels):
    """dmx victim order within one context, read off its level lists: level
    by level, lowest first, each from head to tail by following the links.
    A generator, so that a check can stop at the runs a selection reaches."""
    for plist in levels:
        c = plist.head
        while c is not None:
            yield c
            c = c.next


class splitmix64_reference:
    """SplitMix64 one output per call, as the scalar recurrence defines it:
    the reference the block-computed generator must match output for
    output, whichever reader consumes it."""

    def __init__(self, seed):
        self.seed = seed & _MASK64
        self._state = seed & _MASK64

    def next_u64(self):
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, n):
        if n <= 0:
            raise ValueError(f"randrange bound must be positive, got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n

    def random(self):
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def fork(self, salt):
        return splitmix64_reference(mix_seed_reference(self.seed, salt))


def mix_seed_reference(*parts):
    acc = 0x243F6A8885A308D3
    for p in parts:
        g = splitmix64_reference((acc ^ (p & _MASK64)) & _MASK64)
        acc = g.next_u64()
    return acc


class ReplayedStream(splitmix64_reference):
    """The reference readers over a given list of outputs instead of the
    recurrence, for streams a real seed would almost never produce."""

    def __init__(self, outputs):
        super().__init__(0)
        self.outputs = iter(outputs)

    def next_u64(self):
        return next(self.outputs)


def draw_record_reference(svc, rng):
    """CriticalService.draw_record written with the generator's readers."""
    if svc.cold_records and rng.random() < svc.cold_frac:
        j = rng.randrange(svc.cold_records)
        lo = svc.hot_pages + j * svc.cold_record_pages
        return (lo, lo + svc.cold_record_pages)
    u = rng.random() * svc.cum_weight[-1]
    r = min(bisect.bisect_left(svc.cum_weight, u), svc.hot_records - 1)
    lo = r * svc.hot_record_pages
    return (lo, lo + svc.hot_record_pages)


def noise_pick_reference(noise, rng):
    """The (container, image) a NoiseSystem request picks, written with the
    generator's readers."""
    k = rng.randrange(len(noise.contexts))
    img = rng.randrange(len(noise.catalog.images))
    return k, img


def load_trace_reference(path):
    """The trace parser as a list of (t, cid, page, op) tuples, one per
    record, checked line by line in the parser's order: 4 fields, integers,
    signs, rw flag, time. It has no 64-bit range check: a value of 2**63 or
    more is kept as it is. Records of one context share one id string."""
    records = []
    cids = {}
    last_t = 0
    try:
        with open(path, encoding="utf-8") as fh:
            for ln, raw in enumerate(fh, start=1):
                parts = raw.split()
                if not parts or parts[0][0] == "#":
                    continue
                if len(parts) != 4:
                    raise TraceError(f"{path}:{ln}: expected 4 fields, got {len(parts)}")
                t_s, cid, idx_s, rw = parts
                try:
                    t = int(t_s)
                    idx = int(idx_s)
                except ValueError:
                    raise TraceError(f"{path}:{ln}: non-integer time or page index")
                if t < 0 or idx < 0:
                    raise TraceError(f"{path}:{ln}: negative time or page index")
                if rw not in ("r", "w"):
                    raise TraceError(f"{path}:{ln}: rw flag must be r or w")
                if t < last_t:
                    raise TraceError(f"{path}:{ln}: time regression {t} < {last_t}")
                last_t = t
                records.append((t, cids.setdefault(cid, cid), idx, rw))
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from None
    return records

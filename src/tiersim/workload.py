"""Workload generators: a closed-loop latency-critical service, bursty
image-serving noise containers, and trace replay.

Noise containers share a fixed catalog shape: 500 images of 20 MiB, 100 of
80 MiB, 80 of 200 MiB, scaled down by a divisor (default 1024 brings the
per-container footprint to 8500 pages). Images materialize on first request
(pages are born then, dirty); later requests walk the image sequentially
and refault any evicted run as one batched read. A fixed client pool keeps
total noise load constant while the container count sweeps.

The critical service owns one context with two record classes: a small set
of hot multi-page records (almost every draw) and a long tail of cold
records (rare draws). Each transaction draws a few records, walks their
pages in one walk, then finishes after a fixed compute time; threads are
closed-loop with zero think time. Hot draws are rank-weighted by a
power-law skew. Each thread is a small object whose bound methods, made
once, are its events: the walk's done and the txn-done event. A
transaction builds nothing but its list of records.

A trace replay keeps its records in columns (Trace): times and page
indices in two array("q"), one reference per record to its context's
shared id string, and the r/w flags in one str, about 26 B a record where
a list of (t, cid, page, op) tuples takes about 134. The driver reads the
columns by index, one record per trace event, and builds no tuple for it.
"""

from array import array
from bisect import bisect_right
from itertools import accumulate, islice

from .core import SimulationError, rejection_limit

MIB = 2 ** 20
PAGE = 4096

# per-container image catalog: (count, MiB each)
CATALOG_SHAPE = ((500, 20), (100, 80), (80, 200))


class NoiseCatalog:
    def __init__(self, scale=1024):
        if scale < 1:
            raise SimulationError("scale divisor must be >= 1")
        self.images = []        # (lo, hi) page ranges, one per image
        off = 0
        for count, mib in CATALOG_SHAPE:
            pages = max(1, (mib * MIB) // (scale * PAGE))
            for _ in range(count):
                self.images.append((off, off + pages))
                off += pages
        self.total_pages = off


def walk_ranges(policy, ctx, ranges, t, batch, write, done):
    """Walk each (lo, hi) of the list `ranges` in order through the policy
    in one call (Policy.walk), then call done(t_end). The critical service
    and the noise clients walk through this module global, so one name
    covers each walk they start; the trace replay, one page per access,
    calls Policy.walk directly."""
    policy.walk(ctx, ranges, t, batch, write, done)


class NoiseSystem:
    def __init__(self, sim, model, policy, rng, containers, clients,
                 think_us=150_000, scale=1024):
        self.sim = sim
        self._schedule = sim.schedule
        self.policy = policy
        self.clients = clients
        self.think_us = think_us
        self.catalog = NoiseCatalog(scale)
        self.contexts = []
        for k in range(containers):
            ctx = model.new_context(f"noise-{k}")
            policy.register(ctx)
            self.contexts.append(ctx)
        self.requests = 0
        # _step draws rng.randrange(containers), then rng.randrange(images),
        # from rng's output stream directly (with no container it never runs)
        self._u64 = rng.outputs.__next__
        self._images = len(self.catalog.images)
        self._ctx_limit = rejection_limit(max(containers, 1))
        self._img_limit = rejection_limit(self._images)

    def start(self):
        if not self.contexts:
            return
        for i in range(self.clients):
            # stagger wake-ups across one think period
            self.sim.schedule(i * self.think_us // max(1, self.clients),
                              "noise-wake", self._step)

    def _step(self, t):
        u64 = self._u64
        v = u64()
        while v >= self._ctx_limit:
            v = u64()
        k = v % len(self.contexts)
        v = u64()
        while v >= self._img_limit:
            v = u64()
        img = v % self._images
        ctx = self.contexts[k]
        lo, hi = self.catalog.images[img]
        self.requests += 1
        # an image's first page stays a key of ctx.pages once born: cohorts
        # never merge and a context never gives a page back
        if lo not in ctx.pages:
            ready = self.policy.on_allocate(ctx, lo, hi, t)
            self._rest(ready)
        else:
            walk_ranges(self.policy, ctx, [(lo, hi)], t, True, False,
                        self._rest)

    def _rest(self, t):
        self._schedule(t + self.think_us, "noise-wake", self._step)


def _first_true(pred, near):
    """The least m in [0, 2**53] with pred(m), for a pred that is false and
    then true as m grows, and taken as true at 2**53. Searches outward from
    m = near * 2**53, then bisects: a close guess costs a few calls, and
    any guess, nan too, gives the same m."""
    top = 1 << 53
    guess = near * 2.0 ** 53
    lo = hi = int(guess) if 0 <= guess < top else top
    step = 1
    while hi < top and not pred(hi):
        lo, hi = hi + 1, min(hi + step, top)
        step *= 2
    while lo > 0 and pred(lo - 1):
        lo, hi = max(lo - step, 0), lo - 1
        step *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def record_stream(outputs, cum_weight, hot, cold_base, cold_records,
                  cold_record_pages, cold_frac):
    """The critical service's records, (lo, hi) page ranges, drawn from the
    generator output iterator `outputs`.

    A record is cold when cold_records > 0 and x < cold_frac, x uniform in
    [0, 1) as SplitMix64.random() makes it, (v >> 11) * 2.0 ** -53 of the
    next output v; then a cold record is picked as randrange(cold_records)
    picks it, skipping outputs at or above its rejection limit. Otherwise
    the next x picks a hot record by rank weight: hot[bisect_left(
    cum_weight, x * total weight)]. Each record reads exactly the outputs
    it needs, and the stream holds nothing but its arguments and its cut
    points.

    The stream compares each raw output v with integer cut points, found
    once, instead of making x. With m = v >> 11, x = m * 2**-53 is exact
    and increasing in m, and so is x * total weight once rounded: rounding
    is monotone and the total is positive. So each float test is false
    below some least m and true from it on (or never true, m = 2**53):
    "not x < cold_frac" from the cold cut's m, "cum_weight[j] < x * total"
    from hot cut j's. A cut is that m shifted left by 11, the least v with
    that m. Then x < cold_frac is exactly v < cold_cut, and bisect_left,
    which counts the cum_weight[j] below x * total, is exactly the count
    of hot cuts at or below v, bisect_right(hot_cuts, v). _first_true
    finds each m by evaluating the float test itself, so the two forms
    agree on every output, not only up to rounding. The last hot cut is
    2**64, above every output, as x * total never exceeds the total.
    """
    u64 = outputs.__next__
    total_weight = cum_weight[-1]
    cold_limit = rejection_limit(max(cold_records, 1))
    unit = 2.0 ** -53
    cold_cut = _first_true(lambda m: not m * unit < cold_frac,
                           cold_frac) << 11
    hot_cuts = [_first_true(lambda m: w < (m * unit) * total_weight,
                            w / total_weight) << 11
                for w in cum_weight]
    while True:
        if cold_records and u64() < cold_cut:
            v = u64()
            while v >= cold_limit:
                v = u64()
            lo = cold_base + v % cold_records * cold_record_pages
            yield (lo, lo + cold_record_pages)
        else:
            yield hot[bisect_right(hot_cuts, u64())]


class CriticalService:
    def __init__(self, sim, model, policy, collector, rng, threads=16,
                 base_service_us=5000, hot_records=64, hot_record_pages=32,
                 cold_records=1500, cold_record_pages=12, cold_frac=0.024,
                 skew=0.99, draws_per_txn=2):
        self.sim = sim
        self.policy = policy
        self.collector = collector
        self.threads = threads
        self.base_service_us = base_service_us
        self.hot_records = hot_records
        self.hot_record_pages = hot_record_pages
        self.cold_records = cold_records
        self.cold_record_pages = cold_record_pages
        self.cold_frac = cold_frac
        self.draws_per_txn = draws_per_txn
        self.hot_pages = hot_records * hot_record_pages
        self.total_pages = self.hot_pages + cold_records * cold_record_pages
        self.ctx = model.new_context("critical")
        policy.register(self.ctx)
        # rank weights for hot-record popularity; skew 0 = uniform
        self.cum_weight = list(accumulate(
            (r + 1) ** -skew for r in range(hot_records)))
        self.completed = 0
        self.records = record_stream(
            rng.outputs, self.cum_weight,
            [(lo, lo + hot_record_pages)
             for lo in range(0, self.hot_pages, hot_record_pages)],
            self.hot_pages, cold_records, cold_record_pages, cold_frac)

    def start(self):
        self.policy.on_allocate(self.ctx, 0, self.total_pages, 0)
        for _ in range(self.threads):
            TxnThread(self).begin(0)

    def draw_record(self):
        """The next record of the stream transactions draw from."""
        return next(self.records)


class TxnThread:
    """One closed-loop thread of a CriticalService. Its two bound methods
    are made once: `done`, the walk's done, schedules the transaction's
    end after the compute time; `event`, that txn-done event, records the
    latency from t0, the transaction's start, and begins the next one."""

    __slots__ = ("svc", "t0", "done", "event")

    def __init__(self, svc):
        self.svc = svc
        self.t0 = 0
        self.done = self.compute
        self.event = self.finish

    def begin(self, t):
        svc = self.svc
        self.t0 = t
        walk_ranges(svc.policy, svc.ctx,
                    list(islice(svc.records, svc.draws_per_txn)), t, False,
                    False, self.done)

    def compute(self, te):
        svc = self.svc
        svc.sim.schedule(te + svc.base_service_us, "txn-done", self.event)

    def finish(self, t):
        svc = self.svc
        svc.completed += 1
        svc.collector.record(t - self.t0, t)
        self.begin(t)


class TraceError(SimulationError):
    pass


class Trace:
    """A parsed trace in columns, one entry per record: `times` and `pages`
    are array("q"), `cids` holds a reference to its context's one id
    string, and `ops` is a str of "r" and "w". Its length is the record
    count; iterating or indexing it gives (t, cid, page, op) tuples."""

    __slots__ = ("times", "cids", "pages", "ops")

    def __init__(self, times, cids, pages, ops):
        self.times = times
        self.cids = cids
        self.pages = pages
        self.ops = ops

    def __len__(self):
        return len(self.times)

    def __iter__(self):
        return zip(self.times, self.cids, self.pages, self.ops)

    def __getitem__(self, i):
        return (self.times[i], self.cids[i], self.pages[i], self.ops[i])


def load_trace(path):
    """Parse `time_us context_id page_index {r|w}` lines into a Trace.

    Fields are split on runs of whitespace. A comment is a whole line: one
    whose first field starts with `#` (a blank line is skipped too); a `#`
    after the first field is an ordinary field, so `10 web 0 w # note` has
    6 fields. Each line's checks run in order: 4 fields, integer time and
    page index, neither negative, an r or w flag, no time regression, and
    both fitting in 64 bits; the first that fails aborts with the line
    number. A file that cannot be opened or is not UTF-8 text aborts with
    the reason. Records of one context share one context id string."""
    times = array("q")
    pages = array("q")
    cids = []
    ops = bytearray()
    add_time, add_page = times.append, pages.append
    add_cid, add_op = cids.append, ops.append
    shared = {}
    share = shared.setdefault
    op_code = {"r": ord("r"), "w": ord("w")}
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
                add_time(t)
                add_page(idx)
                add_cid(share(cid, cid))
                add_op(op_code[rw])
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from None
    except OverflowError:
        raise TraceError(
            f"{path}:{ln}: time or page index does not fit in 64 bits") from None
    return Trace(times, cids, pages, ops.decode("ascii"))


class TraceDriver:
    """Replays a Trace against the active policy at its timestamps, one
    record per trace event, read from the columns by index; the event,
    the bound method _fire, is made once. Contexts and pages come into
    being on first reference (that reference is the materializing write,
    not a fault)."""

    def __init__(self, sim, model, policy, trace):
        self.sim = sim
        self.model = model
        self.policy = policy
        self.trace = trace
        self.i = 0
        self.accesses = 0
        self._event = self._fire

    def start(self):
        if self.trace:
            self.sim.schedule(self.trace.times[0], "trace", self._event)

    def _fire(self, t):
        trace = self.trace
        i = self.i
        cid = trace.cids[i]
        idx = trace.pages[i]
        ctx = self.model.contexts.get(cid)
        if ctx is None:
            ctx = self.model.new_context(cid)
            self.policy.register(ctx)
        self.accesses += 1
        # every page is born a one-page cohort and cohorts never merge, so
        # each allocated page is a first page: a key of ctx.pages
        if idx not in ctx.pages:
            self.policy.on_allocate(ctx, idx, idx + 1, t)
        else:
            self.policy.walk(ctx, [(idx, idx + 1)], t, False,
                             trace.ops[i] == "w", _ignore)
        i += 1
        self.i = i
        if i < len(trace.times):
            self.sim.schedule(trace.times[i], "trace", self._event)


def _ignore(t):
    """The done of a trace access: nothing waits for it."""

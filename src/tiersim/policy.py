"""The page walk both tiering policies share, and the hooks they fill in.

Policy.walk takes a list of page ranges of one context and walks them all
in one call, each range in index order: a DRAM hit, a share of a read
already in flight to DRAM, a wait on a victim still draining to flash, or a
fault run on flash, extended across adjacent flash runs into one batched
read when batch=True. access_range is the same walk over one range.
"""

from functools import partial

from .core import SimulationError
from .memory import DRAM, FLASH, TO_DRAM, TO_FLASH
from .media import PREFETCH

# Stored in an in-flight prefetched run's `prefetched` field once a fault
# has shared its read: the read is credited as a prefetch hit once, and the
# run lands as touched. The mark lives and dies with the run.
HIT_IN_FLIGHT = "hit in flight"


class Policy:
    """The shared walk, counters and defaults. A policy fills in the hooks:
    `_on_hit(ctx, piece, t, split)` for a touched DRAM run (`split`: a
    partial hit just cut it off a larger run), `_on_split(ctx, c, span, end)`
    for what that cut left of c (which ran up to `end`), `_make_room(pages,
    t)` to free frames for a fault cluster, returning the earliest start of
    its read, `_on_landed(req, landed, t)` when a demand read lands, and
    `_on_walked(ctx, lo, end, t, waited)` once per range when the walk of
    its pages [lo, end), reached at t, stops, at a wait-exit (`waited`) or
    at the range's end. `access_log` is a sink: None, or a callable that
    `_log` hands the load_trace lines of each birth and each walked range."""

    def __init__(self, model, device, fault_overhead_us):
        self.model = model
        self.device = device
        self.fault_overhead_us = fault_overhead_us
        self.counters = {
            "demand_faults": 0,
            "fault_clusters": 0,
            "evictions": 0,
            "prefetch_issued": 0,
            "prefetch_hits": 0,
            "mispredictions": 0,
        }
        self.access_log = None

    def _on_split(self, ctx, c, span, end):
        pass

    def _on_walked(self, ctx, lo, end, t, waited):
        pass

    # -- interface used by workloads ---------------------------------------

    def register(self, ctx):
        return ctx

    def tick(self, t):
        """No periodic work by default."""

    def access_range(self, ctx, lo, hi, t, batch=False, write=False):
        """Touch pages [lo, hi) in index order, starting at t: a walk of the
        one range that returns instead of calling a `done`. Returns the
        tuple (done_at, wait, next_idx). A finished walk returns
        (done_at, None, None): every touched page is resident or on its
        way by done_at. A walk that reaches a victim still draining to flash
        stops there and returns (t_now, handle, next_idx): the time it got
        there, the write-back's handle to wait on, and the page to re-call
        from once it lands."""
        return self.walk(ctx, [(lo, hi)], t, batch, write, None)

    def walk(self, ctx, ranges, t, batch, write, done):
        """Touch each (lo, hi) of the list `ranges` in order, starting at t,
        then call done(t_end).

        Each range is logged when the walk reaches it, and ends with one
        `_on_walked` call that carries the time the walk reached it. A walk
        that reaches a victim still draining to flash stops there and hands
        the write-back's handle a resumption: a partial that re-enters walk
        with the rest of the walk, [(next_idx, hi)] and the ranges after.
        The resumption holds no reference to itself, so a walk leaves no
        reference cycle for the cyclic collector, and a walk that never
        waits copies no list and creates no closure.

        With done=None the walk hands nothing a resumption and calls
        nothing: it returns access_range's tuple instead.
        """
        cohort_at = ctx.pages.get
        t_now = t
        for i, (lo, hi) in enumerate(ranges):
            t0 = t_now
            if self.access_log is not None:
                self._log(t0, ctx, lo, hi, "w" if write else "r")
            cur = lo
            while cur < hi:
                c = cohort_at(cur)
                if c is None:               # not a first page: search
                    c = self.model.lookup(ctx, cur)
                    if c is None:
                        raise SimulationError(
                            f"access to unallocated page {ctx.cid!r}:{cur}")
                span = c.hi if c.hi < hi else hi
                if c.tier == DRAM:
                    if c.lo == cur and c.hi <= hi:
                        piece = c                   # the hit takes the whole run
                    else:
                        end = c.hi
                        piece = self.model.extract(c, cur, span)
                        self._on_split(ctx, c, span, end)
                    if write:
                        piece.dirty = True
                    self._on_hit(ctx, piece, t_now, piece is not c)
                    cur = span
                elif c.tier == TO_DRAM:
                    # a read already covers us; share its wait
                    pages = span - cur
                    if c.io.klass == PREFETCH:
                        if c.prefetched is not HIT_IN_FLIGHT:
                            self.counters["prefetch_hits"] += pages
                            c.prefetched = HIT_IN_FLIGHT
                    else:
                        self.counters["demand_faults"] += pages
                        self.counters["fault_clusters"] += 1
                    t_now = max(t_now, c.io.done_t)
                    cur = span
                elif c.tier == FLASH:
                    run_end = span if batch else cur + 1
                    pieces = [self.model.extract(c, cur, run_end)]
                    if batch:
                        # extend across adjacent missing cohorts
                        while run_end < hi:
                            nxt = cohort_at(run_end)
                            if nxt is None or nxt.tier != FLASH:
                                break
                            stop = min(nxt.hi, hi)
                            pieces.append(self.model.extract(nxt, run_end, stop))
                            run_end = stop
                    pages = run_end - cur
                    t_now += self.fault_overhead_us
                    ready = self._make_room(pages, t_now)
                    if write:
                        for p in pieces:
                            p.dirty = True
                    read = self.device.submit_demand(pieces, t_now, not_before=ready,
                                                     cb=self._on_landed)
                    self.counters["demand_faults"] += pages
                    self.counters["fault_clusters"] += 1
                    t_now = read.done_t
                    cur = run_end
                elif c.tier == TO_FLASH:
                    # victim still draining to flash: block, then refault
                    self._on_walked(ctx, lo, cur, t0, True)
                    if done is None:
                        return t_now, c.io.handle, cur
                    c.io.handle.wait(partial(
                        self.walk, ctx, [(cur, hi)] + ranges[i + 1:],
                        batch=batch, write=write, done=done))
                    return
                else:
                    raise SimulationError(
                        f"access to page {ctx.cid!r}:{cur} in unknown tier {c.tier!r}")
            self._on_walked(ctx, lo, hi, t0, False)
        if done is None:
            return t_now, None, None
        done(t_now)

    # -- diagnostics -------------------------------------------------------

    def _log(self, t, ctx, lo, hi, op):
        """Hand `access_log`, which the caller has found set, the lines of
        pages [lo, hi)."""
        self.access_log("".join(f"{t} {ctx.cid} {i} {op}\n" for i in range(lo, hi)))

    def snapshot_counters(self) -> dict:
        out = dict(self.counters)
        out["writeback_pages"] = self.device.stats["pages_written"]
        return out

"""Reactive baseline: kernel-style swap with one global strict LRU.

Every access to a resident page refreshes it to the MRU end. A fault picks
victims from the LRU tail, writes them back first if dirty (the demand read
is chained behind the write-back), then reads the page in; the client eats
the whole stall. A fixed software overhead is charged once per contiguous
fault cluster, modelling the kernel fault path under reclaim. No background
IO ever: between accesses this policy issues nothing.

Allocation-driven reclaim evicts in clusters of `reclaim_batch` frames
(surplus frames serve later allocations); fault-driven reclaim frees exactly
one frame per missing page, which keeps fault behaviour equal to a textbook
per-page LRU (the oracle tests depend on that).
"""

from .core import SimulationError
from .memory import DRAM, FLASH, INFLIGHT, TO_DRAM, PageList
from .media import Device


class AccessResult:
    __slots__ = ("done_at", "wait", "next_idx")

    def __init__(self, done_at, wait=None, next_idx=None):
        self.done_at = done_at
        self.wait = wait        # Handle to wait on before re-calling, or None
        self.next_idx = next_idx


class SwapPolicy:
    name = "swap"

    def __init__(self, sim, model, device: Device, fault_overhead_us=6000,
                 reclaim_batch=32):
        self.sim = sim
        self.model = model
        self.device = device
        self.fault_overhead_us = fault_overhead_us
        self.reclaim_batch = max(1, reclaim_batch)
        self.lru = PageList()
        self.counters = {
            "demand_faults": 0,
            "fault_clusters": 0,
            "evictions": 0,
            "prefetch_issued": 0,   # always zero: no speculation here
            "prefetch_hits": 0,
            "mispredictions": 0,
        }
        self.access_log = None      # list of (t, cid, idx, op) when enabled

    # -- internals ---------------------------------------------------------

    def _insert_mru(self, req, landed, t):
        for c in landed:
            self.lru.append(c)

    def _reclaim(self, need, t, rounded, exact=True):
        """Free frames from the LRU tail; returns (ready_at, freed). Dirty
        victims go out in one batched demand-class write; the caller
        serializes behind ready_at. With exact=True a shortfall is fatal."""
        if need <= 0:
            return t, 0
        target = need
        if rounded:
            b = self.reclaim_batch
            target = -(-need // b) * b
        target = min(target, self.lru.page_count)
        if exact and target < need:
            raise SimulationError(
                f"reclaim short: need {need} frames, LRU holds {self.lru.page_count}"
            )
        dirty = []
        freed = 0
        while freed < target:
            c = self.lru.head
            take = min(c.pages(), target - freed)
            piece = self.model.extract(c, c.lo, c.lo + take)
            self.lru.remove(piece)
            freed += take
            if piece.dirty:
                dirty.append(piece)
            else:
                self.model.transition(piece, FLASH)  # clean drop, no IO
        self.counters["evictions"] += freed
        if not dirty:
            return t, freed
        handle = self.device.submit_demand(dirty, t, write=True)
        return handle.done_t, freed

    def _log(self, t, ctx, lo, hi, op):
        if self.access_log is not None:
            for idx in range(lo, hi):
                self.access_log.append((t, ctx.cid, idx, op))

    # -- interface used by workloads ---------------------------------------

    def register(self, ctx):
        # no per-context state beyond what the model keeps
        return ctx

    def on_allocate(self, ctx, lo, hi, t):
        """Materialize pages [lo, hi) in DRAM (they are born dirty). Returns
        done_at; the caller is stalled until then. An allocation larger than
        free DRAM spills incrementally: its own earliest pages become LRU
        victims once frames run out, like any others."""
        ready = t
        cur = lo
        while cur < hi:
            avail = self.model.free_frames()
            if avail == 0:
                r, freed = self._reclaim(hi - cur, t, rounded=True, exact=False)
                ready = max(ready, r)
                avail = self.model.free_frames()
                if freed == 0 or avail == 0:
                    raise SimulationError(
                        f"allocation of {hi - lo} pages found no reclaimable frames"
                    )
            take = min(avail, hi - cur)
            c = self.model.create(ctx, cur, cur + take, DRAM, dirty=True)
            self.lru.append(c)
            cur += take
        self._log(t, ctx, lo, hi, "w")
        return ready

    def access_range(self, ctx, lo, hi, t, batch=False, write=False) -> AccessResult:
        """Touch pages [lo, hi) in index order. Hits cost nothing; each fault
        cluster stalls for overhead + (write-back) + read. Returns when the
        walk finished (done_at) or must block on an unfinished write-back.

        batch=True folds a contiguous missing run into one fault cluster with
        a single batched read (sequential-friendly clients); batch=False
        faults strictly page by page.
        """
        if not ctx.alive:
            raise SimulationError(f"access to dead context {ctx.cid!r}")
        self._log(t, ctx, lo, hi, "w" if write else "r")
        cohort_at = ctx.pages.get
        t_now = t
        cur = lo
        while cur < hi:
            c = cohort_at(cur)
            if c is None:
                raise SimulationError(f"access to unallocated page {ctx.cid!r}:{cur}")
            span = min(c.hi, hi)
            if c.tier == DRAM:
                if c.lo == cur and c.hi <= hi:
                    piece = c                   # the hit takes the whole run
                else:
                    piece = self.model.extract(c, cur, span)
                if write:
                    piece.dirty = True
                self.lru.move_to_tail(piece)
                cur = span
            elif c.tier == INFLIGHT:
                if c.dir == TO_DRAM:
                    # someone else's demand read covers us; share the wait
                    pages = span - cur
                    self.counters["demand_faults"] += pages
                    self.counters["fault_clusters"] += 1
                    t_now = max(t_now, c.io.done_t)
                    cur = span
                else:
                    # victim still draining to flash: block, then refault
                    return AccessResult(t_now, wait=c.io.handle, next_idx=cur)
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
                ready, _ = self._reclaim(pages - self.model.free_frames(),
                                         t_now, rounded=False)
                for p in pieces:
                    if write:
                        p.dirty = True
                read = self.device.submit_demand(pieces, t_now, not_before=ready,
                                                 cb=self._insert_mru)
                self.counters["demand_faults"] += pages
                self.counters["fault_clusters"] += 1
                t_now = read.done_t
                cur = run_end
            else:
                raise SimulationError(f"access to dead cohort {c!r}")
        return AccessResult(t_now)

    def on_teardown(self, ctx):
        for c in set(ctx.pages.values()):
            if c.owner is self.lru:
                self.lru.remove(c)
        self.model.teardown(ctx)

    def tick(self, t):
        """The baseline has no periodic work; present for interface parity."""

    def snapshot_counters(self) -> dict:
        out = dict(self.counters)
        out["writeback_pages"] = self.device.stats["pages_written"]
        return out

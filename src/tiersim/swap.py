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

Accesses run the page walk shared with dmx (policy.py); the hooks here move
a hit run to the MRU end, reclaim exactly a fault cluster's frames ahead of
its read, and append landed reads at the MRU end.
"""

from .core import SimulationError
from .memory import DRAM, FLASH, PageList
from .policy import Policy


class SwapPolicy(Policy):
    name = "swap"

    def __init__(self, model, device, fault_overhead_us=6000,
                 reclaim_batch=32):
        super().__init__(model, device, fault_overhead_us)
        self.reclaim_batch = reclaim_batch
        self.lru = PageList()

    # -- hooks of the shared walk ------------------------------------------

    def _on_hit(self, ctx, piece, t, split):
        self.lru.move_to_tail(piece)

    def _make_room(self, pages, t):
        need = pages - self.model.free_frames()
        if need > self.lru.page_count:
            raise SimulationError(
                f"reclaim short: need {need} frames, LRU holds {self.lru.page_count}"
            )
        return self._reclaim(need, t)

    def _on_landed(self, req, landed, t):
        for c in landed:
            self.lru.append(c)

    # -- internals ---------------------------------------------------------

    def _reclaim(self, target, t):
        """Free exactly `target` frames (none if target <= 0) from the LRU
        tail, which must hold them; returns ready_at. Dirty victims go out
        in one batched demand-class write; the caller serializes behind
        ready_at."""
        if target <= 0:
            return t
        dirty = []
        left = target
        while left:
            c = self.lru.head
            take = min(c.hi - c.lo, left)
            piece = self.model.extract(c, c.lo, c.lo + take)
            self.lru.remove(piece)
            left -= take
            if piece.dirty:
                dirty.append(piece)
            else:
                self.model.transition(piece, FLASH)  # clean drop, no IO
        self.counters["evictions"] += target
        if not dirty:
            return t
        return self.device.submit_demand(dirty, t, write=True).done_t

    # -- interface used by workloads ---------------------------------------

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
                b = self.reclaim_batch
                target = min(-(-(hi - cur) // b) * b, self.lru.page_count)
                ready = max(ready, self._reclaim(target, t))
                avail = self.model.free_frames()
                if avail == 0:
                    raise SimulationError(
                        f"allocation of {hi - lo} pages found no reclaimable frames"
                    )
            take = min(avail, hi - cur)
            c = self.model.create(ctx, cur, cur + take, DRAM, dirty=True)
            self.lru.append(c)
            cur += take
        if self.access_log is not None:
            self._log(t, ctx, lo, hi, "w")
        return ready

"""Predictive tiering policy: per-context multi-queue hotness tracking,
activity-scored DRAM quotas, dormancy detection with hot-set snapshots,
reactivation prefetch, and background eviction kept off the access path.

Per managed context, resident pages sit in M frequency-leveled queues:
promotion to level L+1 once freq >= 2^(L+1); going untouched for one
lifetime demotes a run one level and resets freq to exactly 2^(new level).
A periodic tick (one activity window) runs expiry, closes EWMA activity
windows, recomputes quotas (per-context floor plus a share of the rest
proportional to score), and, when free frames dip under the reserve,
queues eviction write-backs to refill headroom to twice the reserve.

Victim order: most-over-quota context first, then lowest level, lowest
freq, expired runs before live ones, lowest page index; runs with IO
pending are skipped. Each context keeps a victim index across selections
(see VictimIndex): a heap in that order plus a heap of expiry times. Every
change to a listed run's level, freq, expiry or first page is noted as it
happens, and the next selection re-keys just those runs, so taking k
victims costs O((k + changed runs) log n) instead of a sort of the whole
level. The tick's expiry sweep re-arms too many runs to note one by one:
it drops every index, and the next selection rebuilds one in O(resident
runs). Clean victims drop with no IO; dirty ones ride the buffered
background write class, so a frame shortfall on the fault path is covered
instantly and never waits out a media write.

A context whose activity score stays under the dormancy threshold for
enough consecutive windows is snapshotted (its hottest resident runs, up
to quota) and left to be evicted by pressure. The first touch after that
prefetches the snapshot back and the context rejoins the active set once
the prefetch lands.
"""

from heapq import heapify, heappop, heappush

from .core import SimulationError
from .memory import (
    DRAM, FLASH, INFLIGHT, TO_DRAM, PageList,
    ACTIVE, DORMANT, ACTIVATING,
)
from .media import EVICT, PREFETCH
from .swap import AccessResult

# Stored in an in-flight prefetched run's `prefetched` field once a fault
# has shared its read: the read is credited as a prefetch hit once, and the
# run lands as touched. The mark lives and dies with the run.
HIT_IN_FLIGHT = "hit in flight"

# After a selection a victim index may hold this many heap and wheel
# entries per listed run, plus INDEX_SLACK, before it is dropped and rebuilt
# at the next selection. Its `changed` runs are all listed, so it never
# holds more than (INDEX_ENTRIES_PER_RUN + 1) entries per listed run plus
# the slack.
INDEX_ENTRIES_PER_RUN = 3
INDEX_SLACK = 64


class VictimIndex:
    """One context's listed runs in victim order, kept between selections.

    `heap` holds (level, freq, live, lo, seq, cohort) entries; live is False
    once the run's expiry has passed, so expired runs come first within a
    (level, freq) group. An entry is stale, and skipped when popped, once
    its run has left the level lists or changed level, freq or lo. The
    policy records each such change in `changed`; `catch_up` pushes fresh
    entries for those runs. `wheel` holds (expire, seq, cohort) for every
    run pushed as live, so `catch_up` can push the runs whose expiry has
    passed again as expired. A selection at an earlier time than the last
    one may pop an expired claim that no longer holds; the selection
    re-pushes that run as live.
    """

    __slots__ = ("heap", "wheel", "changed", "seq")

    def __init__(self, levels, t):
        heap, wheel = [], []
        seq = 0
        for level, plist in enumerate(levels):
            c = plist.head
            while c is not None:
                live = c.expire > t
                heap.append((level, c.freq, live, c.lo, seq, c))
                if live:
                    wheel.append((c.expire, seq, c))
                seq += 1
                c = c.next
        heapify(heap)
        heapify(wheel)
        self.heap = heap
        self.wheel = wheel
        self.changed = {}       # runs re-keyed since the last selection
        self.seq = seq

    def push(self, c, t):
        seq = self.seq
        self.seq = seq + 1
        live = c.expire > t
        heappush(self.heap, (c.level, c.freq, live, c.lo, seq, c))
        if live:
            heappush(self.wheel, (c.expire, seq, c))

    def catch_up(self, t):
        for c in self.changed:
            self.push(c, t)
        self.changed.clear()
        wheel = self.wheel
        while wheel and wheel[0][0] <= t:
            expire, _, c = heappop(wheel)
            if c.owner is not None and c.expire == expire:
                self.push(c, t)

    def size(self):
        return len(self.heap) + len(self.wheel) + len(self.changed)


class DmxPolicy:
    name = "dmx"

    def __init__(self, sim, model, device, levels=8, lifetime_us=100_000,
                 window_us=100_000, alpha=0.3, dormant_threshold=1.0,
                 dormant_windows=5, floor_pages=64, reserve_frac=0.02,
                 fault_overhead_us=0):
        self.sim = sim
        self.model = model
        self.device = device
        self.levels = levels
        self.lifetime_us = lifetime_us
        self.window_us = window_us
        self.alpha = alpha
        self.dormant_threshold = dormant_threshold
        self.dormant_windows = dormant_windows
        self.floor_pages = floor_pages
        self.reserve = int(model.dram_pages * reserve_frac)
        self.fault_overhead_us = fault_overhead_us
        self.contexts = []            # registration order, deterministic
        self._expiry = {}             # window index -> [cohort, ...]
        self._victim_index = {}       # context -> VictimIndex
        self.counters = {
            "demand_faults": 0,
            "fault_clusters": 0,
            "evictions": 0,
            "prefetch_issued": 0,
            "prefetch_landed": 0,
            "prefetch_hits": 0,
            "mispredictions": 0,
            "demand_evict_waits": 0,
            "emergency_reclaims": 0,
        }
        self.access_log = None

    # -- context management ------------------------------------------------

    def register(self, ctx):
        ctx.levels = [PageList() for _ in range(self.levels)]
        self.contexts.append(ctx)
        self.rebalance_quotas()
        return ctx

    def on_teardown(self, ctx):
        for c in set(ctx.pages.values()):
            if c.tier == DRAM and c.prefetched:
                self.counters["mispredictions"] += c.pages()
        self.contexts.remove(ctx)
        self._victim_index.pop(ctx, None)
        self.model.teardown(ctx)
        self.rebalance_quotas()

    # -- frequency queues --------------------------------------------------

    def _wheel_add(self, c):
        key = -(-c.expire // self.window_us)
        self._expiry.setdefault(key, []).append(c)

    def _mark_changed(self, ctx, c):
        index = self._victim_index.get(ctx)
        if index is not None:
            index.changed[c] = None

    def _enqueue(self, ctx, c, t):
        c.level = 0
        c.freq = 1
        c.expire = t + self.lifetime_us
        ctx.levels[0].append(c)
        self._wheel_add(c)
        self._mark_changed(ctx, c)

    def _record_access(self, ctx, c, t):
        c.freq += 1
        new_level = c.level
        while new_level < self.levels - 1 and c.freq >= (1 << (new_level + 1)):
            new_level += 1
        if new_level != c.level:
            c.owner.remove(c)
            c.level = new_level
            ctx.levels[new_level].append(c)
        c.expire = t + self.lifetime_us
        self._wheel_add(c)
        index = self._victim_index.get(ctx)     # _mark_changed, inlined: hot
        if index is not None:
            index.changed[c] = None
        ctx.window_count += c.pages()

    def _expire_sweep(self, t):
        idx = t // self.window_us
        due = sorted(k for k in self._expiry if k <= idx)
        if due:
            self._victim_index.clear()    # too many re-keys to note one by one
        for key in due:
            for c in self._expiry.pop(key):
                if (c.tier != DRAM or c.owner is None or c.expire > t
                        or not c.ctx.alive):
                    continue  # evicted, split away, or touched again
                if c.level > 0:
                    c.owner.remove(c)
                    c.level -= 1
                    c.ctx.levels[c.level].append(c)
                c.freq = 1 << c.level
                c.expire = t + self.lifetime_us
                self._wheel_add(c)

    # -- quotas and activity -----------------------------------------------

    def rebalance_quotas(self):
        live = [ctx for ctx in self.contexts if ctx.alive]
        if not live:
            return
        distributable = (self.model.dram_pages - self.reserve
                         - self.floor_pages * len(live))
        if distributable < 0:
            distributable = 0
        total = sum(ctx.score for ctx in live)
        if total <= 0.0:
            share = distributable // len(live)
            for ctx in live:
                ctx.quota = self.floor_pages + share
        else:
            for ctx in live:
                ctx.quota = self.floor_pages + int(distributable * ctx.score / total)

    def _close_windows(self, t):
        for ctx in self.contexts:
            ctx.score = self.alpha * ctx.window_count + (1 - self.alpha) * ctx.score
            ctx.window_count = 0
            if ctx.score < self.dormant_threshold:
                ctx.low_windows += 1
            else:
                ctx.low_windows = 0
            if ctx.state == ACTIVE and ctx.low_windows >= self.dormant_windows:
                ctx.state = DORMANT
                ctx.hot_set = self._snapshot_hot_set(ctx)

    def _snapshot_hot_set(self, ctx):
        """Resident runs ranked by (level desc, freq desc), capped at the
        context's current quota. Stored as plain ranges: the cohorts will
        move under us while the context sleeps."""
        ranked = []
        for level in range(self.levels - 1, -1, -1):
            ranked.extend(sorted(ctx.levels[level], key=lambda c: (-c.freq, c.lo)))
        ranges = []
        budget = ctx.quota
        for c in ranked:
            if budget <= 0:
                break
            take = min(budget, c.pages())
            ranges.append((c.lo, c.lo + take))
            budget -= take
        return ranges

    # -- eviction ----------------------------------------------------------

    def _victims_from(self, ctx, allow, t, dirty_out):
        index = self._victim_index.get(ctx)
        if index is None:
            index = self._victim_index[ctx] = VictimIndex(ctx.levels, t)
        else:
            index.catch_up(t)
        heap = index.heap
        held = []
        taken = 0
        while taken < allow and heap:
            entry = heappop(heap)
            level, freq, live, lo, _, c = entry
            if (c.owner is None or c.lo != lo or c.freq != freq
                    or c.level != level):
                continue                    # stale
            if live != (c.expire > t):
                index.push(c, t)            # claimed at another t
                continue
            if c.io is not None:
                held.append(entry)          # skipped this time only
                continue
            take = min(c.pages(), allow - taken)
            piece = self.model.extract(c, c.lo, c.lo + take)
            piece.owner.remove(piece)
            if piece is not c:
                index.push(c, t)            # c keeps the rest of the run
            taken += take
            if piece.dirty:
                dirty_out.append(piece)
            else:
                if piece.prefetched:
                    self.counters["mispredictions"] += piece.pages()
                    piece.prefetched = False
                self.model.transition(piece, FLASH)
                self.counters["evictions"] += piece.pages()
        for entry in held:
            heappush(heap, entry)
        listed = sum(plist.cohorts for plist in ctx.levels)
        if len(heap) + len(index.wheel) > INDEX_ENTRIES_PER_RUN * listed + INDEX_SLACK:
            del self._victim_index[ctx]
        return taken

    def _take_victims(self, need, t):
        """Pick up to `need` victim pages and push any dirty ones into one
        background write. Starts with the most over-quota contexts; if the
        shortfall persists (nobody over quota but DRAM full) it falls back
        to the largest residents."""
        dirty = []
        got = 0
        overs = sorted(
            (ctx for ctx in self.contexts if ctx.resident > ctx.quota),
            key=lambda ctx: (ctx.quota - ctx.resident, str(ctx.cid)))
        for ctx in overs:
            if got >= need:
                break
            allow = min(need - got, ctx.resident - ctx.quota)
            got += self._victims_from(ctx, allow, t, dirty)
        if got < need:
            for ctx in sorted(self.contexts,
                              key=lambda ctx: (-ctx.resident, str(ctx.cid))):
                if got >= need:
                    break
                got += self._victims_from(ctx, need - got, t, dirty)
        if dirty:
            self.device.submit_background(EVICT, dirty, t, cb=self._on_evicted)
        return got

    def _on_evicted(self, req, landed, t):
        for c in landed:
            if c.prefetched:
                self.counters["mispredictions"] += c.pages()
                c.prefetched = False
            self.counters["evictions"] += c.pages()

    def _ensure_frames(self, n, t):
        """Make room for n inbound pages without blocking: clean victims drop
        on the spot, dirty ones free their frames the moment the buffered
        write is queued."""
        short = n - self.model.free_frames()
        if short <= 0:
            return
        self.counters["emergency_reclaims"] += 1
        self._take_victims(short, t)
        if self.model.free_frames() < n:
            raise SimulationError(
                f"no evictable frames: need {n}, free {self.model.free_frames()}")

    # -- dormancy and reactivation -----------------------------------------

    def _plan_reactivation(self, ctx, t):
        budget = ctx.quota - ctx.resident
        pieces = []
        pages = 0
        for lo, hi in ctx.hot_set or []:
            cur = lo
            while cur < hi and pages < budget:
                c = self.model.lookup(ctx, cur)
                if c is None:
                    cur += 1
                    continue
                span = min(c.hi, hi, cur + budget - pages)
                if c.tier == FLASH and c.io is None:
                    piece = self.model.extract(c, cur, span)
                    pieces.append(piece)
                    pages += piece.pages()
                cur = span
        if pieces:
            self.counters["prefetch_issued"] += pages
            handle = self.device.submit_background(PREFETCH, pieces, t,
                                                   cb=self._on_prefetched)
            handle.wait(lambda tt, c=ctx: self._finish_activation(c))
        else:
            self._finish_activation(ctx)

    def _finish_activation(self, ctx):
        if ctx.alive and ctx.state == ACTIVATING:
            ctx.state = ACTIVE
            ctx.hot_set = None
            ctx.low_windows = 0

    def _wake(self, ctx, t):
        ctx.state = ACTIVATING
        self._plan_reactivation(ctx, t)

    def _on_prefetched(self, req, landed, t):
        for c in landed:
            c.prefetched = c.prefetched is not HIT_IN_FLIGHT
            self.counters["prefetch_landed"] += c.pages()
            self._enqueue(c.ctx, c, t)

    def _on_demand_landed(self, req, landed, t):
        for c in landed:
            self._enqueue(c.ctx, c, t)

    # -- the periodic tick -------------------------------------------------

    def tick(self, t):
        self._expire_sweep(t)
        self._close_windows(t)
        self.rebalance_quotas()
        free = self.model.free_frames()
        if free < self.reserve:
            self._take_victims(2 * self.reserve - free, t)

    # -- interface used by workloads ---------------------------------------

    def on_allocate(self, ctx, lo, hi, t):
        n = hi - lo
        woke = ctx.state == DORMANT
        self._ensure_frames(n, t)
        c = self.model.create(ctx, lo, hi, DRAM, dirty=True)
        self._enqueue(ctx, c, t)
        ctx.window_count += n
        if woke:
            self._wake(ctx, t)
        self._log(t, ctx, lo, hi, "w")
        return t

    def access_range(self, ctx, lo, hi, t, batch=False, write=False) -> AccessResult:
        self._log(t, ctx, lo, hi, "w" if write else "r")
        # a dormant context wakes once the walk is done: by then the touched
        # pages are in flight as demand reads, so the reactivation prefetch
        # covers exactly the rest of the hot set (a wait-exit leaves the
        # context dormant and the resumed walk finishes the job)
        woke = ctx.state == DORMANT
        t_now = t
        cur = lo
        while cur < hi:
            c = self.model.lookup(ctx, cur)
            if c is None:
                raise SimulationError(f"access to unallocated page {ctx.cid!r}:{cur}")
            span = min(c.hi, hi)
            if c.tier == DRAM:
                end = c.hi
                piece = self.model.extract(c, cur, span)
                # the piece itself is re-keyed by _record_access below
                if piece is not c:
                    if c.lo == span:
                        self._mark_changed(ctx, c)      # the hit took c's head
                    elif span < end:
                        self._mark_changed(ctx, ctx.pages[span])  # new right part
                if piece.prefetched:
                    self.counters["prefetch_hits"] += piece.pages()
                    piece.prefetched = False
                if write:
                    piece.dirty = True
                self._record_access(ctx, piece, t_now)
                cur = span
            elif c.tier == INFLIGHT:
                if c.dir == TO_DRAM:
                    pages = span - cur
                    if c.io.klass == PREFETCH:
                        if c.prefetched is not HIT_IN_FLIGHT:
                            self.counters["prefetch_hits"] += pages
                            c.prefetched = HIT_IN_FLIGHT
                    else:
                        self.counters["demand_faults"] += pages
                        self.counters["fault_clusters"] += 1
                    ctx.window_count += pages
                    t_now = max(t_now, c.io.done_t)
                    cur = span
                else:
                    # victim write still buffered or on the wire; wait it
                    # out, then fault the page back in
                    self.counters["demand_evict_waits"] += 1
                    return AccessResult(t_now, wait=c.io.handle, next_idx=cur)
            elif c.tier == FLASH:
                run_end = span if batch else cur + 1
                pieces = [self.model.extract(c, cur, run_end)]
                if batch:
                    while run_end < hi:
                        nxt = self.model.lookup(ctx, run_end)
                        if nxt is None or nxt.tier != FLASH:
                            break
                        stop = min(nxt.hi, hi)
                        pieces.append(self.model.extract(nxt, run_end, stop))
                        run_end = stop
                pages = run_end - cur
                t_now += self.fault_overhead_us
                self._ensure_frames(pages, t_now)
                for p in pieces:
                    if write:
                        p.dirty = True
                read = self.device.submit_demand(pieces, t_now,
                                                 cb=self._on_demand_landed)
                self.counters["demand_faults"] += pages
                self.counters["fault_clusters"] += 1
                ctx.window_count += pages
                t_now = read.done_t
                cur = run_end
            else:
                raise SimulationError(f"access to dead cohort {c!r}")
        if woke and ctx.state == DORMANT:
            self._wake(ctx, t)
        return AccessResult(t_now)

    def _log(self, t, ctx, lo, hi, op):
        if self.access_log is not None:
            for idx in range(lo, hi):
                self.access_log.append((t, ctx.cid, idx, op))

    def snapshot_counters(self) -> dict:
        out = dict(self.counters)
        out["writeback_pages"] = self.device.stats["pages_written"]
        return out

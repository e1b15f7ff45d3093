"""Predictive tiering policy: per-context multi-queue hotness tracking,
activity-scored DRAM quotas, dormancy detection with hot-set snapshots,
reactivation prefetch, and background eviction kept off the access path.

Per context (a DmxContext record in `DmxPolicy.contexts`, registration
order), resident pages sit in M frequency-leveled queues:
promotion to level L+1 once freq >= 2^(L+1); going untouched for one
lifetime demotes a run one level and resets freq to exactly 2^(new level).
A periodic tick (one activity window) runs expiry, closes EWMA activity
windows, recomputes quotas (per-context floor plus a share of the rest
proportional to score), and, when free frames dip under the reserve,
queues eviction write-backs to refill headroom to twice the reserve.

Aging: a tick at t re-arms every run whose expiry is at or below its
cutoff, (t // window) * window, to t + lifetime, demoting it one level on
the way. A run's stored `expire` is the value it was last armed with (on
landing, on a touch, or by a demotion). A level-0 run at freq 1 has nothing
to demote or reset, so aging leaves it alone and nothing reads its stored
expiry. The expiry wheel holds only the runs a tick can demote or reset,
those with level > 0 or freq != 1: each listed one once, in the bucket of
its expiry window. A sweep therefore visits only runs that demote, and
ages each of them exactly. A touched run moves to the bucket of its new
expiry; a run demoted to level 0 or evicted leaves the wheel. So
the wheel stays at one entry per such run even when no tick runs.

Victim order: most-over-quota context first; within a context, each level
list is in MQ's LRU order (Zhou, Philbin and Li, USENIX ATC 2001), so the
victims are the heads of the lowest non-empty level, then the next level's.
A run joins the tail of its level when it lands, when a touch hits it
(promoted or not) and when aging demotes it, and leaves its list when it is
taken as a victim, so the lists hold exactly the DRAM runs, none with IO
pending.
Clean victims drop with no IO; dirty ones ride the buffered background
write class, so a frame shortfall on the fault path is covered instantly
and never waits out a media write.

A context whose activity score stays under the dormancy threshold for
enough consecutive windows is snapshotted (its hottest resident runs, up
to quota) and left to be evicted by pressure. The first touch after that
prefetches the snapshot back and the context rejoins the active set once
the prefetch lands.

Accesses run the page walk shared with swap (policy.py); the hooks here
re-arm a hit run, take victims for a fault cluster, enqueue landed reads
and count walked pages toward the activity window.
"""

from .core import SimulationError
from .memory import DRAM, FLASH, PageList
from .media import EVICT, PREFETCH
from .policy import HIT_IN_FLIGHT, Policy

ACTIVE = "active"
DORMANT = "dormant"
ACTIVATING = "activating"


class DmxContext:
    """dmx's state for one registered context. `key`, the context id as a
    string, breaks ties between contexts in victim order."""

    __slots__ = ("ctx", "key", "levels", "quota", "score", "window_count",
                 "low_windows", "state", "hot_set")

    def __init__(self, ctx, levels):
        self.ctx = ctx
        self.key = str(ctx.cid)
        self.levels = [PageList() for _ in range(levels)]
        self.quota = 0
        self.score = 0.0
        self.window_count = 0
        self.low_windows = 0
        self.state = ACTIVE
        self.hot_set = None


class DmxPolicy(Policy):
    name = "dmx"

    def __init__(self, model, device, levels=8, lifetime_us=100_000,
                 window_us=100_000, alpha=0.3, dormant_threshold=1.0,
                 dormant_windows=5, floor_pages=64, reserve_frac=0.02,
                 fault_overhead_us=0):
        super().__init__(model, device, fault_overhead_us)
        self.levels = levels
        self.lifetime_us = lifetime_us
        self.window_us = window_us
        self.alpha = alpha
        self.dormant_threshold = dormant_threshold
        self.dormant_windows = dormant_windows
        self.floor_pages = floor_pages
        self.reserve = int(model.dram_pages * reserve_frac)
        self.contexts = {}            # Context -> DmxContext, registration order
        self._expiry = {}             # window index -> {cohort: None}
        self.counters.update(prefetch_landed=0, demand_evict_waits=0,
                             emergency_reclaims=0)

    # -- context management ------------------------------------------------

    def register(self, ctx):
        self.contexts[ctx] = DmxContext(ctx, self.levels)
        self.rebalance_quotas()
        return ctx

    # -- frequency queues --------------------------------------------------

    def _wheel_add(self, c):
        key = -(-c.expire // self.window_us)
        self._expiry.setdefault(key, {})[c] = None

    def _wheel_drop(self, c):
        key = -(-c.expire // self.window_us)
        bucket = self._expiry[key]
        del bucket[c]
        if not bucket:
            del self._expiry[key]

    def _enqueue(self, ctx, c, t):
        c.level = 0
        c.freq = 1
        c.expire = t + self.lifetime_us
        self.contexts[ctx].levels[0].append(c)

    def _on_hit(self, ctx, c, t, split):
        """Credit a prefetch, count a touch of c at t, re-arm it and move it
        to the tail of its (maybe new) level. `split` says c was just cut
        off a larger run, so it holds no wheel entry yet."""
        if c.prefetched:
            self.counters["prefetch_hits"] += c.hi - c.lo
            c.prefetched = False
        expire = t + self.lifetime_us
        window = self.window_us
        level = c.level
        freq = c.freq
        armed = not split and (level or freq != 1)
        stays = armed and -(-expire // window) == -(-c.expire // window)
        if armed and not stays:
            self._wheel_drop(c)
        freq += 1
        c.freq = freq
        top = self.levels - 1
        if level < top and freq >= 2 << level:
            level += 1
            while level < top and freq >= 2 << level:
                level += 1
            c.owner.remove(c)
            c.level = level
            self.contexts[ctx].levels[level].append(c)
        else:
            c.owner.move_to_tail(c)
        c.expire = expire
        if not stays:                           # else its bucket is unchanged
            self._wheel_add(c)

    def _on_split(self, ctx, c, span, end):
        """An interior hit leaves a new right part [span, end) aging as c
        did; the hit piece itself is re-armed by _on_hit."""
        if c.lo != span and span != end:
            right = ctx.pages[span]
            if right.level or right.freq != 1:
                self._wheel_add(right)

    def _on_walked(self, ctx, lo, end, t, waited):
        """The walked pages [lo, end) count toward the window (no tick runs
        inside one walk). A dormant context wakes once a range of a walk
        completes, before the walk touches its next range: by then the
        range's pages are in flight as demand reads, so the reactivation
        prefetch covers exactly the rest of the hot set. A wait-exit leaves
        it dormant; the resumed walk finishes the job."""
        rec = self.contexts[ctx]
        if waited:              # stopped at a victim still draining
            self.counters["demand_evict_waits"] += 1
        elif rec.state == DORMANT:
            self._wake(rec, t)
        rec.window_count += end - lo

    def _expire_sweep(self, t):
        idx = t // self.window_us
        rearm = t + self.lifetime_us
        wheel = self._expiry
        for key in sorted(k for k in wheel if k <= idx):
            for c in wheel.pop(key):
                if c.level > 0:
                    c.owner.remove(c)
                    c.level -= 1
                    self.contexts[c.ctx].levels[c.level].append(c)
                c.freq = 1 << c.level
                c.expire = rearm
                if c.level > 0:
                    self._wheel_add(c)

    # -- quotas and activity -----------------------------------------------

    def rebalance_quotas(self):
        recs = self.contexts.values()
        if not recs:
            return
        distributable = (self.model.dram_pages - self.reserve
                         - self.floor_pages * len(recs))
        if distributable < 0:
            distributable = 0
        total = sum(rec.score for rec in recs)
        if total <= 0.0:
            share = distributable // len(recs)
            for rec in recs:
                rec.quota = self.floor_pages + share
        else:
            for rec in recs:
                rec.quota = self.floor_pages + int(distributable * rec.score / total)

    def _close_windows(self, t):
        for rec in self.contexts.values():
            rec.score = self.alpha * rec.window_count + (1 - self.alpha) * rec.score
            rec.window_count = 0
            if rec.score < self.dormant_threshold:
                rec.low_windows += 1
            else:
                rec.low_windows = 0
            if rec.state == ACTIVE and rec.low_windows >= self.dormant_windows:
                rec.state = DORMANT
                rec.hot_set = self._snapshot_hot_set(rec)

    def _snapshot_hot_set(self, rec):
        """Resident runs ranked by (level desc, freq desc), capped at the
        context's current quota. Stored as plain ranges: the cohorts will
        move under us while the context sleeps."""
        ranked = []
        for level in range(self.levels - 1, -1, -1):
            ranked.extend(sorted(rec.levels[level], key=lambda c: (-c.freq, c.lo)))
        ranges = []
        budget = rec.quota
        for c in ranked:
            if budget <= 0:
                break
            take = min(budget, c.hi - c.lo)
            ranges.append((c.lo, c.lo + take))
            budget -= take
        return ranges

    # -- eviction ----------------------------------------------------------

    def _victims_from(self, rec, allow, t, dirty_out):
        """Take up to `allow` pages from the heads of rec's level lists,
        lowest level first; a run that holds more than the rest of `allow`
        gives up its first pages."""
        taken = 0
        for plist in rec.levels:
            if plist.head is None:
                continue
            for c in plist:
                if taken == allow:
                    return taken
                take = min(c.hi - c.lo, allow - taken)
                piece = self.model.extract(c, c.lo, c.lo + take)
                piece.owner.remove(piece)
                if piece is c and (c.level or c.freq != 1):
                    self._wheel_drop(c)
                taken += take
                if piece.dirty:
                    dirty_out.append(piece)
                else:
                    self.model.transition(piece, FLASH)
                    self._on_evicted(None, (piece,), t)     # out now, no write
        return taken

    def _take_victims(self, need, t):
        """Pick up to `need` victim pages and push any dirty ones into one
        background write. Starts with the most over-quota contexts, ties by
        `key`; if the shortfall persists (nobody over quota but DRAM full)
        it falls back to the largest residents, ties by `key` too. Each
        order is one sort of (sort key, `key`, registration index, rec)
        tuples: the index keeps registration order between two contexts
        whose ids have the same string, and no two records are compared."""
        dirty = []
        got = 0
        # one sort serves the whole pass: taking from a context moves no
        # other context's key
        overs = [(rec.quota - rec.ctx.resident, rec.key, i, rec)
                 for i, rec in enumerate(self.contexts.values())
                 if rec.ctx.resident > rec.quota]
        overs.sort()
        for under, _, _, rec in overs:
            if got >= need:
                break
            allow = min(need - got, -under)
            got += self._victims_from(rec, allow, t, dirty)
        if got < need:
            largest = [(-rec.ctx.resident, rec.key, i, rec)
                       for i, rec in enumerate(self.contexts.values())]
            largest.sort()
            for _, _, _, rec in largest:
                if got >= need:
                    break
                got += self._victims_from(rec, need - got, t, dirty)
        if dirty:
            self.device.submit_background(EVICT, dirty, t, cb=self._on_evicted)
        return got

    def _on_evicted(self, req, landed, t):
        for c in landed:
            if c.prefetched:
                self.counters["mispredictions"] += c.hi - c.lo
                c.prefetched = False
            self.counters["evictions"] += c.hi - c.lo

    def _make_room(self, pages, t):
        self._ensure_frames(pages, t)
        return t

    def _ensure_frames(self, n, t):
        """Make room for n inbound pages without blocking: clean victims drop
        on the spot, dirty ones free their frames the moment the buffered
        write is queued. Queuing that write may dispatch a prefetch that was
        waiting for frames and takes the ones just freed, so take victims
        until the frames are there or a round finds none."""
        short = n - self.model.free_frames()
        if short <= 0:
            return
        self.counters["emergency_reclaims"] += 1
        while short > 0:
            if self._take_victims(short, t) == 0:
                raise SimulationError(
                    f"no evictable frames: need {n}, free {self.model.free_frames()}")
            short = n - self.model.free_frames()

    # -- dormancy and reactivation -----------------------------------------

    def _wake(self, rec, t):
        """Prefetch a dormant context's hot set back, up to its quota."""
        rec.state = ACTIVATING
        budget = rec.quota - rec.ctx.resident
        pieces = []
        pages = 0
        for lo, hi in rec.hot_set or []:
            cur = lo
            while cur < hi and pages < budget:
                c = self.model.lookup(rec.ctx, cur)
                if c is None:
                    cur += 1
                    continue
                span = min(c.hi, hi, cur + budget - pages)
                if c.tier == FLASH and c.io is None:
                    pieces.append(self.model.extract(c, cur, span))
                    pages += span - cur
                cur = span
        if pieces:
            self.counters["prefetch_issued"] += pages
            handle = self.device.submit_background(PREFETCH, pieces, t,
                                                   cb=self._on_prefetched)
            handle.wait(lambda tt, r=rec: self._finish_activation(r))
        else:
            self._finish_activation(rec)

    def _finish_activation(self, rec):
        if rec.state == ACTIVATING:
            rec.state = ACTIVE
            rec.hot_set = None
            rec.low_windows = 0

    def _on_prefetched(self, req, landed, t):
        for c in landed:
            c.prefetched = c.prefetched is not HIT_IN_FLIGHT
            self.counters["prefetch_landed"] += c.hi - c.lo
            self._enqueue(c.ctx, c, t)

    def _on_landed(self, req, landed, t):
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
        rec = self.contexts[ctx]
        woke = rec.state == DORMANT
        self._ensure_frames(n, t)
        c = self.model.create(ctx, lo, hi, DRAM, dirty=True)
        self._enqueue(ctx, c, t)
        rec.window_count += n
        if woke:
            self._wake(rec, t)
        if self.access_log is not None:
            self._log(t, ctx, lo, hi, "w")
        return t

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
to demote, so ticks leave it alone and its effective expiry (the one the
eager rule would give) is derived from the stored one when read (see
AgingLog). The expiry wheel holds only the runs a tick can demote or reset,
those with level > 0 or freq != 1: each listed one once, in the bucket of
its expiry window. A sweep therefore visits only runs that demote. A
touched run moves to the bucket of its new expiry; a run demoted to level
0, evicted or torn down leaves the wheel. So the wheel stays at one entry
per such run even when no tick runs.

Victim order: most-over-quota context first, then lowest level, lowest
freq, expired runs before live ones, lowest page index; runs with IO
pending are skipped. Each context keeps a victim index across selections
(see VictimIndex): a heap in that order plus a heap of expiry times. Every
change to a listed run's level, freq, expiry or first page is noted as it
happens, and the next selection re-keys just those runs, so taking k
victims costs O((k + changed runs) log n) instead of a sort of the whole
level. Each tick moves the effective expiry of every idle level-0 run, too
many changes to note one by one: it drops every index, and the next
selection rebuilds one in O(resident runs). Clean victims drop with no IO;
dirty ones ride the buffered background write class, so a frame shortfall
on the fault path is covered instantly and never waits out a media write.

A context whose activity score stays under the dormancy threshold for
enough consecutive windows is snapshotted (its hottest resident runs, up
to quota) and left to be evicted by pressure. The first touch after that
prefetches the snapshot back and the context rejoins the active set once
the prefetch lands.

Accesses run the page walk shared with swap (policy.py); the hooks here
re-arm a hit run, take victims for a fault cluster, enqueue landed reads
and count walked pages toward the activity window.
"""

from bisect import bisect_left
from collections import deque
from heapq import heapify, heappop, heappush
from operator import attrgetter

from .core import SimulationError
from .memory import DRAM, FLASH, PageList
from .media import EVICT, PREFETCH
from .policy import HIT_IN_FLIGHT, Policy

# After a selection a victim index may hold this many heap and wheel
# entries per listed run, plus INDEX_SLACK, before it is dropped and rebuilt
# at the next selection. Its `changed` runs are all listed, so it never
# holds more than (INDEX_ENTRIES_PER_RUN + 1) entries per listed run plus
# the slack.
INDEX_ENTRIES_PER_RUN = 3
INDEX_SLACK = 64

ACTIVE = "active"
DORMANT = "dormant"
ACTIVATING = "activating"

_cohorts = attrgetter("cohorts")


def _over_quota_order(rec):
    """The victim order of over-quota contexts: most over quota first, ties
    by the context id as a string."""
    return rec.quota - rec.ctx.resident, rec.key


class DmxContext:
    """dmx's state for one registered context. Its victim index is None until
    a selection builds one, and every tick drops it. `key`, the context id as
    a string, breaks ties between contexts in victim order."""

    __slots__ = ("ctx", "key", "levels", "quota", "score", "window_count",
                 "low_windows", "state", "hot_set", "index")

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
        self.index = None


class AgingLog:
    """Every tick's cutoff and re-arm value, so that level-0 runs age lazily.

    A tick at t re-arms each run whose expiry is at or below its cutoff,
    (t // window) * window, to t + lifetime. A level-0 run at freq 1 keeps
    the expiry it was last armed with, and `aged` works out the one it would
    carry had every tick re-armed it: from the first tick whose cutoff
    reaches the stored expiry, take that tick's re-arm value, move on to the
    first later tick whose cutoff reaches that value, and so on. `to` maps
    each tick to the last tick of its chain so far (path-compressed); `open`
    lists the ticks that still end a chain, oldest first. Once one chain is
    left, every expiry at or below the last cutoff ages to the last re-arm
    value, and the log keeps that last tick alone; that always holds when
    lifetime <= window, so the log then stays at one entry.

    Armings and ticks must come in time order, as they do in a run, so that
    a run armed after a tick holds an expiry above that tick's cutoff.
    """

    __slots__ = ("last_cutoff", "cutoffs", "rearms", "to", "open")

    def __init__(self):
        self.last_cutoff = -1       # below every expiry: nothing to age yet
        self.cutoffs = []
        self.rearms = []
        self.to = []
        self.open = deque()

    def record(self, cutoff, rearm):
        rearms = self.rearms
        if rearms and rearm < rearms[-1]:
            raise SimulationError("dmx tick earlier than the previous one")
        k = len(rearms)
        self.cutoffs.append(cutoff)
        rearms.append(rearm)
        to = self.to
        to.append(k)
        chains = self.open
        while chains and rearms[chains[0]] <= cutoff:
            to[chains.popleft()] = k
        chains.append(k)
        self.last_cutoff = cutoff
        if k and len(chains) == 1:
            # every earlier chain ends at this tick: keep it alone
            self.cutoffs = [cutoff]
            self.rearms = [rearm]
            self.to = [0]
            chains[0] = 0

    def aged(self, expire):
        """The effective expiry of a run stored with expire <= last_cutoff."""
        if len(self.open) == 1:
            return self.rearms[-1]
        to = self.to
        k = bisect_left(self.cutoffs, expire)
        root = to[k]
        while to[root] != root:
            root = to[root]
        while to[k] != root:
            to[k], k = root, to[k]
        return self.rearms[root]


class VictimIndex:
    """One context's listed runs in victim order, kept between selections.

    `heap` holds (level, freq, live, lo, seq, cohort) entries; live is False
    once the run's effective expiry (see AgingLog) has passed, so expired
    runs come first within a (level, freq) group. An entry is stale, and
    skipped when popped, once its run has left the level lists or changed
    level, freq or lo. The policy records each such change in `changed`;
    `catch_up` pushes fresh entries for those runs. `wheel` holds (effective
    expiry, seq, cohort) for every run pushed as live, so `catch_up` can
    push the runs whose expiry has passed again as expired. No tick falls
    within an index's life (the tick drops every index), so a run's
    effective expiry changes only when the run is re-armed. A selection at
    an earlier time than the last one may pop an expired claim that no
    longer holds; the selection re-pushes that run as live.
    """

    __slots__ = ("heap", "wheel", "changed", "seq", "aging")

    def __init__(self, levels, t, aging):
        heap, wheel = [], []
        seq = 0
        cutoff = aging.last_cutoff
        for level, plist in enumerate(levels):
            c = plist.head
            while c is not None:
                e = c.expire
                if e <= cutoff:
                    e = aging.aged(e)
                live = e > t
                heap.append((level, c.freq, live, c.lo, seq, c))
                if live:
                    wheel.append((e, seq, c))
                seq += 1
                c = c.next
        heapify(heap)
        heapify(wheel)
        self.heap = heap
        self.wheel = wheel
        self.changed = {}       # runs re-keyed since the last selection
        self.seq = seq
        self.aging = aging

    def push(self, c, t):
        seq = self.seq
        self.seq = seq + 1
        e = c.expire
        if e <= self.aging.last_cutoff:
            e = self.aging.aged(e)
        live = e > t
        heappush(self.heap, (c.level, c.freq, live, c.lo, seq, c))
        if live:
            heappush(self.wheel, (e, seq, c))

    def catch_up(self, t):
        for c in self.changed:
            self.push(c, t)
        self.changed.clear()
        wheel = self.wheel
        aging = self.aging
        while wheel and wheel[0][0] <= t:
            expire, _, c = heappop(wheel)
            if c.owner is None:
                continue
            e = c.expire
            if e <= aging.last_cutoff:
                e = aging.aged(e)
            if e == expire:
                self.push(c, t)

    def size(self):
        return len(self.heap) + len(self.wheel) + len(self.changed)


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
        self._aging = AgingLog()
        self.counters.update(prefetch_landed=0, demand_evict_waits=0,
                             emergency_reclaims=0)

    # -- context management ------------------------------------------------

    def register(self, ctx):
        self.contexts[ctx] = DmxContext(ctx, self.levels)
        self.rebalance_quotas()
        return ctx

    def on_teardown(self, ctx):
        for c in ctx.pages.values():
            if c.tier == DRAM and c.prefetched:
                self.counters["mispredictions"] += c.hi - c.lo
        for plist in self.contexts.pop(ctx).levels:
            for c in plist:
                if c.level or c.freq != 1:
                    self._wheel_drop(c)
        self.model.teardown(ctx)
        self.rebalance_quotas()

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
        rec = self.contexts[ctx]
        c.level = 0
        c.freq = 1
        c.expire = t + self.lifetime_us
        rec.levels[0].append(c)
        if rec.index is not None:
            rec.index.changed[c] = None

    def _on_hit(self, ctx, c, t, split):
        """Credit a prefetch, count a touch of c at t and re-arm it. `split`
        says c was just cut off a larger run, so it holds no wheel entry yet."""
        if c.prefetched:
            self.counters["prefetch_hits"] += c.hi - c.lo
            c.prefetched = False
        rec = self.contexts[ctx]
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
            rec.levels[level].append(c)
        c.expire = expire
        if not stays:                           # else its bucket is unchanged
            self._wheel_add(c)
        if rec.index is not None:
            rec.index.changed[c] = None

    def _on_split(self, ctx, c, span, end):
        # the hit piece itself is re-keyed by _on_hit
        if c.lo != span:                        # else the hit took c's head
            if span == end:
                return                          # the hit took c's tail
            c = ctx.pages[span]                 # the new right part
            if c.level or c.freq != 1:
                self._wheel_add(c)
        index = self.contexts[ctx].index
        if index is not None:
            index.changed[c] = None

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
        self._aging.record(idx * self.window_us, rearm)
        for rec in self.contexts.values():
            rec.index = None            # effective expiries moved: rebuild
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
        aging = self._aging
        index = rec.index
        if index is None:
            index = rec.index = VictimIndex(rec.levels, t, aging)
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
            e = c.expire
            if e <= aging.last_cutoff:
                e = aging.aged(e)
            if live != (e > t):
                index.push(c, t)            # claimed at another t
                continue
            if c.io is not None:
                held.append(entry)          # skipped this time only
                continue
            take = min(c.hi - c.lo, allow - taken)
            piece = self.model.extract(c, c.lo, c.lo + take)
            piece.owner.remove(piece)
            if piece is not c:
                index.push(c, t)            # c keeps the rest of the run
            elif c.level or c.freq != 1:
                self._wheel_drop(c)
            taken += take
            if piece.dirty:
                dirty_out.append(piece)
            else:
                self.model.transition(piece, FLASH)
                self._on_evicted(None, (piece,), t)     # out now, no write
        for entry in held:
            heappush(heap, entry)
        listed = sum(map(_cohorts, rec.levels))
        if len(heap) + len(index.wheel) > INDEX_ENTRIES_PER_RUN * listed + INDEX_SLACK:
            rec.index = None
        return taken

    def _take_victims(self, need, t):
        """Pick up to `need` victim pages and push any dirty ones into one
        background write. Starts with the most over-quota contexts; if the
        shortfall persists (nobody over quota but DRAM full) it falls back
        to the largest residents."""
        dirty = []
        got = 0
        overs = [rec for rec in self.contexts.values() if rec.ctx.resident > rec.quota]
        # one sort serves the whole pass: taking from a context moves no
        # other context's key
        for rec in sorted(overs, key=_over_quota_order):
            if got >= need:
                break
            allow = min(need - got, rec.ctx.resident - rec.quota)
            got += self._victims_from(rec, allow, t, dirty)
        if got < need:
            for rec in sorted(self.contexts.values(), key=lambda rec: (
                    -rec.ctx.resident, rec.key)):
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
        if rec.ctx.alive and rec.state == ACTIVATING:
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
        self._log(t, ctx, lo, hi, "w")
        return t

"""Block device model: fixed per-request latency + bandwidth transfer term.

Two submission paths:
- demand: client-blocking IO. Completion time is computed at submit from the
  slot schedule (reservation), so the blocked client's resume event can be
  scheduled immediately. `not_before` serializes a chained pair (victim
  write-back, then the demand read into the vacated frame).
- background (evict write-back, prefetch read): queued per class, dispatched
  when a slot goes idle. Strict priority: demand holds reservations, then
  evict, then prefetch; FIFO within a class. Dispatch re-validates every
  queued cohort (a page demand-faulted or reclaimed while queued is dropped
  from the request).

Evict write-backs are buffered: victims leave DRAM at submit (the write
buffer holds the data), so their frames are reusable before the media write
finishes. Prefetch reads take frames only at dispatch and stay queued while
DRAM is full.

Requests never exceed batch_pages; larger submissions split.
"""

from collections import deque
from dataclasses import dataclass
from functools import partial

from .core import SimulationError, US_PER_S
from .memory import PAGE_BYTES, DRAM, FLASH, TO_DRAM, TO_FLASH

DEMAND = 0
EVICT = 1
PREFETCH = 2

IOS_STAT = {DEMAND: "demand_ios", EVICT: "evict_ios", PREFETCH: "prefetch_ios"}


@dataclass(frozen=True)
class DeviceProfile:
    name: str
    read_lat_us: int
    write_lat_us: int
    bandwidth_bps: int
    batch_pages: int
    max_inflight: int


PROFILES = {
    "flash": DeviceProfile("flash", 80, 200, 1 * 2**30, 64, 8),
    "disk": DeviceProfile("disk", 4000, 4000, 150 * 2**20, 64, 1),
}


def service_time_us(profile: DeviceProfile, pages: int, write: bool) -> int:
    """Fixed latency once per request plus ceil'd transfer time."""
    if pages <= 0:
        raise SimulationError("service time of an empty request")
    lat = profile.write_lat_us if write else profile.read_lat_us
    num = pages * PAGE_BYTES * US_PER_S
    return lat + -(-num // profile.bandwidth_bps)


class Handle:
    """Aggregates the sub-requests of one submission."""

    __slots__ = ("remaining", "done_t", "done", "_waiters")

    def __init__(self, nreqs, done_t=None):
        self.remaining = nreqs
        self.done_t = done_t    # known at submit for demand IO
        self.done = nreqs == 0
        self._waiters = []

    def wait(self, fn):
        if self.done:
            raise SimulationError("waiting on a completed handle")
        self._waiters.append(fn)

    def _finish_one(self, t):
        self.remaining -= 1
        if self.remaining == 0:
            self.done = True
            if self.done_t is None or t > self.done_t:
                self.done_t = t
            waiters, self._waiters = self._waiters, []
            for fn in waiters:
                fn(t)


class Request:
    __slots__ = ("klass", "write", "cohorts", "pages", "handle", "cb",
                 "done_t")

    def __init__(self, klass, write, cohorts, pages, handle, cb):
        self.klass = klass
        self.write = write
        self.cohorts = cohorts
        self.pages = pages
        self.handle = handle
        self.cb = cb
        self.done_t = None


def _chunk(cohorts, batch, extract):
    """Split a cohort list into whole-request chunks of <= batch pages,
    extracting at the boundary when a cohort straddles it."""
    chunks = []
    cur, cur_pages = [], 0
    queue = list(cohorts)
    i = 0
    while i < len(queue):
        c = queue[i]
        n = c.hi - c.lo
        room = batch - cur_pages
        if n <= room:
            cur.append(c)
            cur_pages += n
            i += 1
        else:
            head = extract(c, c.lo, c.lo + room)
            cur.append(head)
            cur_pages = batch
            # c now holds the remainder and is revisited
        if cur_pages == batch:
            chunks.append((cur, cur_pages))
            cur, cur_pages = [], 0
    if cur:
        chunks.append((cur, cur_pages))
    return chunks


class Device:
    def __init__(self, sim, model, profile: DeviceProfile):
        self.sim = sim
        self.model = model
        self.profile = profile
        self._busy = [0] * profile.max_inflight
        # FIFO per class; a request leaves its queue when it is dispatched
        # or dropped, so the queue holds only what is still waiting
        self._queues = {EVICT: deque(), PREFETCH: deque()}
        self.stats = {
            "demand_ios": 0, "evict_ios": 0, "prefetch_ios": 0,
            "pages_read": 0, "pages_written": 0,
            "busy_us": 0, "dropped_requests": 0,
        }
        self.dispatch_log = None  # sink: (t, klass, evict_q, prefetch_q)

    # -- demand path -------------------------------------------------------

    def submit_demand(self, cohorts, t, write=False, not_before=0, cb=None) -> Handle:
        """Reserve slots now; returns a handle with done_t already known.
        Cohorts go in flight immediately."""
        pages = sum(c.hi - c.lo for c in cohorts)
        if pages == 0:
            return Handle(0, done_t=t)
        batch = self.profile.batch_pages
        chunks = ([(cohorts, pages)] if pages <= batch
                  else _chunk(cohorts, batch, self.model.extract))
        handle = Handle(len(chunks))
        last_done = 0   # of this submission: other slots may hold later IO
        for chunk, n in chunks:
            req = Request(DEMAND, write, chunk, n, handle, cb)
            for c in chunk:
                c.io = req
            slot = self._least_busy_slot()
            done = self._start(req, slot, max(t, not_before, self._busy[slot]))
            last_done = max(last_done, done)
        handle.done_t = last_done
        return handle

    def _start(self, req, slot, start):
        """Start req in `slot` at `start`: its cohorts go in flight and its
        completion is scheduled. Returns the done time."""
        tier = TO_FLASH if req.write else TO_DRAM
        for c in req.cohorts:
            if c.owner is not None:
                c.owner.remove(c)
            if c.tier != tier:              # write-backs went TO_FLASH at submit
                self.model.transition(c, tier)
        svc = service_time_us(self.profile, req.pages, req.write)
        done = start + svc
        self._busy[slot] = done
        req.done_t = done
        self.stats["busy_us"] += svc
        self.sim.schedule(done, "io-done", partial(self._complete, req))
        return done

    # -- background path ---------------------------------------------------

    def submit_background(self, klass, cohorts, t, cb=None) -> Handle:
        """Queue evict write-backs or prefetch reads. Evict victims go
        inflight right away (buffered write, frame free now); prefetch
        sources stay on flash until dispatch, marked with the pending
        request so other planners skip them."""
        if klass not in (EVICT, PREFETCH):
            raise SimulationError(
                f"background class must be EVICT or PREFETCH, got {klass!r}")
        write = klass == EVICT
        pages = 0
        for c in cohorts:
            if write:
                if c.owner is not None:
                    c.owner.remove(c)
                self.model.transition(c, TO_FLASH)
            pages += c.hi - c.lo
        if pages == 0:
            return Handle(0, done_t=t)
        batch = self.profile.batch_pages
        chunks = ([(cohorts, pages)] if pages <= batch
                  else _chunk(cohorts, batch, self.model.extract))
        handle = Handle(len(chunks))
        queue = self._queues[klass]
        for chunk, n in chunks:
            req = Request(klass, write, chunk, n, handle, cb)
            for c in chunk:
                c.io = req
            queue.append(req)
        self._dispatch(t)
        return handle

    def _least_busy_slot(self):
        """The first of the slots that free up soonest."""
        busy = self._busy
        return busy.index(min(busy))

    def _dispatch(self, t):
        evicts = self._queues[EVICT]
        prefetches = self._queues[PREFETCH]
        while evicts or prefetches:
            q = evicts if evicts else prefetches
            req = q[0]
            slot = self._least_busy_slot()
            if self._busy[slot] > t:
                return
            # re-validate: drop cohorts whose state moved on while queued;
            # evict victims went in flight at submit, prefetch sources wait
            # on flash
            src = TO_FLASH if req.write else FLASH
            live = []
            pages = 0
            for c in req.cohorts:
                if c.tier == src and c.io is req:
                    live.append(c)
                    pages += c.hi - c.lo
            req.cohorts = live
            req.pages = pages
            if pages == 0:
                q.popleft()
                self.stats["dropped_requests"] += 1
                req.handle._finish_one(t)
                continue
            if not req.write and self.model.free_frames() < req.pages:
                return  # inbound prefetch blocked until frames open up
            q.popleft()
            if self.dispatch_log is not None:
                self.dispatch_log((t, req.klass, len(evicts), len(prefetches)))
            self._start(req, slot, t)

    # -- completion --------------------------------------------------------

    def _complete(self, req, t):
        landed = []
        for c in req.cohorts:
            if c.io is not req:
                continue
            c.io = None
            if req.write:
                self.model.transition(c, FLASH)
                c.dirty = False
            else:
                self.model.transition(c, DRAM)
            landed.append(c)
        self.stats[IOS_STAT[req.klass]] += 1
        if req.write:
            self.stats["pages_written"] += req.pages
        else:
            self.stats["pages_read"] += req.pages
        if req.cb is not None:
            req.cb(req, landed, t)
        req.handle._finish_one(t)
        self._dispatch(t)

"""Two-tier page bookkeeping.

Pages are tracked in cohorts: maximal contiguous index runs within one
context whose pages share tier, dirty bit, frequency, queue level and expiry.
Workloads touch contiguous ranges, so cohorts keep policy structures small;
semantics are identical to per-page tracking (a single-page access just
splits a one-page cohort off), which the oracle tests rely on. A Context
holds no policy state: dmx keeps its own per context (dmx.DmxContext).

A context's page map is keyed by first page, not by page: `Context.pages`
maps each cohort's first page to the cohort, and `Context.starts` is a sorted
list of those first pages. Allocating or splitting a cohort writes a constant
number of entries whatever its size, and `MemoryModel.lookup` finds the
cohort that holds an interior page by a predecessor search (the way Linux
finds the mapping that covers an address in its maple tree). The cohorts,
their bounds and every counter are the same as under a per-page map, so the
behaviour is too.

An insert into the flat list moves its tail, so births in random page order
into one context cost time quadratic in its cohort count: 65,536 one-page
births in shuffled order take about 0.4 s, 300,000 about 6 s. The served
workloads stay far below that. The largest context at the end of a 15 s
sweep point holds about 5,100 cohorts, and a trace-rw context at most 8,192
pages. A workload that puts hundreds of thousands of cohorts in one context
needs a blocked or tree index here instead.

Tier states: DRAM, FLASH, TO_DRAM (a read in flight that holds its frame),
TO_FLASH (a write-back in flight).
Census identity: dram + flash + inflight == total allocated, always.
Pages are born dirty (their first content has never been written back).
"""

from bisect import bisect_right, insort

from .core import SimulationError

PAGE_BYTES = 4096

DRAM = 0
FLASH = 1
TO_DRAM = 2     # in flight: demand or prefetch read
TO_FLASH = 4    # in flight: write-back

TIER_NAMES = {DRAM: "dram", FLASH: "flash", TO_DRAM: "to-dram",
              TO_FLASH: "to-flash"}


class Cohort:
    __slots__ = (
        "ctx", "lo", "hi", "tier", "dirty", "freq", "level", "expire",
        "io", "prev", "next", "owner", "prefetched",
    )

    def __init__(self, ctx, lo, hi, tier, dirty):
        self.ctx = ctx
        self.lo = lo
        self.hi = hi
        self.tier = tier
        self.dirty = dirty
        self.freq = 0
        self.level = 0
        self.expire = 0
        self.io = None          # pending/in-flight device request, if any
        self.prev = None
        self.next = None
        self.owner = None       # PageList currently holding this cohort
        self.prefetched = False

    def __repr__(self):
        return (f"Cohort(ctx={self.ctx.cid}, [{self.lo},{self.hi}), "
                f"{TIER_NAMES[self.tier]}, dirty={self.dirty}, "
                f"freq={self.freq}, level={self.level})")


class PageList:
    """Intrusive doubly-linked list of cohorts. Head is the coldest end."""

    __slots__ = ("head", "tail", "cohorts", "page_count")

    def __init__(self):
        self.head = None
        self.tail = None
        self.cohorts = 0
        self.page_count = 0

    def append(self, c: Cohort):
        # newest at tail
        if c.owner is not None:
            raise SimulationError("cohort already owned by a list")
        c.owner = self
        c.prev = self.tail
        c.next = None
        if self.tail is not None:
            self.tail.next = c
        else:
            self.head = c
        self.tail = c
        self.cohorts += 1
        self.page_count += c.hi - c.lo

    def remove(self, c: Cohort):
        if c.owner is not self:
            raise SimulationError("cohort not owned by this list")
        if c.prev is not None:
            c.prev.next = c.next
        else:
            self.head = c.next
        if c.next is not None:
            c.next.prev = c.prev
        else:
            self.tail = c.prev
        c.prev = None
        c.next = None
        c.owner = None
        self.cohorts -= 1
        self.page_count -= c.hi - c.lo

    def insert_before(self, c: Cohort, ref: Cohort):
        if ref.owner is not self:
            raise SimulationError("reference cohort not owned by this list")
        if c.owner is not None:
            raise SimulationError("cohort already owned by a list")
        c.owner = self
        c.next = ref
        c.prev = ref.prev
        if ref.prev is not None:
            ref.prev.next = c
        else:
            self.head = c
        ref.prev = c
        self.cohorts += 1
        self.page_count += c.hi - c.lo

    def insert_after(self, c: Cohort, ref: Cohort):
        if ref.next is None:
            self.append(c)
        else:
            self.insert_before(c, ref.next)

    def move_to_tail(self, c: Cohort):
        """remove(c) then append(c), relinked in one step (Linux's
        list_move_tail); the counts do not change."""
        if c.owner is not self:
            raise SimulationError("cohort not owned by this list")
        tail = self.tail
        if c is tail:
            return
        prev, nxt = c.prev, c.next
        nxt.prev = prev
        if prev is not None:
            prev.next = nxt
        else:
            self.head = nxt
        c.prev = tail
        c.next = None
        tail.next = c
        self.tail = c

    def __iter__(self):
        node = self.head
        while node is not None:
            nxt = node.next
            yield node
            node = nxt

    def __len__(self):
        return self.cohorts


class Context:
    __slots__ = ("cid", "pages", "starts", "resident")

    def __init__(self, cid):
        self.cid = cid
        self.pages = {}          # first page -> Cohort
        self.starts = []         # the keys of `pages`, ascending
        self.resident = 0        # DRAM pages held by this context


class MemoryModel:
    def __init__(self, dram_pages: int, flash_pages: int):
        if dram_pages <= 0 or flash_pages <= 0:
            raise SimulationError("tier capacities must be positive")
        self.dram_pages = dram_pages
        self.flash_pages = flash_pages
        self.contexts = {}
        self.dram_used = 0
        self.flash_used = 0
        self.inflight = 0
        self.inflight_in = 0    # subset of inflight headed to DRAM (frame held)
        self.total = 0

    # -- contexts ----------------------------------------------------------

    def new_context(self, cid) -> Context:
        if cid in self.contexts:
            raise SimulationError(f"duplicate context id {cid!r}")
        ctx = Context(cid)
        self.contexts[cid] = ctx
        return ctx

    # -- page creation and lookup -----------------------------------------

    def free_frames(self) -> int:
        return self.dram_pages - self.dram_used - self.inflight_in

    def create(self, ctx: Context, lo: int, hi: int, tier=DRAM, dirty=True) -> Cohort:
        n = hi - lo
        if n <= 0:
            raise SimulationError("empty page range")
        if self.total + n > self.dram_pages + self.flash_pages:
            raise SimulationError(
                f"capacity exhausted: {self.total} allocated + {n} requested "
                f"> {self.dram_pages + self.flash_pages} total pages"
            )
        if tier == DRAM and self.free_frames() < n:
            raise SimulationError(
                f"DRAM overcommit: {n} frames requested, {self.free_frames()} free"
            )
        if tier != DRAM and tier != FLASH:
            raise SimulationError("pages must be created in DRAM or FLASH")
        # find the slot and any collision before writing anything
        pages = ctx.pages
        starts = ctx.starts
        j = bisect_right(starts, lo)
        if j and pages[starts[j - 1]].hi > lo:
            raise SimulationError(f"page {lo} already allocated in {ctx.cid!r}")
        if j < len(starts) and starts[j] < hi:
            raise SimulationError(f"page {starts[j]} already allocated in {ctx.cid!r}")
        c = Cohort(ctx, lo, hi, tier, dirty)
        pages[lo] = c
        starts.insert(j, lo)
        self.total += n
        if tier == DRAM:
            self.dram_used += n
            ctx.resident += n
        else:
            self.flash_used += n
        return c

    def lookup(self, ctx: Context, idx: int):
        """The cohort holding page idx, or None: a first page is one dict
        read, any other page one predecessor search of the index."""
        pages = ctx.pages
        c = pages.get(idx)
        if c is None:
            starts = ctx.starts
            j = bisect_right(starts, idx)
            if j:
                c = pages[starts[j - 1]]
                if idx >= c.hi:
                    return None
        return c

    # -- tier transitions --------------------------------------------------

    def transition(self, c: Cohort, tier: int):
        """Move run c to `tier`, or raise and change nothing."""
        n = c.hi - c.lo
        old = c.tier
        if old == tier:
            return
        if tier not in TIER_NAMES:
            raise SimulationError("bad tier")
        if tier == DRAM and self.dram_used + n > self.dram_pages:
            raise SimulationError("DRAM overcommit on transition")
        if (tier == TO_DRAM and old != DRAM     # else c already holds its frames
                and self.dram_used + self.inflight_in + n > self.dram_pages):
            raise SimulationError("DRAM frame overcommit on inbound IO")
        # leave old tier
        if old == DRAM:
            self.dram_used -= n
            c.ctx.resident -= n
        elif old == FLASH:
            self.flash_used -= n
        elif old == TO_DRAM:
            self.inflight -= n
            self.inflight_in -= n
        else:                               # TO_FLASH
            self.inflight -= n
        # enter new tier
        if tier == DRAM:
            self.dram_used += n
            c.ctx.resident += n
        elif tier == FLASH:
            self.flash_used += n
        elif tier == TO_DRAM:
            self.inflight += n
            self.inflight_in += n
        else:                               # TO_FLASH
            self.inflight += n
        c.tier = tier

    # -- splitting ---------------------------------------------------------

    def extract(self, c: Cohort, lo: int, hi: int) -> Cohort:
        """Carve [lo, hi) out of cohort c and return it as its own cohort.

        c keeps its identity for the untouched remainder (left part if the cut
        is interior). New pieces inherit attributes and, if c sits in a policy
        list, are inserted adjacent to it so ordering is preserved.
        """
        if not (c.lo <= lo < hi <= c.hi):
            raise SimulationError(f"extract [{lo},{hi}) outside cohort [{c.lo},{c.hi})")
        if lo == c.lo and hi == c.hi:
            return c
        ctx = c.ctx
        out = Cohort(ctx, lo, hi, c.tier, c.dirty)
        out.freq, out.level, out.expire = c.freq, c.level, c.expire
        out.prefetched = c.prefetched
        pages = ctx.pages
        pages[lo] = out
        lst = c.owner
        if lo == c.lo:
            c.lo = hi                      # out takes the prefix
            pages[hi] = c
            insort(ctx.starts, hi)
            if lst is not None:
                lst.insert_before(out, c)
                lst.page_count -= hi - lo   # moved out of c, not the list
        elif hi == c.hi:
            c.hi = lo                      # out takes the suffix
            insort(ctx.starts, lo)
            if lst is not None:
                lst.insert_after(out, c)
                lst.page_count -= hi - lo
        else:
            right = Cohort(ctx, hi, c.hi, c.tier, c.dirty)
            right.freq, right.level, right.expire = c.freq, c.level, c.expire
            right.prefetched = c.prefetched
            c.hi = lo
            pages[hi] = right
            starts = ctx.starts
            j = bisect_right(starts, lo)
            starts[j:j] = (lo, hi)
            if lst is not None:
                lst.insert_after(out, c)
                lst.insert_after(right, c)  # c, right, out
                lst.page_count -= right.hi - lo
        return out

    # -- diagnostics -------------------------------------------------------

    def census(self) -> dict:
        return {
            "dram": self.dram_used,
            "flash": self.flash_used,
            "inflight": self.inflight,
            "total": self.total,
        }

    def check_counters(self):
        if self.dram_used + self.flash_used + self.inflight != self.total:
            raise SimulationError(
                f"census identity broken: {self.census()}"
            )
        if self.dram_used + self.inflight_in > self.dram_pages:
            raise SimulationError(
                f"DRAM overcommitted: used={self.dram_used} "
                f"inbound={self.inflight_in} cap={self.dram_pages}"
            )
        if min(self.dram_used, self.flash_used, self.inflight,
               self.inflight_in, self.total) < 0:
            raise SimulationError(f"negative tier counter: {self.census()}")

    def check_full(self):
        """O(cohorts) audit of the page map, then every counter recomputed
        from it: each context's index is ordered and holds exactly the map's
        keys, each key is its cohort's first page, and no two cohorts of a
        context overlap."""
        self.check_counters()
        dram = flash = inflight = inflight_in = total = 0
        for ctx in self.contexts.values():
            pages, starts = ctx.pages, ctx.starts
            if starts != sorted(pages):
                raise SimulationError(
                    f"context {ctx.cid!r} page index out of step with the page map")
            ctx_resident = 0
            end = None
            for lo in starts:
                c = pages[lo]
                if c.lo != lo or c.hi <= lo or c.ctx is not ctx:
                    raise SimulationError(f"page map key {lo} is not the first page of {c}")
                if end is not None and lo < end:
                    raise SimulationError(f"cohorts overlap below page {end}: {c}")
                end = c.hi
                n = c.hi - lo
                total += n
                if c.tier == DRAM:
                    dram += n
                    ctx_resident += n
                elif c.tier == FLASH:
                    flash += n
                elif c.tier == TO_DRAM:
                    inflight += n
                    inflight_in += n
                elif c.tier == TO_FLASH:
                    inflight += n
                else:
                    raise SimulationError(
                        f"cohort [{lo},{c.hi}) of {ctx.cid!r} in unknown tier {c.tier!r}")
            if ctx_resident != ctx.resident:
                raise SimulationError(
                    f"context {ctx.cid!r} resident count drifted: "
                    f"{ctx.resident} tracked vs {ctx_resident} actual"
                )
        if (dram, flash, inflight, inflight_in, total) != (
            self.dram_used, self.flash_used, self.inflight,
            self.inflight_in, self.total,
        ):
            raise SimulationError(
                f"counter drift: tracked {self.census()} vs actual "
                f"dram={dram} flash={flash} inflight={inflight} total={total}"
            )

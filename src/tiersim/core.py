"""Discrete-event kernel: integer-microsecond clock, deterministic ordering.

Events at the same timestamp fire in scheduling order (monotonic sequence
number breaks ties), so a run is a pure function of config + seed.

Events scheduled one after another for the same future time share one heap
entry (see Simulator): the critical service's threads, which finish in
step, then cost one push and one pop per burst rather than per event. The
firing order, seqs and event log are those of one entry per event.
"""

import gc
import sys
from array import array
from heapq import heappop, heappush
from itertools import chain, count

US_PER_S = 1_000_000

_MASK64 = (1 << 64) - 1


class SimulationError(Exception):
    """Fatal model violation; the CLI maps this to exit code 2."""


# SplitMix64 is counter-based: output k of a stream whose state is s is the
# mix of s + k * _GAMMA alone. So _block computes BLOCK outputs at once, one
# per lane of a single int: lane k sits at bit _LANE * k and holds
# state + (k + 1) * _GAMMA. A lane is 128 bits wide so that a 64-bit lane
# times a 64-bit constant fits in it, and every sum, shift and product is
# masked back to 64 bits per lane before the next step can carry a bit
# into a neighbour. The last xor-shift needs no mask: the unpack reads only
# each lane's low 64 bits.
BLOCK = 256
_LANE = 128
_GAMMA = 0x9E3779B97F4A7C15
_BIG_ENDIAN = sys.byteorder == "big"


def _pack(values):
    """One int holding values[k] in lane k."""
    return int.from_bytes(b"".join(v.to_bytes(_LANE // 8, "little")
                                   for v in values), "little")


_ONES = _pack([1] * BLOCK)
_LANES64 = _pack([_MASK64] * BLOCK)
_STEPS = _pack([((k + 1) * _GAMMA) & _MASK64 for k in range(BLOCK)])


def _block(state: int) -> array:
    """The BLOCK outputs that follow `state` (taken modulo 2**64), as an
    array of 64-bit ints."""
    z = ((state & _MASK64) * _ONES + _STEPS) & _LANES64
    z = ((z ^ (z >> 30)) & _LANES64) * 0xBF58476D1CE4E5B9 & _LANES64
    z = ((z ^ (z >> 27)) & _LANES64) * 0x94D049BB133111EB & _LANES64
    lanes = array("Q", (z ^ (z >> 31)).to_bytes(_LANE // 8 * BLOCK, "little"))
    if _BIG_ENDIAN:
        lanes.byteswap()
    return lanes[::_LANE // 64]


class SplitMix64:
    """Deterministic 64-bit generator (Steele et al. constants).

    Integer-only so streams are identical on every platform; cheap to fork
    into independent substreams via fork().

    Outputs are computed BLOCK at a time by _block and read from one
    iterator, `outputs`, which next_u64, random and randrange all consume:
    any mix of readers sees the one sequence. Hot loops may read `outputs`
    directly. `_state` counts the states the blocks start from; it is
    drawn when a block is computed, so it runs up to a block ahead of what
    has been read.
    """

    __slots__ = ("seed", "_state", "outputs")

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._state = count(self.seed, BLOCK * _GAMMA)
        self.outputs = chain.from_iterable(map(_block, self._state))

    def next_u64(self) -> int:
        return next(self.outputs)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), rejection-sampled to avoid modulo bias."""
        limit = rejection_limit(n)
        outputs = self.outputs
        while True:
            v = next(outputs)
            if v < limit:
                return v % n

    def random(self) -> float:
        # 53 mantissa bits -> uniform in [0, 1)
        return (next(self.outputs) >> 11) * 2.0 ** -53

    def fork(self, salt: int) -> "SplitMix64":
        """Independent substream keyed off the original seed, not current state,
        so fork order does not depend on how much this stream was consumed."""
        return SplitMix64(mix_seed(self.seed, salt))


def rejection_limit(n: int) -> int:
    """randrange(n) keeps an output below this limit, a multiple of n, and
    returns it modulo n, so that every residue is equally likely."""
    if n <= 0:
        raise ValueError(f"randrange bound must be positive, got {n}")
    return (1 << 64) - ((1 << 64) % n)


def mix_seed(*parts: int) -> int:
    """Combine integers into one 64-bit seed (order-sensitive)."""
    acc = 0x243F6A8885A308D3
    for p in parts:
        g = SplitMix64((acc ^ (p & _MASK64)) & _MASK64)
        acc = g.next_u64()
    return acc


class Simulator:
    """The event queue and its clock. `event_log` is a sink: None, or a
    callable (a file's `write`) fed each event's line before the event runs.

    An event due at the time of the heap entry pushed last, while that time
    is later than `now`, joins that entry instead of taking its own: it is
    kept in `_joined` under the entry's first seq, and `run` fires it right
    after the entry's first event. The critical service's threads finish in
    step, so a burst of simultaneous completions costs one push and one pop.
    The order is that of a plain (time, seq) heap: the joined events take
    the seqs that follow the entry's own, an entry for that time pushed
    earlier has smaller seqs and pops first, and one pushed later has
    larger seqs. An entry due at `now` is never joined, as it may be the
    one being fired; one due later has not been popped. Each joined event
    keeps its own seq, log line, post_event_hook call and count.

    If an event or the hook raises, the events of its entry that follow it
    are queued again as an entry of their own, as a plain heap would have
    kept them, and a later `run` fires them."""

    __slots__ = ("now", "_heap", "_seq", "_joined", "_last_at", "_last_seq",
                 "event_log", "post_event_hook")

    def __init__(self):
        self.now = 0
        self._heap = []
        self._seq = 0
        self._joined = {}       # first seq of an entry -> [(kind, fn), ...]
        self._last_at = -1      # time and seq of the entry pushed last
        self._last_seq = -1
        self.event_log = None
        self.post_event_hook = None  # invariant checks in tests

    def schedule(self, at: int, kind: str, fn) -> int:
        now = self.now
        if at < now:
            raise SimulationError(
                f"schedule into the past: at={at} now={now} kind={kind}"
            )
        seq = self._seq
        self._seq = seq + 1
        if at == self._last_at and at > now:
            group = self._joined.get(self._last_seq)
            if group is None:
                self._joined[self._last_seq] = [(kind, fn)]
            else:
                group.append((kind, fn))
            return seq
        heappush(self._heap, (at, seq, kind, fn))
        self._last_at = at
        self._last_seq = seq
        return seq

    def run(self, until: int) -> int:
        """Process events with time <= until; returns count processed.

        The event log and post_event_hook are read once per call, so set
        them before a run, not from inside one of its events.

        The events of a sweep point or a trace replay leave no cyclic
        garbage: every reference cycle they make (a cohort and its
        context's page map, a request and the cohorts it moves) is still
        reachable from the model when the run returns, or is broken by the
        event that ends it. A collection inside a run would only re-scan
        the live model, so the cyclic collector is paused for the length of
        the call and left as it was found on return, also when an event
        raises. tests/test_core.py checks that invariant."""
        processed = 0
        heap = self._heap
        joined = self._joined
        pop = heappop
        log = self.event_log
        hook = self.post_event_hook
        seq = first = -1
        group = None
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            while heap and heap[0][0] <= until:
                at, seq, kind, fn = pop(heap)
                self.now = at
                if log is not None:
                    log(f"{at}\t{seq}\t{kind}\n")
                fn(at)
                processed += 1
                if hook is not None:
                    hook()
                if joined and seq in joined:
                    first = seq
                    group = joined.pop(seq)
                    for kind, fn in group:
                        seq += 1
                        if log is not None:
                            log(f"{at}\t{seq}\t{kind}\n")
                        fn(at)
                        if hook is not None:
                            hook()
                    processed += len(group)
                    group = None
        except BaseException:
            # the events of the entry after the one that raised
            rest = (group[seq - first:] if group is not None
                    else joined.pop(seq, None))
            if rest:
                self._requeue(at, seq + 1, rest)
            raise
        finally:
            if was_enabled:
                gc.enable()
        if self.now < until:
            self.now = until
        return processed

    def _requeue(self, at: int, seq: int, rest: list) -> None:
        """Queue again the events `rest` of a fired entry, the first of
        which has seq `seq`, after one before them raised."""
        kind, fn = rest[0]
        heappush(self._heap, (at, seq, kind, fn))
        if len(rest) > 1:
            self._joined[seq] = rest[1:]

    def drain(self) -> int:
        """Run until the queue is empty: each pass is one `run` up to the
        latest time queued when it starts, so `now` ends at the time of the
        last event fired. An event that a pass fires may queue a later one;
        the next pass runs it."""
        processed = 0
        heap = self._heap
        while heap:
            processed += self.run(max(heap)[0])
        return processed

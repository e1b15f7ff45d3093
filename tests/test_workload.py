import gc
import random
import tracemalloc
from itertools import repeat
from types import SimpleNamespace

import pytest

from helpers import RecordingPolicy, build, logged_accesses
from oracles import (ReplayedStream, draw_record_reference,
                     load_trace_reference, noise_pick_reference,
                     splitmix64_reference)
from tiersim.config import resolve
from tiersim.core import SplitMix64, Simulator
from tiersim.dmx import DmxPolicy
from tiersim.experiment import run_trace
from tiersim.memory import FLASH, Context, MemoryModel
from tiersim.metrics import Collector
from tiersim.swap import SwapPolicy
from tiersim.workload import (
    NoiseCatalog, NoiseSystem, CriticalService, TraceDriver, TraceError,
    TxnThread, load_trace, walk_ranges,
)


def swap_stack(dram=65536, flash=524288, overhead=6000):
    sim, m, dev = build(dram=dram, flash=flash)
    pol = SwapPolicy(m, dev, fault_overhead_us=overhead, reclaim_batch=1)
    return sim, m, dev, pol


# -- catalog ---------------------------------------------------------------

def test_catalog_at_default_scale():
    cat = NoiseCatalog(scale=1024)
    sizes = sorted({hi - lo for lo, hi in cat.images})
    assert sizes == [5, 20, 50]
    assert len(cat.images) == 680
    assert cat.total_pages == 8500
    assert cat.images[0] == (0, 5)


def test_catalog_at_full_scale_matches_tens_of_gib():
    cat = NoiseCatalog(scale=1)
    assert cat.total_pages == 8_704_000     # 33.2 GiB of 4 KiB pages


def test_catalog_floors_at_one_page_per_image():
    cat = NoiseCatalog(scale=10**9)
    assert cat.total_pages == 680


def test_catalog_rejects_fractional_scale():
    with pytest.raises(Exception):
        NoiseCatalog(scale=0)


# -- noise clients ---------------------------------------------------------

def test_no_noise_containers_is_a_noop():
    sim, m, dev, pol = swap_stack()
    noise = NoiseSystem(sim, m, pol, SplitMix64(1), containers=0, clients=8)
    noise.start()
    assert sim.drain() == 0 and noise.requests == 0


def test_client_wakeups_stagger_across_one_think_period():
    sim, m, dev, pol = swap_stack()
    noise = NoiseSystem(sim, m, pol, SplitMix64(1), containers=2, clients=3)
    noise.start()
    sim.run(49_999)
    assert noise.requests == 1
    sim.run(99_999)
    assert noise.requests == 2
    sim.run(149_999)
    assert noise.requests == 3
    sim.run(150_000)
    assert noise.requests == 4


def test_single_client_paces_by_think_time():
    sim, m, dev, pol = swap_stack()
    noise = NoiseSystem(sim, m, pol, SplitMix64(7), containers=2, clients=1)
    noise.start()
    sim.run(1_000_000)
    # wakes at 0, 150k, ..., 900k: materializing an image is instant
    assert noise.requests == 7


def test_cold_image_walk_faults_every_page_in_one_cluster():
    sim, m, dev, pol = swap_stack()
    ctx = pol.register(m.new_context("n"))
    m.create(ctx, 0, 50, tier=FLASH)
    ends = []
    walk_ranges(pol, ctx, [(0, 50)], 0, batch=True, write=False,
                done=ends.append)
    sim.drain()
    assert pol.counters["demand_faults"] == 50
    assert pol.counters["fault_clusters"] == 1
    assert ends == [6271]                   # 6000 overhead + 271us 50-page read


def test_walk_resumes_where_it_waited():
    sim, m, dev, pol = swap_stack(dram=4, flash=64, overhead=0)
    ctx = pol.register(m.new_context("n"))
    pol.on_allocate(ctx, 0, 2, 0)
    pol.on_allocate(ctx, 2, 4, 0)
    pol.access_range(ctx, 0, 2, 0)          # [2,4) is now the LRU end
    pol.on_allocate(ctx, 4, 6, 0)           # [2,4) drains to flash
    calls = []
    on_walked = pol._on_walked

    def logged(ctx, lo, end, t, waited):
        calls.append((lo, end, t, waited))
        on_walked(ctx, lo, end, t, waited)

    pol._on_walked = logged
    ends = []
    walk_ranges(pol, ctx, [(4, 6), (0, 4), (0, 1)], 0, batch=False,
                write=False, done=ends.append)
    assert ends == []
    sim.drain()
    landed = calls[2][2]                    # the write-back of [2,4) landed
    refaulted = calls[3][2]                 # [2,4) read back in
    assert 0 < landed < refaulted
    # (0, 4) stops at page 2 to wait, and the walk resumes there
    assert calls == [(4, 6, 0, False), (0, 2, 0, True),
                     (2, 4, landed, False), (0, 1, refaulted, False)]
    assert ends == [refaulted]              # the last range only hits
    m.check_full()


# -- critical service ------------------------------------------------------

@pytest.mark.parametrize("policy_cls", [SwapPolicy, DmxPolicy],
                         ids=["swap", "dmx"])
def test_hit_only_transactions_leave_no_cyclic_garbage(policy_cls):
    """A transaction that only hits allocates no function or cell that the
    cyclic collector alone could free: walks and their completions form no
    reference cycle."""
    sim, m, dev = build(dram=65536, flash=524288)
    pol = policy_cls(m, dev)
    svc = CriticalService(sim, m, pol, Collector(0, 1_000_000),
                          SplitMix64(5))
    svc.start()
    sim.run(5_000)                          # the first round splits records
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        sim.run(400_000)
        gc.collect()
        garbage = {type(o).__name__ for o in gc.garbage}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert svc.completed >= 1000
    assert pol.counters["demand_faults"] == 0
    assert not garbage & {"function", "cell"}, garbage


def test_zero_skew_draws_are_uniform():
    sim, m, dev, pol = swap_stack()
    coll = Collector(0, 1_000_000)
    svc = CriticalService(sim, m, pol, coll, SplitMix64(11),
                          cold_frac=0.0, skew=0.0)
    counts = [0] * svc.hot_records
    for _ in range(1_000_000):
        lo, hi = svc.draw_record()
        assert hi - lo == svc.hot_record_pages
        counts[lo // svc.hot_record_pages] += 1
    expected = 1_000_000 / svc.hot_records
    assert all(abs(c - expected) <= expected * 0.02 for c in counts)


def test_cold_fraction_one_draws_only_cold_records():
    sim, m, dev, pol = swap_stack()
    coll = Collector(0, 1_000_000)
    svc = CriticalService(sim, m, pol, coll, SplitMix64(2), cold_frac=1.0)
    for _ in range(10_000):
        lo, hi = svc.draw_record()
        assert lo >= svc.hot_pages
        assert hi - lo == svc.cold_record_pages


# -- draws against the reference formulas ---------------------------------

TOP = 1 << 64


def replayed(outputs):
    """A generator stand-in whose output stream is the given list."""
    return SimpleNamespace(outputs=iter(outputs))


def limit_of(n):
    limit = TOP - TOP % n
    assert limit < TOP      # some outputs are rejected
    return limit


def test_cold_pick_skips_outputs_at_or_above_the_limit():
    limit = limit_of(1500)
    outputs = [0, limit, TOP - 1, limit - 1, TOP - 1, 2 ** 63, 5, 7]
    svc = CriticalService(Simulator(), MemoryModel(16, 16), RecordingPolicy(),
                          None, replayed(outputs))
    ref = ReplayedStream(outputs)
    got = [svc.draw_record() for _ in range(3)]
    assert got == [draw_record_reference(svc, ref) for _ in range(3)]
    # the cold test (0), two rejections, cold record (limit - 1) % 1500;
    # then a hot draw, and a cold one with nothing to reject
    lo = svc.hot_pages + (limit - 1) % 1500 * 12
    assert got[0] == (lo, lo + 12)
    assert got[1][1] - got[1][0] == 32
    assert got[2] == (svc.hot_pages + 7 * 12, svc.hot_pages + 8 * 12)


def test_noise_picks_skip_outputs_at_or_above_their_limits():
    ctx_limit, img_limit = limit_of(25), limit_of(680)
    outputs = [ctx_limit, TOP - 1, 30, img_limit, img_limit + 1, 700,
               ctx_limit - 1, img_limit - 1]
    pol = RecordingPolicy()
    noise = NoiseSystem(Simulator(), MemoryModel(16, 16), pol,
                        replayed(outputs), containers=25, clients=1)
    ref = ReplayedStream(outputs)
    noise._step(0)
    noise._step(0)
    want = [noise_pick_reference(noise, ref) for _ in range(2)]
    assert want == [(30 % 25, 700 % 680),
                    ((ctx_limit - 1) % 25, (img_limit - 1) % 680)]
    assert pol.touched == [(f"noise-{k}",) + noise.catalog.images[img]
                           for k, img in want]


@pytest.mark.parametrize("params", [
    {}, {"cold_records": 0}, {"cold_frac": 0.0}, {"cold_frac": 1.0},
    {"skew": 0.0}, {"hot_records": 1, "cold_frac": 0.5},
], ids=["default", "no-cold", "cold-frac-0", "cold-frac-1", "skew-0", "one-hot"])
def test_draws_match_the_reference_formulas(params):
    rng, ref = SplitMix64(21), splitmix64_reference(21)
    svc = CriticalService(Simulator(), MemoryModel(16, 16), RecordingPolicy(),
                          None, rng, **params)
    assert [svc.draw_record() for _ in range(5000)] == \
           [draw_record_reference(svc, ref) for _ in range(5000)]
    # as many outputs consumed: with no cold records, no cold test draw
    assert rng.next_u64() == ref.next_u64()


def least_m(test):
    """The least m in [0, 2**53] for which test(m) holds, taken to hold at
    2**53, by plain bisection: a cut point of the float draw."""
    lo, hi = 0, 1 << 53
    while lo < hi:
        mid = (lo + hi) // 2
        if test(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


@pytest.mark.parametrize("cold_frac", [0.0, 1e-300, 0.5, 1.0])
@pytest.mark.parametrize("hot_records", [1, 1000])
@pytest.mark.parametrize("skew", [0.0, 2.5, 40.0])
def test_draws_match_the_reference_at_every_cut_point(skew, hot_records,
                                                      cold_frac):
    # the outputs where the reference's float tests change their answer:
    # x = (v >> 11) * 2**-53 stops being below cold_frac, and x * total
    # weight first exceeds cum_weight[j]
    probe = CriticalService(Simulator(), MemoryModel(16, 16), RecordingPolicy(),
                            None, replayed([]), skew=skew,
                            hot_records=hot_records, cold_frac=cold_frac)
    total = probe.cum_weight[-1]
    cold_cut = least_m(lambda m: not m * 2.0 ** -53 < cold_frac) << 11
    hot_cuts = [least_m(lambda m: w < (m * 2.0 ** -53) * total) << 11
                for w in probe.cum_weight]
    assert hot_cuts[-1] == TOP
    outputs = []
    for v in (cold_cut - 1, cold_cut):
        if 0 <= v < TOP:
            outputs += [v, 5]          # the cold test, then a pick
    for cut in sorted(set(hot_cuts)):
        for v in (cut - 1, cut):
            if v < TOP:
                outputs += [TOP - 1, v]    # not cold unless cold_frac is 1
    draws = len(outputs) // 2
    outputs += [0] * 8                 # for the pick a rejected output redraws
    svc = CriticalService(Simulator(), MemoryModel(16, 16), RecordingPolicy(),
                          None, replayed(outputs), skew=skew,
                          hot_records=hot_records, cold_frac=cold_frac)
    ref = ReplayedStream(outputs)
    got = [svc.draw_record() for _ in range(draws)]
    want = [draw_record_reference(svc, ref) for _ in range(draws)]
    assert got == want
    if cold_frac < 1.0:
        # each hot cut below 2**64 is where the reference's pick moves up
        for cut in set(hot_cuts) - {TOP}:
            lo = ReplayedStream([TOP - 1, cut - 1, TOP - 1, cut])
            assert draw_record_reference(svc, lo) < draw_record_reference(svc, lo)
    if 0 < cold_cut < TOP:
        # and the cold cut is where the reference stops drawing cold
        cold = ReplayedStream([cold_cut - 1, 5, cold_cut, TOP - 1])
        assert draw_record_reference(svc, cold)[0] >= svc.hot_pages
        assert draw_record_reference(svc, cold)[0] < svc.hot_pages


@pytest.mark.parametrize("draws", [1, 3])
def test_each_transaction_walks_draws_per_txn_records(draws):
    sim = Simulator()
    pol = RecordingPolicy()
    svc = CriticalService(sim, MemoryModel(16, 16), pol,
                          Collector(0, 1_000_000), SplitMix64(8), threads=1,
                          draws_per_txn=draws)
    svc.start()
    sim.run(100_000)
    ref = splitmix64_reference(8)
    walked = pol.touched[1:]        # after the allocation start() makes
    assert svc.completed == 20 and len(walked) == 21 * draws
    assert walked == [("critical",) + draw_record_reference(svc, ref)
                      for _ in walked]


def rejected_cold_pick_outputs():
    """Outputs whose second transaction of two records ends in a cold pick
    that rejects two outputs; the draw_record after it is hot, and seeded
    outputs follow."""
    limit = limit_of(1500)
    head = [TOP - 1, 5, TOP - 1, 6,                  # txn 0: hot, hot
            TOP - 1, 7, 0, limit, TOP - 1, limit - 1,  # txn 1: hot, cold
            TOP - 1, 8]                               # draw_record: hot
    seeded = SplitMix64(9)
    return head + [seeded.next_u64() for _ in range(4000)]


@pytest.mark.parametrize("draws,cold_records,replay", [
    (1, 1500, False), (2, 1500, False), (3, 1500, False), (2, 0, False),
    (2, 1500, True),
], ids=["1", "2", "3", "2-no-cold", "2-rejected-cold-pick"])
def test_transactions_and_draw_record_read_one_record_stream(draws, cold_records,
                                                             replay):
    """Each transaction walks the next draws_per_txn records of the stream,
    and draw_record() calls in between take the records that follow."""
    if replay:
        outputs = rejected_cold_pick_outputs()
        rng, ref = ReplayedStream(outputs), ReplayedStream(outputs)
    else:
        rng, ref = SplitMix64(9), splitmix64_reference(9)
    pol = RecordingPolicy()
    svc = CriticalService(Simulator(), MemoryModel(16, 16), pol, None, rng,
                          draws_per_txn=draws, cold_records=cold_records)
    thread = TxnThread(svc)
    for k in range(300):
        del pol.touched[:]
        thread.begin(k)
        assert pol.touched == [("critical",) + draw_record_reference(svc, ref)
                               for _ in range(draws)]
        if replay and k == 1:
            lo = svc.hot_pages + (limit_of(1500) - 1) % 1500 * 12
            assert pol.touched[1] == ("critical", lo, lo + 12)
        for _ in range(k % 3):
            assert svc.draw_record() == draw_record_reference(svc, ref)
    assert rng.next_u64() == ref.next_u64()


def test_noise_picks_match_the_reference():
    pol = RecordingPolicy()
    noise = NoiseSystem(Simulator(), MemoryModel(16, 16), pol, SplitMix64(4),
                        containers=3, clients=1)
    ref = splitmix64_reference(4)
    for _ in range(3000):
        noise._step(0)
    picks = [noise_pick_reference(noise, ref) for _ in range(3000)]
    assert pol.touched == [(f"noise-{k}",) + noise.catalog.images[img]
                           for k, img in picks]


def test_resident_transactions_cost_exactly_base_service():
    sim, m, dev, pol = swap_stack()
    coll = Collector(0, 1_000_000)
    svc = CriticalService(sim, m, pol, coll, SplitMix64(3), threads=4)
    svc.start()
    sim.run(1_000_000)
    # every draw hits: each thread completes one txn per 5 ms, lockstep
    assert svc.completed == 4 * 200
    assert coll.counts == {5000: 4 * 200}
    assert pol.counters["demand_faults"] == 0
    summary = coll.summarize(0, "swap", "flash", pol.snapshot_counters(), 0)
    assert summary.tps == 800.0


def test_one_fault_inside_a_transaction_adds_its_stall():
    sim, m, dev, pol = swap_stack(overhead=0)
    coll = Collector(0, 10_000_000)
    svc = CriticalService(sim, m, pol, coll, SplitMix64(4), threads=1,
                          draws_per_txn=1)
    pol.on_allocate(svc.ctx, 0, 1, 0)
    pol._reclaim(1, 0)
    sim.run(500)                            # write-back done, page 0 on flash
    svc.txns = repeat([(0, 1)])             # every transaction walks page 0
    TxnThread(svc).begin(1000)
    sim.run(7000)
    assert svc.completed == 1
    assert coll.counts == {5084: 1}         # 5000 base + one 84us read


# -- trace replay ----------------------------------------------------------

def test_trace_parses_records_and_comments(tmp_path):
    p = tmp_path / "t.trace"
    p.write_text("# header\n\n10 web 0 w\n20 web 1 r\n30 db 5 w\n")
    assert list(load_trace(str(p))) == [
        (10, "web", 0, "w"), (20, "web", 1, "r"), (30, "db", 5, "w")]


def test_empty_trace_is_empty(tmp_path):
    p = tmp_path / "t.trace"
    p.write_text("# nothing here\n")
    assert list(load_trace(str(p))) == []


@pytest.mark.parametrize("body", [
    "10 web 0\n",             # missing field
    "x web 0 r\n",            # non-integer time
    "10 web -1 r\n",          # negative page
    "10 web 0 x\n",           # bad rw flag
    "20 web 0 r\n10 web 0 r\n",  # time regression
])
def test_malformed_traces_name_the_line(tmp_path, body):
    p = tmp_path / "bad.trace"
    p.write_text("# ok line\n" + body)
    with pytest.raises(TraceError) as err:
        load_trace(str(p))
    assert ".trace:" in str(err.value)


_PAST_64_BITS = "time or page index does not fit in 64 bits"


@pytest.mark.parametrize("body, message", [
    ("10 web 0 r 9\n", "expected 4 fields, got 5"),
    ("x web -1 q\n", "non-integer time or page index"),
    ("10 web x r\n", "non-integer time or page index"),
    ("-5 web 0 q\n", "negative time or page index"),
    ("10 web -1 r\n", "negative time or page index"),
    ("20 web 0 r\n10 web 0 q\n", "rw flag must be r or w"),
    ("20 web 0 r\n10 web 0 r\n", "time regression 10 < 20"),
    ("10 web 2 w # note\n", "expected 4 fields, got 6"),
    ("9223372036854775808 web 0 r\n", _PAST_64_BITS),
    ("10 web 9223372036854775808 w\n", _PAST_64_BITS),
    ("10 web 9223372036854775808 q\n", "rw flag must be r or w"),
    ("20 web 0 r\n10 web 9223372036854775808 r\n", "time regression 10 < 20"),
])
def test_a_bad_line_fails_its_first_check(tmp_path, body, message):
    """Checks run in order: field count, integers, signs, rw flag, time,
    64-bit range. A comment is a whole line: a `#` after the first field
    is one more field."""
    p = tmp_path / "bad.trace"
    p.write_text("  # indented comment\n" + body)
    lines = body.count("\n")
    with pytest.raises(TraceError) as err:
        load_trace(str(p))
    assert str(err.value) == f"{p}:{lines + 1}: {message}"


def test_records_of_one_context_share_its_id_string(tmp_path):
    p = tmp_path / "t.trace"
    p.write_text("10 web 0 w\n  20\tweb 1 r  \n30 db 5 w\n40 web 2 r\n")
    records = list(load_trace(str(p)))
    assert records == [(10, "web", 0, "w"), (20, "web", 1, "r"),
                       (30, "db", 5, "w"), (40, "web", 2, "r")]
    assert records[0][1] is records[1][1] is records[3][1]


def test_the_largest_64_bit_values_load(tmp_path):
    top = 2 ** 63 - 1
    p = tmp_path / "t.trace"
    p.write_text(f"0 web {top} r\n{top} web 0 w\n")
    assert list(load_trace(str(p))) == [(0, "web", top, "r"),
                                        (top, "web", 0, "w")]


_CIDS = [f"c{k}" for k in range(40)] + ["web", "db-primary", "kv_7", "x1",
                                        "cache", "batch-job", "ÿ-utf8",
                                        "ctx.nested", "0", "LOG"]


def _random_trace(rnd, n_lines):
    """A valid trace of n_lines lines, as (text lines, indices of the
    record lines, the record tuples): comments, blank lines, tabs and runs
    of spaces around fields, CRLF and LF endings, up to 50 context ids,
    repeated pages and equal timestamps."""
    cids = rnd.sample(_CIDS, rnd.randint(1, 50))
    pages = rnd.choice((4, 64, 5000))
    lines, at, records = [], [], []
    t = 0
    forced = rnd.randrange(n_lines)         # at least one record
    for i in range(n_lines):
        kind = rnd.random()
        if i != forced and kind < 0.06:
            body = rnd.choice(("", " ", "\t", "  \t "))
        elif i != forced and kind < 0.12:
            body = rnd.choice(("#", "# note", "  #x 1 2 3", "\t# 10 a 0 w",
                               "#10 a 0 r extra", "## 5"))
        else:
            t += rnd.choice((0, 0, 1, 3, 250, 10_000))
            cid = rnd.choice(cids)
            page = rnd.randrange(pages) if rnd.random() < 0.99 else 2 ** 63 - 1
            op = rnd.choice("rw")
            seps = [rnd.choice((" ", "  ", "\t", " \t ")) for _ in range(3)]
            body = (rnd.choice(("", "", " ", "\t")) + str(t) + seps[0] + cid
                    + seps[1] + str(page) + seps[2] + op
                    + rnd.choice(("", "", " ", "\t ")))
            at.append(i)
            records.append((t, cid, page, op))
        lines.append(body)
    return lines, at, records


def _write_lines(path, rnd, lines):
    ends = [rnd.choice(("\n", "\r\n")) for _ in lines]
    if rnd.random() < 0.3:
        ends[-1] = ""                       # no newline at the end
    path.write_bytes("".join(b + e for b, e in zip(lines, ends)).encode())


def _one_copy_per_id(records):
    return len({id(r[1]) for r in records}) == len({r[1] for r in records})


_FAULTS = ("fields3", "fields5", "non-integer", "negative", "flag", "regress",
           "past-64-bits")


def _break_line(rnd, lines, at, records):
    """Put one fault, half the time with a second one, on one record line.
    Returns its 1-based line number and whether a value past 64 bits is
    its first fault."""
    j = rnd.randrange(len(records))
    can_regress = j > 0 and records[j - 1][0] > 0
    faults = [rnd.choice(_FAULTS)]
    if faults[0] == "regress" and not can_regress:
        faults[0] = "negative"
    if rnd.random() < 0.5:
        faults.append(rnd.choice(("negative", "flag", "regress",
                                  "non-integer")))
    t, cid, page, op = (str(v) for v in records[j])
    for f in faults:
        if f == "non-integer":
            bad = rnd.choice(("x", "1.5", "0x1f", "1e3", "--1", "7a"))
            if rnd.random() < 0.5:
                t = bad
            else:
                page = bad
        elif f == "negative":
            if rnd.random() < 0.5:
                t = f"-{rnd.randint(1, 9)}"
            else:
                page = f"-{rnd.randint(1, 9)}"
        elif f == "flag":
            op = rnd.choice(("R", "x", "rw", "W", "0"))
        elif f == "regress" and can_regress:
            t = str(rnd.randrange(records[j - 1][0]))
        elif f == "past-64-bits":
            # a time only on the last record, where no later time regresses
            big = str(2 ** 63 + rnd.randrange(10 ** 6))
            if j == len(records) - 1 and rnd.random() < 0.5:
                t = big
            else:
                page = big
    fields = [t, cid, page, op]
    if faults[0] == "fields3":
        del fields[rnd.randrange(4)]
    elif faults[0] == "fields5":
        fields.insert(rnd.randrange(1, 5), rnd.choice(("9", "#", "w")))
    lines[at[j]] = rnd.choice((" ", "\t")).join(fields)
    return at[j] + 1, faults[0] == "past-64-bits"


@pytest.mark.parametrize("seed", range(40))
def test_load_trace_agrees_with_the_tuple_parser(tmp_path, seed):
    """Random traces of 1 to 5,000 lines give the reference's records, ids
    shared the same way; one broken line makes both raise the same error,
    except that only load_trace rejects a value of 2**63 or more."""
    rnd = random.Random(seed)
    n_lines = rnd.choice((1, 2, 5, rnd.randint(1, 200), rnd.randint(1, 5000),
                          5000))
    lines, at, records = _random_trace(rnd, n_lines)
    p = tmp_path / "t.trace"
    _write_lines(p, rnd, lines)
    trace = load_trace(str(p))
    got, want = list(trace), load_trace_reference(str(p))
    assert want == records
    assert got == want and len(trace) == len(want)
    assert [trace[i] for i in range(len(trace))] == want
    assert _one_copy_per_id(got) and _one_copy_per_id(want)

    ln, past_64_bits = _break_line(rnd, lines, at, records)
    _write_lines(p, rnd, lines)
    with pytest.raises(TraceError) as err:
        load_trace(str(p))
    try:
        load_trace_reference(str(p))
    except TraceError as ref_err:
        assert str(err.value) == str(ref_err)
    else:
        assert past_64_bits
        assert str(err.value) == f"{p}:{ln}: {_PAST_64_BITS}"
    assert str(err.value).startswith(f"{p}:{ln}: ")


def test_a_loaded_trace_holds_under_40_bytes_a_record(tmp_path):
    """A list of (t, cid, page, op) tuples holds about 134 B a record."""
    rnd = random.Random(11)
    t, lines = 0, []
    for _ in range(20_000):
        t += rnd.randrange(60)
        lines.append(f"{t} c{rnd.randrange(8)} {rnd.randrange(1000, 90_000)} "
                     f"{rnd.choice('rw')}\n")
    p = tmp_path / "t.trace"
    p.write_text("".join(lines))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = load_trace(str(p))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace) == 20_000
    assert held <= 40 * 20_000


def _live_contexts(prefix):
    return [o for o in gc.get_objects()
            if type(o) is Context and o.cid.startswith(prefix)]


@pytest.mark.parametrize("enabled", [True, False],
                         ids=["collector-on", "collector-off"])
def test_a_replay_frees_the_one_before_it(tmp_path, monkeypatch, enabled):
    """A replay's contexts and cohorts refer to each other, and
    Simulator.run pauses the collector: run_trace collects before it
    parses, so the contexts of an earlier replay are gone when the next
    replay starts, and the collector is left as it was found. (The
    MemoryModel object itself is freed by reference counting; the cyclic
    Context and Cohort take no weak reference.)"""
    def write(name, prefix):
        rng = SplitMix64(4)
        t, lines = 0, []
        for _ in range(2000):
            t += 1 + rng.randrange(100)
            lines.append(f"{t} {prefix}{rng.randrange(3)} {rng.randrange(300)} "
                         f"{'rw'[rng.randrange(2)]}\n")
        (tmp_path / name).write_text("".join(lines))
        return str(tmp_path / name)

    cfg = resolve(None, {"policy": "swap", "device": "flash",
                         "mem.dram_pages": "128"})
    first = run_trace(cfg, write("first.trace", "first-"), str(tmp_path / "a"))
    assert len(_live_contexts("first-")) == 3
    del first
    left = []
    start = TraceDriver.start

    def checked_start(driver):
        left.append(len(_live_contexts("first-")))
        start(driver)

    monkeypatch.setattr(TraceDriver, "start", checked_start)
    was_enabled = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        _, second = run_trace(cfg, write("second.trace", "second-"),
                              str(tmp_path / "b"))
        left_enabled = gc.isenabled()
    finally:
        gc.enable() if was_enabled else gc.disable()
    assert left == [0] and second.accesses == 2000
    assert left_enabled is enabled


@pytest.mark.parametrize("policy_cls", [SwapPolicy, DmxPolicy],
                         ids=["swap", "dmx"])
def test_a_replay_keeps_every_page_a_first_page(tmp_path, policy_cls):
    """TraceDriver tells a birth from an access by `idx in ctx.pages`:
    that needs every allocated page to stay a one-page cohort through
    faults, evictions and write-backs."""
    rng = SplitMix64(9)
    records, t = [], 0
    for _ in range(3000):
        t += 1 + rng.randrange(250)
        records.append((t, "ab"[rng.randrange(2)], rng.randrange(160),
                        "rw"[rng.randrange(2)]))
    p = tmp_path / "t.trace"
    p.write_text("".join(f"{t} {c} {i} {op}\n" for t, c, i, op in records))
    sim, m, dev = build(dram=128, flash=1024)
    pol = policy_cls(m, dev)
    driver = TraceDriver(sim, m, pol, load_trace(str(p)))
    driver.start()
    sim.run(records[-1][0])
    sim.drain()
    assert pol.counters["demand_faults"] > 0 and pol.counters["evictions"] > 0
    for cid, ctx in m.contexts.items():
        born = {idx for _, c, idx, _ in records if c == cid}
        assert sorted(ctx.pages) == sorted(born) == list(ctx.starts)
        assert all(c.hi == c.lo + 1 for c in ctx.pages.values())
    m.check_full()


def test_driver_replays_in_timestamp_order(tmp_path):
    p = tmp_path / "t.trace"
    p.write_text("0 c1 0 w\n10 c1 0 r\n20 c2 5 r\n")
    sim, m, dev, pol = swap_stack()
    driver = TraceDriver(sim, m, pol, load_trace(str(p)))
    driver.start()
    sim.run(20)
    sim.drain()
    assert driver.accesses == 3
    assert sorted(m.contexts) == ["c1", "c2"]
    assert m.census()["total"] == 2
    assert pol.counters["demand_faults"] == 0  # first refs are births


def _replay(records, log_to):
    sim, m, dev, pol = swap_stack(dram=32, flash=512, overhead=0)
    log = []
    pol.access_log = log.append
    driver = TraceDriver(sim, m, pol, records)
    driver.start()
    if records:
        sim.run(records[-1][0])
    sim.drain()
    tiers = {}
    for cid, ctx in m.contexts.items():
        for c in ctx.pages.values():
            for idx in range(c.lo, c.hi):
                tiers[(cid, idx)] = c.tier
    log_to.write_text("".join(log))
    return logged_accesses(log), dict(pol.counters), tiers


def test_dumped_run_replays_to_the_same_fault_sequence(tmp_path):
    rng = SplitMix64(3)
    t, lines = 0, []
    for _ in range(120):
        t += 1000
        lines.append(f"{t} {'ab'[rng.randrange(2)]} {rng.randrange(64)} "
                     f"{'rw'[rng.randrange(2)]}")
    first = tmp_path / "gen.trace"
    first.write_text("\n".join(lines) + "\n")

    dump1 = tmp_path / "round1.trace"
    dump2 = tmp_path / "round2.trace"
    log1, counters1, tiers1 = _replay(load_trace(str(first)), dump1)
    log2, counters2, tiers2 = _replay(load_trace(str(dump1)), dump2)
    assert len(log1) == 120
    assert log1 == log2
    assert counters1 == counters2 and counters1["demand_faults"] > 0
    assert tiers1 == tiers2
    assert dump1.read_bytes() == dump2.read_bytes()

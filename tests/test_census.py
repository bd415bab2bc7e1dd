import dataclasses
import multiprocessing
import pickle
import random
import re
import time
import tracemalloc
from collections import Counter
from concurrent.futures import Future

import numpy as np
import pytest

from hyperreguli import census, covers
from hyperreguli.census import (
    DEFAULT_CHUNK_SIZE,
    CoverTable,
    TraceCounts,
    run_census,
    trace_is_cover_check,
    trace_key_bytes,
    type_a_count,
    type_b_count,
    type_c_count,
)
from hyperreguli.census import _classify_block, _sweep
from hyperreguli.covers import cover_size, cover_type1, enumerate_covers, row_hash, total_count
from hyperreguli.gf import factorize, make_field
from hyperreguli.hyperreg import andre_switching_sets, transversal_count
from hyperreguli.pg5 import (
    PIVOT_PATTERNS,
    block_points,
    count_planes,
    enumeration_chunks,
    pattern_block_size,
    plane_from_points,
    plane_from_rows,
    planes_block_np,
    point_table,
    run_length,
)
from hyperreguli.spread import (
    LabelWork,
    block_labels,
    build_spread,
    point_labels,
    spread_element,
)

from helpers import (
    classify_by_meets,
    classify_plane,
    enumerate_planes,
    gather_points,
    locate_np,
    odometer_plane,
    plane_points_by_arithmetic,
    seeded_blocks,
    trace_check_oracle,
    trace_counter,
)


def field(q):
    ((p, h),) = factorize(q).items()
    return make_field(p, h)


def cover_table(ctx):
    return CoverTable(enumerate_covers(ctx))


@pytest.fixture(scope="module")
def table2(ctx2):
    return cover_table(ctx2)


@pytest.fixture(scope="module")
def sweep2(ctx2, table2):
    """(nA, nB, nC, hits per key row, witnesses) of the sweep run_census uses, q = 2."""
    return _sweep(ctx2, 1, table2, DEFAULT_CHUNK_SIZE)


def array_verdict(ctx, table, hits, witnesses):
    tc = trace_is_cover_check(ctx, TraceCounts(table, hits, witnesses), table)
    assert tc.checked
    return tc.matched, tc.multiplicity_ok


@pytest.fixture(scope="module")
def cover_keys2(ctx2):
    return {trace_key_bytes(k) for k in enumerate_covers(ctx2).keys}


def test_classify_spread_element(spread2):
    for m in (0, 3, 8):
        cls = classify_plane(spread2, spread2.element(m))
        assert cls.tag == "A" and cls.trace == (m,)


def test_classify_switching_plane_is_b_with_cover_trace(ctx3, spread3):
    cover = cover_type1(ctx3, 0, 1)
    sp = andre_switching_sets(ctx3, spread3, 0, 1)
    for pl in sp.y_planes[:3] + sp.z_planes[:3]:
        cls = classify_plane(spread3, pl)
        assert cls.tag == "B"
        assert cls.trace == cover.key


def test_classify_line_span_is_c(ctx2, spread2):
    j0 = spread2.element(0)
    outside = (0, 0, 0, 1, 0, 0)  # a point of J(inf)
    pl = plane_from_points(ctx2.base, j0.basis[0], j0.basis[1], outside)
    cls = classify_plane(spread2, pl)
    assert cls.tag == "C" and cls.trace == (0,)


@pytest.mark.parametrize("q,expected", [
    (2, (9, 504, 882, 1395)),
    (3, (28, 19656, 14196, 33880)),
])
def test_census_counts(q, expected, ctx_by_q, spread_by_q):
    report = run_census(ctx_by_q[q], spread_by_q[q])
    assert (report.count_a, report.count_b, report.count_c, report.total) == expected
    assert report.covers_total == total_count(q)
    assert report.identity_x_eq_y
    assert report.count_b == report.covers_total * transversal_count(q)
    assert report.trace_check.checked
    assert report.trace_check.matched and report.trace_check.multiplicity_ok


def test_census_agrees_with_reference_classifier_q2(spread2, table2, sweep2):
    tags = Counter()
    traces = Counter()
    for pl in enumerate_planes(spread2.ctx.base):
        cls = classify_plane(spread2, pl)
        tags[cls.tag] += 1
        if cls.tag == "B":
            traces[trace_key_bytes(cls.trace)] += 1
    na, nb, nc, hits, witnesses = sweep2
    assert (tags["A"], tags["B"], tags["C"]) == (na, nb, nc)
    assert trace_counter(table2.keys, hits, witnesses) == traces


@pytest.mark.parametrize("q,sample", [(2, None), (3, 10000), (4, 10000)])
def test_classify_plane_agrees_with_meet_dim_oracle(q, sample, ctx_by_q, spread_by_q):
    """Tally classification vs the direct rank-based meet profile."""
    ctx, spread = ctx_by_q[q], spread_by_q[q]
    if sample is None:
        planes = enumerate_planes(ctx.base)
    else:
        picks = set(random.Random(q).sample(range(count_planes(q)), sample))
        planes = (pl for i, pl in enumerate(enumerate_planes(ctx.base)) if i in picks)
    for pl in planes:
        assert classify_plane(spread, pl).tag == classify_by_meets(spread, pl)


def test_census_invariant_under_worker_count(ctx2, ctx3):
    def signature(report):
        return (report.count_a, report.count_b, report.count_c, report.total,
                report.covers_total, report.identity_x_eq_y,
                report.trace_check.checked, report.trace_check.matched,
                report.trace_check.multiplicity_ok)

    base2 = signature(run_census(ctx2, jobs=1))
    assert signature(run_census(ctx2, jobs=2)) == base2
    assert signature(run_census(ctx2, jobs=8)) == base2
    base3 = signature(run_census(ctx3, jobs=1))
    assert signature(run_census(ctx3, jobs=2)) == base3
    assert signature(run_census(ctx3, jobs=8)) == base3


def test_census_invariant_under_chunk_size(ctx2, monkeypatch):
    reports = []
    for c in (37, 512, 1 << 16):
        monkeypatch.setattr(census, "DEFAULT_CHUNK_SIZE", c)
        reports.append(run_census(ctx2))
    counts = {(r.count_a, r.count_b, r.count_c, r.total) for r in reports}
    assert counts == {(9, 504, 882, 1395)}


def test_census_report_invariant_under_chunk_size_q3(ctx3, monkeypatch):
    """At odd p too, chunk sizes whose last chunk of a pattern is short,
    and a second worker, give the same report, traces included."""
    def report(chunk_size=DEFAULT_CHUNK_SIZE, jobs=1):
        monkeypatch.setattr(census, "DEFAULT_CHUNK_SIZE", chunk_size)
        d = run_census(ctx3, jobs=jobs).to_dict()
        del d["runtime_seconds"]
        return d

    want = report()
    for chunk_size in (1000, 4096, 1 << 16):  # 3^9 = 4*4096 + 3299
        assert report(chunk_size) == want
    assert report(1000, jobs=2) == want
    assert (want["count_a"], want["count_b"], want["count_c"]) == (28, 19656, 14196)
    assert want["trace_check"] == {"checked": True, "matched": True, "multiplicity_ok": True}


def test_census_invariant_under_cubic_modulus_override():
    from hyperreguli.gf import make_field

    alt2 = make_field(2, cubic_modulus=(1, 0, 1, 1))
    r2 = run_census(alt2)
    assert (r2.count_a, r2.count_b, r2.count_c, r2.total) == (9, 504, 882, 1395)
    assert r2.covers_total == 36 and r2.identity_x_eq_y
    assert r2.trace_check.matched and r2.trace_check.multiplicity_ok

    alt3 = make_field(3, cubic_modulus=(2, 2, 0, 1))
    r3 = run_census(alt3)
    assert (r3.count_a, r3.count_b, r3.count_c, r3.total) == (28, 19656, 14196, 33880)
    assert r3.covers_total == 756 and r3.identity_x_eq_y
    assert r3.trace_check.matched and r3.trace_check.multiplicity_ok


def test_closed_forms():
    expected = {
        2: (9, 504, 882, 1395),
        3: (28, 19656, 14196, 33880),
        4: (65, 262080, 114660, 376805),
        5: (126, 1953000, 605430, 2558556),
    }
    for q, (a, b, c, total) in expected.items():
        assert type_a_count(q) == a
        assert type_b_count(q) == b
        assert type_c_count(q) == c
        assert count_planes(q) == total
        assert a + b + c == total
        assert b == total_count(q) * 2 * cover_size(q)


def test_trace_check_standalone_q2(ctx2, table2, sweep2, cover_keys2):
    assert array_verdict(ctx2, table2, *sweep2[3:]) == (True, True)
    assert trace_check_oracle(2, trace_counter(table2.keys, *sweep2[3:]), cover_keys2) == \
        (True, True)


def test_trace_multiplicities_are_constant_q2(table2, sweep2, cover_keys2):
    traces = TraceCounts(table2, *sweep2[3:])
    assert set(traces) == cover_keys2
    assert set(traces.hits) == {14} and not traces.witnesses
    assert len(traces) == len(table2) == len(cover_keys2)
    # what the benchmark's trace hook computes: a plain set, never a view
    matched = set(traces) & table2
    assert type(matched) is set and matched == cover_keys2


def test_iterating_the_traces_copies_no_key_rows_q5(ctx5):
    """Iterating the traces of a passing q = 5 census (every one of the
    31,500 covers hit 2k times, no witness) allocates under 1 MB: the keys
    take 1.95 MB, and only the indices of the hit rows are made."""
    table = cover_table(ctx5)
    traces = TraceCounts(table, np.full(len(table.keys), 2 * cover_size(5)), Counter())
    assert trace_is_cover_check(ctx5, traces, table).multiplicity_ok
    assert table.keys.nbytes > 1 << 20
    tracemalloc.start()
    try:
        n = sum(1 for _ in traces)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == len(table.keys) == 31500
    assert peak < 1 << 20


def test_trace_views_answer_lookups_q2(table2, sweep2, cover_keys2):
    traces = TraceCounts(table2, sweep2[3], Counter({b"\0" * 14: 3}))
    some_cover = min(cover_keys2)
    assert some_cover in table2 and some_cover in traces
    assert b"\0" * 14 in traces and b"\0" * 14 not in table2
    for absent in (b"\1" * 14, b"\0" * 13, "not bytes", 7):
        assert absent not in table2 and absent not in traces


def test_trace_check_failure_paths_q2(ctx2, table2, sweep2, cover_keys2):
    """The array verdict on a non-cover trace, a count off by one, a missing
    cover and a repeated key row; the first three agree with the oracle."""
    k = cover_size(2)
    hits, witnesses = sweep2[3:]
    i = int(table2.lookup(table2.keys[:1])[0])

    def both(hits, witnesses):
        got = array_verdict(ctx2, table2, hits, witnesses)
        assert got == trace_check_oracle(2, trace_counter(table2.keys, hits, witnesses),
                                         cover_keys2)
        return got

    not_a_cover = witnesses + Counter({trace_key_bytes([0] * k): 1})  # repeated labels
    assert both(hits, not_a_cover) == (False, False)

    for delta in (1, -1):
        off_by_one = hits.copy()
        off_by_one[i] += delta
        assert both(off_by_one, witnesses) == (True, False)

    missing = hits.copy()
    missing[i] = 0
    assert both(missing, witnesses) == (True, False)

    # a cover listed twice: the sweep counts its traces on one of its rows
    cover_set = enumerate_covers(ctx2)
    keys = np.concatenate([cover_set.keys, cover_set.keys[:1]])
    order = np.argsort(row_hash(keys)).astype(np.int32)
    twice = CoverTable(dataclasses.replace(cover_set, keys=keys, order=order,
                                           hashes=row_hash(keys[order])))
    assert len(twice) == len(table2) and len(twice.keys) == len(table2.keys) + 1
    na, nb, nc, hits, witnesses = _sweep(ctx2, 1, twice, DEFAULT_CHUNK_SIZE)
    assert sorted(hits[[0, -1]]) == [0, 2 * k]
    assert array_verdict(ctx2, twice, hits, witnesses) == (True, False)
    # even with every row counted 2k, the repeated key fails the check
    assert array_verdict(ctx2, twice, np.full(len(hits), 2 * k), witnesses) == (True, False)


@pytest.mark.parametrize("q", [2, 3])
def test_array_verdict_matches_oracle_under_perturbations(q, ctx_by_q):
    """Seeded random edits of a passing sweep: counts shifted or zeroed,
    non-cover traces added; the array verdict always equals the oracle's."""
    ctx = ctx_by_q[q]
    table = cover_table(ctx)
    _, _, _, hits, witnesses = _sweep(ctx, 1, table, DEFAULT_CHUNK_SIZE)
    cover_keys = {trace_key_bytes(r) for r in table.keys}
    k, n = cover_size(q), len(table.keys)
    rng = random.Random(1000 + q)
    seen = Counter()
    for _ in range(60):
        h, w = hits.copy(), Counter(witnesses)
        for _ in range(rng.randrange(3)):
            edit = rng.randrange(3)
            if edit == 0:
                h[rng.randrange(n)] += rng.choice([-2, -1, 1, 2])
            elif edit == 1:
                h[rng.randrange(n)] = 0
            else:
                row = sorted(rng.choices(range(ctx.q3 + 1), k=k))  # may repeat labels
                if trace_key_bytes(row) not in cover_keys:
                    w[trace_key_bytes(row)] += rng.randrange(1, 3)
        want = trace_check_oracle(q, trace_counter(table.keys, h, w), cover_keys)
        assert array_verdict(ctx, table, h, w) == want
        seen[want] += 1
    assert set(seen) == {(True, True), (True, False), (False, False)}


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13])
def test_block_points_match_gather_oracle(q):
    """point_table's rows at the column codes give the table-gather points
    exactly."""
    ctx = field(q)
    B = seeded_blocks(q, random.Random(q))
    assert np.array_equal(block_points(ctx.base, B), gather_points(ctx.base, B))


@pytest.mark.parametrize("q", [2, 3, 5, 7, 16])
def test_point_labels_match_gather_oracle(q):
    """point_labels on a few coefficient indices, in any order, gives the
    located labels of those table-gather points, in both flat-index widths
    (uint16 to q = 5, uint32 from q = 7)."""
    ctx = field(q)
    rng = random.Random(200 + q)
    B = seeded_blocks(q, rng, size=16)
    k = q * q + q + 1
    cols = rng.sample(range(k), q)
    want = locate_np(ctx, gather_points(ctx.base, B)[:, cols])
    assert np.array_equal(point_labels(ctx, B, cols), want)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_free_column_kernel_matches_gather_oracle(q):
    """block_labels on ranges of whole runs of one pivot pattern, given as
    PlaneBlocks of run heads, which sum each run's slow columns once, gather
    each run's table of q labels per point and expand it over the run's
    planes, give the row-sorted located labels of the table-gather points.
    For each pattern, the fast-less (3, 4, 5) among them (whose one plane
    block_labels labels by point_labels, leaving the work unread): its last
    chunk of whole runs (as enumeration_chunks with chunks of 1500 planes),
    where the pattern has two runs or more, each under 750 planes, a seeded
    range of two or more runs and up to 1500 planes, and a seeded single
    run.
    One LabelWork, larger than any range, serves all 20 patterns; the single
    runs are also labelled without a work, in a LabelWork sized for the
    block.  Single runs are tested at every run length s = q, q^2, q^3."""
    ctx = field(q)
    rng = random.Random(300 + q)
    chunk = 1500
    work = LabelWork(ctx, max(chunk, q**3))
    lengths = set()
    for pattern in PIVOT_PATTERNS:
        size, s = pattern_block_size(q, pattern), run_length(q, pattern)
        runs, step = size // s, max(1, chunk // s)
        ranges = [((runs - 1) // step * step * s, size)]
        if step > 1 and runs > 1:
            start = rng.randrange(runs - 1)
            ranges.append((start * s, min(runs, start + rng.randrange(2, step + 1)) * s))
        single = rng.randrange(runs) * s
        lengths.add(s)
        for start, stop in ranges + [(single, single + s)]:
            block = planes_block_np(q, pattern, start, stop)
            want = np.sort(locate_np(ctx, gather_points(ctx.base, block.bases())), axis=1)
            got = block_labels(ctx, block, work)
            assert np.array_equal(got, want), (pattern, start, stop)
            if start == single:
                got = block_labels(ctx, block)
                assert np.array_equal(got, want), (pattern, start, stop)
    assert {q, q * q, q**3} <= lengths


@pytest.mark.parametrize("q", [9, 16])
def test_one_plane_needs_one_plane_of_work(q):
    """block_labels without a work sizes its arrays to the block: one run of
    each pivot pattern (up to q^3 planes), given with the pattern and as
    bases, gives the oracle's labels, and the one plane of the fast-less
    pattern (3, 4, 5), labelled by point_labels, allocates under 64 KB
    (tracemalloc: 7 KB at q = 16, where the whole expansion index takes
    8.9 MB)."""
    ctx = field(q)
    rng = random.Random(500 + q)
    for pattern in PIVOT_PATTERNS:
        size, s = pattern_block_size(q, pattern), run_length(q, pattern)
        j = rng.randrange(size // s) * s
        block = planes_block_np(q, pattern, j, j + s)
        B = block.bases()
        want = np.sort(locate_np(ctx, gather_points(ctx.base, B)), axis=1)
        assert np.array_equal(block_labels(ctx, block), want), (pattern, j)
        assert np.array_equal(block_labels(ctx, B), want), (pattern, j)
    assert len(B) == 1
    tracemalloc.start()
    try:
        block_labels(ctx, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10


@pytest.mark.parametrize("q, base_modulus", [
    (2, None), (4, None), (8, None), (8, (1, 0, 1, 1)), (16, None), (16, (1, 0, 0, 1, 1)),
])
def test_char2_block_labels_match_gather_oracle(q, base_modulus):
    """At p = 2, block_labels on all six columns gives the row-sorted located
    labels of the table-gather points, under the default base modulus and
    under x^3+x^2+1 (q = 8) and x^4+x^3+1 (q = 16), whose multiplication by
    t folds the top bit back in differently."""
    ctx = make_field(2, q.bit_length() - 1, base_modulus=base_modulus)
    B = seeded_blocks(q, random.Random(q))
    want = np.sort(locate_np(ctx, gather_points(ctx.base, B)), axis=1)
    got = block_labels(ctx, B)
    assert got.dtype == np.uint16 and np.array_equal(got, want)


@pytest.mark.parametrize("q", [7, 8, 9, 13, 16])
def test_classify_block_labels_at_large_q(q):
    """Located labels where q^3 > 256 (uint8 indices wrap) and the flat
    indices need uint32."""
    ctx = field(q)
    spread = build_spread(ctx, check=False)
    B = seeded_blocks(q, random.Random(100 + q), size=16)
    codes, *_ = _classify_block(ctx, B)
    for basis, labels in zip(B, codes):
        pl = plane_from_rows(ctx.base, basis.tolist())
        want = sorted(spread.locate(pt) for pt in plane_points_by_arithmetic(ctx.base, pl))
        assert labels.tolist() == want


def test_census_chunk_temporaries_stay_small(ctx5):
    """Beside the sweep's work arrays, a q = 5 chunk of 16,375 planes (the
    whole runs of 125 in 2^14, as enumeration_chunks cuts them) with the
    trace tally allocates under 1 MB at a time (tracemalloc; 0.41 MB from run
    heads, 0.62 MB when every plane's basis was built, with the equality
    mask and the B rows in the work arrays, 1.04 MB with the B
    rows copied out for the tally); with the GF(p) product and its quotient
    made afresh for every chunk it took 6.7 MB."""
    table = cover_table(ctx5)
    n = DEFAULT_CHUNK_SIZE // 125 * 125  # whole runs of pattern (0, 1, 2), as enumeration_chunks
    work = census._ChunkWork(ctx5, n)
    census._census_chunk(ctx5, table, work, 0, 0, n)  # builds ratio_np
    tracemalloc.start()
    try:
        for start in (n, 5 * n):
            counts = census._census_chunk(ctx5, table, work, 0, start, start + n)[:3]
            assert sum(counts) == n
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_census_worker_arrays_at_q16_stay_under_48_mb():
    """A q = 16 census worker's arrays, a fresh _ChunkWork for 2^14 planes
    and what it does to classify a 2^14-plane chunk of pattern (0, 1, 2) and
    the one plane of the fast-less pattern (3, 4, 5) without traces, peak
    under 48 MiB (tracemalloc: 37.7 MiB with the run sums summed into the
    gather index, 54.8 MiB when the work also held an n*k uint32 array of
    run sums, sized for bases).  The field's tables and the point table are
    built before."""
    ctx = field(16)
    ctx.ratio_np, point_table(ctx.base)
    fastless = PIVOT_PATTERNS.index((3, 4, 5))
    tracemalloc.start()
    try:
        work = census._ChunkWork(ctx, DEFAULT_CHUNK_SIZE)
        for chunk in ((0, 0, DEFAULT_CHUNK_SIZE), (fastless, 0, 1)):
            counts = census._census_chunk(ctx, None, work, *chunk)[:3]
            assert sum(counts) == chunk[2]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 << 20


def test_repeat_count_stops_at_row_boundaries(ctx3, spread3):
    """The equality pass runs over the flat label rows, so a pair that
    crosses from one row's last label to the next row's first must not
    count.  Here it would at four boundaries: J(0) twice, J(0) before a B
    plane through a point of J(0), that plane (through a point of J(inf))
    before J(inf), and J(0) before a C plane through a line of J(0).  The
    masks match the rank-based classifier row by row, with arrays sized
    for the block and in a chunk's work whose mask holds stale bytes."""
    q, base = ctx3.q, ctx3.base
    j0, j_inf = spread3.element(0), spread3.element(ctx3.q3)
    rng = random.Random(3)
    while True:
        try:
            b_plane = plane_from_points(base, j0.basis[0], j_inf.basis[0],
                                        [rng.randrange(q) for _ in range(6)])
        except ValueError:
            continue
        if classify_by_meets(spread3, b_plane) == "B":
            break
    c_plane = plane_from_points(base, j0.basis[0], j0.basis[1], j_inf.basis[0])
    planes = [j0, j0, b_plane, j_inf, j0, c_plane]
    B = np.array([pl.basis for pl in planes], dtype=np.uint8)
    want = [classify_by_meets(spread3, pl) for pl in planes]
    assert want == ["A", "A", "B", "A", "A", "C"]
    work = census._ChunkWork(ctx3, 16)
    work.rows[...] = 0x0101  # a mask of stale True bytes
    for got in (_classify_block(ctx3, B), _classify_block(ctx3, B, work)):
        codes, is_a, is_b, is_c = got
        assert [i for i in range(len(B) - 1) if codes[i, -1] == codes[i + 1, 0]] == [0, 1, 2, 4]
        tags = np.select([is_a, is_b, is_c], ["A", "B", "C"], "-")
        assert tags.tolist() == want


def test_repeat_count_of_an_a_plane_at_q16_does_not_wrap():
    """At q = 16, k = 273, so an A plane has 272 repeats: summed in uint8
    they would wrap to 16 = q and make the plane a C candidate whose first
    repeat equals the label q places on.  Spread elements, among them
    J(inf), come out A and nothing else, in arrays sized for the block and
    in a chunk's work."""
    ctx = field(16)
    planes = [spread_element(ctx, m) for m in (0, 1, 2021, ctx.q3)]
    B = np.array([pl.basis for pl in planes], dtype=np.uint8)
    for codes, is_a, is_b, is_c in (_classify_block(ctx, B),
                                    _classify_block(ctx, B, census._ChunkWork(ctx, 8))):
        assert (codes == codes[:, :1]).all() and codes.shape[1] == 273
        assert is_a.all() and not (is_b | is_c).any()


def test_sweep_traces_invariant_under_worker_count_q3(ctx3):
    table = cover_table(ctx3)
    one = _sweep(ctx3, 1, table, 4096)
    two = _sweep(ctx3, 2, table, 4096)
    assert two[:3] == one[:3] and two[4] == one[4] == Counter()
    assert np.array_equal(two[3], one[3])
    assert set(one[3].tolist()) == {2 * cover_size(3)}


def test_sweep_uneven_shares_match_one_job_q3(ctx3):
    """Three shares of uneven size (17, 17 and 21 chunks; 11,280, 11,280
    and 11,320 planes) give the one-job counts, hits and witnesses."""
    table = cover_table(ctx3)
    plans = [enumeration_chunks(3, 4096, j, 3) for j in range(3)]
    assert [len(plan) for plan in plans] == [17, 17, 21]
    assert [sum(stop - start for _, start, stop in plan) for plan in plans] == [11280, 11280, 11320]
    one = _sweep(ctx3, 1, table, 4096)
    three = _sweep(ctx3, 3, table, 4096)
    assert three[:3] == one[:3] and three[4] == one[4] == Counter()
    assert np.array_equal(three[3], one[3])


class _InProcessPool:
    """A ProcessPoolExecutor stand-in that runs each task in this process
    when it is submitted and records max_workers and the tasks."""

    made = []

    def __init__(self, max_workers, mp_context, initializer, initargs):
        self.max_workers, self.tasks = max_workers, []
        initializer(*initargs)
        self.made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, task):
        self.tasks.append(task)
        future = Future()
        future.set_result(fn(task))
        return future


@pytest.mark.parametrize("q, jobs, chunk_size", [(2, 3, DEFAULT_CHUNK_SIZE), (2, 64, 1 << 30),
                                                 (3, 3, 4096), (2, 1, DEFAULT_CHUNK_SIZE),
                                                 (2, 2, 1 << 30), (2, 100, 1 << 30)])
def test_pool_shares_cover_every_chunk_once(ctx_by_q, monkeypatch, q, jobs, chunk_size):
    """The enumeration is cut into min(jobs, q^6) shares (enumeration_chunks):
    the pool gets one worker fewer and the plans of every share but the
    first, which the main process reduces, so every plane is reduced exactly
    once and no worker starts idle, not even at 64 shares of q = 2, where
    pattern (0, 1, 2) has one run per share; one share makes no pool."""
    ctx = ctx_by_q[q]
    table = cover_table(ctx)
    monkeypatch.setattr(_InProcessPool, "made", [])
    monkeypatch.setattr(census, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(census, "_worker", None)
    got = _sweep(ctx, jobs, table, chunk_size)

    n = min(jobs, q**6)
    shares = [enumeration_chunks(q, chunk_size, j, n) for j in range(n)]
    assert all(len(share) for share in shares)
    planes = sorted((i, p) for share in shares for i, start, stop in share for p in range(start, stop))
    assert planes == [(i, p) for i, pattern in enumerate(PIVOT_PATTERNS)
                      for p in range(pattern_block_size(q, pattern))]
    if n == 1:
        assert _InProcessPool.made == [] and census._worker is None
    else:
        (pool,) = _InProcessPool.made
        assert pool.max_workers == n - 1 == len(pool.tasks)
        assert pool.tasks == shares[1:]
    want = _sweep(ctx, 1, table, chunk_size)
    assert got[:3] == want[:3] and got[4] == want[4] and np.array_equal(got[3], want[3])


def test_pooled_witness_is_the_first_failing_share_and_no_worker_is_left(ctx3, monkeypatch):
    """With a plane of no class in a chunk of each of the two shares, a
    two-job census raises the plane of the first share, which the main
    process reduces: the first failing share in share order.  With only the
    second share's, the worker's error reaches the caller.  No worker
    outlives the census, failed or passed."""
    shares = [list(enumeration_chunks(3, 4096, j, 2)) for j in range(2)]
    bad = {shares[0][1][:2], shares[1][0][:2]}  # (pattern index, start)
    real = census._classify_block

    def classify(ctx, B, work=None):
        if (PIVOT_PATTERNS.index(B.pattern), B.start) in bad:
            raise RuntimeError(f"no class: pivot pattern {B.pattern}, odometer index {B.start}")
        return real(ctx, B, work)

    monkeypatch.setattr(census, "_classify_block", classify)
    for first, name in ((shares[0][1], "main"), (shares[1][0], "worker")):
        pattern = PIVOT_PATTERNS[first[0]]
        with pytest.raises(RuntimeError, match=rf"pivot pattern {re.escape(str(pattern))}, "
                                               rf"odometer index {first[1]}$"):
            _sweep(ctx3, 2, None, 4096)
        assert multiprocessing.active_children() == [], name
        bad.discard(shares[0][1][:2])
    monkeypatch.setattr(census, "_classify_block", real)
    assert _sweep(ctx3, 2, None, 4096)[:3] == (28, 19656, 14196)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [2, 3])
def test_shares_balance_planes_q4(ctx4, workers):
    """At q = 4, where the smaller pivot patterns are one chunk each (so
    whole chunks dealt out put 4.4% above the mean for 3 workers, and
    interleaved ones 7.4% and 8.7% for 2 and 3), each share takes the same
    slice of every pattern's runs: the shares are within 1% of the mean,
    each in enumeration order, and the pooled sweep gives the one-job
    counts, hits and witnesses."""
    shares = [list(enumeration_chunks(4, DEFAULT_CHUNK_SIZE, j, workers)) for j in range(workers)]
    assert all(share == sorted(share) for share in shares)
    planes = [sum(stop - start for _, start, stop in share) for share in shares]
    assert sum(planes) == count_planes(4)
    assert max(planes) / (count_planes(4) / workers) - 1 < 0.01

    table = cover_table(ctx4)
    one = _sweep(ctx4, 1, table, DEFAULT_CHUNK_SIZE)
    got = _sweep(ctx4, workers, table, DEFAULT_CHUNK_SIZE)
    assert got[:3] == one[:3] and got[4] == one[4] == Counter()
    assert np.array_equal(got[3], one[3])


@pytest.mark.parametrize("q, cubic_modulus", [(2, (1, 0, 1, 1)), (3, (2, 2, 0, 1))])
def test_pooled_census_under_cubic_modulus_override(q, cubic_modulus):
    """Pool workers inherit the parent's field, a non-default cubic modulus
    included: two jobs give the one-job report."""
    ctx = make_field(q, cubic_modulus=cubic_modulus)
    assert ctx.cubic_modulus != make_field(q).cubic_modulus

    def report(jobs):
        d = run_census(ctx, jobs=jobs).to_dict()
        del d["runtime_seconds"]
        return d

    want = report(1)
    assert want["trace_check"] == {"checked": True, "matched": True, "multiplicity_ok": True}
    assert report(2) == want


def test_census_pool_shares_the_table_without_pickling(ctx3, monkeypatch):
    """The pool forks, so its workers inherit the table: a table that
    cannot be pickled still gives the passing q = 3 census."""
    def refuse(self):
        raise pickle.PicklingError("CoverTable must not be pickled")

    monkeypatch.setattr(CoverTable, "__reduce__", refuse)
    with pytest.raises(pickle.PicklingError):
        pickle.dumps(cover_table(ctx3))
    report = run_census(ctx3, jobs=2)
    assert (report.count_a, report.count_b, report.count_c) == (28, 19656, 14196)
    assert report.trace_check.matched and report.trace_check.multiplicity_ok


@pytest.mark.parametrize("multipliers", ["equal", "zero"])
def test_census_exact_under_hash_collisions(ctx2, ctx3, monkeypatch, multipliers):
    """Covers sharing a hash are told apart by their labels: same reports."""
    def report(ctx):
        d = run_census(ctx).to_dict()
        del d["runtime_seconds"]
        return d

    want = {q: report(ctx) for q, ctx in ((2, ctx2), (3, ctx3))}
    value = 1 if multipliers == "equal" else 0
    monkeypatch.setattr(covers, "_HASH_MULTIPLIERS",
                        np.full_like(covers._HASH_MULTIPLIERS, value))
    for q, ctx in ((2, ctx2), (3, ctx3)):
        table = cover_table(ctx)
        assert len(np.unique(table.hashes)) < len(table.keys)
        assert np.array_equal(table.lookup(table.keys), np.arange(len(table.keys)))
        assert report(ctx) == want[q]


def test_row_sharing_a_cover_hash_is_a_witness(ctx2, cover_keys2):
    # the hash never reads a row's last label: a cover ending in infinity,
    # with that label moved past it, keeps the cover's hash and is no cover
    table = cover_table(ctx2)
    cover = table.keys[table.keys[:, -1] == 8][0]
    row = cover.astype(np.int32)
    row[-1] += 1
    assert trace_key_bytes(row) not in cover_keys2
    assert row_hash(row[None]) == row_hash(cover[None])

    rows = np.stack([cover.astype(np.int32), row])
    assert table.lookup(rows)[1] == -1
    hits, witnesses = table.tally(rows)
    assert table.keys[hits].tolist() == [cover.tolist()]
    assert witnesses == Counter({trace_key_bytes(row): 1})
    counts = np.bincount(hits, minlength=len(table.keys))
    tc = trace_is_cover_check(ctx2, TraceCounts(table, counts, witnesses), table)
    assert tc.matched is False and tc.multiplicity_ok is False


def test_label_past_uint16_is_a_witness(ctx3):
    """An int32 row whose first label is a cover's plus 2^16 is hashed as
    its uint16 cast, the cover's hash, but compared uncast: a witness, not
    a hit, through lookup and tally alike."""
    table = cover_table(ctx3)
    cover = table.keys[5]
    row = cover.astype(np.int32)
    row[0] += 1 << 16
    assert row_hash(row[None]) == row_hash(cover[None])
    rows = np.stack([row, cover.astype(np.int32)])
    assert table.lookup(rows).tolist() == [-1, 5]
    hits, witnesses = table.tally(rows)
    assert hits.tolist() == [5] and witnesses == Counter({trace_key_bytes(row): 1})


@pytest.mark.parametrize("where", ["tail", "word"])
def test_flat_compare_agrees_with_the_row_compare(ctx3, where):
    """The all-cover check compares n*k labels as uint64 words and the
    n*k mod 4 after the last word as uint16.  With n*k = 1 mod 4 at q = 3,
    one row placed last in the lookup and no cover, through its last label
    (the one tail label, which the hash never reads) or its first (in a
    word), is found by both compares, with a chunk's work arrays or without."""
    table = cover_table(ctx3)
    rows = table.keys[:101].copy()
    assert rows.size % 4 == 1
    if where == "tail":
        rows[-1, -1] = 28  # past infinity: the same hash, so the cover is the candidate
    else:
        rows[-1, 0] = rows[-1, 1]  # a repeated label: no cover
    want = lookup_oracle(table, rows)
    assert want[:-1].tolist() == list(range(100)) and want[-1] == -1
    work = census._ChunkWork(ctx3, len(rows))
    for got in (table.lookup(rows), table.lookup(rows, work.lookup)):
        assert np.array_equal(got, want)
    hits, witnesses = table.tally(rows, work.lookup)
    assert hits.tolist() == list(range(100))
    assert witnesses == Counter({trace_key_bytes(rows[-1]): 1})


def test_cover_table_holds_sorted_hashes_and_no_key_copy(ctx3):
    """The table holds the row hashes of the keys ascending, in the order of
    its permutation, no copy of the keys, and a slot table of
    2^(bit_length(N) + 1) int32 positions, at most two slots per key; it
    finds every key at its own row."""
    cover_set = enumerate_covers(ctx3)
    keys = cover_set.keys
    table = CoverTable(cover_set)
    assert table.keys is keys  # no copy
    assert np.array_equal(table.hashes, np.sort(row_hash(keys)))
    assert np.array_equal(table.hashes, row_hash(keys[table.order]))
    assert table.order.dtype == table._slots.dtype == np.int32
    assert len(table._slots) == 2 ** (len(keys).bit_length() + 1) >= 2 * len(keys)
    assert np.array_equal(table.lookup(keys), np.arange(len(keys)))


def lookup_oracle(table, rows):
    """The first key row equal to each row, or -1, from a dict of the key
    bytes: no hash, no slot."""
    index = {}
    for i, key in enumerate(map(trace_key_bytes, table.keys)):
        index.setdefault(key, i)
    return np.array([index.get(trace_key_bytes(r), -1) for r in rows], dtype=np.int32)


def test_lookup_with_chunk_work_matches_a_fresh_lookup(ctx3, monkeypatch):
    """A lookup in a census chunk's work arrays, which hold the last
    chunk's bytes, gives the answer of a lookup in fresh arrays and of the
    oracle, with covers, non-covers and hash collisions (equal multipliers)
    mixed in one chunk; tally returns the hits and the witnesses of it."""
    monkeypatch.setattr(covers, "_HASH_MULTIPLIERS", np.ones_like(covers._HASH_MULTIPLIERS))
    table = cover_table(ctx3)
    rng = np.random.default_rng(3)
    shifted = table.keys[:300].copy()
    shifted[:, 0] += 1  # mostly no cover
    rows = np.concatenate([table.keys, shifted])[rng.permutation(len(table.keys) + 300)]
    want = lookup_oracle(table, rows)
    assert (want >= 0).sum() >= len(table.keys) and (want < 0).any()
    work = census._ChunkWork(ctx3, len(rows))
    work.lookup.keys[:] = 0xFFFF  # stale bytes
    for part in (rows[::-1], rows):
        got = table.lookup(part, work.lookup)
    assert np.array_equal(got, want)
    assert np.array_equal(table.lookup(rows), want)
    hits, witnesses = table.tally(rows, work.lookup)
    assert np.array_equal(hits, want[want >= 0])
    assert witnesses == Counter(trace_key_bytes(r) for r in rows[want < 0])


@pytest.mark.parametrize("multipliers", ["seeded", "equal", "zero"])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_bucket_search_is_searchsorted(q, multipliers, monkeypatch):
    """Slot t holds np.searchsorted(hashes, t << shift), and the slot probe
    gives np.searchsorted(hashes, h) (left) for random hashes, every stored
    hash and its neighbours, and both ends of the range, also when
    degenerate multipliers crowd every key into one slot; and a lookup
    gives the answer of a dict of the key bytes, for the keys and for rows
    one label off them."""
    if multipliers != "seeded":
        value = 1 if multipliers == "equal" else 0
        monkeypatch.setattr(covers, "_HASH_MULTIPLIERS",
                            np.full_like(covers._HASH_MULTIPLIERS, value))
    table = cover_table(field(q))
    stored = table.hashes
    tops = np.arange(len(table._slots), dtype=np.uint64) << table._shift
    assert np.array_equal(table._slots, np.searchsorted(stored, tops))
    one = np.uint64(1)
    h = np.concatenate([
        np.random.default_rng(q).integers(0, 2**64, 5000, dtype=np.uint64, endpoint=False),
        stored, stored - one, stored + one,  # wrapping at 0 and 2^64 - 1
        np.array([0, 2**64 - 1, 2**63, 2**63 - 1], dtype=np.uint64),
    ])
    work = census._LookupWork(len(h), table.keys.shape[1])
    assert np.array_equal(table._probe(h, work), np.searchsorted(stored, h))
    rows = table.keys[::7].copy()
    rows[::2, -1] += 1  # no cover, or another cover
    assert np.array_equal(table.lookup(rows), lookup_oracle(table, rows))
    if multipliers == "seeded":  # tied hashes: test_census_exact_under_hash_collisions
        assert np.array_equal(table.lookup(table.keys), np.arange(len(table.keys)))


def test_crowded_slots_stay_exact_and_fast_q5(ctx5, monkeypatch):
    """With every hash shifted down to its top 11 bits, the q = 5 hashes
    all lie below 2^11, so every key has slot 0 and many keys share a hash.
    Every key is still found at its own row, and rows one label off are no
    cover or the cover they now equal, in under 0.5 s."""
    real = covers.row_hash

    def crowded(rows, out=None):
        return np.right_shift(real(rows), np.uint64(53), out=out)

    monkeypatch.setattr(covers, "row_hash", crowded)
    monkeypatch.setattr(census, "row_hash", crowded)
    table = cover_table(ctx5)
    assert not (table.hashes >> table._shift).any()
    assert len(np.unique(table.hashes)) < len(table.keys) // 10
    off = table.keys.copy()
    off[:, 0] += 1
    t0 = time.process_time()
    found, moved = table.lookup(table.keys), table.lookup(off)
    assert time.process_time() - t0 < 0.5
    assert np.array_equal(found, np.arange(len(table.keys)))
    assert np.array_equal(moved, lookup_oracle(table, off))


def test_cover_table_keeps_no_state_between_lookups(ctx3):
    """Lookups, tallies and membership tests, with a chunk's work and
    without, leave the table's attributes and arrays as built."""
    table = cover_table(ctx3)
    before = {name: (value.copy() if isinstance(value, np.ndarray) else value)
              for name, value in vars(table).items()}
    work = census._ChunkWork(ctx3, 64)
    rows = table.keys[:64].copy()
    rows[::3, 0] += 1
    table.lookup(rows, work.lookup)
    table.tally(rows)
    assert table.keys[0].tobytes() in table
    assert vars(table).keys() == before.keys()
    for name, value in before.items():
        now = getattr(table, name)
        assert (np.array_equal(now, value) and now.dtype == value.dtype
                if isinstance(value, np.ndarray) else now == value), name


def test_lookup_cost_does_not_hang_on_hash_ties(ctx_by_q, monkeypatch):
    """With zero multipliers every q = 4 cover hashes to 0, so all 6,240 keys
    tie.  Each row is still found exactly, and well under a second: the cost
    of a lookup does not grow with the number of covers on one hash."""
    monkeypatch.setattr(covers, "_HASH_MULTIPLIERS", np.zeros_like(covers._HASH_MULTIPLIERS))
    table = cover_table(ctx_by_q[4])
    assert not table.hashes.any() and len(table.keys) == 6240
    t0 = time.process_time()
    found = table.lookup(table.keys)
    assert time.process_time() - t0 < 0.5
    assert np.array_equal(found, np.arange(len(table.keys)))
    beyond = table.keys[:50].astype(np.int32)
    beyond[:, -1] = 4**3 + 1  # a label past infinity: no cover
    assert (table.lookup(beyond) == -1).all()


# q = 3, k = 13: sorted label rows as block_labels would return them
MASK_ROWS = {
    "A": [5] * 13,
    "B": list(range(13)),
    "C": [0, 1, 2, 2, 2, 2, 3, 4, 5, 6, 7, 8, 9],  # q+1 = 4 equal, q^2 = 9 single
}
BAD_ROWS = {
    # q^2+1 distinct labels, the excess q = 3 split over runs of 3 and 2
    "split excess": [0, 1, 1, 1, 2, 2, 3, 4, 5, 6, 7, 8, 9],
    # a run of q+1 and a second repeated label: q^2 distinct
    "run plus pair": [0, 1, 1, 1, 1, 2, 2, 3, 4, 5, 6, 7, 8],
}


@pytest.mark.parametrize("tag", sorted(MASK_ROWS))
def test_masks_on_synthetic_label_rows(tag, spread3, monkeypatch):
    row = np.array([MASK_ROWS[tag]], dtype=np.uint16)
    monkeypatch.setattr(census, "block_labels", lambda ctx, B: row)
    cls = classify_plane(spread3, spread3.element(0))
    want = {"A": (5,), "B": tuple(range(13)), "C": (2,)}[tag]
    assert (cls.tag, cls.trace) == (tag, want)


@pytest.mark.parametrize("name", sorted(BAD_ROWS))
def test_masks_reject_inconsistent_label_rows(name, ctx3, monkeypatch):
    rows = np.array([MASK_ROWS["B"], BAD_ROWS[name], MASK_ROWS["C"]], dtype=np.uint16)
    monkeypatch.setattr(census, "block_labels", lambda ctx, B: rows)
    with pytest.raises(RuntimeError, match="inconsistent intersection tally"):
        _classify_block(ctx3, np.zeros((3, 3, 6), dtype=np.uint8))


def test_census_chunk_names_the_plane_of_a_bad_tally(ctx3, monkeypatch):
    """A label row of no class, put into the kernel's output for one plane
    of a chunk, stops the chunk with that plane's basis (its row of the
    chunk's block), its pivot pattern and its odometer index."""
    pattern_idx, start, stop, bad = 3, 36, 405, 123  # pattern (0, 1, 5), runs of 9
    block_labels_of = census.block_labels

    def injected(ctx, B, *block):
        codes = block_labels_of(ctx, B, *block)
        codes[bad] = BAD_ROWS["split excess"]
        return codes

    monkeypatch.setattr(census, "block_labels", injected)
    pattern = PIVOT_PATTERNS[pattern_idx]
    basis = [list(row) for row in odometer_plane(3, pattern, start + bad).basis]
    with pytest.raises(RuntimeError, match="inconsistent intersection tally") as err:
        census._census_chunk(ctx3, None, census._ChunkWork(ctx3, stop - start),
                             pattern_idx, start, stop)
    message = str(err.value)
    assert f"plane basis {basis}" in message
    assert f"pivot pattern {pattern}, odometer index {start + bad}" in message
    assert f"labels {BAD_ROWS['split excess']}" in message

import dataclasses
import pickle
import random
import time
import tracemalloc
from collections import Counter

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
    pattern_block_size,
    plane_from_points,
    plane_from_rows,
    plane_points,
    planes_block_np,
    run_length,
)
from hyperreguli.spread import LabelWork, block_labels, build_spread, locate_np

from helpers import (
    classify_by_meets,
    classify_plane,
    enumerate_planes,
    gather_points,
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
    assert TraceCounts(table2, hits, witnesses) == traces
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


def test_census_invariant_under_chunk_size(ctx2):
    reports = [run_census(ctx2, chunk_size=c) for c in (37, 512, 1 << 16)]
    counts = {(r.count_a, r.count_b, r.count_c, r.total) for r in reports}
    assert counts == {(9, 504, 882, 1395)}


def test_census_report_invariant_under_chunk_size_q3(ctx3):
    """At odd p too, chunk sizes whose last chunk of a pattern is short,
    and a second worker, give the same report, traces included."""
    def report(**kw):
        d = run_census(ctx3, **kw).to_dict()
        del d["runtime_seconds"]
        return d

    want = report()
    for chunk_size in (1000, 4096, 1 << 16):  # 3^9 = 4*4096 + 3299
        assert report(chunk_size=chunk_size) == want
    assert report(chunk_size=1000, jobs=2) == want
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
    assert set(traces.values()) == {14}
    assert len(traces) == len(table2) == len(cover_keys2)
    assert set(table2) == cover_keys2
    # what the benchmark's trace hook computes: a plain set, never a view
    matched = set(traces) & table2
    assert type(matched) is set and matched == cover_keys2


def test_trace_views_answer_lookups_q2(table2, sweep2, cover_keys2):
    traces = TraceCounts(table2, sweep2[3], Counter({b"\0" * 14: 3}))
    some_cover = min(cover_keys2)
    assert some_cover in table2 and traces[some_cover] == 14
    assert traces[b"\0" * 14] == 3 and b"\0" * 14 not in table2
    for absent in (b"\1" * 14, b"\0" * 13, "not bytes", 7):
        assert absent not in table2 and absent not in traces
        with pytest.raises(KeyError):
            traces[absent]


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
    assert set(twice) == cover_keys2
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


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_free_column_kernel_matches_gather_oracle(q):
    """block_labels on odometer ranges of one pivot pattern, which sum each
    run's slow columns once and broadcast the fast column's codes over it,
    give the row-sorted located labels of the table-gather points.  For each
    pattern: its last chunk of whole runs (as enumeration_chunks with chunks
    of 1500 planes, so gather tiles of 1024 leave a short last tile), one
    range with unaligned ends and seeded single planes.  One LabelWork,
    larger than any range, serves all 20 patterns."""
    ctx = field(q)
    rng = random.Random(300 + q)
    chunk = 1500
    work = LabelWork(ctx, max(chunk, q**3))
    for pattern in PIVOT_PATTERNS:
        size, s = pattern_block_size(q, pattern), run_length(q, pattern)
        step = max(s, chunk // s * s)
        start = rng.randrange(size)
        ranges = [((size - 1) // step * step, size),
                  (start, min(size, start + rng.randrange(1, chunk)))]
        ranges += [(j, j + 1) for j in sorted(rng.randrange(size) for _ in range(8))]
        for start, stop in ranges:
            B = planes_block_np(q, pattern, start, stop)
            want = np.sort(locate_np(ctx, gather_points(ctx.base, B)), axis=1)
            got = block_labels(ctx, B, work, pattern, start)
            assert np.array_equal(got, want), (pattern, start, stop)


@pytest.mark.parametrize("q", [9, 16])
def test_one_plane_needs_one_plane_of_work(q):
    """block_labels without a work sizes its gather tile to the block, not to
    a run: one plane of each pivot pattern, with the pattern (runs of up to
    q^3 planes) and without it, gives the oracle's labels, and one plane
    without a pattern allocates under 64 KB (tracemalloc; a tile of q^3
    planes took 8.9 MB at q = 16)."""
    ctx = field(q)
    rng = random.Random(500 + q)
    for pattern in PIVOT_PATTERNS:
        j = rng.randrange(pattern_block_size(q, pattern))
        B = planes_block_np(q, pattern, j, j + 1)
        want = np.sort(locate_np(ctx, gather_points(ctx.base, B)), axis=1)
        assert np.array_equal(block_labels(ctx, B, None, pattern, j), want), (pattern, j)
        assert np.array_equal(block_labels(ctx, B), want), (pattern, j)
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
        want = sorted(spread.locate(pt) for pt in plane_points(ctx.base, pl))
        assert labels.tolist() == want


def test_census_chunk_temporaries_stay_small(ctx5):
    """Beside the sweep's work arrays, a q = 5 chunk of 2^14 planes with the
    trace tally allocates under 2 MB at a time (tracemalloc); with the GF(p)
    product and its quotient made afresh for every chunk it took 6.7 MB."""
    table = cover_table(ctx5)
    n = DEFAULT_CHUNK_SIZE
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
    assert peak < 2 * 2**20


def test_sweep_traces_invariant_under_worker_count_q3(ctx3):
    table = cover_table(ctx3)
    one = _sweep(ctx3, 1, table, 4096)
    two = _sweep(ctx3, 2, table, 4096)
    assert two[:3] == one[:3] and two[4] == one[4] == Counter()
    assert np.array_equal(two[3], one[3])
    assert set(one[3].tolist()) == {2 * cover_size(3)}


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


def test_row_sharing_a_cover_hash_is_a_witness(ctx2, cover_keys2, monkeypatch):
    # with equal multipliers the hash is the label sum: shift two labels
    # of a cover apart by one each to keep the hash and leave the covers
    monkeypatch.setattr(covers, "_HASH_MULTIPLIERS",
                        np.ones_like(covers._HASH_MULTIPLIERS))
    table = cover_table(ctx2)
    for cover in table.keys:
        row = cover.astype(np.int32)
        row[0] -= 1
        row[-1] += 1
        if row[0] >= 0 and trace_key_bytes(row) not in cover_keys2:
            break
    else:
        pytest.fail("no cover gives a non-cover row with the same hash")
    assert row_hash(row[None]) == row_hash(cover[None])

    rows = np.stack([cover.astype(np.int32), row])
    assert table.lookup(rows)[1] == -1
    hits, witnesses = table.tally(rows)
    assert table.keys[hits].tolist() == [cover.tolist()]
    assert witnesses == Counter({trace_key_bytes(row): 1})
    counts = np.bincount(hits, minlength=len(table.keys))
    tc = trace_is_cover_check(ctx2, TraceCounts(table, counts, witnesses), table)
    assert tc.matched is False and tc.multiplicity_ok is False


def test_cover_table_hashes_in_row_blocks(ctx3):
    """The table holds the row hashes of the keys ascending, in the order of
    its permutation, and no copy of the keys."""
    cover_set = enumerate_covers(ctx3)
    keys = cover_set.keys
    table = CoverTable(cover_set)
    assert table.keys is keys  # no copy
    assert np.array_equal(table.hashes, np.sort(row_hash(keys)))
    assert np.array_equal(table.hashes, row_hash(keys[table.order]))
    assert table.order.dtype == np.int32
    assert np.array_equal(table.lookup(keys), np.arange(len(keys)))


def test_lookup_in_row_blocks_matches_one_block(ctx3, monkeypatch):
    """Looking rows up a few at a time gives the one-block answer, with
    covers, non-covers and hash collisions (equal multipliers) mixed in
    each block."""
    monkeypatch.setattr(covers, "_HASH_MULTIPLIERS", np.ones_like(covers._HASH_MULTIPLIERS))
    table = cover_table(ctx3)
    rng = np.random.default_rng(3)
    shifted = table.keys[:300].astype(np.int32)
    shifted[:, 0] += 1  # mostly no cover
    rows = np.concatenate([table.keys.astype(np.int32), shifted])
    rows = rows[rng.permutation(len(rows))]
    want = table.lookup(rows)
    monkeypatch.setattr(census, "_LOOKUP_ROWS", 5)
    assert np.array_equal(table.lookup(rows), want)
    assert (want >= 0).sum() >= len(table.keys) and (want < 0).any()
    assert np.array_equal(table.keys[want[want >= 0]], rows[want >= 0])


@pytest.mark.parametrize("multipliers", ["seeded", "equal", "zero"])
@pytest.mark.parametrize("q", [3, 5])
def test_bucket_search_is_searchsorted(q, multipliers, ctx_by_q, monkeypatch):
    """The bucket-start search gives np.searchsorted(hashes, h) (left) for
    random hashes, every stored hash and its neighbours, and both ends of the
    range; also when degenerate multipliers put every key in one bucket."""
    if multipliers != "seeded":
        value = 1 if multipliers == "equal" else 0
        monkeypatch.setattr(covers, "_HASH_MULTIPLIERS",
                            np.full_like(covers._HASH_MULTIPLIERS, value))
    table = cover_table(ctx_by_q[q])
    stored = table.hashes
    one = np.uint64(1)
    h = np.concatenate([
        np.random.default_rng(q).integers(0, 2**64, 5000, dtype=np.uint64, endpoint=False),
        stored, stored - one, stored + one,  # wrapping at 0 and 2^64 - 1
        np.array([0, 2**64 - 1, 2**63, 2**63 - 1], dtype=np.uint64),
    ])
    assert np.array_equal(table._first_at_least(h), np.searchsorted(stored, h))
    if multipliers == "seeded":  # tied hashes: test_census_exact_under_hash_collisions
        assert np.array_equal(table.lookup(table.keys), np.arange(len(table.keys)))
    assert len(table._starts) == 2 ** len(stored).bit_length()


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
    pattern_idx, start, stop, bad = 3, 40, 400, 123  # pattern (0, 1, 5), unaligned
    block_labels_of = census.block_labels

    def injected(ctx, B, *block):
        codes = block_labels_of(ctx, B, *block)
        codes[bad] = BAD_ROWS["split excess"]
        return codes

    monkeypatch.setattr(census, "block_labels", injected)
    pattern = PIVOT_PATTERNS[pattern_idx]
    basis = planes_block_np(3, pattern, start + bad, start + bad + 1)[0].tolist()
    with pytest.raises(RuntimeError, match="inconsistent intersection tally") as err:
        census._census_chunk(ctx3, None, census._ChunkWork(ctx3, stop - start),
                             pattern_idx, start, stop)
    message = str(err.value)
    assert f"plane basis {basis}" in message
    assert f"pivot pattern {pattern}, odometer index {start + bad}" in message
    assert f"labels {BAD_ROWS['split excess']}" in message

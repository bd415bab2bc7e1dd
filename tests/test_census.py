import random
from collections import Counter

import numpy as np
import pytest

from hyperreguli import census
from hyperreguli.census import (
    DEFAULT_CHUNK_SIZE,
    CoverTable,
    classify_plane,
    run_census,
    trace_is_cover_check,
    trace_key_bytes,
    type_a_count,
    type_b_count,
    type_c_count,
)
from hyperreguli.census import _classify_block, _sweep
from hyperreguli.covers import cover_size, cover_type1, enumerate_covers, total_count
from hyperreguli.gf import factorize, make_field
from hyperreguli.hyperreg import andre_switching_sets, transversal_count
from hyperreguli.pg5 import (
    block_points,
    count_planes,
    enumerate_planes,
    plane_from_points,
    plane_from_rows,
    plane_points,
)
from hyperreguli.spread import build_spread

from helpers import classify_by_meets, gather_points, seeded_blocks


def field(q):
    ((p, h),) = factorize(q).items()
    return make_field(p, h)


def cover_table(ctx):
    return CoverTable(enumerate_covers(ctx).by_key)


@pytest.fixture(scope="module")
def sweep2(ctx2):
    """(nA, nB, nC, B-plane trace multiset) of the sweep run_census uses, q = 2."""
    return _sweep(ctx2, 1, cover_table(ctx2), DEFAULT_CHUNK_SIZE)


@pytest.fixture(scope="module")
def cover_keys2(ctx2):
    return {trace_key_bytes(k) for k in enumerate_covers(ctx2).by_key}


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


def test_census_agrees_with_reference_classifier_q2(spread2, sweep2):
    tags = Counter()
    traces = Counter()
    for pl in enumerate_planes(spread2.ctx.base):
        cls = classify_plane(spread2, pl)
        tags[cls.tag] += 1
        if cls.tag == "B":
            traces[trace_key_bytes(cls.trace)] += 1
    na, nb, nc, census_traces = sweep2
    assert (tags["A"], tags["B"], tags["C"]) == (na, nb, nc)
    assert traces == census_traces


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


def test_trace_check_standalone_q2(ctx2, sweep2, cover_keys2):
    tc = trace_is_cover_check(ctx2, sweep2[3], cover_keys2)
    assert tc.checked and tc.matched and tc.multiplicity_ok


def test_trace_multiplicities_are_constant_q2(sweep2, cover_keys2):
    traces = sweep2[3]
    assert set(traces) == cover_keys2
    assert set(traces.values()) == {14}


def test_trace_check_failure_paths_q2(ctx2, sweep2, cover_keys2):
    k = cover_size(2)
    some_cover = min(cover_keys2)

    not_a_cover = Counter(sweep2[3])
    not_a_cover[trace_key_bytes([0] * k)] += 1  # repeated labels: never a cover
    tc = trace_is_cover_check(ctx2, not_a_cover, cover_keys2)
    assert not tc.matched and not tc.multiplicity_ok

    for delta in (1, -1):
        off_by_one = Counter(sweep2[3])
        off_by_one[some_cover] += delta
        tc = trace_is_cover_check(ctx2, off_by_one, cover_keys2)
        assert tc.matched and not tc.multiplicity_ok

    missing = Counter(sweep2[3])
    del missing[some_cover]
    tc = trace_is_cover_check(ctx2, missing, cover_keys2)
    assert tc.matched and not tc.multiplicity_ok


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13])
def test_block_points_match_gather_oracle(q):
    """The digit-plane matrix product gives the table-gather points exactly,
    on both sides of the uint8 product (3h(p-1)^2 is 108 at q = 7, 300 at 11)."""
    ctx = field(q)
    B = seeded_blocks(q, random.Random(q))
    assert np.array_equal(block_points(ctx.base, B), gather_points(ctx.base, B))


@pytest.mark.parametrize("q", [7, 8, 9, 13, 16])
def test_classify_block_labels_at_large_q(q):
    """Located labels where q^3 > 256 (uint8 indices wrap) and, at q = 13,
    where the unreduced point digits reach (p-1) + 2(p-1)^2 = 300."""
    ctx = field(q)
    spread = build_spread(ctx, check=False)
    B = seeded_blocks(q, random.Random(100 + q), size=16)
    codes, *_ = _classify_block(ctx, B)
    for basis, labels in zip(B, codes):
        pl = plane_from_rows(ctx.base, basis.tolist())
        want = sorted(spread.locate(pt) for pt in plane_points(ctx.base, pl))
        assert labels.tolist() == want


def test_sweep_traces_invariant_under_worker_count_q3(ctx3):
    table = cover_table(ctx3)
    one = _sweep(ctx3, 1, table, 4096)
    assert _sweep(ctx3, 2, table, 4096) == one
    assert set(one[3].values()) == {2 * cover_size(3)}


@pytest.mark.parametrize("multipliers", ["equal", "zero"])
def test_census_exact_under_hash_collisions(ctx2, ctx3, monkeypatch, multipliers):
    """Covers sharing a hash are told apart by their labels: same reports."""
    def report(ctx):
        d = run_census(ctx).to_dict()
        del d["runtime_seconds"]
        return d

    want = {q: report(ctx) for q, ctx in ((2, ctx2), (3, ctx3))}
    value = 1 if multipliers == "equal" else 0
    monkeypatch.setattr(census, "_HASH_MULTIPLIERS",
                        np.full_like(census._HASH_MULTIPLIERS, value))
    for q, ctx in ((2, ctx2), (3, ctx3)):
        table = cover_table(ctx)
        assert len(np.unique(table.hashes)) < len(table)
        assert np.array_equal(table.lookup(table.rows), np.arange(len(table)))
        assert report(ctx) == want[q]


def test_row_sharing_a_cover_hash_is_a_witness(ctx2, cover_keys2, monkeypatch):
    # with equal multipliers the hash is the label sum: shift two labels
    # of a cover apart by one each to keep the hash and leave the covers
    monkeypatch.setattr(census, "_HASH_MULTIPLIERS",
                        np.ones_like(census._HASH_MULTIPLIERS))
    table = cover_table(ctx2)
    for cover in table.rows:
        row = cover.astype(np.int32)
        row[0] -= 1
        row[-1] += 1
        if row[0] >= 0 and trace_key_bytes(row) not in cover_keys2:
            break
    else:
        pytest.fail("no cover gives a non-cover row with the same hash")
    assert census._row_hash(row[None]) == census._row_hash(cover[None])

    rows = np.stack([cover.astype(np.int32), row])
    assert table.lookup(rows)[1] == -1
    hits, witnesses = table.tally(rows)
    assert hits.sum() == 1 and witnesses == Counter({trace_key_bytes(row): 1})
    tc = trace_is_cover_check(ctx2, table.traces(hits, witnesses), cover_keys2)
    assert tc.matched is False and tc.multiplicity_ok is False

import random
import tracemalloc
from itertools import combinations

import pytest

from hyperreguli.covers import cover_type1, cover_type2, enumerate_covers
from hyperreguli.gf import make_field
from hyperreguli.hyperreg import (
    _transversals_span,
    andre_switching_sets,
    hyper_regulus,
    split_switching_classes,
    transversal_count,
    transversal_planes,
)
from hyperreguli.pg5 import plane_points
from hyperreguli.spread import build_spread


def keys(planes):
    return sorted(p.key for p in planes)


def test_hyper_regulus_q2_type1_is_nonzero_graphs(ctx2, spread2):
    hr = hyper_regulus(spread2, cover_type1(ctx2, 0, 1))
    assert len(hr.planes) == 7
    assert keys(hr.planes) == keys(spread2.element(m) for m in range(1, 8))


def test_all_hyper_reguli_disjoint_by_point_sets_q2(ctx2, spread2):
    for cov in enumerate_covers(ctx2).by_key.values():
        hr = hyper_regulus(spread2, cov)
        point_sets = [set(plane_points(ctx2.base, pl)) for pl in hr.planes]
        for s, t in combinations(point_sets, 2):
            assert not s & t


def test_switching_sets_sizes(ctx2, spread2, ctx3, spread3):
    sp2 = andre_switching_sets(ctx2, spread2, 0, 1)
    assert len(sp2.y_planes) == len(sp2.z_planes) == 7
    sp3 = andre_switching_sets(ctx3, spread3, 2, 2)
    assert len(sp3.y_planes) == len(sp3.z_planes) == 13


def test_switching_property_by_point_sets_q2(ctx2, spread2):
    """Set-level recheck of the meet matrix, independent of rank computations."""
    base = ctx2.base
    sp = andre_switching_sets(ctx2, spread2, 0, 1)
    cover = cover_type1(ctx2, 0, 1)
    x_sets = [set(plane_points(base, spread2.element(m))) for m in cover.key]
    y_sets = [set(plane_points(base, pl)) for pl in sp.y_planes]
    z_sets = [set(plane_points(base, pl)) for pl in sp.z_planes]
    for fam in (y_sets, z_sets):
        for s, t in combinations(fam, 2):
            assert len(s & t) == 0
    for fam1, fam2 in ((y_sets, z_sets), (y_sets, x_sets), (z_sets, x_sets)):
        for s in fam1:
            for t in fam2:
                assert len(s & t) == 1


def test_switching_planes_avoid_non_cover_elements_q2(ctx2, spread2):
    sp = andre_switching_sets(ctx2, spread2, 0, 1)
    base = ctx2.base
    outside = [set(plane_points(base, spread2.element(m))) for m in (0, 8)]
    for pl in sp.y_planes + sp.z_planes:
        pts = set(plane_points(base, pl))
        for s in outside:
            assert not pts & s


def test_switching_meets_each_cover_element_once_q3(ctx3, spread3):
    base = ctx3.base
    sp = andre_switching_sets(ctx3, spread3, 0, 1)
    cover = cover_type1(ctx3, 0, 1)
    for pl in sp.y_planes[:4]:
        pts = set(plane_points(base, pl))
        for m in cover.key:
            assert len(pts & set(plane_points(base, spread3.element(m)))) == 1


def test_transversals_q2_type1(ctx2, spread2):
    hr = hyper_regulus(spread2, cover_type1(ctx2, 0, 1))
    tv = transversal_planes(spread2, hr)
    assert len(tv) == transversal_count(2) == 14
    sp = andre_switching_sets(ctx2, spread2, 0, 1)
    assert keys(tv) == sorted(keys(sp.y_planes) + keys(sp.z_planes))
    assert keys(transversal_planes(spread2, hr, method="brute")) == keys(tv)


def test_transversals_q3_both_kinds(ctx3, spread3):
    hr1 = hyper_regulus(spread3, cover_type1(ctx3, 0, 1))
    tv1 = transversal_planes(spread3, hr1)
    assert len(tv1) == 26
    sp = andre_switching_sets(ctx3, spread3, 0, 1)
    assert keys(tv1) == sorted(keys(sp.y_planes) + keys(sp.z_planes))

    hr2 = hyper_regulus(spread3, cover_type2(ctx3, 0, 1, 2))
    tv2 = transversal_planes(spread3, hr2)
    assert len(tv2) == 26


def test_span_and_brute_agree_on_sampled_covers_q3(ctx3, spread3):
    cs = enumerate_covers(ctx3)
    rng = random.Random(33)
    sample = rng.sample(list(cs.by_key.values()), 2)
    for cov in sample:
        hr = hyper_regulus(spread3, cov)
        assert keys(transversal_planes(spread3, hr, "span")) == \
            keys(transversal_planes(spread3, hr, "brute"))


def test_split_recovers_switching_sets_q2(ctx2, spread2):
    hr = hyper_regulus(spread2, cover_type1(ctx2, 0, 1))
    tv = transversal_planes(spread2, hr)
    g1, g2 = split_switching_classes(ctx2, tv)
    sp = andre_switching_sets(ctx2, spread2, 0, 1)
    assert {frozenset(keys(g1)), frozenset(keys(g2))} == \
        {frozenset(keys(sp.y_planes)), frozenset(keys(sp.z_planes))}


@pytest.mark.parametrize("params", [(2, 0, 1, 1), (3, 0, 2, 2)])
def test_split_works_for_kind2_covers(params, ctx_by_q, spread_by_q):
    q, a, b, f = params
    ctx, spread = ctx_by_q[q], spread_by_q[q]
    hr = hyper_regulus(spread, cover_type2(ctx, a, b, f))
    tv = transversal_planes(spread, hr)
    g1, g2 = split_switching_classes(ctx, tv)
    assert len(g1) == len(g2) == q * q + q + 1


def test_transversal_counts_sampled_q4_q5(ctx_by_q, spread_by_q):
    rng = random.Random(45)
    for q, n in ((4, 20), (5, 20)):
        ctx, spread = ctx_by_q[q], spread_by_q[q]
        cs = enumerate_covers(ctx)
        kind1 = [c for c in cs.by_key.values() if c.kind == 1]
        kind2 = [c for c in cs.by_key.values() if c.kind == 2]
        sample = rng.sample(kind1, n // 2) + rng.sample(kind2, n - n // 2)
        for cov in sample:
            hr = hyper_regulus(spread, cov)
            assert len(transversal_planes(spread, hr)) == transversal_count(q)


def test_andre_parameter_validation(ctx2, spread2):
    with pytest.raises(ValueError):
        andre_switching_sets(ctx2, spread2, 0, 0)
    with pytest.raises(ValueError):
        transversal_planes(spread2,
                           hyper_regulus(spread2, cover_type1(ctx2, 0, 1)),
                           method="magic")


@pytest.mark.parametrize("cover_args", [(1, 0, 1), (2, 0, 1, 2)])
def test_span_search_invariant_under_chunk_size_q3(ctx3, spread3, cover_args):
    """Chunk sizes that do not divide the q*k^3 = 6591 triples find the same planes."""
    kind, *params = cover_args
    cover = (cover_type1 if kind == 1 else cover_type2)(ctx3, *params)
    hr = hyper_regulus(spread3, cover)
    want = keys(transversal_planes(spread3, hr))
    assert len(want) == transversal_count(3)
    for chunk_size in (1, 7, 1000):
        assert keys(_transversals_span(spread3, hr, chunk_size=chunk_size)) == want


def test_span_search_exact_q7():
    """One kind-2 cover at q = 7: 114 transversals, each meeting exactly the
    cover's spread elements, split 57 + 57, in bounded memory (the search
    once built a k^4 x 6 candidate array: several hundred MB here)."""
    ctx = make_field(7)
    spread = build_spread(ctx, check=False)
    cover = cover_type2(ctx, 3, 100, 4)
    hr = hyper_regulus(spread, cover)
    tracemalloc.start()
    try:
        planes = transversal_planes(spread, hr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert len(planes) == transversal_count(7) == 114
    for pl in planes:
        labels = sorted(spread.locate(pt) for pt in plane_points(ctx.base, pl))
        assert labels == list(cover.key)
    g1, g2 = split_switching_classes(ctx, planes)
    assert len(g1) == len(g2) == 57

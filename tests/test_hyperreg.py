import random
import tracemalloc
from itertools import combinations

import pytest

from hyperreguli import hyperreg
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
from hyperreguli.spread import Spread, build_spread

from helpers import plane_points_by_arithmetic, transversals_brute


def keys(planes):
    return sorted(p.key for p in planes)


def test_hyper_regulus_q2_type1_is_nonzero_graphs(ctx2, spread2):
    hr = hyper_regulus(spread2, cover_type1(ctx2, 0, 1))
    assert len(hr.planes) == 7
    assert keys(hr.planes) == keys(spread2.element(m) for m in range(1, 8))


def test_all_hyper_reguli_disjoint_by_point_sets_q2(ctx2, spread2):
    for cov in enumerate_covers(ctx2).covers:
        hr = hyper_regulus(spread2, cov)
        point_sets = [set(plane_points_by_arithmetic(ctx2.base, pl)) for pl in hr.planes]
        for s, t in combinations(point_sets, 2):
            assert not s & t


def test_hyper_regulus_rejects_swapped_element(ctx3, spread3):
    """A spread whose element for one cover label is another cover plane:
    the labels stay distinct, but two of the planes coincide."""
    cover = cover_type1(ctx3, 0, 1)
    planes = list(spread3.planes)
    planes[cover.key[0]] = planes[cover.key[1]]
    with pytest.raises(RuntimeError, match="not pairwise disjoint"):
        hyper_regulus(Spread(ctx3, tuple(planes)), cover)


def test_switching_sets_sizes(ctx2, spread2, ctx3, spread3):
    sp2 = andre_switching_sets(ctx2, spread2, 0, 1)
    assert len(sp2.y_planes) == len(sp2.z_planes) == 7
    sp3 = andre_switching_sets(ctx3, spread3, 2, 2)
    assert len(sp3.y_planes) == len(sp3.z_planes) == 13


@pytest.mark.parametrize("wrong", ["spread element", "graph of the wrong norm"])
def test_switching_sets_reject_a_plane_off_the_hyper_regulus(ctx3, spread3, monkeypatch, wrong):
    """A Y plane that misses cover elements fails the hyper-regulus meet check.

    Both wrong planes are disjoint from every Z plane too, so only the
    located-labels check names the hyper-regulus."""
    f = 1
    first = next(m for m in range(1, ctx3.q3) if ctx3.norm_table[m] == f)
    off = next(n for n in range(1, ctx3.q3) if ctx3.norm_table[n] != f)  # J(off) is off the cover
    graph = hyperreg._graph_plane

    def one_wrong_y(ctx, a, m, power):
        if power == 1 and m == first:
            return spread3.element(off) if wrong == "spread element" else graph(ctx, a, off, 1)
        return graph(ctx, a, m, power)

    monkeypatch.setattr(hyperreg, "_graph_plane", one_wrong_y)
    with pytest.raises(RuntimeError, match="hyper-regulus plane"):
        andre_switching_sets(ctx3, spread3, 0, f)


def test_switching_property_by_point_sets_q2(ctx2, spread2):
    """Set-level recheck of the meet matrix, independent of rank computations."""
    base = ctx2.base
    sp = andre_switching_sets(ctx2, spread2, 0, 1)
    cover = cover_type1(ctx2, 0, 1)
    x_sets = [set(plane_points_by_arithmetic(base, spread2.element(m))) for m in cover.key]
    y_sets = [set(plane_points_by_arithmetic(base, pl)) for pl in sp.y_planes]
    z_sets = [set(plane_points_by_arithmetic(base, pl)) for pl in sp.z_planes]
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
    outside = [set(plane_points_by_arithmetic(base, spread2.element(m))) for m in (0, 8)]
    for pl in sp.y_planes + sp.z_planes:
        pts = set(plane_points_by_arithmetic(base, pl))
        for s in outside:
            assert not pts & s


def test_switching_meets_each_cover_element_once_q3(ctx3, spread3):
    base = ctx3.base
    sp = andre_switching_sets(ctx3, spread3, 0, 1)
    cover = cover_type1(ctx3, 0, 1)
    for pl in sp.y_planes[:4]:
        pts = set(plane_points_by_arithmetic(base, pl))
        for m in cover.key:
            assert len(pts & set(plane_points_by_arithmetic(base, spread3.element(m)))) == 1


def test_transversals_q2_type1(ctx2, spread2):
    hr = hyper_regulus(spread2, cover_type1(ctx2, 0, 1))
    tv = transversal_planes(spread2, hr)
    assert len(tv) == transversal_count(2) == 14
    sp = andre_switching_sets(ctx2, spread2, 0, 1)
    assert keys(tv) == sorted(keys(sp.y_planes) + keys(sp.z_planes))
    assert keys(transversals_brute(spread2, hr)) == keys(tv)


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
    sample = rng.sample(list(cs.covers), 2)
    for cov in sample:
        hr = hyper_regulus(spread3, cov)
        assert keys(transversal_planes(spread3, hr, "span")) == \
            keys(transversals_brute(spread3, hr))


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


@pytest.mark.parametrize("break_", [
    "a Z plane replaced by a copy of a Y plane",
    "a Z plane replaced by a hyper-regulus plane",
    "an odd number of planes",
    "two planes of each switching set",
    "a plane and its copy",
    "the transversals of two point-disjoint hyper-reguli",
])
def test_split_rejects_a_set_that_is_not_two_switching_sets(ctx3, spread3, break_):
    """Y and Z of the kind-1 cover (0, 1) at q = 3, broken one way each.

    A copied Y plane puts its points on three planes; so does J(m), which
    meets every Y and every Z in a point.  The last three cases each break
    one incidence condition alone: two planes of each set form K_{2,2}, no
    pair sharing two points, but most of their points lie on one plane; a
    plane and its copy form K_{1,1} with every point on two planes, but
    share all k points; N(x) = 1 and N(x) = 2 give disjoint covers, whose 4k
    transversals put every point on two planes, no pair sharing two, but
    meet as two K_{k,k}.  Each case raises the error of the condition it
    breaks first, the count naming the first bad point in the planes' order."""
    pair = andre_switching_sets(ctx3, spread3, 0, 1)
    other = andre_switching_sets(ctx3, spread3, 0, 2)
    ys, zs = list(pair.y_planes), list(pair.z_planes)
    planes = {
        "a Z plane replaced by a copy of a Y plane": ys + [ys[0]] + zs[1:],
        "a Z plane replaced by a hyper-regulus plane": ys + [pair.hyper_regulus.planes[0]] + zs[1:],
        "an odd number of planes": ys + zs[1:],
        "two planes of each switching set": ys[:2] + zs[:2],
        "a plane and its copy": [ys[0], ys[0]],
        "the transversals of two point-disjoint hyper-reguli":
            ys + zs + list(other.y_planes + other.z_planes),
    }[break_]
    match = {
        "a Z plane replaced by a copy of a Y plane": "a point lies on 3 planes of the set, not 2",
        "a Z plane replaced by a hyper-regulus plane": "a point lies on 3 planes of the set, not 2",
        "an odd number of planes": "transversal set of size 25 cannot split",
        "two planes of each switching set": "a point lies on 1 planes of the set, not 2",
        "a plane and its copy": "two planes of the set share more than one point",
        "the transversals of two point-disjoint hyper-reguli":
            "the meet graph of the set is not complete bipartite",
    }[break_]
    with pytest.raises(RuntimeError, match=match):
        split_switching_classes(ctx3, planes)


@pytest.mark.parametrize("wrong", ["a Z plane is a Y plane", "a Y and a Z plane swapped"])
def test_switching_sets_reject_a_broken_switching_pair(ctx3, spread3, monkeypatch, wrong):
    """Every plane still meets each hyper-regulus plane in a point, so the
    located-labels check passes and only the switching check can fail: a
    repeated plane breaks the incidence structure, and a swapped pair keeps
    it but makes the two classes differ from the Y and Z families."""
    f = 1
    first = next(m for m in range(1, ctx3.q3) if ctx3.norm_table[m] == f)
    graph = hyperreg._graph_plane

    def broken(ctx, a, m, power):
        if m == first and wrong == "a Y and a Z plane swapped":
            return graph(ctx, a, m, 3 - power)
        if m == first and power == 2:
            return graph(ctx, a, m, 1)
        return graph(ctx, a, m, power)

    monkeypatch.setattr(hyperreg, "_graph_plane", broken)
    match = "Y and Z families" if wrong == "a Y and a Z plane swapped" else None
    with pytest.raises(RuntimeError, match=match):
        andre_switching_sets(ctx3, spread3, 0, f)


def test_transversal_counts_sampled_q4_q5(ctx_by_q, spread_by_q):
    rng = random.Random(45)
    for q, n in ((4, 20), (5, 20)):
        ctx, spread = ctx_by_q[q], spread_by_q[q]
        cs = enumerate_covers(ctx)
        kind1 = [c for c in cs.covers if c.kind == 1]
        kind2 = [c for c in cs.covers if c.kind == 2]
        sample = rng.sample(kind1, n // 2) + rng.sample(kind2, n - n // 2)
        for cov in sample:
            hr = hyper_regulus(spread, cov)
            assert len(transversal_planes(spread, hr)) == transversal_count(q)


def test_andre_parameter_validation(ctx2, spread2):
    with pytest.raises(ValueError):
        andre_switching_sets(ctx2, spread2, 0, 0)
    for method in ("magic", "brute"):
        with pytest.raises(ValueError):
            transversal_planes(spread2,
                               hyper_regulus(spread2, cover_type1(ctx2, 0, 1)),
                               method=method)


@pytest.mark.parametrize("cover_args", [(1, 0, 1), (2, 0, 1, 2)])
def test_span_search_invariant_under_chunk_size_q3(ctx3, spread3, cover_args):
    """Chunk sizes that do not divide the k^2 = 169 lines of stage 1 or the
    2k*k = 338 triples of stage 2 find the same planes."""
    kind, *params = cover_args
    cover = (cover_type1 if kind == 1 else cover_type2)(ctx3, *params)
    hr = hyper_regulus(spread3, cover)
    want = keys(transversal_planes(spread3, hr))
    assert len(want) == transversal_count(3)
    for chunk_size in (1, 7, 1000):
        assert keys(_transversals_span(spread3, hr, chunk_size=chunk_size)) == want


def test_span_search_exact_q7():
    """One kind-2 cover at q = 7: 114 transversals, each meeting exactly the
    cover's spread elements, split 57 + 57, in bounded memory (the line
    filter holds k^2 = 3249 lines of q points; a scan of all q*k^3 point
    triples in chunks peaked near 29 MiB at this q)."""
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
    assert peak < 24 * 2**20
    assert len(planes) == transversal_count(7) == 114
    for pl in planes:
        labels = sorted(spread.locate(pt) for pt in plane_points_by_arithmetic(ctx.base, pl))
        assert labels == list(cover.key)
    g1, g2 = split_switching_classes(ctx, planes)
    assert len(g1) == len(g2) == 57


@pytest.mark.parametrize("q", [7, 8, 9, 16])
def test_span_search_matches_andre_switching_sets(q):
    """At h > 1 too, and at the largest accepted field, the span search with
    its stage-2 line filter finds exactly the union of the explicit
    switching sets of kind-1 covers (a constructive route that shares no
    search code), and split_switching_classes recovers the Y and Z sets from
    it; for kind 2 it finds 2k planes on exactly the cover's elements, which
    split into two classes of k."""
    p, h = {7: (7, 1), 8: (2, 3), 9: (3, 2), 16: (2, 4)}[q]
    ctx = make_field(p, h)
    spread = build_spread(ctx, check=False)
    rng = random.Random(q)
    for a, f in ((0, 1), (rng.randrange(1, ctx.q3), rng.randrange(2, q))):
        pair = andre_switching_sets(ctx, spread, a, f)
        tv = transversal_planes(spread, pair.hyper_regulus)
        assert keys(tv) == sorted(keys(pair.y_planes) + keys(pair.z_planes))
        assert {frozenset(keys(c)) for c in split_switching_classes(ctx, tv)} == \
            {frozenset(keys(pair.y_planes)), frozenset(keys(pair.z_planes))}
    if q == 7:
        return  # test_span_search_exact_q7 covers a kind-2 cover at q = 7
    a, b = rng.sample(range(ctx.q3), 2)
    cover = cover_type2(ctx, a, b, rng.randrange(1, q))
    planes = transversal_planes(spread, hyper_regulus(spread, cover))
    assert len(planes) == transversal_count(q)
    for pl in planes:
        labels = sorted(spread.locate(pt) for pt in plane_points_by_arithmetic(ctx.base, pl))
        assert labels == list(cover.key)
    g1, g2 = split_switching_classes(ctx, planes)
    assert len(g1) == len(g2) == q * q + q + 1

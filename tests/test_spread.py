from itertools import combinations

import numpy as np
import pytest

from hyperreguli.gf import make_field
from hyperreguli.spread import (
    build_spread,
    format_label,
    infinity_label,
    spread_element,
)

from helpers import (
    all_points,
    incidence,
    locate_np,
    meet_dim,
    plane_points_by_arithmetic,
    verify_regularity,
)


def test_j_zero_and_j_infinity_bases(ctx2):
    assert spread_element(ctx2, 0).basis == (
        (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0))
    assert spread_element(ctx2, infinity_label(ctx2)).basis == (
        (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1))


def test_spread_element_determines_label(spread3):
    keys = {pl.key for pl in spread3.planes}
    assert len(keys) == 28


@pytest.mark.parametrize("q", [2, 3])
def test_elements_pairwise_disjoint(q, spread_by_q):
    spread = spread_by_q[q]
    base = spread.ctx.base
    for a, b in combinations(spread.planes, 2):
        assert meet_dim(base, a, b) == -1


def test_partition_by_brute_force_q2(ctx2, spread2):
    for pt in all_points(ctx2.base):
        containing = [m for m in spread2.labels()
                      if incidence(ctx2.base, pt, spread2.element(m))]
        assert len(containing) == 1


@pytest.mark.parametrize("q", [2, 3, 4])
def test_locate_matches_brute_force(q, ctx_by_q, spread_by_q):
    ctx, spread = ctx_by_q[q], spread_by_q[q]
    labels = []
    for pt in all_points(ctx.base):
        m = spread.locate(pt)
        assert incidence(ctx.base, pt, spread.element(m))
        labels.append(m)
    pts = np.array(list(all_points(ctx.base)), dtype=np.uint8)
    assert locate_np(ctx, pts).tolist() == labels
    # q - 1 is a non-unit scalar for q > 2 (GF(2) has no other nonzero one)
    scaled = np.array(ctx.base._mul[q - 1], dtype=np.uint8)[pts]
    assert locate_np(ctx, scaled).tolist() == labels


@pytest.mark.parametrize("q", [5, 7])
def test_locate_np_matches_locate_every_point(q):
    """The tests' label oracle agrees with Spread.locate at every point, on
    both sides of q^6 = 2^16 (q^6 = 117649 at q = 7), and under scaling."""
    ctx = make_field(q)
    spread = build_spread(ctx, check=False)
    pts = np.array(list(all_points(ctx.base)), dtype=np.uint8)
    labels = [spread.locate(pt) for pt in pts.tolist()]
    got = locate_np(ctx, pts)
    assert got.dtype == np.uint16 and got.tolist() == labels
    scaled = np.array(ctx.base._mul[ctx.base.generator], dtype=np.uint8)[pts]
    assert locate_np(ctx, scaled).tolist() == labels


@pytest.mark.parametrize("q", [2, 3])
def test_locate_recovers_element_label(q, ctx_by_q, spread_by_q):
    ctx, spread = ctx_by_q[q], spread_by_q[q]
    for m in spread.labels():
        for pt in plane_points_by_arithmetic(ctx.base, spread.element(m)):
            assert spread.locate(pt) == m


def test_build_spread_sizes(ctx_by_q):
    for q, ctx in ctx_by_q.items():
        spread = build_spread(ctx, check=True)
        assert len(spread.planes) == q**3 + 1


def test_build_spread_check_q16():
    """The checked spread at the largest accepted q, one block_labels call."""
    spread = build_spread(make_field(2, 4), check=True)
    assert len(spread.planes) == 16**3 + 1


def test_build_spread_check_names_the_bad_element(ctx3, broken_spread):
    """The check raises with element 0, its first point in coefficient order
    (the point of J(inf) in the line case) and that point's label."""
    spread = build_spread(ctx3, check=False)
    distinct = 27 if broken_spread == "a duplicated element" else 28
    assert len({pl.key for pl in spread.planes}) == distinct
    pt = plane_points_by_arithmetic(ctx3.base, spread.element(0))[0]
    label = spread.locate(pt)
    assert label != 0
    want = f"not pairwise disjoint: point {pt} of element 0 locates to {format_label(ctx3, label)}"
    with pytest.raises(RuntimeError) as err:
        build_spread(ctx3, check=True)
    assert want in str(err.value)


def test_element_point_budget(ctx2, spread2):
    total = sum(len(plane_points_by_arithmetic(ctx2.base, pl)) for pl in spread2.planes)
    assert total == 63  # 9 elements x 7 points exhaust PG(5,2)


def test_regularity_check_q2_only(spread2, spread3):
    assert verify_regularity(spread2)
    with pytest.raises(ValueError):
        verify_regularity(spread3)


def test_label_formatting(ctx2):
    assert format_label(ctx2, 3) == "3"
    assert format_label(ctx2, 8) == "inf"


def test_spread_element_rejects_bad_label(ctx2):
    with pytest.raises(ValueError):
        spread_element(ctx2, 9)
    with pytest.raises(ValueError):
        spread_element(ctx2, -1)

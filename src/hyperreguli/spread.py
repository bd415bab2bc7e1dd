"""The regular 2-spread of PG(5,q) by field reduction.

GF(q)^6 is identified with GF(q^3)^2 through the coordinate map of the
field context.  The spread elements are the planes

    J(m)   = {(x, m*x) : x in GF(q^3)}   for m in GF(q^3),
    J(inf) = {(0, y)   : y in GF(q^3)},

one per point of the circle geometry CG(3,q).  Labels are integers: m is
its field index and infinity is the extra value q^3, which also makes
infinity sort last in canonical cover keys.
"""

from __future__ import annotations

import numpy as np

from .gf import FieldCtx
from .pg5 import (
    Plane,
    _plane_from_rref,
    all_points,
    block_points,
    incidence,
    normalize_point,
    num_points,
    plane_points,
)


def infinity_label(ctx: FieldCtx) -> int:
    return ctx.q3


def format_label(ctx: FieldCtx, m: int) -> str:
    return "inf" if m == ctx.q3 else str(m)


def parse_label(ctx: FieldCtx, text: str) -> int:
    if text == "inf":
        return ctx.q3
    m = int(text)
    if not 0 <= m <= ctx.q3:
        raise ValueError(f"label {text} out of range for q^3 = {ctx.q3}")
    return m


def spread_element(ctx: FieldCtx, m: int) -> Plane:
    """The plane J(m); basis rows come out in RREF directly."""
    q = ctx.q
    if m == ctx.q3:
        rows = [(0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)]
        return _plane_from_rref(rows)
    if not 0 <= m < ctx.q3:
        raise ValueError(f"invalid circle-geometry label {m}")
    rows = []
    for e in (1, q, q * q):  # indices of the basis 1, t, t^2
        rows.append(ctx.to_coords(e) + ctx.to_coords(ctx.mul(m, e)))
    return _plane_from_rref(rows)


class Spread:
    """The q^3+1 pairwise disjoint planes J(m), indexed by circle points."""

    def __init__(self, ctx: FieldCtx, planes: tuple[Plane, ...]):
        self.ctx = ctx
        self.planes = planes
        self.infinity = ctx.q3
        self._label_of_key = {pl.key: m for m, pl in enumerate(planes)}

    def element(self, m: int) -> Plane:
        return self.planes[m]

    def label_of(self, pl: Plane) -> int | None:
        return self._label_of_key.get(pl.key)

    def labels(self) -> range:
        return range(self.ctx.q3 + 1)

    def locate(self, pt) -> int:
        """The unique label m with pt in J(m), from coordinates in O(1)."""
        ctx = self.ctx
        x = ctx.from_coords(pt[:3])
        y = ctx.from_coords(pt[3:])
        if x == 0:
            return ctx.q3
        return ctx.div(y, x)


def locate_np(ctx: FieldCtx, v: np.ndarray) -> np.ndarray:
    """Spread.locate over the last axis of an array of nonzero 6-vectors.

    The vectors need not be normalised: y/x is unchanged by scaling.
    """
    c = np.moveaxis(v.astype(np.uint16), -1, 0)  # indices < q^3 <= 4096
    x, y = ctx.from_coords(c[:3]), ctx.from_coords(c[3:])
    return np.where(
        x != 0,
        ctx.ext_mul_np[y, ctx.ext_inv_np[x]].astype(np.int32),
        ctx.q3,
    )


def block_labels(ctx: FieldCtx, B: np.ndarray) -> np.ndarray:
    """The located labels of the k points of each plane with basis in B
    (n, 3, 6), sorted within each row: (n, k)."""
    # the points lie plane-minor in memory, so the labels come out that way;
    # the row sort wants each plane's labels contiguous
    codes = np.ascontiguousarray(locate_np(ctx, block_points(ctx.base, B)))
    codes.sort(axis=1)
    return codes


def build_spread(ctx: FieldCtx, check: bool = True) -> Spread:
    """Construct the spread; with check=True verify it partitions the points."""
    planes = tuple(spread_element(ctx, m) for m in range(ctx.q3 + 1))
    spread = Spread(ctx, planes)
    if check:
        if len({pl.key for pl in planes}) != ctx.q3 + 1:
            raise RuntimeError("spread elements are not distinct")
        per_element = [0] * (ctx.q3 + 1)
        total = 0
        for pt in all_points(ctx.base):
            m = spread.locate(pt)
            if not incidence(ctx.base, pt, planes[m]):
                raise RuntimeError(f"point {pt} not on its located element {m}")
            per_element[m] += 1
            total += 1
        k = ctx.q**2 + ctx.q + 1
        if total != num_points(ctx.q) or any(c != k for c in per_element):
            raise RuntimeError("spread does not partition the point set")
    return spread


def verify_regularity(spread: Spread) -> bool:
    """Slow structural check: each transversal line of two spread elements
    meets q+1 distinct elements, each in exactly one point.

    Exhaustive over all element pairs and all their transversal lines, so it
    is only offered for q = 2.
    """
    ctx = spread.ctx
    if ctx.q != 2:
        raise ValueError("the regularity check is only provided for q = 2")
    base = ctx.base
    q = ctx.q
    pts = [plane_points(base, pl) for pl in spread.planes]
    for a in range(ctx.q3 + 1):
        for b in range(a + 1, ctx.q3 + 1):
            for pa in pts[a]:
                for pb in pts[b]:
                    # the q+1 points of the line through pa, pb
                    line = [pa]
                    for lam in range(q):
                        v = [base._add[base._mul[lam][x]][y] for x, y in zip(pa, pb)]
                        line.append(normalize_point(base, v))
                    hits = [spread.locate(p) for p in line]
                    if len(set(hits)) != q + 1:
                        return False
    return True

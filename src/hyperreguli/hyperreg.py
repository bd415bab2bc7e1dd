"""Hyper-reguli, their switching sets, and the transversal-plane search.

A cover of CG(3,q) relabels to a hyper-regulus: the q^2+q+1 spread planes
J(m) for m in the cover.  A switching set is a family of q^2+q+1 mutually
disjoint planes each meeting every plane of the hyper-regulus (and of the
other switching set) in exactly one point.

For kind-1 covers {x : N(x - a) = f} the two switching sets have an
explicit model: since t -> t^q is GF(q)-linear, the graphs

    Y_m = {(t, a*t + m*t^q)     : t in GF(q^3)}     with N(m) = f,
    Z_w = {(t, a*t + w*t^(q^2)) : t in GF(q^3)}     with N(w) = f,

are planes; solving m*t^q = (n-a)*t shows Y_m meets J(n) exactly when
N(n-a) = f, in the single projective point given by one GF(q)* class of
solutions of t^(q-1) = (n-a)/m, and similarly for the other pairings.
The constructor re-verifies the whole meet matrix before returning.

The transversal search finds ALL planes meeting every plane of a
hyper-regulus in a point.  A transversal pi meets two fixed planes of the
family in distinct points p1, p2; the line through them carries only q+1
points, while pi meets every one of the q^2+q+1 family planes, so among any
q further planes at least one is met off that line and the triple spans pi.
Scanning point triples (p1, p2, p3) with p3 drawn from q different third
planes therefore visits every transversal.  (A single fixed third plane is
not enough: all of its candidate triples can be collinear, e.g. the planes
{(t, m*t^q)} over GF(8) meet J(1), J(2), J(3) in collinear points because
1+2+3 = 0 there.)  A candidate span is accepted exactly when its points
land on the cover's spread elements once each.  A brute-force sweep over
the full plane enumeration, filtering with rank-based meet dimensions only,
provides an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .covers import Cover, cover_type1
from .gf import FieldCtx
from .pg5 import (
    Plane,
    _plane_from_rref,
    enumerate_planes,
    meet_dim,
    plane_from_points,
    plane_points,
    projective_coeffs,
)
from .spread import Spread, locate_np


@dataclass
class HyperRegulus:
    cover: Cover
    planes: tuple[Plane, ...]  # ordered by the cover key


@dataclass
class SwitchingPair:
    hyper_regulus: HyperRegulus  # of the kind-1 cover the pair switches
    y_planes: tuple[Plane, ...]
    z_planes: tuple[Plane, ...]


def hyper_regulus(spread: Spread, cover: Cover) -> HyperRegulus:
    """Relabel a cover into its q^2+q+1 spread planes; disjointness re-asserted."""
    planes = tuple(spread.element(m) for m in cover.key)
    base = spread.ctx.base
    for a, b in combinations(planes, 2):
        if meet_dim(base, a, b) != -1:
            raise RuntimeError("hyper-regulus planes are not pairwise disjoint")
    return HyperRegulus(cover=cover, planes=planes)


def _graph_plane(ctx: FieldCtx, a: int, m: int, power: int) -> Plane:
    """The plane {(t, a*t + m*t^(q^power)) : t}; rows come out in RREF."""
    q = ctx.q
    rows = []
    for e in (1, q, q * q):
        img = ctx.add(ctx.mul(a, e), ctx.mul(m, ctx.frobenius(e, power)))
        rows.append(ctx.to_coords(e) + ctx.to_coords(img))
    return _plane_from_rref(rows)


def andre_switching_sets(ctx: FieldCtx, spread: Spread, a: int, f: int) -> SwitchingPair:
    """The two switching sets of the kind-1 cover with parameters (a, f).

    The full switching property (cross-set meets are single points, planes
    within a set are disjoint) is verified against the hyper-regulus before
    returning; a failure would signal a construction bug.
    """
    cover = cover_type1(ctx, a, f)
    hr = hyper_regulus(spread, cover)
    ms = [m for m in range(1, ctx.q3) if ctx.norm_table[m] == f]
    ys = tuple(_graph_plane(ctx, a, m, 1) for m in ms)
    zs = tuple(_graph_plane(ctx, a, m, 2) for m in ms)

    base = ctx.base
    for fam in (ys, zs):
        for p1, p2 in combinations(fam, 2):
            if meet_dim(base, p1, p2) != -1:
                raise RuntimeError("switching-set planes are not pairwise disjoint")
    for fam1, fam2 in ((ys, zs), (ys, hr.planes), (zs, hr.planes)):
        for p1 in fam1:
            for p2 in fam2:
                if meet_dim(base, p1, p2) != 0:
                    raise RuntimeError("cross-set planes do not meet in a single point")
    return SwitchingPair(hyper_regulus=hr, y_planes=ys, z_planes=zs)


def transversal_count(q: int) -> int:
    return 2 * (q * q + q + 1)


def transversal_planes(spread: Spread, hr: HyperRegulus, method: str = "span") -> list[Plane]:
    """All planes meeting every plane of hr in exactly one point, sorted by key.

    method="span" scans point triples on three fixed planes of hr (exact and
    fast); method="brute" sweeps the full plane enumeration with rank-based
    meet checks and exists to cross-validate the span search.
    """
    if method == "span":
        return _transversals_span(spread, hr)
    if method == "brute":
        return _transversals_brute(spread, hr)
    raise ValueError(f"unknown search method {method!r}")


def _transversals_brute(spread: Spread, hr: HyperRegulus) -> list[Plane]:
    base = spread.ctx.base
    found = {}
    for pl in enumerate_planes(base):
        if all(meet_dim(base, pl, s) == 0 for s in hr.planes):
            found[pl.key] = pl
    return [found[k] for k in sorted(found)]


def _transversals_span(spread: Spread, hr: HyperRegulus) -> list[Plane]:
    ctx = spread.ctx
    base = ctx.base
    q = ctx.q

    pts1 = np.array(plane_points(base, hr.planes[0]), dtype=np.uint8)
    pts2 = np.array(plane_points(base, hr.planes[1]), dtype=np.uint8)
    coeffs = np.array(projective_coeffs(q), dtype=np.uint8)  # (k, 3)
    add_np = base.add_np
    mul_np = base.mul_np
    target = np.array(hr.cover.key, dtype=np.int32)

    # combos[i, j, l, c, :] = C[c,0]*P1[i] + C[c,1]*P2[j] + C[c,2]*P3[l]
    t1 = mul_np[pts1[:, None, :], coeffs[:, 0][None, :, None]]  # (k_i, k_c, 6)
    t2 = mul_np[pts2[:, None, :], coeffs[:, 1][None, :, None]]
    s12 = add_np[t1[:, None, :, :], t2[None, :, :, :]]  # (k_i, k_j, k_c, 6)

    found = {}
    for third in hr.planes[2:q + 2]:  # q third planes guarantee a spanning triple
        pts3 = np.array(plane_points(base, third), dtype=np.uint8)
        t3 = mul_np[pts3[:, None, :], coeffs[:, 2][None, :, None]]
        combos = add_np[s12[:, :, None, :, :], t3[None, None, :, :, :]]
        codes = locate_np(ctx, combos)
        codes.sort(axis=3)
        hits = (codes == target).all(axis=3)  # (k_i, k_j, k_l)

        for i, j, l in zip(*np.nonzero(hits)):
            pl = plane_from_points(
                base,
                tuple(int(v) for v in pts1[i]),
                tuple(int(v) for v in pts2[j]),
                tuple(int(v) for v in pts3[l]),
            )
            found.setdefault(pl.key, pl)
    return [found[kk] for kk in sorted(found)]


def split_switching_classes(
    ctx: FieldCtx, planes: list[Plane]
) -> tuple[tuple[Plane, ...], tuple[Plane, ...]]:
    """Partition a transversal set into its two switching sets.

    Builds the disjointness graph and takes its two cliques: planes from the
    same switching set are disjoint, planes from different ones meet in a
    point.  The recovered structure is fully re-verified; a failure raises.
    """
    base = ctx.base
    n = len(planes)
    if n == 0 or n % 2:
        raise RuntimeError(f"transversal set of size {n} cannot split into two classes")
    md = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            md[i][j] = md[j][i] = meet_dim(base, planes[i], planes[j])
    first = [0] + [j for j in range(1, n) if md[0][j] == -1]
    second = [j for j in range(1, n) if j not in set(first)]
    if len(first) != n // 2 or len(second) != n // 2:
        raise RuntimeError("disjointness graph does not split into two equal cliques")
    for cls in (first, second):
        for i, j in combinations(cls, 2):
            if md[i][j] != -1:
                raise RuntimeError("a recovered class is not mutually disjoint")
    for i in first:
        for j in second:
            if md[i][j] != 0:
                raise RuntimeError("cross-class planes do not meet in a single point")
    a = tuple(sorted((planes[i] for i in first), key=lambda p: p.key))
    b = tuple(sorted((planes[j] for j in second), key=lambda p: p.key))
    return (a, b) if a[0].key <= b[0].key else (b, a)

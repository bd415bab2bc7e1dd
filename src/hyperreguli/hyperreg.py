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
1+2+3 = 0 there.)  The triples are taken in chunks as plane bases, which
the census block kernel labels (spread.block_labels); a triple is accepted
exactly when its points land on the cover's spread elements once each.  A
dependent triple repeats a label, so it never passes.  A brute-force sweep over
the full plane enumeration, filtering with rank-based meet dimensions only,
provides an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .census import DEFAULT_CHUNK_SIZE
from .covers import Cover, cover_type1
from .gf import FieldCtx
from .pg5 import (
    Plane,
    _plane_from_rref,
    enumerate_planes,
    meet_dim,
    plane_from_rows,
    plane_points,
)
from .spread import Spread, block_labels


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


def _transversals_span(spread: Spread, hr: HyperRegulus,
                       chunk_size: int = DEFAULT_CHUNK_SIZE) -> list[Plane]:
    ctx = spread.ctx
    base = ctx.base
    # the points of two planes of hr, and of q third planes (see above)
    pts1, pts2, pts3 = (
        np.array([pt for pl in planes for pt in plane_points(base, pl)], dtype=np.uint8)
        for planes in (hr.planes[:1], hr.planes[1:2], hr.planes[2:ctx.q + 2]))
    target = np.array(hr.cover.key)

    # triple t = (i*k + j)*k3 + l stands for the basis (P1[i], P2[j], P3[l])
    k, k3 = len(pts1), len(pts3)
    total = k * k * k3
    found = {}
    for start in range(0, total, chunk_size):
        ij, l = np.divmod(np.arange(start, min(start + chunk_size, total)), k3)
        i, j = np.divmod(ij, k)
        B = np.stack([pts1[i], pts2[j], pts3[l]], axis=1)
        for rows in B[(block_labels(ctx, B) == target).all(axis=1)]:
            pl = plane_from_rows(base, rows.tolist())
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

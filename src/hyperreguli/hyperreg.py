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
The constructor re-verifies every meet before returning: those with the
hyper-regulus by located labels, the others by the points the planes share
(split_switching_classes).

The transversal search finds ALL planes meeting every plane of a
hyper-regulus in a point, in two stages on the census block kernel.  Let
P1, P2 be the first two planes of the hyper-regulus.  A transversal pi
meets them in points p1, p2, so it contains the line p1p2, and each of its
points lies on a cover element.

Stage 1, the line filter: of the k^2 pairs (p1, p2) in P1 x P2 (k =
q^2+q+1), keep those whose line has all q+1 points on cover elements.  The
points p1 + b*p2 (b in GF(q)) are the (1, b, 0) points of the basis
(p1, p2, 0), located from the point table's q columns for them
(spread.point_labels); the last point, p2, is on P2.  The condition is
necessary, so every transversal keeps its own pair.

Stage 2, the third point: the line meets P1 and P2 in one point each, so it
lies in no spread element and its q+1 points lie on q+1 distinct ones, two
of them P1 and P2.  It therefore meets at most q-1 of the q further planes
P3 in hr.planes[2:q+2] and misses at least one.  A transversal through the
line meets such a P3 in a point p3 off the line, and (p1, p2, p3) spans it.
So each surviving pair is paired with the k points p3 of the first
candidate its line misses.  The same line filter runs on the line p1p3:
its points p1 + c*p3 are the (1, 0, c) points of the basis (p1, p2, p3),
and the last, p3, is on P3.  It cannot drop a transversal either: its k
points lie on k distinct cover elements, one each, and the line p1p3 lies
in it.  A triple that passes is accepted exactly when its located labels
(spread.block_labels) equal the cover key.  A dependent triple repeats a
label, so it never passes; every transversal is found and nothing else is.
The third plane is chosen per pair because no fixed one works: the planes
{(t, m*t^q)} over GF(8) meet J(1), J(2), J(3) in collinear points, because
1+2+3 = 0 there, so with P1, P2 = J(1), J(2) the plane J(3) is met by the
line of every such transversal.  The work is k^2 lines, then k lines and
about one k-label check per surviving pair; in the covers checked at
q = 3..9 exactly 2k pairs survive, one per transversal.  The tests
cross-check it against a brute-force sweep of the full plane enumeration
with rank-based meet dimensions only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .census import DEFAULT_CHUNK_SIZE
from .covers import Cover, cover_type1
from .gf import FieldCtx
from .pg5 import Plane, _plane_from_rref, block_points, plane_from_rows
from .spread import Spread, block_labels, check_disjoint, point_labels


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
    """Relabel a cover into its q^2+q+1 spread planes; disjointness
    re-asserted by spread.check_disjoint."""
    planes = tuple(spread.element(m) for m in cover.key)
    check_disjoint(spread.ctx, planes, cover.key)
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

    Each plane must meet every hyper-regulus plane in a point, and the two
    classes of split_switching_classes must be Y and Z; a failure raises.
    """
    cover = cover_type1(ctx, a, f)
    hr = hyper_regulus(spread, cover)
    ms = [m for m in range(1, ctx.q3) if ctx.norm_table[m] == f]
    ys = tuple(_graph_plane(ctx, a, m, 1) for m in ms)
    zs = tuple(_graph_plane(ctx, a, m, 2) for m in ms)

    # a plane meets each of the k hyper-regulus planes in one point exactly
    # when its k points locate to the k cover labels
    B = np.array([pl.basis for pl in ys + zs], dtype=np.uint8)
    if not (block_labels(ctx, B) == np.array(cover.key)).all():
        raise RuntimeError("switching-set planes do not meet each hyper-regulus plane in a point")
    classes = {frozenset(p.key for p in c) for c in split_switching_classes(ctx, ys + zs)}
    if classes != {frozenset(p.key for p in ys), frozenset(p.key for p in zs)}:
        raise RuntimeError("the switching sets are not the Y and Z families")
    return SwitchingPair(hyper_regulus=hr, y_planes=ys, z_planes=zs)


def transversal_count(q: int) -> int:
    return 2 * (q * q + q + 1)


def transversal_planes(spread: Spread, hr: HyperRegulus, method: str = "span") -> list[Plane]:
    """All planes meeting every plane of hr in exactly one point, sorted by
    key, by the span search above (exact and fast)."""
    # method stays because perfbench passes method="span" and records it
    if method != "span":
        raise ValueError(f"unknown search method {method!r}")
    return _transversals_span(spread, hr)


def _transversals_span(spread: Spread, hr: HyperRegulus,
                       chunk_size: int = DEFAULT_CHUNK_SIZE) -> list[Plane]:
    ctx = spread.ctx
    base, q = ctx.base, ctx.q
    # the points of P1, P2 and the q candidate third planes (see above), in
    # coefficient order and normalised, as their bases are RREF: (q+2, k, 6)
    pts = block_points(base, np.array([pl.basis for pl in hr.planes[:q + 2]], dtype=np.uint8))
    pts1, pts2, pts3 = pts[0], pts[1], pts[2:]
    target = np.array(hr.cover.key)
    in_cover = np.zeros(ctx.q3 + 1, dtype=bool)
    in_cover[target] = True
    line12 = 1 + q + q * np.arange(q)  # coefficients (1, b, 0): p1 + b*p2
    line13 = 1 + q + np.arange(q)  # coefficients (1, 0, c): p1 + c*p3

    # stage 1: pair t = i*k + j stands for the line through P1[i] and P2[j]
    k = len(pts1)
    kept = []
    for start in range(0, k * k, chunk_size):
        i, j = np.divmod(np.arange(start, min(start + chunk_size, k * k)), k)
        B = np.zeros((len(i), 3, 6), dtype=np.uint8)
        B[:, 0], B[:, 1] = pts1[i], pts2[j]
        labels = point_labels(ctx, B, line12)
        keep = in_cover[labels].all(axis=1)
        missed = (labels[keep, :, None] != target[2:q + 2]).all(axis=1)
        kept.append((i[keep], j[keep], missed.argmax(axis=1)))
    i, j, third = (np.concatenate(a) for a in zip(*kept))

    # stage 2: triple t = s*k + l stands for (P1[i[s]], P2[j[s]], point l of
    # the first candidate third plane that line s misses)
    total = len(i) * k
    found = {}
    for start in range(0, total, chunk_size):
        s, l = np.divmod(np.arange(start, min(start + chunk_size, total)), k)
        B = np.stack([pts1[i[s]], pts2[j[s]], pts3[third[s], l]], axis=1)
        B = B[in_cover[point_labels(ctx, B, line13)].all(axis=1)]
        for rows in B[(block_labels(ctx, B) == target).all(axis=1)]:
            pl = plane_from_rows(base, rows.tolist())
            found.setdefault(pl.key, pl)
    return [found[kk] for kk in sorted(found)]


def split_switching_classes(
    ctx: FieldCtx, planes: list[Plane]
) -> tuple[tuple[Plane, ...], tuple[Plane, ...]]:
    """Partition a transversal set into its two switching sets; raise if not.

    Each point of the planes is mapped to the planes on it.  Every point must
    lie on exactly two planes, no two planes may share two points, and the
    "shares a point" graph must be complete bipartite: side A is planes[0]
    and the planes disjoint from it, side B the planes meeting it, and each
    plane of A meets exactly the planes of B, each plane of B those of A.

    Then the points are the edges of K_{|A|,|B|}, one each: a point's two
    planes meet there and nowhere else.  A plane's k = q^2+q+1 points are its
    edges, one to each plane of the other side, so both sides have k planes,
    disjoint within a side and meeting in exactly one point across.

    The points come from block_points, normalised as the bases are RREF,
    and each is one flat index (its coordinates as base-q digits); one
    np.unique gives every point's incidence count, its first plane, and,
    with every count 2, its second plane by the sum of the planes on it.  A
    bad count names the point that comes first in the planes' order.
    """
    n = len(planes)
    if n == 0 or n % 2:
        raise RuntimeError(f"transversal set of size {n} cannot split into two classes")
    q = ctx.q
    pts = block_points(ctx.base, np.array([pl.basis for pl in planes], dtype=np.uint8))
    k = pts.shape[1]
    flat = (pts.astype(np.int64) * q ** np.arange(6)).sum(axis=2).ravel()
    plane_of = np.repeat(np.arange(n), k)
    _, first, inverse, counts = np.unique(flat, return_index=True, return_inverse=True,
                                          return_counts=True)
    if (counts != 2).any():
        bad = np.flatnonzero(counts != 2)
        on = int(counts[bad[np.argmin(first[bad])]])
        raise RuntimeError(f"a point lies on {on} planes of the set, not 2")
    i = plane_of[first]
    j = np.bincount(inverse.ravel(), weights=plane_of).astype(np.int64) - i
    meets = np.zeros((n, n), dtype=np.int64)
    np.add.at(meets, (i, j), 1)
    if (meets > 1).any():
        raise RuntimeError("two planes of the set share more than one point")
    meets = (meets + meets.T) > 0
    second = meets[0]  # side B; side A is planes[0] and the planes disjoint from it
    if not np.array_equal(meets, second[:, None] != second[None, :]):
        raise RuntimeError("the meet graph of the set is not complete bipartite")
    a = tuple(sorted((planes[i] for i in np.flatnonzero(~second)), key=lambda p: p.key))
    b = tuple(sorted((planes[j] for j in np.flatnonzero(second)), key=lambda p: p.key))
    return (a, b) if a[0].key <= b[0].key else (b, a)

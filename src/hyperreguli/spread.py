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
    block_points,
    column_codes,
    fast_column,
    normalize_point,
    point_table,
    run_length,
)


def infinity_label(ctx: FieldCtx) -> int:
    return ctx.q3


def format_label(ctx: FieldCtx, m: int) -> str:
    return "inf" if m == ctx.q3 else str(m)


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
        self._label_work = None  # see label_work

    def element(self, m: int) -> Plane:
        return self.planes[m]

    def labels(self) -> range:
        return range(self.ctx.q3 + 1)

    def label_work(self, n: int) -> LabelWork:
        """A LabelWork for up to n planes, kept for the next span search on
        this spread (a fresh one per search faults its pages in again)."""
        if self._label_work is None or self._label_work.n < n:
            self._label_work = LabelWork(self.ctx, n)
        return self._label_work

    def locate(self, pt) -> int:
        """The unique label m with pt in J(m), from coordinates in O(1)."""
        ctx = self.ctx
        x = ctx.from_coords(pt[:3])
        y = ctx.from_coords(pt[3:])
        if x == 0:
            return ctx.q3
        return ctx.div(y, x)


def _flat_weights(ctx: FieldCtx) -> np.ndarray:
    """Weights of the six coordinates in the flat index x*q^3 + y into
    FieldCtx.ratio_np.  The index is below q^6: uint16 up to q = 5, uint32
    from q = 7."""
    q, q3 = ctx.q, ctx.q3
    dtype = np.uint16 if q**6 <= 1 << 16 else np.uint32
    # x = c0 + c1 q + c2 q^2 and y = c3 + c4 q + c5 q^2
    return np.array([q3, q3 * q, q3 * q * q, 1, q, q * q], dtype=dtype)


def locate_np(ctx: FieldCtx, v: np.ndarray) -> np.ndarray:
    """Spread.locate over the last axis of an array of nonzero 6-vectors.

    The vectors need not be normalised: y/x is unchanged by scaling.  One
    gather at each vector's flat index in FieldCtx.ratio_np, a weighted sum
    of its coordinates, gives its uint16 label (q^3 where x = 0).
    """
    weights = _flat_weights(ctx)
    # coordinates are below q, so a cast from any integer dtype is exact
    flat = np.einsum("...d,d->...", v, weights, dtype=weights.dtype, casting="unsafe")
    return ctx.ratio_np[flat]


# Planes whose labels block_labels gathers at a time, at most: a tile's flat
# indices (intp, which np.take reads without a copy) then stay in
# cache between the sum that writes them and the gather that reads them.
_GATHER_TILE = 1 << 10

# The columns by falling weight in the flat index x*q^3 + y, x = c0 + c1 q +
# c2 q^2 and y = c3 + c4 q + c5 q^2: the index is Horner's scheme in q over
# the columns' coordinates in this order.
_HORNER_COLUMNS = (2, 1, 0, 5, 4, 3)


class LabelWork:
    """pg5.point_table and the work arrays of block_labels for blocks of up
    to n planes, allocated once and reused by every call.

    A census sweep builds one (each pool worker its own), so the kernel
    makes no large temporaries per chunk and its cost does not hang on when
    the C allocator trims its heap and faults it back in.  Only the pages a
    call writes are resident: a census chunk fills n/q rows of runs at most.
    """

    def __init__(self, ctx: FieldCtx, n: int):
        self.n = n
        self.points = point_table(ctx.base)
        k = self.points.shape[1]
        self.runs = np.empty(n * k, dtype=_flat_weights(ctx).dtype)
        self.tile = np.empty(min(n, _GATHER_TILE) * k, dtype=np.intp)
        self.codes = np.empty(n * k, dtype=np.uint16)  # as FieldCtx.ratio_np


def block_labels(ctx: FieldCtx, B: np.ndarray, work: LabelWork | None = None,
                 pattern=None, start: int = 0) -> np.ndarray:
    """The located labels of the k points of each plane with basis in B
    (n, 3, 6), sorted within each row: (n, k), a view of work.codes that the
    next call with the same work overwrites.

    A point's flat index into FieldCtx.ratio_np is a sum over the six columns
    of the column's weight times its coordinate, pg5.point_table's row at the
    column code; coordinates are below q and weights powers of q, so the sum
    has no carries.  With a pattern, B is planes_block_np(q, pattern, start,
    start + n): each run (pg5.run_length) sums the columns other than the
    fast one once, from its first plane in B, and adds the fast column's s
    codes to it in one broadcast.  Without one, every plane is a run of its
    own.  A gather in FieldCtx.ratio_np then locates the points, at most
    _GATHER_TILE planes at a time: whole runs, or part of one run.  Without
    work, the arrays are sized for B.
    """
    q, n = ctx.q, len(B)
    if work is None:
        work = LabelWork(ctx, n)
    P = work.points
    k = P.shape[1]
    fast = None if pattern is None else fast_column(pattern)
    s = 1 if pattern is None else run_length(q, pattern)
    phase = start % s
    runs = (phase + n + s - 1) // s
    codes = column_codes(q, B[np.maximum(np.arange(runs) * s - phase, 0)])
    G = work.runs[: runs * k].reshape(runs, k)
    G[...] = 0
    for c in _HORNER_COLUMNS:
        G *= q
        if c != fast:
            G += P.take(codes[c], axis=0)
    # the fast column's part for codes 0 .. s-1 (code 0, the zero row, alone
    # without a pattern), in G's dtype: uint8 times a weight would wrap
    W = np.multiply(P[:s], 0 if fast is None else _flat_weights(ctx)[fast], dtype=G.dtype)
    labels = work.codes[: n * k].reshape(n, k)
    u, end = phase, phase + n  # odometer offsets from run 0's first plane
    while u < end:  # a tile of whole runs, or else part of one run
        r, j = divmod(u, s)
        whole = 0 if j else min(_GATHER_TILE // s, (end - u) // s)
        rows = whole * s if whole else min(s - j, end - u, _GATHER_TILE)
        idx = work.tile[: rows * k]
        if whole:
            np.add(G[r : r + whole, None], W, out=idx.reshape(whole, s, k))
        else:
            np.add(G[r], W[j : j + rows], out=idx.reshape(rows, k))
        # no index is out of range; with mode="raise" np.take would buffer out
        np.take(ctx.ratio_np, idx.reshape(rows, k), out=labels[u - phase : u - phase + rows], mode="clip")
        u += rows
    labels.sort(axis=1)
    return labels


def check_disjoint(ctx: FieldCtx, planes, labels) -> None:
    """Raise unless the labels are distinct and every point of planes[i]
    locates to labels[i]; the error names the element, a point and its label.

    A label is a function of the projective point (y/x, unchanged by
    scaling), so planes whose points locate to distinct labels share no
    point.  For the q^3+1 spread elements, each of rank 3 with k = q^2+q+1
    points, that is (q^3+1)k = (q^6-1)/(q-1) distinct points, every point of
    PG(5,q): the elements partition the points.
    """
    labels = list(labels)
    if len(set(labels)) != len(labels):
        raise RuntimeError(f"spread elements are not pairwise disjoint: a label repeats in {labels}")
    B = np.array([pl.basis for pl in planes], dtype=np.uint8)
    want = np.array(labels)
    bad = np.flatnonzero((block_labels(ctx, B) != want[:, None]).any(axis=1))
    if len(bad):
        i = bad[0]
        pts = block_points(ctx.base, B[i : i + 1])[0]
        located = locate_np(ctx, pts)
        j = np.flatnonzero(located != want[i])[0]
        raise RuntimeError(
            f"spread elements are not pairwise disjoint: point "
            f"{normalize_point(ctx.base, pts[j].tolist())} of element "
            f"{format_label(ctx, labels[i])} locates to {format_label(ctx, int(located[j]))}")


def build_spread(ctx: FieldCtx, check: bool = True) -> Spread:
    """Construct the spread; with check=True prove that it partitions the
    points of PG(5,q) (check_disjoint), or raise with the witness."""
    planes = tuple(spread_element(ctx, m) for m in range(ctx.q3 + 1))
    if check:
        check_disjoint(ctx, planes, range(ctx.q3 + 1))
    return Spread(ctx, planes)

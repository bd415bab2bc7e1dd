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
    PlaneBlock,
    _plane_from_rref,
    block_points,
    column_codes,
    point_table,
)


def infinity_label(ctx: FieldCtx) -> int:
    return ctx.q3


def format_label(ctx: FieldCtx, m: int) -> str:
    return "inf" if m == ctx.q3 else str(m)


def graph_plane(ctx: FieldCtx, a: int, m: int, power: int) -> Plane:
    """The plane {(t, a*t + m*t^(q^power)) : t}, J(a) at m = 0; rows come out in RREF."""
    q = ctx.q
    rows = []
    for e in (1, q, q * q):  # indices of the basis 1, t, t^2
        img = ctx.add(ctx.mul(a, e), ctx.mul(m, ctx.frobenius(e, power)))
        rows.append(ctx.to_coords(e) + ctx.to_coords(img))
    return _plane_from_rref(rows)


def spread_element(ctx: FieldCtx, m: int) -> Plane:
    """The plane J(m), the graph of t -> m*t (J(inf) apart)."""
    if m == ctx.q3:
        rows = [(0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)]
        return _plane_from_rref(rows)
    if not 0 <= m < ctx.q3:
        raise ValueError(f"invalid circle-geometry label {m}")
    return graph_plane(ctx, m, 0, 0)


class Spread:
    """The q^3+1 pairwise disjoint planes J(m), indexed by circle points.

    It holds no mutable state: the span search and the spread check label
    their bases with block_labels, which sizes its arrays to each block.
    """

    def __init__(self, ctx: FieldCtx, planes: tuple[Plane, ...]):
        self.ctx = ctx
        self.planes = planes

    def element(self, m: int) -> Plane:
        return self.planes[m]

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


# The columns by falling weight in the flat index x*q^3 + y, x = c0 + c1 q +
# c2 q^2 and y = c3 + c4 q + c5 q^2: the index is Horner's scheme in q over
# the columns' coordinates in this order.
_HORNER_COLUMNS = (2, 1, 0, 5, 4, 3)


def _flat_index(q: int, P: np.ndarray, codes: np.ndarray, out: np.ndarray, skip=None) -> np.ndarray:
    """Write into out (n, P.shape[1]) the flat indices into FieldCtx.ratio_np
    of the points with point-table columns P of the n planes with column codes
    (6, n), leaving out column skip's term, and return it.

    Each column adds its weight times the coordinate, P's row at the column
    code; coordinates are below q and weights powers of q, so the sum has no
    carries and out may be any integer dtype that holds q^6.
    """
    out[...] = 0
    for c in _HORNER_COLUMNS:
        out *= q
        if c != skip:
            out += P.take(codes[c], axis=0)
    return out


class LabelWork:
    """The work arrays of block_labels for PlaneBlocks of up to n planes,
    allocated once and reused by every call of a census sweep.

    A sweep builds one (each pool worker its own), so the kernel makes no
    large temporaries per chunk and its cost does not hang on when the C
    allocator trims its heap and faults it back in.  A block of whole runs
    of s >= q planes has at most n/q runs, and only the pages a call writes
    are resident: a block with runs of s planes fills n/s rows of run sums
    and n*q/s of run tables.  The expansion index (block_labels) gets
    min(n, q^3) rows, as no run is longer than the block or than q^3.
    """

    def __init__(self, ctx: FieldCtx, n: int):
        q = ctx.q
        P = point_table(ctx.base)
        k = P.shape[1]
        runs = n // q
        self.index = np.empty(runs * k, dtype=np.intp)  # the run sums, as np.take reads them
        self.tables = np.empty(runs * q * k, dtype=np.uint16)
        self.codes = np.empty(n * k, dtype=np.uint16)  # as FieldCtx.ratio_np
        # entry [c, j]: point j's slot in its run's table, j*q + point_table[c, j]
        self.expand = np.arange(0, k * q, q, dtype=np.intp) + P[: min(n, q**3)]


def block_labels(ctx: FieldCtx, B, work: LabelWork | None = None) -> np.ndarray:
    """The located labels of the k points of each plane of a block, sorted
    within each row: (n, k).

    The block is n bases B (n, 3, 6), or a pg5.PlaneBlock of n planes.
    Bases, and the PlaneBlock without a fast column (pattern (3, 4, 5), one
    plane), are labelled by point_labels of all k points; work is not used.
    Otherwise the result is a view of work.codes that the next call with the
    same work overwrites; without work, it is LabelWork(ctx, n)'s.

    Each run of a PlaneBlock sums the columns other than the fast one once,
    from its head (_flat_index).  Across the run, point j's coordinate in
    the fast column takes only the q values of GF(q), so q gathers in
    FieldCtx.ratio_np fill the run's table of q labels per point, and one
    np.take of the tables at the expansion index's first s rows writes the
    label rows of every run.  The expansion index (LabelWork.expand, up to
    (q^3, k) intp) has entry [c, j] = j*q + point_table[c, j], the slot of
    point j's label in a run's table when the fast column has code c: 31 KB
    at q = 5, 8.9 MB at q = 16.
    """
    if isinstance(B, PlaneBlock) and B.fast is None:
        B = B.heads  # runs of one plane: the heads are the bases
    if not isinstance(B, PlaneBlock):
        labels = point_labels(ctx, B, slice(None))
        labels.sort(axis=1)
        return labels
    q, n, s, fast, heads = ctx.q, len(B), B.s, B.fast, B.heads
    if work is None:
        work = LabelWork(ctx, n)
    P = point_table(ctx.base)
    runs, k = len(heads), P.shape[1]
    idx = _flat_index(q, P, column_codes(q, heads), work.index[: runs * k].reshape(runs, k), fast)
    w = q ** (5 - _HORNER_COLUMNS.index(fast))  # the fast column's weight in the flat index
    tables = work.tables[: runs * k * q].reshape(runs, k, q)
    # no index is out of range; with mode="raise" np.take would buffer out
    for v in range(q):  # entry [r, j, v]: point j of run r at fast coordinate v
        np.take(ctx.ratio_np, idx, out=tables[..., v], mode="clip")
        idx += w
    labels = work.codes[: n * k].reshape(n, k)
    np.take(tables.reshape(runs, k * q), work.expand[:s], axis=1,
            out=labels.reshape(runs, s, k), mode="clip")
    labels.sort(axis=1)
    return labels


def point_labels(ctx: FieldCtx, B: np.ndarray, cols) -> np.ndarray:
    """The located labels (n, len(cols)) of the points with coefficient
    indices cols (pg5.projective_coeffs order, or a slice of them) of each
    plane with basis in B (n, 3, 6), in the order of cols.

    Each point's flat index into FieldCtx.ratio_np is the Horner sum of
    _flat_index, read from point_table's columns cols alone, so no other
    point of the plane is built; the sums, below q^6, are uint16 up to
    q = 5 and uint32 from q = 7.
    """
    P = point_table(ctx.base)[:, cols]
    flat = np.empty((len(B), P.shape[1]), dtype=np.uint16 if ctx.q**6 <= 1 << 16 else np.uint32)
    return ctx.ratio_np[_flat_index(ctx.q, P, column_codes(ctx.q, B), flat)]


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
        # both in coefficient order; the points of an RREF basis come normalised
        located = point_labels(ctx, B[i : i + 1], slice(None))[0]
        j = np.flatnonzero(located != want[i])[0]
        pt = block_points(ctx.base, B[i : i + 1])[0, j]
        raise RuntimeError(
            f"spread elements are not pairwise disjoint: point "
            f"{tuple(pt.tolist())} of element "
            f"{format_label(ctx, labels[i])} locates to {format_label(ctx, int(located[j]))}")


def build_spread(ctx: FieldCtx, check: bool = True) -> Spread:
    """Construct the spread; with check=True prove that it partitions the
    points of PG(5,q) (check_disjoint), or raise with the witness."""
    planes = tuple(spread_element(ctx, m) for m in range(ctx.q3 + 1))
    if check:
        check_disjoint(ctx, planes, range(ctx.q3 + 1))
    return Spread(ctx, planes)

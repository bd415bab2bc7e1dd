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
    ALL_COLUMNS,
    Plane,
    PointWork,
    _plane_from_rref,
    all_points,
    free_columns,
    incidence,
    normalize_point,
    num_points,
    plane_points,
    point_digits,
    projective_coeffs,
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
        self._label_of_key = {pl.key: m for m, pl in enumerate(planes)}
        self._label_work = None  # see label_work

    def element(self, m: int) -> Plane:
        return self.planes[m]

    def label_of(self, pl: Plane) -> int | None:
        return self._label_of_key.get(pl.key)

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


def _flat_index(ctx: FieldCtx, v: np.ndarray) -> np.ndarray:
    """Flat index into FieldCtx.ratio_np of each 6-vector on the last axis
    of v, in one weighted sum."""
    weights = _flat_weights(ctx)
    # coordinates are below q, so a cast from any integer dtype is exact
    return np.einsum("...d,d->...", v, weights, dtype=weights.dtype, casting="unsafe")


def locate_np(ctx: FieldCtx, v: np.ndarray) -> np.ndarray:
    """Spread.locate over the last axis of an array of nonzero 6-vectors.

    The vectors need not be normalised: y/x is unchanged by scaling.  One
    gather at each vector's flat index in FieldCtx.ratio_np gives its uint16
    label (q^3 where x = 0).
    """
    return ctx.ratio_np[_flat_index(ctx, v)]


# Planes whose labels block_labels gathers at a time, point by point: the
# planes of a chunk are neighbours in the enumeration, so one point's indices
# over a tile are close and the reads of FieldCtx.ratio_np stay local (at
# q = 13 and 16, 2.5-4x faster than gathering plane by plane).  The tile's
# transposed copy then makes each plane's labels a contiguous row for the
# sort.  np.take copies an index array that is not intp, so the tile's
# indices are first copied into an intp array of their own.
_GATHER_TILE = 1 << 10


class LabelWork:
    """Work arrays of block_labels for blocks of up to n planes with at most
    ncols varying columns, allocated once and reused by every call.

    A census sweep builds one (each pool worker its own), so the kernel
    makes no large temporaries per chunk and its cost does not hang on when
    the C allocator trims its heap and faults it back in.
    """

    def __init__(self, ctx: FieldCtx, n: int, ncols: int = 6):
        k = ctx.q**2 + ctx.q + 1
        self.n = n
        self.points = PointWork(ctx.base, n, ncols) if ctx.p != 2 else None
        self.flat = np.empty(k * n, dtype=_flat_weights(ctx).dtype)
        tile = k * min(n, _GATHER_TILE)
        self.tile_idx = np.empty(tile, dtype=np.intp)
        self.tile_labels = np.empty(tile, dtype=np.uint16)  # as FieldCtx.ratio_np
        self.codes = np.empty(n * k, dtype=np.uint16)


def _char2_point_indices(ctx: FieldCtx, B: np.ndarray, idx: np.ndarray) -> None:
    """Flat indices (k, n) into idx of the k points of each plane with basis
    in B (n, 3, 6), in coefficient order (as block_points), at p = 2.

    A flat index packs the six GF(q) coordinates, q = 2^h, as h-bit fields,
    and addition in GF(q) is XOR of the digits, so the index is XOR-linear
    in the vector.  Multiplication by t is GF(2)-linear on each field: shift
    its low h-1 bits up by one and fold its top bit back in times the low
    coefficients of the base modulus (t^h = m_0 + m_1 t + ..., signs vanish
    at p = 2).  Doubling
    then gives each row's q multiples, M[e] = sum of t^i * row over the bits
    i of e, and the points (0,0,1), (0,1,c), (1,b,c) are XORs of those.
    """
    q, h = ctx.q, ctx.h
    rows = _flat_index(ctx, B.transpose(1, 0, 2))  # (3, n)
    dtype = rows.dtype
    fields = sum(1 << (h * j) for j in range(6))  # bit 0 of each field
    low = dtype.type(fields * ((1 << (h - 1)) - 1))
    top = dtype.type(fields << (h - 1))
    fold = dtype.type(sum(c << i for i, c in enumerate(ctx.base.modulus[:h])))

    n = rows.shape[1]
    M = np.empty((2, q, n), dtype=dtype)  # multiples of rows 2 and 3
    M[:, 0] = 0
    M[:, 1] = rows[1:]
    power = M[:, 1]  # t^i * row
    for i in range(1, h):
        carry = power & top
        carry >>= h - 1
        carry *= fold
        power = power & low
        power <<= 1
        power ^= carry
        np.bitwise_xor(M[:, : 1 << i], power[:, None], out=M[:, 1 << i : 2 << i])

    idx[0] = M[1, 1]
    np.bitwise_xor(M[0, 1], M[1], out=idx[1 : 1 + q])
    np.bitwise_xor((rows[0] ^ M[0])[:, None], M[1][None],
                   out=idx[1 + q :].reshape(q, q, n))


def _odd_point_indices(ctx: FieldCtx, B: np.ndarray, pattern, work: PointWork,
                       idx: np.ndarray) -> None:
    """Flat indices (k, n) into idx of the k points of each plane with basis
    in B (n, 3, 6), in coefficient order, at odd p.

    Without a pattern all six columns come from point_digits.  With one,
    the planes are RREF matrices with those pivots, so only the free columns
    vary: point_digits runs on those, and the pivot columns add the same
    index to every plane, coeffs @ weights[pattern] (the columns left of the
    first pivot are zero).
    """
    p, h = ctx.p, ctx.h
    weights = _flat_weights(ctx)
    cols = ALL_COLUMNS if pattern is None else free_columns(pattern)
    R = point_digits(ctx.base, B, cols, work)  # (k, h, m, n)
    k, _, m, n = R.shape
    # digit i of column cols[j] weighs p^i times the column's weight
    digit_weights = (p ** np.arange(h)[:, None] * weights[list(cols)]).astype(weights.dtype)
    np.einsum("cjn,j->cn", R.reshape(k, h * m, n), digit_weights.ravel(), out=idx)
    if pattern is not None:
        const = np.array(projective_coeffs(ctx.q)) @ weights[list(pattern)]
        idx += const.astype(weights.dtype)[:, None]


def block_labels(ctx: FieldCtx, B: np.ndarray, work: LabelWork | None = None,
                 pattern=None) -> np.ndarray:
    """The located labels of the k points of each plane with basis in B
    (n, 3, 6), sorted within each row: (n, k), a view of work.codes that the
    next call with the same work overwrites.

    At p = 2 the point indices are XORs of basis-row multiples
    (_char2_point_indices), with no GF(p) products; at odd p they come from
    point_digits' GF(p) product, on the free columns of pattern alone when
    every plane of B has that pivot pattern (_odd_point_indices).  Either way
    one gather in FieldCtx.ratio_np locates them.  Without work, the arrays
    are sized for B.
    """
    n, k = len(B), ctx.q**2 + ctx.q + 1
    if work is None:
        work = LabelWork(ctx, n)
    idx = work.flat[: k * n].reshape(k, n)
    if ctx.p == 2:
        _char2_point_indices(ctx, B, idx)
    else:
        _odd_point_indices(ctx, B, pattern, work.points, idx)
    codes = work.codes[: n * k].reshape(n, k)
    for start in range(0, n, _GATHER_TILE):
        t = min(_GATHER_TILE, n - start)
        tile_idx = work.tile_idx[: k * t].reshape(k, t)
        tile_idx[...] = idx[:, start : start + t]
        tile_labels = work.tile_labels[: k * t].reshape(k, t)
        # no index is out of range; with mode="raise" np.take would buffer out
        np.take(ctx.ratio_np, tile_idx, out=tile_labels, mode="clip")
        codes[start : start + t] = tile_labels.T
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

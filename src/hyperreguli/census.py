"""Full census of the planes of PG(5,q) relative to the spread.

Every plane falls into one of three classes: A (a spread element), B (meets
q^2+q+1 spread elements in one point each), or C (meets one element in a
line and q^2 others in a point).  The census sweeps the whole plane
enumeration, classifies each plane, checks the exact counts

    A:     q^3 + 1
    B:     q^3 (q^3+1) (q^3-1)
    C:     q (q^3+1) (q^2+q+1)^2
    total: (q^3+1) (q^2+1) (q^4+q^3+q^2+q+1)

against the sweep, and verifies that the B count equals the number of
covers times 2(q^2+q+1).  When trace collection is on it also records, for
every B plane, the sorted labels of the spread elements it meets; each such
trace must be a cover and each cover must occur exactly 2(q^2+q+1) times.

A plane is classified without any rank computations: each of its q^2+q+1
points lies in exactly one spread element, located arithmetically, so the
multiset of located labels decides the class (all equal: A; all distinct:
B; one label q+1 times and the rest once: C).  The sweep is an
order-independent reduction over enumeration chunks, so any chunk split or
worker count produces the identical report.  classify_plane runs the same
block kernel on a single plane.
"""

from __future__ import annotations

import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .covers import cover_size, enumerate_covers, total_count
from .gf import FieldCtx, make_field
from .pg5 import (
    PIVOT_PATTERNS,
    count_planes,
    enumeration_chunks,
    planes_block_np,
    projective_coeffs,
)
from .spread import Spread, locate_np

# Trace collection by default only where it is cheap: np.unique over the
# B-plane rows adds about half again to the census time at q = 5.
DEFAULT_TRACE_Q_LIMIT = 3
DEFAULT_CHUNK_SIZE = 1 << 16


def type_a_count(q: int) -> int:
    return q**3 + 1


def type_b_count(q: int) -> int:
    return q**3 * (q**3 + 1) * (q**3 - 1)


def type_c_count(q: int) -> int:
    return q * (q**3 + 1) * (q**2 + q + 1) ** 2


@dataclass(frozen=True)
class PlaneClass:
    """Classification of one plane: tag plus the labels behind it.

    trace holds the q^2+q+1 point-met labels for tag B, the single label of
    the element met in a line for tag C, and the element's own label for A.
    """

    tag: str
    trace: tuple[int, ...]


def classify_plane(spread: Spread, pl) -> PlaneClass:
    """Classify one plane: the census kernel applied to a one-plane block."""
    block = np.array([pl.basis], dtype=np.uint8)
    codes, is_a, is_b, _ = _classify_block(spread.ctx, block)
    labels = codes[0].tolist()
    if is_b[0]:
        return PlaneClass(tag="B", trace=tuple(labels))
    # A: every label equal; C: the line-met label is the only repeated one
    repeated = labels[int(np.argmax(codes[0, 1:] == codes[0, :-1]))]
    return PlaneClass(tag="A" if is_a[0] else "C", trace=(repeated,))


@dataclass
class TraceCheck:
    checked: bool
    matched: bool | None = None
    multiplicity_ok: bool | None = None


@dataclass
class CensusReport:
    q: int
    count_a: int
    count_b: int
    count_c: int
    total: int
    covers_total: int
    identity_x_eq_y: bool
    trace_check: TraceCheck
    runtime_seconds: float

    def to_dict(self) -> dict:
        return asdict(self)


@lru_cache(maxsize=4)
def _cached_ctx(p: int, h: int, base_mod: tuple, cubic_mod: tuple) -> FieldCtx:
    return make_field(p, h, base_modulus=base_mod, cubic_modulus=cubic_mod)


def _classify_block(ctx: FieldCtx, B: np.ndarray):
    """Sorted located labels (n, k) and A/B/C masks for basis matrices B (n, 3, 6)."""
    q = ctx.q
    k = cover_size(q)
    n = B.shape[0]

    coeffs = np.array(projective_coeffs(q), dtype=np.uint8)  # (k, 3)
    add_np = ctx.base.add_np
    mul_np = ctx.base.mul_np

    # pts[n, c, d] = sum_r coeffs[c, r] * B[n, r, d] over GF(q)
    pts = mul_np[coeffs[None, :, 0, None], B[:, None, 0, :]]
    pts = add_np[pts, mul_np[coeffs[None, :, 1, None], B[:, None, 1, :]]]
    pts = add_np[pts, mul_np[coeffs[None, :, 2, None], B[:, None, 2, :]]]

    codes = locate_np(ctx, pts)  # (n, k) located labels
    codes.sort(axis=1)

    is_a = (codes == codes[:, :1]).all(axis=1)
    neq = codes[:, 1:] != codes[:, :-1]
    ndistinct = 1 + neq.sum(axis=1)
    is_b = ndistinct == k

    # longest run of equal sorted labels = largest meet multiplicity
    run = np.zeros(n, dtype=np.int32)
    max_run = np.ones(n, dtype=np.int32)
    eq = ~neq
    for col in range(k - 1):
        run = (run + 1) * eq[:, col]
        np.maximum(max_run, run + 1, out=max_run)
    is_c = (~is_a) & (~is_b) & (ndistinct == q * q + 1) & (max_run == q + 1)

    classified = is_a | is_b | is_c
    if not classified.all():
        bad = int(np.argmin(classified))
        raise RuntimeError(
            f"inconsistent intersection tally for plane labels {codes[bad].tolist()}"
        )
    return codes, is_a, is_b, is_c


def _census_chunk(ctx: FieldCtx, pattern_idx: int, start: int, stop: int,
                  collect_traces: bool):
    """Classify one enumeration chunk; returns (nA, nB, nC, trace Counter)."""
    B = planes_block_np(ctx.q, PIVOT_PATTERNS[pattern_idx], start, stop)
    codes, is_a, is_b, is_c = _classify_block(ctx, B)

    traces: Counter | None = None
    if collect_traces:
        traces = Counter()
        brows = np.ascontiguousarray(codes[is_b].astype("<u2"))
        uniq, counts = np.unique(brows, axis=0, return_counts=True)
        for row, c in zip(uniq, counts):
            traces[row.tobytes()] += int(c)
    return int(is_a.sum()), int(is_b.sum()), int(is_c.sum()), traces


def _pool_chunk(args):
    p, h, base_mod, cubic_mod, pattern_idx, start, stop, collect = args
    ctx = _cached_ctx(p, h, base_mod, cubic_mod)
    return _census_chunk(ctx, pattern_idx, start, stop, collect)


def trace_key_bytes(labels) -> bytes:
    """Canonical byte form of a sorted label tuple, shared with cover keys."""
    return np.asarray(labels, dtype="<u2").tobytes()


def trace_is_cover_check(
    ctx: FieldCtx, traces: Counter, cover_keys: set[bytes]
) -> TraceCheck:
    """Compare collected B-plane traces against the cover keys."""
    two_k = 2 * cover_size(ctx.q)
    matched = set(traces) <= cover_keys
    multiplicity_ok = set(traces) == cover_keys and all(
        c == two_k for c in traces.values()
    )
    return TraceCheck(checked=True, matched=matched, multiplicity_ok=multiplicity_ok)


def _sweep(ctx: FieldCtx, jobs: int, collect_traces: bool, chunk_size: int):
    """Classify every plane; returns (nA, nB, nC, trace Counter or None)."""
    chunks = enumeration_chunks(ctx.q, chunk_size)
    na = nb = nc = 0
    traces: Counter | None = Counter() if collect_traces else None

    pool = ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else None
    try:
        if pool is None:
            results = (_census_chunk(ctx, *c, collect_traces) for c in chunks)
        else:
            args = [
                (ctx.p, ctx.h, ctx.base.modulus, ctx.cubic_modulus, *c, collect_traces)
                for c in chunks
            ]
            results = pool.map(_pool_chunk, args)
        for ca, cb, cc, ctr in results:
            na += ca
            nb += cb
            nc += cc
            if traces is not None:
                traces.update(ctr)
    finally:
        if pool is not None:
            pool.shutdown()
    return na, nb, nc, traces


def run_census(
    ctx: FieldCtx,
    spread: Spread | None = None,
    jobs: int = 1,
    collect_traces: bool | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> CensusReport:
    """Sweep every plane of PG(5,q) and report exact class counts.

    Traces are collected by default for q <= DEFAULT_TRACE_Q_LIMIT.  The
    reduction over chunks is associative, so jobs and chunk_size affect
    runtime only; the report is identical for any split.
    """
    t0 = time.perf_counter()
    if spread is not None and spread.ctx.q3 != ctx.q3:
        raise ValueError("spread was built over a different field")
    if collect_traces is None:
        collect_traces = ctx.q <= DEFAULT_TRACE_Q_LIMIT

    na, nb, nc, traces = _sweep(ctx, jobs, collect_traces, chunk_size)
    total = na + nb + nc
    if total != count_planes(ctx.q):
        raise RuntimeError("census did not visit every plane exactly once")

    cover_set = enumerate_covers(ctx)
    identity = nb == cover_set.total * 2 * cover_size(ctx.q)
    if cover_set.total != total_count(ctx.q):
        identity = False  # cover enumeration itself disagrees with its count

    if traces is not None:
        cover_keys = {trace_key_bytes(c) for c in cover_set.by_key}
        tc = trace_is_cover_check(ctx, traces=traces, cover_keys=cover_keys)
    else:
        tc = TraceCheck(checked=False)

    return CensusReport(
        q=ctx.q,
        count_a=na,
        count_b=nb,
        count_c=nc,
        total=total,
        covers_total=cover_set.total,
        identity_x_eq_y=identity,
        trace_check=tc,
        runtime_seconds=time.perf_counter() - t0,
    )

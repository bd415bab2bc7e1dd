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
covers times 2(q^2+q+1).  With trace collection (the default) it also
records, for every B plane, the sorted labels of the spread elements it
meets; each such trace must be a cover and each cover must occur exactly
2(q^2+q+1) times.

A plane is classified without any rank computations: each of its q^2+q+1
points lies in exactly one spread element, located arithmetically, so the
multiset of located labels decides the class (all equal: A; all distinct:
B; one label q+1 times and the rest once: C).  spread.block_labels locates
the points of a block of planes: at p = 2 their flat coordinate indices are
XORs of multiples of the basis rows' indices, since GF(2^h) addition is XOR
of the coordinate digits, and at odd p the points come from one integer
matrix product over GF(p).  Each B-plane trace is looked up exactly in a
table of the covers.  The sweep is an
order-independent reduction over enumeration chunks, so any chunk split or
worker count produces the identical report.  classify_plane runs the same
block kernel on a single plane.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .covers import CoverSet, cover_size, enumerate_covers, total_count
from .gf import MAX_Q, FieldCtx, make_field
from .pg5 import (
    PIVOT_PATTERNS,
    count_planes,
    enumeration_chunks,
    planes_block_np,
)
from .spread import Spread, block_labels

# Planes per chunk.  Larger chunks buy no speed: at q = 5, chunks of 2^16
# planes took as long as 2^14 and raised the census's peak RSS from 78 to 142 MB.
DEFAULT_CHUNK_SIZE = 1 << 14


def _odd_multipliers(n: int, seed: int) -> np.ndarray:
    """n seeded odd 64-bit integers (stdlib random: numpy.random would add
    about 15 ms to every import of the package)."""
    rng = random.Random(seed)
    return np.array([rng.getrandbits(64) | 1 for _ in range(n)], dtype=np.uint64)


# Multipliers of the trace-row hash, one per label column.
_HASH_MULTIPLIERS = _odd_multipliers(cover_size(MAX_Q), 1973)


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


def _classify_block(ctx: FieldCtx, B: np.ndarray):
    """Sorted located labels (n, k) and A/B/C masks for basis matrices B (n, 3, 6)."""
    q = ctx.q
    codes = block_labels(ctx, B)
    ndistinct = 1 + (codes[:, 1:] != codes[:, :-1]).sum(axis=1)
    is_a = ndistinct == 1
    is_b = ndistinct == cover_size(q)
    # With q^2+1 distinct labels among k the runs' excess over 1 sums to q,
    # so a run of q+1 (a label equal to the one q places on) leaves every
    # other label single: exactly the C pattern.
    is_c = (ndistinct == q * q + 1) & (codes[:, q:] == codes[:, :-q]).any(axis=1)

    classified = is_a | is_b | is_c
    if not classified.all():
        bad = int(np.argmin(classified))
        raise RuntimeError(
            f"inconsistent intersection tally for plane labels {codes[bad].tolist()}"
        )
    return codes, is_a, is_b, is_c


def trace_key_bytes(labels) -> bytes:
    """Canonical byte form of a sorted label tuple, shared with cover keys."""
    return np.asarray(labels, dtype="<u2").tobytes()


def _row_hash(rows: np.ndarray) -> np.ndarray:
    """64-bit hash of each label row (wrapping sum of label times multiplier)."""
    return np.einsum("ij,j->i", rows.astype(np.uint64), _HASH_MULTIPLIERS[: rows.shape[1]])


class CoverTable:
    """Exact lookup of sorted label rows among the cover keys.

    Rows are found by hash with a binary search over the sorted cover
    hashes; a row matches a cover only when all its labels equal the
    cover's, so hash collisions cost time, never exactness.
    """

    def __init__(self, keys: np.ndarray):
        rows = np.asarray(keys, dtype=np.uint16)  # (n, q^2+q+1) sorted label rows
        # in row blocks: _row_hash widens its input to uint64
        hashes = np.empty(len(rows), dtype=np.uint64)
        for start in range(0, len(rows), DEFAULT_CHUNK_SIZE):
            block = slice(start, start + DEFAULT_CHUNK_SIZE)
            hashes[block] = _row_hash(rows[block])
        order = np.argsort(hashes, kind="stable")
        self.hashes = hashes[order]
        self.rows = rows[order]

    def __len__(self) -> int:
        return len(self.hashes)

    def lookup(self, rows: np.ndarray) -> np.ndarray:
        """Table index of each row's cover (int32: at most 1.3e8 covers at
        q = 16), or -1 where the row is no cover."""
        h = _row_hash(rows)
        pending = np.argsort(h)  # sorted queries make the binary searches local
        h = h[pending]
        cand = np.searchsorted(self.hashes, h)
        out = np.full(len(rows), -1, dtype=np.int32)
        last = len(self) - 1
        while pending.size:  # one pass per cover sharing a row's hash
            same = (cand <= last) & (self.hashes[np.minimum(cand, last)] == h)
            pending, cand, h = pending[same], cand[same], h[same]
            hit = (self.rows[cand] == rows[pending]).all(axis=1)
            out[pending[hit]] = cand[hit]
            pending, cand, h = pending[~hit], cand[~hit] + 1, h[~hit]
        return out

    def tally(self, rows: np.ndarray) -> tuple[np.ndarray, Counter]:
        """The table index of each row that is a cover (one entry per row,
        not per cover), and a Counter of the rows that are no cover."""
        idx = self.lookup(rows)
        witnesses = Counter(trace_key_bytes(r) for r in rows[idx < 0])
        return idx[idx >= 0], witnesses

    def traces(self, hits: np.ndarray, witnesses: Counter) -> Counter:
        """The trace multiset: every cover hit, by key, plus the witnesses."""
        traces = Counter({trace_key_bytes(self.rows[i]): int(hits[i])
                          for i in np.flatnonzero(hits)})
        traces.update(witnesses)
        return traces


def _census_chunk(ctx: FieldCtx, table: CoverTable | None,
                  pattern_idx: int, start: int, stop: int):
    """Classify one enumeration chunk; returns (nA, nB, nC, hits, witnesses).

    hits and witnesses are the chunk's CoverTable.tally, None without a table.
    hits holds one int32 per B plane that is a cover, so a pool worker ships
    at most 4 bytes per plane of the chunk, not a covers-sized count array.
    """
    B = planes_block_np(ctx.q, PIVOT_PATTERNS[pattern_idx], start, stop)
    codes, is_a, is_b, is_c = _classify_block(ctx, B)
    hits, witnesses = table.tally(codes[is_b]) if table is not None else (None, None)
    return int(is_a.sum()), int(is_b.sum()), int(is_c.sum()), hits, witnesses


_worker = None  # (ctx, table) of a census pool worker, set by _init_worker


def _init_worker(p, h, base_mod, cubic_mod, table):
    global _worker
    _worker = (make_field(p, h, base_modulus=base_mod, cubic_modulus=cubic_mod), table)


def _pool_chunk(chunk):
    return _census_chunk(*_worker, *chunk)


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


def _sweep(ctx: FieldCtx, jobs: int, table: CoverTable | None, chunk_size: int):
    """Classify every plane; returns (nA, nB, nC, trace Counter or None).

    The traces are tallied against table; without one none are collected.
    """
    chunks = enumeration_chunks(ctx.q, chunk_size)
    na = nb = nc = 0
    hits = np.zeros(len(table), dtype=np.int64) if table is not None else None
    witnesses = Counter()

    pool = None
    if jobs > 1:
        pool = ProcessPoolExecutor(
            max_workers=jobs,
            initializer=_init_worker,
            initargs=(ctx.p, ctx.h, ctx.base.modulus, ctx.cubic_modulus, table),
        )
    try:
        if pool is None:
            results = (_census_chunk(ctx, table, *c) for c in chunks)
        else:
            results = pool.map(_pool_chunk, chunks)
        for ca, cb, cc, chunk_hits, chunk_witnesses in results:
            na += ca
            nb += cb
            nc += cc
            if table is not None:
                np.add.at(hits, chunk_hits, 1)
                witnesses.update(chunk_witnesses)
    finally:
        if pool is not None:
            pool.shutdown()
    traces = table.traces(hits, witnesses) if table is not None else None
    return na, nb, nc, traces


def run_census(
    ctx: FieldCtx,
    spread: Spread | None = None,
    jobs: int = 1,
    collect_traces: bool = True,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    cover_set: CoverSet | None = None,
) -> CensusReport:
    """Sweep every plane of PG(5,q) and report exact class counts.

    With collect_traces, every B-plane trace is checked against the covers.
    The reduction over chunks is associative, so jobs and chunk_size affect
    runtime only; the report is identical for any split.  The covers are
    enumerated here unless cover_set, their enumeration over ctx, is given.
    """
    t0 = time.perf_counter()
    if spread is not None and spread.ctx.q3 != ctx.q3:
        raise ValueError("spread was built over a different field")

    if cover_set is None:
        cover_set = enumerate_covers(ctx)
    table = CoverTable(cover_set.keys) if collect_traces else None
    na, nb, nc, traces = _sweep(ctx, jobs, table, chunk_size)
    total = na + nb + nc
    if total != count_planes(ctx.q):
        raise RuntimeError("census did not visit every plane exactly once")

    identity = nb == cover_set.total * 2 * cover_size(ctx.q)
    if cover_set.total != total_count(ctx.q):
        identity = False  # cover enumeration itself disagrees with its count

    if traces is not None:
        cover_keys = {trace_key_bytes(row) for row in cover_set.keys}
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

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
2(q^2+q+1) times.  The sweep counts the traces equal to each key row and
keeps the others as witnesses, so with distinct keys that holds exactly
when no witness is left and every count is 2(q^2+q+1).  The main process
keeps one copy of the keys (CoverSet.keys, shared by the forked pool
workers) and no Python object per cover.

A plane is classified without any rank computations: each of its q^2+q+1
points lies in exactly one spread element, located arithmetically, so the
multiset of located labels decides the class (all equal: A; all distinct:
B; one label q+1 times and the rest once: C).  spread.block_labels locates
the points of a block of planes, for every p alike: coordinate j of a point
depends on column j of the basis alone, so each point's flat coordinate
index is a sum of rows of one (q^3, k) table (pg5.point_table), no GF(p)
product.  A chunk holds whole runs of one pivot pattern's odometer, in which
only the fastest free column changes, so each run sums its other columns
once and the fast column's codes are added in one broadcast.  The sweep, and
each pool worker, allocates the chunk's bases and the kernel's arrays once
(_ChunkWork) and reuses them for every chunk.  The sweep is an
order-independent reduction over enumeration chunks, so any chunk split or
worker count produces the identical report.  A plane of no class stops the
census with its basis, pivot pattern and odometer index.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import Counter
from collections.abc import Mapping, Set
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .covers import CoverSet, cover_size, enumerate_covers, row_hash, total_count
from .gf import FieldCtx, make_field
from .pg5 import PIVOT_PATTERNS, count_planes, enumeration_chunks, planes_block_np
from .spread import LabelWork, Spread, block_labels

# Planes per chunk.  Larger chunks buy no speed: at q = 5, chunks of 2^16
# planes took as long as 2^14 and raised the census's peak RSS from 78 to 142 MB.
DEFAULT_CHUNK_SIZE = 1 << 14


def type_a_count(q: int) -> int:
    return q**3 + 1


def type_b_count(q: int) -> int:
    return q**3 * (q**3 + 1) * (q**3 - 1)


def type_c_count(q: int) -> int:
    return q * (q**3 + 1) * (q**2 + q + 1) ** 2


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


def _classify_block(ctx: FieldCtx, B: np.ndarray, *block):
    """Sorted located labels (n, k) and A/B/C masks for basis matrices B
    (n, 3, 6); block is block_labels' optional (work, pattern, start).

    A plane of no class raises, with its basis and labels as the witness
    and, for a pattern's block, the pattern and its odometer index.
    """
    q = ctx.q
    codes = block_labels(ctx, B, *block)
    # repeats per row, from one equality mask (einsum sums these short rows
    # about twice as fast as count_nonzero(axis=1))
    repeats = np.einsum("ij->i", (codes[:, 1:] == codes[:, :-1]).view(np.uint8), dtype=np.uint16)
    is_a = repeats == cover_size(q) - 1
    is_b = repeats == 0
    # With q^2+1 distinct labels among k (q repeats) the runs' excess over 1
    # sums to q, so a run of q+1 (a label equal to the one q places on)
    # leaves every other label single: exactly the C pattern.
    is_c = np.zeros_like(is_b)
    rows = np.flatnonzero(repeats == q)
    is_c[rows] = (codes[rows, q:] == codes[rows, :-q]).any(axis=1)

    classified = is_a | is_b | is_c
    if not classified.all():
        bad = int(np.argmin(classified))
        where = ""
        if block:
            _, pattern, start = block
            where = f" (pivot pattern {pattern}, odometer index {start + bad})"
        raise RuntimeError(
            f"inconsistent intersection tally for plane basis {B[bad].tolist()}{where}: "
            f"labels {codes[bad].tolist()}"
        )
    return codes, is_a, is_b, is_c


def trace_key_bytes(labels) -> bytes:
    """Canonical byte form of a sorted label tuple, shared with cover keys."""
    return np.asarray(labels, dtype="<u2").tobytes()


# Rows per block of CoverTable.lookup.  A block's temporaries (hashes, the
# candidate key rows and their comparison) then stay a fraction of a census
# chunk's label rows; at 2^14 rows, those of a q = 5 chunk's trace tally made
# the C allocator give its heap top back and fault it in again every chunk.
_LOOKUP_ROWS = 1 << 11


class CoverTable(Set):
    """The cover keys of a CoverSet, as a set of key bytes, with exact lookup
    of sorted label rows: a row's hash is found among the cover hashes from
    the bucket of its top bits (about one hash each), and the row matches a
    cover only when all its labels equal the cover's key row, so hash
    collisions cost time, never exactness."""

    def __init__(self, cover_set: CoverSet):
        self.keys, self.hashes, self.order = cover_set.keys, cover_set.hashes, cover_set.order
        self.total = cover_set.total  # distinct keys
        bits = len(self.hashes).bit_length()  # 2^bits buckets: 128 KB at q = 5, 16 MB at q = 9
        self._shift, self._starts = 64 - bits, np.empty(2**bits, dtype=np.int32)
        for t in range(0, 2**bits, 1 << 18):  # bucket t starts at the first hash >= t << shift
            tops = np.arange(t, min(t + (1 << 18), 2**bits), dtype=np.uint64)
            self._starts[t : t + len(tops)] = np.searchsorted(self.hashes, tops << self._shift)

    def __len__(self) -> int:
        return self.total

    def __contains__(self, key) -> bool:
        return self.find(key) >= 0

    def __iter__(self):  # the key rows that lookup finds at their own index
        return map(trace_key_bytes, self.keys[self.lookup(self.keys) == np.arange(len(self.keys))])

    @classmethod
    def _from_iterable(cls, it) -> set:
        return set(it)

    def lookup(self, rows: np.ndarray) -> np.ndarray:
        """Key row index of each row's cover (int32), or -1 where the row is no cover.

        The rows are looked up _LOOKUP_ROWS at a time, so the temporaries
        stay small next to a census chunk's arrays.
        """
        out = np.empty(len(rows), dtype=np.int32)
        for start in range(0, len(rows), _LOOKUP_ROWS):
            block = slice(start, start + _LOOKUP_ROWS)
            out[block] = self._lookup_block(rows[block])
        return out

    def _first_at_least(self, h: np.ndarray) -> np.ndarray:
        """np.searchsorted(self.hashes, h): the start of each h's bucket, one
        step into it, and a search of all hashes for the few h further in."""
        cand = self._starts[h >> self._shift]
        cand += self.hashes.take(cand, mode="clip") < h
        behind = np.flatnonzero(self.hashes.take(cand, mode="clip") < h)
        cand[behind] = np.searchsorted(self.hashes, h[behind])
        return cand

    def _lookup_block(self, rows: np.ndarray) -> np.ndarray:
        h = row_hash(rows)
        last = len(self.keys) - 1
        cand = np.minimum(self._first_at_least(h), last)
        idx = self.order[cand]
        same_hash = self.hashes[cand] == h
        found = self.keys.take(idx, axis=0)
        if same_hash.all() and np.array_equal(found, rows):  # every row a cover
            return idx
        hit = same_hash & ~(found != rows).any(axis=1)
        out = np.where(hit, idx, np.int32(-1))
        # a miss may share its hash with further covers; one whose hash is
        # no cover's is no cover
        tied = np.flatnonzero(same_hash & ~hit)
        if tied.size:
            out[tied] = self._lookup_tied(rows[tied], cand[tied], h[tied])
        return out

    def _lookup_tied(self, rows: np.ndarray, first: np.ndarray, h: np.ndarray) -> np.ndarray:
        """lookup of rows whose hash h some cover has, first being the
        position of h's first cover in the hashes.  The covers of all these
        hashes are sorted by key bytes once and each row is binary-searched
        among them, so the cost does not grow with the covers one hash has."""
        first, uniq = np.unique(first, return_index=True)
        size = np.searchsorted(self.hashes, h[uniq], side="right") - first
        pos = np.repeat(first - np.cumsum(size) + size, size) + np.arange(size.sum())
        dtype = np.promote_types(rows.dtype, self.keys.dtype)
        as_bytes = f"V{dtype.itemsize * rows.shape[1]}"
        keys = np.ascontiguousarray(self.keys[self.order[pos]], dtype=dtype).view(as_bytes).ravel()
        want = np.ascontiguousarray(rows, dtype=dtype).view(as_bytes).ravel()
        by_bytes = np.argsort(keys, kind="stable")
        at = by_bytes[np.minimum(np.searchsorted(keys[by_bytes], want), len(keys) - 1)]
        return np.where(keys[at] == want, self.order[pos[at]], np.int32(-1))

    def find(self, key) -> int:
        """Key row index of the cover with key bytes key, or -1."""
        ok = isinstance(key, bytes) and len(key) == 2 * self.keys.shape[1]
        return int(self.lookup(np.frombuffer(key, dtype="<u2")[None])[0]) if ok else -1

    def tally(self, rows: np.ndarray) -> tuple[np.ndarray, Counter]:
        """The key row index of each row that is a cover (one entry per row,
        not per cover), and a Counter of the rows that are no cover."""
        idx = self.lookup(rows)
        witnesses = Counter(trace_key_bytes(r) for r in rows[idx < 0])
        return idx[idx >= 0], witnesses


class TraceCounts(Mapping):
    """The B-plane traces, key bytes to count: hits per key row, then witnesses."""

    def __init__(self, table: CoverTable, hits: np.ndarray, witnesses: Counter):
        self.table, self.hits, self.witnesses = table, hits, witnesses

    def __getitem__(self, key) -> int:
        i = self.table.find(key)
        if count := int(self.hits[i]) if i >= 0 else self.witnesses[key]:
            return count
        raise KeyError(key)

    def __iter__(self):
        yield from map(trace_key_bytes, self.table.keys[np.flatnonzero(self.hits)])
        yield from self.witnesses

    def __len__(self) -> int:
        return int(np.count_nonzero(self.hits)) + len(self.witnesses)


class _ChunkWork:
    """The arrays a census sweep reuses for each chunk of up to n planes: the
    chunk's bases and block_labels' work."""

    def __init__(self, ctx: FieldCtx, n: int):
        self.planes = np.empty((n, 3, 6), dtype=np.uint8)
        self.labels = LabelWork(ctx, n)


def _census_chunk(ctx: FieldCtx, table: CoverTable | None, work: _ChunkWork,
                  pattern_idx: int, start: int, stop: int):
    """Classify one enumeration chunk; returns (nA, nB, nC, hits, witnesses).

    hits and witnesses are the chunk's CoverTable.tally, None without a table.
    hits holds one int32 per B plane that is a cover, so a pool worker ships
    at most 4 bytes per plane of the chunk, not a covers-sized count array.
    """
    pattern = PIVOT_PATTERNS[pattern_idx]
    B = planes_block_np(ctx.q, pattern, start, stop, out=work.planes)
    codes, is_a, is_b, is_c = _classify_block(ctx, B, work.labels, pattern, start)
    hits, witnesses = table.tally(codes[is_b]) if table is not None else (None, None)
    return int(is_a.sum()), int(is_b.sum()), int(is_c.sum()), hits, witnesses


_worker = None  # (ctx, table, work) of a census pool worker, set by _init_worker


def _init_worker(p, h, base_mod, cubic_mod, table, chunk_planes):
    global _worker
    ctx = make_field(p, h, base_modulus=base_mod, cubic_modulus=cubic_mod)
    _worker = (ctx, table, _ChunkWork(ctx, chunk_planes))


def _pool_chunk(chunk):
    return _census_chunk(*_worker, *chunk)


def trace_is_cover_check(
    ctx: FieldCtx, traces: TraceCounts, cover_keys: CoverTable
) -> TraceCheck:
    """Compare collected B-plane traces against the cover keys (see the module docstring)."""
    matched = not traces.witnesses
    distinct = len(cover_keys) == len(traces.hits)
    multiplicity_ok = matched and distinct and bool((traces.hits == 2 * cover_size(ctx.q)).all())
    return TraceCheck(checked=True, matched=matched, multiplicity_ok=multiplicity_ok)


def _sweep(ctx: FieldCtx, jobs: int, table: CoverTable | None, chunk_size: int):
    """Classify every plane; returns (nA, nB, nC, hits, witnesses).

    hits[i] counts the traces equal to key row i of table (None without one), witnesses the rest.
    """
    chunks = enumeration_chunks(ctx.q, chunk_size)
    chunk_planes = max(stop - start for _, start, stop in chunks)
    na = nb = nc = 0
    hits = np.zeros(len(table.keys), dtype=np.int64) if table is not None else None
    witnesses = Counter()

    pool = None
    if jobs > 1:
        # fork: the workers share the table copy-on-write; forkserver (Python
        # 3.14's default on Linux) and spawn would pickle it into each of them
        pool = ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker,
            initargs=(ctx.p, ctx.h, ctx.base.modulus, ctx.cubic_modulus, table, chunk_planes),
        )
    try:
        if pool is None:
            work = _ChunkWork(ctx, chunk_planes)
            results = (_census_chunk(ctx, table, work, *c) for c in chunks)
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
    return na, nb, nc, hits, witnesses


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
    table = CoverTable(cover_set) if collect_traces else None
    na, nb, nc, hits, witnesses = _sweep(ctx, jobs, table, chunk_size)
    total = na + nb + nc
    if total != count_planes(ctx.q):
        raise RuntimeError("census did not visit every plane exactly once")

    identity = nb == cover_set.total * 2 * cover_size(ctx.q)
    if cover_set.total != total_count(ctx.q):
        identity = False  # cover enumeration itself disagrees with its count

    if table is not None:
        tc = trace_is_cover_check(ctx, traces=TraceCounts(table, hits, witnesses),
                                  cover_keys=table)
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

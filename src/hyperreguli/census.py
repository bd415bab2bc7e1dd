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
workers) and no Python object per cover.  Each chunk's B rows are looked
up in one pass (CoverTable): a hash of three 64-bit words (12 labels) of
each row, a slot read that gives one candidate key row, and a compare of
every label, which is the proof; the key rows are gathered into the
chunk's label buffer and compared with the B rows as one flat array of
64-bit words.

A plane is classified without any rank computations: each of its q^2+q+1
points lies in exactly one spread element, located arithmetically, so the
multiset of located labels decides the class (all equal: A; all distinct:
B; one label q+1 times and the rest once: C).  spread.block_labels locates
the points of a block of planes, for every p alike: coordinate j of a point
depends on column j of the basis alone, so each point's flat coordinate
index is a sum of rows of one (q^3, k) table (pg5.point_table), no GF(p)
product.  A chunk holds whole runs of one pivot pattern's odometer, in which
only the fastest free column changes, so the census builds no plane's
basis: it passes block_labels the chunk's pg5.PlaneBlock, one head basis
per run (pg5.planes_block_np).  block_labels sums each run's other columns
once, gathers the run's q labels per point (one per value of the point's
fast coordinate) from FieldCtx.ratio_np, and expands those tables over the
chunk's planes with one np.take at a fixed index.  The class masks come
from one equality pass over the chunk's flat label rows, and the B rows go
to the trace tally gathered by index.  Each process of the sweep
allocates the chunk's arrays once (_ChunkWork: the kernel's work, one
buffer for the equality mask and then the B rows, and the tally's lookup
arrays) and reuses them for every chunk.  The sweep is an
order-independent reduction over enumeration chunks, so any chunk split or
job count produces the identical report.  The enumeration is cut into
min(jobs, q^6) shares, share j of n taking runs floor(jR/n) ..
floor((j+1)R/n) of each pivot pattern's R runs (a pg5.ChunkPlan of one
range of chunk starts per pattern), and each share is reduced by one
process (class counts, one covers-sized array of trace counts, witnesses):
the main process reduces the first share while a pool of one worker fewer
reduces the others, each sending its one result, and the main process sums
the results in share order.  A plane of no class stops the census with its
basis (rebuilt from its run's head), pivot pattern and odometer index; the
first failing share's plane is the one reported.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import Counter
from collections.abc import Mapping, Set
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass

import numpy as np

from .covers import CoverSet, cover_size, enumerate_covers, row_hash, total_count
from .gf import FieldCtx
from .pg5 import PIVOT_PATTERNS, PlaneBlock, count_planes, enumeration_chunks, planes_block_np
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


def _classify_block(ctx: FieldCtx, B, work: _ChunkWork | None = None):
    """Sorted located labels (n, k) and A/B/C masks for a block of planes
    (see block_labels: bases B (n, 3, 6) or a pg5.PlaneBlock), computed in
    work's arrays when given and else in arrays sized for B.

    A plane of no class raises, with its basis and labels as the witness
    and, for a PlaneBlock, its pivot pattern and odometer index.
    """
    q = ctx.q
    if work is None:
        codes = block_labels(ctx, B)
        same = np.empty(codes.size, dtype=bool)
    else:
        codes = block_labels(ctx, B, work.labels)
        same = work.rows.view(bool).reshape(-1)[: codes.size]
    n, k = codes.shape
    # repeats per row, from one equality pass over the flat label rows: same[i]
    # compares label i with label i+1, and each row's last slot, where that
    # pair would cross into the next row, is cleared (einsum sums these short
    # rows about twice as fast as count_nonzero(axis=1), and twice as fast
    # again in uint8, which holds the k-1 repeats of an A plane up to q = 13)
    flat = codes.reshape(-1)
    np.equal(flat[1:], flat[:-1], out=same[:-1])
    same[k - 1 :: k] = False
    same = same.reshape(n, k)
    repeats = np.einsum("ij->i", same.view(np.uint8), dtype=np.uint8 if k <= 256 else np.uint16)
    is_a = repeats == cover_size(q) - 1
    is_b = repeats == 0
    # With q^2+1 distinct labels among k (q repeats) the runs' excess over 1
    # sums to q, so a run of q+1 leaves every other label single: exactly the
    # C pattern.  Such a run holds all q repeats, so it starts at the row's
    # first repeat j, and the row is C exactly when labels j and j+q are
    # equal; j+q < k, as the q repeats lie in j .. k-2.
    is_c = np.zeros_like(is_b)
    rows = np.flatnonzero(repeats == q)
    j = same[rows].argmax(axis=1)
    is_c[rows] = codes[rows, j] == codes[rows, j + q]

    classified = is_a | is_b | is_c
    if not classified.all():
        bad = int(np.argmin(classified))
        where = ""
        if isinstance(B, PlaneBlock):
            where = f" (pivot pattern {B.pattern}, odometer index {B.start + bad})"
        raise RuntimeError(
            f"inconsistent intersection tally for plane basis {B[bad].tolist()}{where}: "
            f"labels {codes[bad].tolist()}"
        )
    return codes, is_a, is_b, is_c


def trace_key_bytes(labels) -> bytes:
    """Canonical byte form of a sorted label tuple, shared with cover keys."""
    return np.asarray(labels, dtype="<u2").tobytes()


# Steps a probe takes along the sorted hashes from its slot before it
# binary-searches them instead.  With at least two slots per key, 79% of the
# keys at q = 5 (88% at q = 9) are their slot's first, and 11 (64 at q = 9)
# are 4 or more deep; crowded hashes (equal or zero multipliers in the
# tests) all go to the search, which bounds the cost.
_PROBE_STEPS = 4


class _LookupWork:
    """The arrays of a CoverTable lookup of up to n rows of k labels, reused
    by every chunk of a census sweep: the row hashes, their slots (then, as
    an integer view, the hashes found there), the positions in the sorted
    hashes, the key row indices, and the key rows gathered for the label
    compare, n * k uint16 that may be a buffer of the caller's."""

    def __init__(self, n: int, k: int, keys: np.ndarray | None = None):
        self.hashes = np.empty(n, dtype=np.uint64)
        self.slots = np.empty(n, dtype=np.intp)
        self.at = np.empty(n, dtype=np.int32)
        self.idx = np.empty(n, dtype=np.int32)
        self.keys = np.empty(n * k, dtype=np.uint16) if keys is None else keys


class CoverTable(Set):
    """The cover keys of a CoverSet, as a set of key bytes, with exact lookup
    of label rows.

    A row's one candidate is the first cover whose row_hash is at least the
    row's.  The slot table has at least two int32 slots per key, indexed by
    the top bits of a hash; slot s holds the position in the sorted hashes
    of the first hash at or above s, so a probe reads its slot, then the
    hash there, and steps on while the hashes are smaller: mostly no step,
    at most _PROBE_STEPS before a binary search.  The row matches when all
    its labels equal the candidate's key row (read through the row order),
    and when every row of a chunk matches, one compare of the gathered keys
    and the rows as flat arrays proves it, four labels to a uint64 word and
    the n*k mod 4 labels after the last word as uint16, with no per-row
    mask.  Only when that fails are the rows compared one by one, uncast,
    so a query label that wraps to a key's in uint16, and hashes as it,
    still differs.  A row that fails the compare but shares its hash with
    covers (a hash tie; none at q = 3..11) is matched among all of them, so
    ties cost time, never exactness.  The table holds no mutable state: a
    census passes its chunk's work arrays (_LookupWork), and other lookups
    size theirs to the rows.
    """

    def __init__(self, cover_set: CoverSet):
        self.keys, self.hashes, self.order = cover_set.keys, cover_set.hashes, cover_set.order
        self.total = cover_set.total  # distinct keys
        n = len(self.hashes)
        # 2^bits >= 2n slots (int32): 256 KB at q = 5, 32 MB at q = 9
        bits = n.bit_length() + 1
        self._shift = np.uint64(64 - bits)
        # slot t: the first hash >= t << shift, i.e. the number of hashes whose
        # top bits are below t, so position i fills the slots from the top bits
        # of hash i - 1 (exclusive) to its own (inclusive)
        tops = (self.hashes >> self._shift).astype(np.int64)
        fill = np.diff(tops, prepend=-1, append=2**bits - 1)
        self._slots = np.repeat(np.arange(n + 1, dtype=np.int32), fill)

    def __len__(self) -> int:
        return self.total

    def __contains__(self, key) -> bool:
        return self.find(key) >= 0

    def __iter__(self):  # the key rows that lookup finds at their own index
        n, k = len(self.keys), self.keys.shape[1]
        work = _LookupWork(min(n, DEFAULT_CHUNK_SIZE), k)
        for start in range(0, n, DEFAULT_CHUNK_SIZE):
            block = self.keys[start : start + DEFAULT_CHUNK_SIZE]
            own = self.lookup(block, work) == np.arange(start, start + len(block))
            yield from (trace_key_bytes(block[i]) for i in np.flatnonzero(own))

    @classmethod
    def _from_iterable(cls, it) -> set:
        return set(it)

    def lookup(self, rows: np.ndarray, work: _LookupWork | None = None) -> np.ndarray:
        """Key row index of each row's cover (int32), or -1 where the row is no cover.

        With work, the result is a view of its arrays that the next lookup
        with the same work overwrites.
        """
        return self._lookup(rows, work)[0]

    def _probe(self, h: np.ndarray, work: _LookupWork) -> np.ndarray:
        """np.searchsorted(self.hashes, h) (left), written into work.at: the
        slot's position, at most _PROBE_STEPS steps from it, and a binary
        search for the rows still behind."""
        n = len(h)
        slots = work.slots[:n]
        np.right_shift(h, self._shift, out=slots, casting="unsafe")
        at = np.take(self._slots, slots, out=work.at[:n])
        found = np.take(self.hashes, at, out=slots.view(np.uint64), mode="clip")
        behind = np.flatnonzero(found < h)
        for _ in range(_PROBE_STEPS):
            if not len(behind):
                return at
            at[behind] += 1
            behind = behind[self.hashes.take(at[behind], mode="clip") < h[behind]]
        if len(behind):
            at[behind] = np.searchsorted(self.hashes, h[behind])
        return at

    def _lookup(self, rows: np.ndarray, work: _LookupWork | None) -> tuple[np.ndarray, np.ndarray]:
        """lookup's result and the positions of the rows that are no cover."""
        n, k = rows.shape
        if work is None:
            work = _LookupWork(n, k)
        h = row_hash(rows, out=work.hashes[:n])
        at = self._probe(h, work)
        idx = np.take(self.order, at, out=work.idx[:n], mode="clip")
        found = np.take(self.keys, idx, axis=0, out=work.keys[: n * k].reshape(n, k), mode="clip")
        if rows.dtype == found.dtype:
            # every row a cover: the flat label arrays agree, four labels to a
            # uint64 word, the n*k mod 4 labels after the last word as uint16
            got, want, words = found.reshape(-1), rows.reshape(-1), n * k // 4 * 4
            if (np.array_equal(got[:words].view(np.uint64), want[:words].view(np.uint64))
                    and np.array_equal(got[words:], want[words:])):
                return idx, np.empty(0, dtype=np.intp)
        # query rows of another dtype are compared as they are, not cast
        missed = np.flatnonzero((found != rows).any(axis=1))
        # a miss may share its hash with further covers; one whose hash is
        # no cover's is no cover
        at, h = at[missed], h[missed]
        tied = self.hashes.take(at, mode="clip") == h
        idx[missed] = -1
        if tied.any():
            idx[missed[tied]] = self._lookup_tied(rows[missed[tied]], at[tied], h[tied])
        return idx, missed[idx[missed] < 0]

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

    def tally(self, rows: np.ndarray, work: _LookupWork | None = None) -> tuple[np.ndarray, Counter]:
        """The key row index of each row that is a cover (one entry per row,
        not per cover), and a Counter of the rows that are no cover.

        With work, the indices are a view of its arrays, as lookup's."""
        idx, missed = self._lookup(rows, work)
        if not len(missed):
            return idx, Counter()
        return idx[idx >= 0], Counter(map(trace_key_bytes, rows[missed]))


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
        keys = self.table.keys
        yield from (trace_key_bytes(keys[i]) for i in np.flatnonzero(self.hits))
        yield from self.witnesses

    def __len__(self) -> int:
        return int(np.count_nonzero(self.hits)) + len(self.witnesses)


class _ChunkWork:
    """The arrays a census sweep reuses for each chunk of up to n planes:
    block_labels' work, one buffer of label rows that holds
    _classify_block's equality mask and then, the mask read, the chunk's B
    rows for the trace tally, and the tally's lookup arrays, whose gathered
    key rows reuse the label buffer, free once the B rows are copied out.
    Sharing them keeps the mask and the tally from adding to the chunk's
    peak memory."""

    def __init__(self, ctx: FieldCtx, n: int):
        k = cover_size(ctx.q)
        self.labels = LabelWork(ctx, n)
        self.rows = np.empty((n, k), dtype=np.uint16)  # as FieldCtx.ratio_np
        self.lookup = _LookupWork(n, k, keys=self.labels.codes)


def _census_chunk(ctx: FieldCtx, table: CoverTable | None, work: _ChunkWork,
                  pattern_idx: int, start: int, stop: int):
    """Classify one enumeration chunk; returns (nA, nB, nC, hits, witnesses).

    hits and witnesses are the chunk's CoverTable.tally, None without a table.
    """
    block = planes_block_np(ctx.q, PIVOT_PATTERNS[pattern_idx], start, stop)
    codes, is_a, is_b, is_c = _classify_block(ctx, block, work)
    hits = witnesses = None
    if table is not None:
        b = np.flatnonzero(is_b)
        # no index is out of range; with mode="raise" np.take would buffer out
        rows = codes.take(b, axis=0, out=work.rows[: len(b)], mode="clip")
        hits, witnesses = table.tally(rows, work.lookup)  # overwrites codes
    return int(is_a.sum()), int(is_b.sum()), int(is_c.sum()), hits, witnesses


def _census_share(ctx: FieldCtx, table: CoverTable | None, plan):
    """Classify the chunks of a pg5.ChunkPlan in one _ChunkWork sized for the
    largest (a range's first); returns (nA, nB, nC, hits, witnesses) summed.

    hits[i] counts the share's traces equal to key row i of table (None
    without one), so a pool worker sends one covers-sized count array.
    """
    work = _ChunkWork(ctx, max(min(r.step, r.stop - r.start) for _, r in plan.ranges))
    na = nb = nc = 0
    hits = np.zeros(len(table.keys), dtype=np.int64) if table is not None else None
    witnesses = Counter()
    for chunk in plan:
        ca, cb, cc, chunk_hits, chunk_witnesses = _census_chunk(ctx, table, work, *chunk)
        na, nb, nc = na + ca, nb + cb, nc + cc
        if table is not None:
            np.add.at(hits, chunk_hits, 1)
            witnesses.update(chunk_witnesses)
    return na, nb, nc, hits, witnesses


_worker = None  # (ctx, table) of a census pool worker, set by _init_worker


def _init_worker(ctx, table):
    global _worker
    _worker = (ctx, table)


def _pool_share(plan):
    return _census_share(*_worker, plan)


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
    The enumeration is cut into n = min(jobs, q^6) shares (enumeration_chunks,
    the q^6 runs of pattern (0, 1, 2) giving each share one, so no worker
    starts idle): a pool of n - 1 workers reduces every share but the first,
    which this process reduces meanwhile, and the results are summed here in
    share order.  One share makes no pool.
    """
    n = min(jobs, ctx.q**6)
    shares = [enumeration_chunks(ctx.q, chunk_size, j, n) for j in range(n)]
    # fork: the workers inherit the field's tables and share the cover table
    # copy-on-write, as initargs are not pickled; forkserver (Python 3.14's
    # default on Linux) and spawn would pickle them into each worker
    pool = ProcessPoolExecutor(
        max_workers=n - 1,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(ctx, table),
    ) if n > 1 else nullcontext()
    with pool:
        # the workers fork at the first submit, before this process allocates its work
        futures = [pool.submit(_pool_share, share) for share in shares[1:]]
        na, nb, nc, hits, witnesses = _census_share(ctx, table, shares[0])
        for future in futures:
            ca, cb, cc, share_hits, share_witnesses = future.result()
            na, nb, nc = na + ca, nb + cb, nc + cc
            if table is not None:
                hits += share_hits
                witnesses.update(share_witnesses)
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

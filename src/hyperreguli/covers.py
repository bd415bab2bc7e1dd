"""Norm-equation covers of the circle geometry CG(3,q).

A cover is a set of q^2+q+1 points of GF(q^3) u {inf} cut out by a norm
equation over the cubic extension, in one of two families:

    kind 1:  {x : N(x - a) = f}                      a in GF(q^3), f in GF(q)*
    kind 2:  {x : N((x - a)/(x - b)) = f} u {inf?}   a != b, f in GF(q)*

For kind 2 the point at infinity belongs to the cover exactly when f = 1
(the value of the defining fraction at infinity is N(1) = 1), the pole b is
never a member, and neither is a (the fraction vanishes there).  This is
the unique membership convention under which every cover has q^2+q+1
points, which the test suite verifies exhaustively.

Swapping a and b inverts f without changing the point set, so the ordered
kind-2 parameter grid covers each point set exactly twice.  Enumeration
iterates a < b to halve it, in blocks of pairs.  The optional audit sweeps
the other half, the same blocks with a and b swapped: it checks that the
a < b keys are pairwise distinct, and that for every a > b the key of
(a, b, f), recomputed from the tables, equals the stored key of the swap
(b, a, 1/f).  Together these say that every key comes from exactly
two triples of the full grid, and that the two are a swap pair: any other
triple is either of the a < b half, whose keys are distinct, or the swap of
one, which reproduces that triple's own key.

The rows of norm values need GF(q) tables only.  Row a of kind 1 is N(x - a)
over every x, with x - a from a q x q subtraction table, digit by digit.  N
is multiplicative (gf.norm_multiplicative in FieldCtx.self_test), so the
kind-2 row of (a, b) is N(x - a)/N(x - b), a GF(q) quotient of two kind-1
rows.  The scalar constructors divide in GF(q^3) first: two routes to test.
Norms are GF(q) indices below q <= 16, so the rows are uint8 and a block of
kind-2 quotients is one gather at u*q + v < 256 in a flat table.  The gather
reads a uint16 copy of the table shifted above the x bits, so each entry is
one key, value << s | x, and one sort of each row of keys gives its level
sets (_level_keys).  Keys are written in place.

The enumeration holds every key as a row of one (N, q^2+q+1) uint16 array
and stores no parameters: the row index encodes (kind, a, b, f), as the
audit's swap rows use, and CoverSet.covers decodes them when indexed.  The
rows' order by row_hash, a hash of three 64-bit words (12 labels) of each
row, serves where a sorted copy of the keys would: the distinct counts
compare whole rows only where hashes tie, and the census's cover table
finds each trace's one candidate row by its hash.

Counting both families: q^3(q-1) covers of kind 1, q^3(q^3-1)(q-1)/2 of
kind 2, and q^3(q-1)(q^3+1)/2 in total.
"""

from __future__ import annotations

import bisect
import random
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gf import MAX_Q, FieldCtx


def kind1_count(q: int) -> int:
    return q**3 * (q - 1)


def kind2_count(q: int) -> int:
    return q**3 * (q**3 - 1) * (q - 1) // 2


def total_count(q: int) -> int:
    return q**3 * (q - 1) * (q**3 + 1) // 2


def cover_size(q: int) -> int:
    return q * q + q + 1


# The key-row hash reads three 64-bit words of each row, with one seeded odd
# multiplier each (stdlib random: numpy.random would add about 15 ms to
# every import).  It takes _HASH_BLOCK rows at a time (a census chunk's B
# rows are one block), so each block's words stay in cache from the first
# product to the last: over all q = 9 keys, three whole-array passes were
# slower than the 12-label hash, and blocks of 2^14 rows faster.
_HASH_MULTIPLIERS = np.array([rng.getrandbits(64) | 1 for rng in [random.Random(1973)]
                              for _ in range(3)], dtype=np.uint64)
_HASH_BLOCK = 1 << 14

# The kind-2 keys are built in blocks of pairs (a, b) of about this many
# quotient-table reads, q^3 per pair: the audited enumeration took longer
# with blocks of 2^14 reads at q = 7 and 9, and of 2^18 at q = 9.
_PAIR_BLOCK_READS = 1 << 16


def hashed_words(rows: np.ndarray) -> np.ndarray:
    """The words of each label row that row_hash reads: an (n, 3) uint64
    view of the rows as uint16 (a C-contiguous uint16 copy of them when they
    are not one already, so other integer labels are hashed as their uint16
    cast).  Word i holds the four labels from i*d, d = (k - 5) // 2, in the
    host's byte order: 12 labels, all before the last one, which is
    infinity in every kind-2 cover with f = 1.  The words are unaligned,
    and at k = 7 they overlap."""
    rows = np.ascontiguousarray(rows, dtype=np.uint16)
    n, k = rows.shape
    return np.ndarray((n, 3), dtype=np.uint64, buffer=rows, strides=(2 * k, k - 5))


def row_hash(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """64-bit hash of each label row: the wrapping sum of its hashed_words
    times the multipliers, written into out when given.

    No label is widened: each word is one uint64 product.  No two cover
    keys share a hash at q = 3..11, so a sample serves as well as all k
    labels; a tie only costs time, as every user compares the labels too.
    Hashes are never written out or reported, so the byte order need only
    agree between the keys and the queries of one host."""
    words = hashed_words(rows)
    out = np.empty(len(words), dtype=np.uint64) if out is None else out
    term = np.empty(min(len(words), _HASH_BLOCK), dtype=np.uint64)
    m0, m1, m2 = _HASH_MULTIPLIERS
    for lo in range(0, len(words), _HASH_BLOCK):
        w, h = words[lo : lo + _HASH_BLOCK], out[lo : lo + _HASH_BLOCK]
        np.multiply(w[:, 0], m0, out=h)
        h += np.multiply(w[:, 1], m1, out=term[: len(h)])
        h += np.multiply(w[:, 2], m2, out=term[: len(h)])
    return out


@dataclass(frozen=True)
class Cover:
    """A cover with its defining parameters and canonical sorted key.

    The key lists the member labels ascending; the infinity label q^3 is
    larger than every field index, so it always sorts last.
    """

    kind: int
    a: int
    b: int | None
    f: int
    key: tuple[int, ...]

    @cached_property
    def points(self) -> frozenset[int]:
        return frozenset(self.key)


def _check_f(ctx: FieldCtx, f: int) -> None:
    if not (ctx.is_base(f) and f != 0):
        raise ValueError(f"f = {f} must be a nonzero element of the base field GF({ctx.q})")


def cover_type1(ctx: FieldCtx, a: int, f: int) -> Cover:
    """The cover {x : N(x - a) = f}."""
    _check_f(ctx, f)
    if not 0 <= a < ctx.q3:
        raise ValueError(f"a = {a} is not a GF(q^3) index")
    norm, sub = ctx.norm_table, ctx.sub
    key = tuple(x for x in range(ctx.q3) if norm[sub(x, a)] == f)
    if len(key) != cover_size(ctx.q):
        raise RuntimeError("cover of kind 1 has the wrong size")  # table bug
    return Cover(kind=1, a=a, b=None, f=f, key=key)


def cover_type2(ctx: FieldCtx, a: int, b: int, f: int) -> Cover:
    """The cover {x : N((x - a)/(x - b)) = f}, plus infinity when f = 1."""
    _check_f(ctx, f)
    if not (0 <= a < ctx.q3 and 0 <= b < ctx.q3):
        raise ValueError("a and b must be GF(q^3) indices")
    if a == b:
        raise ValueError("a and b must be distinct")
    norm, sub, div = ctx.norm_table, ctx.sub, ctx.div
    members = [
        x for x in range(ctx.q3)
        if x != b and norm[div(sub(x, a), sub(x, b))] == f
    ]
    if f == 1:
        members.append(ctx.q3)
    key = tuple(members)
    if len(key) != cover_size(ctx.q):
        raise RuntimeError("cover of kind 2 has the wrong size")  # table bug
    return Cover(kind=2, a=a, b=b, f=f, key=key)


class CoverRows(Sequence):
    """Read-only sequence of a CoverSet's covers, one per key row.

    Row i's parameters come from i alone, in the order of enumerate_covers:
    kind 1 by (a, f), then kind 2 by (a < b, f).  Its length is free; a
    Cover object is built only when indexed.
    """

    def __init__(self, q: int, keys: np.ndarray):
        self._q = q
        self._keys = keys

    def __len__(self) -> int:
        return len(self._keys)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = range(len(self))[i]  # from the end when negative; IndexError past it
        q, q3, n1 = self._q, self._q**3, kind1_count(self._q)
        key = tuple(self._keys[i].tolist())
        if i < n1:
            a, f = divmod(i, q - 1)
            return Cover(kind=1, a=a, b=None, f=f + 1, key=key)
        p, f = divmod(i - n1, q - 1)  # the row of f of the p-th pair a < b

        def first(a):  # the number of the pair (a, a + 1): a(q^3 - 1) - a(a - 1)/2
            return a * (2 * q3 - a - 1) // 2

        a = bisect.bisect_right(range(q3), p, key=first) - 1
        return Cover(kind=2, a=a, b=a + 1 + p - first(a), f=f + 1, key=key)


@dataclass
class CoverSet:
    """All covers of CG(3,q), one row each: kind 1 by (a, f), then kind 2 by (a < b, f).

    keys[i] is the sorted label row of cover i; covers[i] decodes its
    (kind, a, b, f) from i.  The counts are of distinct keys.
    """

    q: int
    keys: np.ndarray  # (N, q^2+q+1) uint16
    hashes: np.ndarray  # (N,) uint64, ascending
    order: np.ndarray  # (N,) int32, keys[order] in the order of hashes
    count_kind1: int
    count_kind2: int
    total: int
    dedup_exact: bool | None = None  # set by the full-grid audit

    @property
    def covers(self) -> CoverRows:
        return CoverRows(self.q, self.keys)


def _level_keys(table: np.ndarray, idx: np.ndarray, q: int, kind: int,
                out: np.ndarray) -> np.ndarray:
    """Write the cover keys of the level sets f = 1..q-1 of each row of
    table[idx], by (row, f), into out (rows * (q-1), q^2+q+1).

    table is a uint8 array of GF(q) values and idx a (rows, q^3) array of
    indices into it.  A row holds the norm value of the defining expression
    at every x of GF(q^3), with 0 at the x that no cover of the row contains
    (a, and the pole b for kind 2).  Returns a mask of the rows whose level
    sets have the cover sizes; the keys of the other rows are meaningless.

    Each entry is packed into one uint16 key, value << s | x with
    s = (q^3 - 1).bit_length() <= 12, gathered from a shifted copy of the
    table.  The keys of a row are distinct, so one sort puts each level set
    in ascending x, which the low s bits give back.  A value of 2^(16 - s)
    or more would wrap into a legal level (at q = 16 every uint16 key is
    legal), so the rows that read a table entry >= q fail the mask here;
    a value below that and >= q sorts last, where the probe rejects it.
    """
    q3 = idx.shape[1]
    k = cover_size(q)
    s = np.uint16((q3 - 1).bit_length())
    keys = (table.astype(np.uint16) << s).take(idx)
    keys |= np.arange(q3, dtype=np.uint16)
    keys.sort(axis=1)  # level sets, each ascending
    sizes = np.array([kind, k + 1 - kind] + [k] * (q - 2))  # of the levels 0, 1, ..., q-1
    ends = np.cumsum(sizes)
    # sorted, the values match the levels iff each level's block starts and ends on it
    probe = np.concatenate([ends - sizes, ends - 1])
    ok = ((keys[:, probe] >> s) == np.r_[:q, :q]).all(axis=1)
    wide = table >= q
    if wide.any():  # a table bug
        ok &= ~wide.take(idx).any(axis=1)
    low = np.uint16((1 << int(s)) - 1)  # the x bits
    flat = out.reshape(len(keys), (q - 1) * k)  # one row's q-1 keys
    if kind == 1:
        np.bitwise_and(keys[:, 1:], low, out=flat)
    else:  # infinity completes the level set f = 1
        np.bitwise_and(keys[:, 2 : k + 1], low, out=flat[:, : k - 1])
        flat[:, k - 1] = q3
        np.bitwise_and(keys[:, k + 1 :], low, out=flat[:, k:])
    return ok


def _size_error(vals_row: np.ndarray, q: int, kind: int, a: int, b: int | None) -> RuntimeError:
    """The table bug behind a row of norm values whose level sets are not covers."""
    sizes = np.bincount(vals_row, minlength=q)
    for f in range(1, q):
        n = int(sizes[f]) + (kind == 2 and f == 1)
        if n != cover_size(q):
            return RuntimeError(f"cover {kind}:{a},{b},{f} has {n} points")
    return RuntimeError(f"norm values of the covers {kind}:{a},{b} leave GF({q})")


def _quotients(base) -> np.ndarray:
    """Flat uint8 table of u/v at u*q + v in GF(q), and 0 where u or v is 0
    (v = 0 only at a kind-2 row's pole), from logs, so it shares no table
    with the audit's 1/f (base._inv)."""
    q = base.q
    logs = np.array([0] + base.log[1:])
    table = np.array(base.exp * 2, dtype=np.uint8)[q - 1 + logs[:, None] - logs[None, :]]
    table[0] = table[:, 0] = 0
    return table.ravel()


def _distinct_counts(keys: np.ndarray, n1: int, hashes: np.ndarray,
                     order: np.ndarray) -> tuple[int, int, int]:
    """Distinct keys among the rows [:n1], the rows [n1:] and all rows.

    hashes[i] is the row_hash of keys[order[i]], ascending.  A row whose hash
    no other row of the count has is a key of its own; only rows sharing a
    hash are sorted and compared whole, as raw bytes.
    """
    def distinct(kept) -> int:  # kept selects rows in hash order
        h = hashes[kept]
        new = h[1:] != h[:-1]
        tied = ~(np.r_[True, new] & np.r_[new, True])  # another row has its hash
        rows = np.sort(keys[order[kept][tied]].view(f"V{keys[0].nbytes}").ravel())
        return int((~tied).sum()) + min(len(rows), 1) + int((rows[1:] != rows[:-1]).sum())

    in_kind1 = order < n1
    return distinct(in_kind1), distinct(~in_kind1), distinct(slice(None))


def enumerate_covers(ctx: FieldCtx, check_dedup: bool = False) -> CoverSet:
    """Enumerate every cover once: kind 1 by (a, f), kind 2 by (a < b, f).

    With check_dedup=True the a > b half of the ordered kind-2 grid is swept
    too, and the audit confirms that each key arises from exactly two
    parameter triples that are (a,b,f) <-> (b,a,1/f) swaps of each other.
    """
    q, q3 = ctx.q, ctx.q3
    k = cover_size(q)
    base = ctx.base
    xs = np.arange(q3)
    # diffs[a, x] = x - a, one GF(q) subtraction per digit of the index
    bsub = np.array(base._add, dtype=np.uint16)[:, base._neg]  # bsub[u, v] = u - v
    diffs = np.zeros((q3, q3), dtype=np.uint16)
    for i in range(3):
        digit = xs // q**i % q
        diffs += (bsub * q**i)[digit[None, :], digit[:, None]]
    norms = ctx.norm_np[diffs]  # norms[a, x] = N(x - a), the kind-1 rows, uint8
    bdiv = _quotients(base)
    norms_q = norms * np.uint8(q)  # u*q + v < q^2 <= 256: the flat index fits uint8

    n1 = q3 * (q - 1)
    pair_a, pair_b = np.triu_indices(q3, 1)  # a < b, in the order swept
    keys = np.empty((n1 + len(pair_a) * (q - 1), k), dtype=np.uint16)
    step = max(1, _PAIR_BLOCK_READS // q3)  # pairs per block

    def pair_keys(lo: int, swap: bool, out: np.ndarray):
        """Quotient-table indices of the pairs lo .. lo+step-1, (a, b) or
        swapped to (b, a), with the keys of their covers
        N((x - a)/(x - b)) = f written into out; and the size mask.  N is
        multiplicative, and the quotient at the pole x = b is 0."""
        a, b = pair_a[lo : lo + step], pair_b[lo : lo + step]
        if swap:
            a, b = b, a
        idx = norms_q[a] + norms[b]
        return idx, _level_keys(bdiv, idx, q, 2, out[: len(idx) * (q - 1)])

    ok = _level_keys(ctx.norm_np, diffs, q, 1, keys[:n1])
    if not ok.all():
        a = int(np.argmin(ok))
        raise _size_error(norms[a], q, 1, a, None)  # table bug

    for lo in range(0, len(pair_a), step):
        idx, ok = pair_keys(lo, False, keys[n1 + lo * (q - 1) :])
        if not ok.all():
            r = int(np.argmin(ok))
            raise _size_error(bdiv[idx[r]], q, 2, int(pair_a[lo + r]), int(pair_b[lo + r]))  # table bug

    hashes = row_hash(keys)
    order = np.argsort(hashes).astype(np.int32)
    hashes = hashes[order]
    count_kind1, count_kind2, total = _distinct_counts(keys, n1, hashes, order)
    result = CoverSet(q=q, keys=keys, hashes=hashes, order=order,
                      count_kind1=count_kind1, count_kind2=count_kind2, total=total)

    if check_dedup:
        swap_f = np.array([base._inv[f] for f in range(1, q)]) - 1  # the row of 1/f in its pair's rows
        exact = count_kind2 == len(keys) - n1  # the a < b keys are pairwise distinct
        rows = np.empty((min(step, len(pair_a)) * (q - 1), k), dtype=np.uint16)  # reused by every block
        for lo in range(0, len(pair_a), step):
            if not exact:
                break
            idx, ok = pair_keys(lo, True, rows)
            # stored row of the swap (a, b, 1/f) of (b, a, f): pair i's row of 1/f
            swap_rows = n1 + np.arange(lo, lo + len(idx))[:, None] * (q - 1) + swap_f
            stored = keys[swap_rows.ravel()]
            exact = bool(ok.all() and np.array_equal(rows[: len(stored)], stored))
        result.dedup_exact = exact

    return result

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
iterates a < b to halve it.  The optional audit sweeps the other half: it
checks that the a < b keys are pairwise distinct, and that for every a > b
the key of (a, b, f), recomputed from the tables, equals the stored key of
the swap (b, a, 1/f).  Together these say that every key comes from exactly
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

The enumeration holds every key as a row of one (N, q^2+q+1) uint16 array,
next to an (N, 4) array of the parameters (kind, a, b, f); a Cover object is
built only when CoverSet.covers is indexed.  The rows' order by row_hash,
a hash of 12 strided labels of each row, serves where a sorted copy of the
keys would: the distinct counts compare whole rows only where hashes tie,
and the census's cover table finds each trace's one candidate row by its
hash.

Counting both families: q^3(q-1) covers of kind 1, q^3(q^3-1)(q-1)/2 of
kind 2, and q^3(q-1)(q^3+1)/2 in total.
"""

from __future__ import annotations

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


# The key-row hash reads the labels at _HASH_POSITIONS strided positions,
# with one seeded odd multiplier each (stdlib random: numpy.random would add
# about 15 ms to every import).
_HASH_POSITIONS = 12
_HASH_MULTIPLIERS = np.array([rng.getrandbits(64) | 1 for rng in [random.Random(1973)]
                              for _ in range(_HASH_POSITIONS)], dtype=np.uint64)


def hashed_labels(rows: np.ndarray) -> np.ndarray:
    """The labels of each row that row_hash reads, as a view: positions 0,
    s, 2s, ... (up to _HASH_POSITIONS of them) with s = max(1, (k-1) // 12),
    all before the last label, which is infinity in every kind-2 cover
    with f = 1."""
    k = rows.shape[1]
    return rows[:, : k - 1 : max(1, (k - 1) // _HASH_POSITIONS)][:, :_HASH_POSITIONS]


def row_hash(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """64-bit hash of each label row: the wrapping sum of its hashed_labels
    times the multipliers, written into out when given.

    einsum widens the labels to uint64 a buffer at a time, with no uint64
    copy of the rows.  No two cover keys share a hash at q = 3..9, so a
    sample serves as well as all k labels; a tie only costs time, as every
    user compares the labels too."""
    sample = hashed_labels(rows)
    return np.einsum("ij,j->i", sample, _HASH_MULTIPLIERS[: sample.shape[1]],
                     dtype=np.uint64, casting="unsafe", out=out)


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

    Its length is free; a Cover object is built only when indexed.
    """

    def __init__(self, keys: np.ndarray, params: np.ndarray):
        self._keys = keys
        self._params = params

    def __len__(self) -> int:
        return len(self._keys)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        kind, a, b, f = self._params[i].tolist()
        return Cover(kind=kind, a=a, b=b if kind == 2 else None, f=f,
                     key=tuple(self._keys[i].tolist()))


@dataclass
class CoverSet:
    """All covers of CG(3,q), one row each: kind 1 by (a, f), then kind 2 by (a < b, f).

    keys[i] is the sorted label row of cover i and params[i] its (kind, a, b, f),
    with b = -1 for kind 1.  The counts are of distinct keys.
    """

    q: int
    keys: np.ndarray  # (N, q^2+q+1) uint16
    params: np.ndarray  # (N, 4) int32
    hashes: np.ndarray  # (N,) uint64, ascending
    order: np.ndarray  # (N,) int32, keys[order] in the order of hashes
    count_kind1: int
    count_kind2: int
    total: int
    dedup_exact: bool | None = None  # set by the full-grid audit

    @property
    def covers(self) -> CoverRows:
        return CoverRows(self.keys, self.params)


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

    def pole_keys(a: int, bs: slice, out: np.ndarray):
        """Poles and quotient-table indices of the covers N((x - a)/(x - b)) = f,
        b in xs[bs], with their keys written into out; and the size mask.
        N is multiplicative, and the quotient at the pole x = b is 0."""
        idx = norms_q[a] + norms[bs]
        return xs[bs], idx, _level_keys(bdiv, idx, q, 2, out[: len(idx) * (q - 1)])

    n1 = q3 * (q - 1)
    pair_a, pair_b = np.triu_indices(q3, 1)  # a < b, in the order swept
    keys = np.empty((n1 + len(pair_a) * (q - 1), k), dtype=np.uint16)

    ok = _level_keys(ctx.norm_np, diffs, q, 1, keys[:n1])
    if not ok.all():
        a = int(np.argmin(ok))
        raise _size_error(norms[a], q, 1, a, None)  # table bug

    start = n1
    for a in range(q3 - 1):
        b, idx, ok = pole_keys(a, slice(a + 1, q3), keys[start:])
        if not ok.all():
            r = int(np.argmin(ok))
            raise _size_error(bdiv[idx[r]], q, 2, a, int(b[r]))  # table bug
        start += len(b) * (q - 1)

    fs = np.arange(1, q)
    params = np.empty((len(keys), 4), dtype=np.int32)
    # (kind, a, b, f) written into the int32 columns: kind 1 by (a, f), kind 2 by (a < b, f)
    kind1 = params[:n1].reshape(q3, q - 1, 4)
    kind2 = params[n1:].reshape(len(pair_a), q - 1, 4)
    kind1[..., 0], kind1[..., 1], kind1[..., 2] = 1, xs[:, None], -1
    kind2[..., 0], kind2[..., 1], kind2[..., 2] = 2, pair_a[:, None], pair_b[:, None]
    kind1[..., 3] = kind2[..., 3] = fs

    hashes = row_hash(keys)
    order = np.argsort(hashes).astype(np.int32)
    hashes = hashes[order]
    count_kind1, count_kind2, total = _distinct_counts(keys, n1, hashes, order)
    result = CoverSet(q=q, keys=keys, params=params, hashes=hashes, order=order,
                      count_kind1=count_kind1, count_kind2=count_kind2, total=total)

    if check_dedup:
        swap_f = np.array([base._inv[f] for f in fs])
        exact = count_kind2 == len(keys) - n1  # the a < b keys are pairwise distinct
        rows = np.empty(((q3 - 1) * (q - 1), k), dtype=np.uint16)  # reused by every a
        for a in range(1, q3):
            if not exact:
                break
            b, _, ok = pole_keys(a, slice(0, a), rows)
            # stored row of the swap (b, a, 1/f): pair (b, a) in sweep order, then f
            pair = b * q3 - b * (b + 1) // 2 + (a - b - 1)
            swap_rows = n1 + pair[:, None] * (q - 1) + (swap_f[None, :] - 1)
            stored = keys[swap_rows.ravel()]
            exact = bool(ok.all() and np.array_equal(rows[: len(stored)], stored))
        result.dedup_exact = exact

    return result

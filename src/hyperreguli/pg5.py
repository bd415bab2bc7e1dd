"""Points and planes of PG(5,q): canonical forms, plane points, enumeration.

A projective point is a 6-tuple over GF(q) scaled so that its first nonzero
entry is 1.  A plane (projective dimension 2, vector rank 3) is stored as
the reduced row echelon form of its row space, which is the unique canonical
representative; the key packs the 18 matrix entries row-major into bytes.
tests/helpers.py keeps the rank-based oracles (point membership, meet
dimensions, the plane-by-plane stream) apart from the package.

Planes are enumerated isomorph-free, in numpy blocks, by iterating the 20
pivot-column patterns (3 of 6 columns, lexicographic) and filling the free
entries with an odometer whose last position varies fastest.  The odometer
is column major: the free entries of a column are consecutive digits, so a
plane's odometer index is the mixed-radix number of its free columns'
codes, and a run of consecutive planes steps the last free column through
every code while the others stay fixed (run_length).  The enumeration is
split into chunks of whole runs that reduce deterministically.

Coordinate j of each point of a plane depends on column j of its basis
alone, so the points of any plane are rows of one (q^3, k) table indexed by
its column codes (point_table).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .gf import BaseField


def gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def count_planes(q: int) -> int:
    """Number of planes of PG(5,q): (q^3+1)(q^2+1)(q^4+q^3+q^2+q+1)."""
    return (q**3 + 1) * (q**2 + 1) * (q**4 + q**3 + q**2 + q + 1)


def num_points(q: int) -> int:
    return (q**6 - 1) // (q - 1)


def normalize_point(base: BaseField, v) -> tuple[int, ...]:
    """Scale v so its first nonzero coordinate is 1; rejects the zero vector."""
    for c in v:
        if c:
            if c == 1:
                return tuple(v)
            s = base._inv[c]
            mrow = base._mul[s]
            return tuple(mrow[x] for x in v)
    raise ValueError("the zero vector is not a projective point")


def _rref(base: BaseField, rows):
    """Full RREF; returns (rows, rank, pivot_columns)."""
    add, mul, neg, inv = base._add, base._mul, base._neg, base._inv
    rows = [list(r) for r in rows]
    m, n = len(rows), len(rows[0])
    rank = 0
    pivots = []
    for col in range(n):
        piv = -1
        for r in range(rank, m):
            if rows[r][col]:
                piv = r
                break
        if piv < 0:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        if prow[col] != 1:
            mrow = mul[inv[prow[col]]]
            rows[rank] = prow = [mrow[x] for x in prow]
        for r in range(m):
            if r == rank:
                continue
            t = rows[r][col]
            if t:
                mrow = mul[neg[t]]
                rr = rows[r]
                for c in range(col, n):
                    rr[c] = add[rr[c]][mrow[prow[c]]]
        pivots.append(col)
        rank += 1
        if rank == m:
            break
    return rows, rank, pivots


@dataclass(frozen=True)
class Plane:
    """A plane of PG(5,q): RREF basis plus its canonical byte key."""

    basis: tuple[tuple[int, ...], ...]
    key: bytes

    def __repr__(self) -> str:
        return f"Plane({self.key.hex()})"


def _plane_from_rref(rows) -> Plane:
    basis = tuple(tuple(r) for r in rows)
    return Plane(basis=basis, key=bytes(c for r in basis for c in r))


def plane_from_rows(base: BaseField, rows) -> Plane:
    """Canonicalize three spanning rows; raises ValueError if the rank is < 3."""
    rref, rank, _ = _rref(base, rows)
    if rank < 3:
        raise ValueError(f"rows span a subspace of rank {rank}, not a plane")
    return _plane_from_rref(rref[:3])


def plane_from_points(base: BaseField, p1, p2, p3) -> Plane:
    """The plane through three projectively independent points."""
    return plane_from_rows(base, [p1, p2, p3])


def projective_coeffs(q: int) -> list[tuple[int, int, int]]:
    """Canonical representatives of PG(2,q): one scaling per point, q^2+q+1 total."""
    out = [(0, 0, 1)]
    out += [(0, 1, c) for c in range(q)]
    out += [(1, b, c) for b in range(q) for c in range(q)]
    return out


def plane_points(base: BaseField, pl: Plane) -> list[tuple[int, ...]]:
    """The q^2+q+1 normalized points of a plane, in coefficient order."""
    add, mul = base._add, base._mul
    r1, r2, r3 = pl.basis
    pts = []
    for c1, c2, c3 in projective_coeffs(base.q):
        m1, m2, m3 = mul[c1], mul[c2], mul[c3]
        v = [add[add[m1[a]][m2[b]]][m3[c]] for a, b, c in zip(r1, r2, r3)]
        pts.append(normalize_point(base, v))
    return pts


@functools.lru_cache(maxsize=4)
def point_table(base: BaseField) -> np.ndarray:
    """The (q^3, k) uint8 table of plane points column by column.

    Coordinate j of point i of a plane with basis B (3, 6) is
    coeffs[i] . (B[0,j], B[1,j], B[2,j]) over GF(q), so it depends on column
    j alone: entry [v, i] is that coordinate for the column code
    v = B[0,j] + q*B[1,j] + q^2*B[2,j] (column_codes), with the points in
    coefficient order (as plane_points).  Code 0, the zero column, gives the
    zero row.  3.9 KB at q = 5, 1.1 MB at q = 16.
    """
    q = base.q
    add = np.array(base._add, dtype=np.uint8)
    mul = np.array(base._mul, dtype=np.uint8)
    coeffs = np.array(projective_coeffs(q))[None]  # (1, k, 3)
    column = (np.arange(q**3)[:, None] // q ** np.arange(3) % q)[:, None]  # (q^3, 1, 3)
    table = mul[coeffs[..., 0], column[..., 0]]
    for r in (1, 2):
        table = add[table, mul[coeffs[..., r], column[..., r]]]
    return table


def column_codes(q: int, B: np.ndarray) -> np.ndarray:
    """The column codes (6, n) of the bases B (n, 3, 6): column j of plane n
    has code B[n,0,j] + q*B[n,1,j] + q^2*B[n,2,j], its row in point_table.
    Each column's codes are contiguous, for np.take."""
    rows = B.transpose(1, 2, 0)  # (3, 6, n)
    codes = np.ascontiguousarray(rows[2], dtype=np.intp)
    for r in (1, 0):
        codes *= q
        codes += rows[r]
    return codes


def block_points(base: BaseField, B: np.ndarray) -> np.ndarray:
    """The k points of each plane, (n, k, 6) over GF(q), for bases B (n, 3, 6).

    The points come in coefficient order (as plane_points), not normalised:
    point_table's rows at the six column codes.
    """
    return point_table(base)[column_codes(base.q, B)].transpose(1, 2, 0)


# ----------------------------------------------------------------------
# Isomorph-free enumeration by pivot pattern.
# ----------------------------------------------------------------------

PIVOT_PATTERNS: tuple[tuple[int, int, int], ...] = tuple(combinations(range(6), 3))


def free_columns(pattern) -> tuple[int, ...]:
    """The columns that hold free entries of an RREF matrix with these pivots:
    the non-pivot columns right of the first pivot.  Over the planes of the
    pattern every other column is constant: a pivot column is a unit column
    and a column left of the first pivot is zero."""
    return tuple(c for c in range(pattern[0] + 1, 6) if c not in pattern)


def free_positions(pattern) -> list[tuple[int, int]]:
    """Free (row, col) slots of an RREF matrix with these pivots, column by
    column (free_columns) and, within a column, from the bottom row up.

    The odometer steps the last slot fastest, so each column's free entries
    are consecutive digits, entry (0, c) the lowest: a plane's odometer
    index is the mixed-radix number of its free columns' codes
    (column_codes), the last free column the fastest digit.
    """
    return [(r, c) for c in free_columns(pattern) for r in (2, 1, 0) if pattern[r] < c]


def pattern_block_size(q: int, pattern) -> int:
    return q ** len(free_positions(pattern))


def fast_column(pattern) -> int | None:
    """The pattern's last free column, whose code is the odometer's fastest
    digit; None for the one plane with no free entry."""
    cols = free_columns(pattern)
    return cols[-1] if cols else None


def run_length(q: int, pattern) -> int:
    """Planes per run of the pattern's odometer: q to the number of free
    entries of fast_column.  Run m is the odometer range [m*s, (m+1)*s); it
    keeps every other column fixed and steps the fast column's code through
    0 .. s-1."""
    c = fast_column(pattern)
    return 1 if c is None else q ** sum(r < c for r in pattern)


def planes_block_np(q: int, pattern, start: int, stop: int,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Basis matrices (stop-start, 3, 6) for one odometer range of a pattern,
    written into the leading rows of out when given.

    Index n in [start, stop) is the plane whose free entries, in
    free_positions order, are the base-q digits of n, the last the lowest.
    """
    n = stop - start
    out = np.zeros((n, 3, 6), dtype=np.uint8) if out is None else out[:n]
    out[...] = 0
    for r, c in zip(range(3), pattern):
        out[:, r, c] = 1
    idx = np.arange(start, stop, dtype=np.int64)
    for r, c in reversed(free_positions(pattern)):  # last position fastest
        np.divmod(idx, q, out=(idx, out[:, r, c]), casting="unsafe")
    return out


def enumeration_chunks(q: int, chunk_size: int) -> list[tuple[int, int, int]]:
    """Deterministic (pattern_index, start, stop) cover of the enumeration.

    Each pattern is stepped by whole runs (run_length): chunk_size rounded
    down to a multiple of the run length, and never below it.
    """
    chunks = []
    for i, pattern in enumerate(PIVOT_PATTERNS):
        size, s = pattern_block_size(q, pattern), run_length(q, pattern)
        step = max(s, chunk_size // s * s)
        for start in range(0, size, step):
            chunks.append((i, start, min(start + step, size)))
    return chunks

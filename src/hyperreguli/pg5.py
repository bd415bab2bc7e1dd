"""Points and planes of PG(5,q): canonical forms, incidence, enumeration.

A projective point is a 6-tuple over GF(q) scaled so that its first nonzero
entry is 1.  A plane (projective dimension 2, vector rank 3) is stored as
the reduced row echelon form of its row space, which is the unique canonical
representative; the key packs the 18 matrix entries row-major into bytes.

Planes are enumerated isomorph-free by iterating the 20 pivot-column
patterns (3 of 6 columns, lexicographic) and filling the free entries with
an odometer whose last position varies fastest.  The numpy block generator
produces the same planes in the same order, so the enumeration can be split
into chunks that reduce deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

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


def all_points(base: BaseField):
    """All points of PG(5,q), normalized, in a fixed deterministic order."""
    q = base.q
    for lead in range(6):
        for tail in product(range(q), repeat=5 - lead):
            yield (0,) * lead + (1,) + tail


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


def _points_weights(base: BaseField, digits: np.ndarray) -> np.ndarray:
    """The (k*h, 3*h) GF(p) matrix taking basis digits to point digits.

    Row c*h + x, column y*3 + r holds entry (x, y) of the h x h matrix of
    multiplication by the coefficient projective_coeffs[c][r] on GF(p) digit
    vectors (digits[a] lists those of a): a = sum_i a_i t^i acts as
    sum_i a_i T^i, with T the companion matrix of the base modulus.
    """
    p, h = base.p, base.h
    T = np.zeros((h, h), dtype=np.int64)  # multiplication by t
    T[1:, :-1] = np.eye(h - 1, dtype=np.int64)
    T[:, -1] = [-c % p for c in base.modulus[:h]]
    t_powers = [np.eye(h, dtype=np.int64)]
    for _ in range(h - 1):
        t_powers.append(T @ t_powers[-1] % p)
    mats = np.einsum("ai,ixy->axy", digits, np.array(t_powers)) % p  # (q, h, h)
    coeffs = np.array(projective_coeffs(base.q))  # (k, 3)
    k = len(coeffs)
    return mats[coeffs].transpose(0, 2, 3, 1).reshape(k * h, 3 * h)


def block_points(base: BaseField, B: np.ndarray) -> np.ndarray:
    """The k points of each plane, (n, k, 6) over GF(q), for bases B (n, 3, 6).

    pts[n, c] = sum_r coeffs[c, r] * B[n, r] is GF(q)-linear in the basis,
    so on GF(p) digit planes it is one integer matrix product, reduced mod p.
    The points come in coefficient order (as plane_points), not normalised.
    Before the reduction the entries are at most 3h(p-1)^2, so the product
    runs in uint8 except at p = 11 and 13 (bounds 300 and 432: uint16).
    """
    p, h = base.p, base.h
    n = B.shape[0]
    dtype = np.uint8 if 3 * h * (p - 1) ** 2 < 256 else np.uint16
    digits = np.arange(base.q)[:, None] // p ** np.arange(h) % p  # (q, h)
    # digit planes (h, 3, 6, n): [y, r] is digit y of basis row r, coordinate-major
    Bt = B.transpose(1, 2, 0)
    D = np.take(digits.T.astype(dtype), Bt, axis=1) if h > 1 else Bt[None].astype(dtype)
    W = _points_weights(base, digits).astype(dtype)
    # numpy's integer `@` has no BLAS kernel and was about 7x slower than
    # einsum's vectorised sum of products on these shapes
    R = np.einsum("ij,jm->im", W, D.reshape(3 * h, 6 * n))
    T = R // p  # R %= p, in place: division by a scalar is vectorised, % is not
    T *= p
    R -= T
    pts = R.reshape(-1, h, 6, n)
    if h > 1:
        pts = np.einsum("cidm,i->cdm", pts, (p ** np.arange(h)).astype(dtype))
    else:
        pts = pts[:, 0]
    return pts.transpose(2, 0, 1)


def incidence(base: BaseField, pt, pl: Plane) -> bool:
    """True iff pt lies in the row space of pl (reduction against the RREF)."""
    add, mul, neg = base._add, base._mul, base._neg
    v = list(pt)
    for row in pl.basis:
        col = next(i for i, x in enumerate(row) if x)  # pivot of an RREF row
        t = v[col]
        if t:
            mrow = mul[neg[t]]
            for c in range(col, 6):
                v[c] = add[v[c]][mrow[row[c]]]
    return not any(v)


def meet_dim(base: BaseField, a: Plane, b: Plane) -> int:
    """Projective dimension of a∩b: -1 empty, 0 point, 1 line, 2 equal."""
    return 5 - _rref(base, a.basis + b.basis)[1]


# ----------------------------------------------------------------------
# Isomorph-free enumeration by pivot pattern.
# ----------------------------------------------------------------------

PIVOT_PATTERNS: tuple[tuple[int, int, int], ...] = tuple(combinations(range(6), 3))


def free_positions(pattern) -> list[tuple[int, int]]:
    """Row-major free (row, col) slots of an RREF matrix with these pivots."""
    return [
        (r, c)
        for r in range(3)
        for c in range(pattern[r] + 1, 6)
        if c not in pattern
    ]


def pattern_block_size(q: int, pattern) -> int:
    return q ** len(free_positions(pattern))


def enumerate_planes(base: BaseField):
    """Every plane of PG(5,q) exactly once, already in RREF, streamed."""
    q = base.q
    for pattern in PIVOT_PATTERNS:
        free = free_positions(pattern)
        template = [[0] * 6 for _ in range(3)]
        for r, c in zip(range(3), pattern):
            template[r][c] = 1
        for filling in product(range(q), repeat=len(free)):
            for (r, c), v in zip(free, filling):
                template[r][c] = v
            yield _plane_from_rref(template)


def planes_block_np(q: int, pattern, start: int, stop: int) -> np.ndarray:
    """Basis matrices (stop-start, 3, 6) for one odometer range of a pattern.

    Index n in [start, stop) yields the same plane as position n of the
    streaming enumeration restricted to this pivot pattern.
    """
    free = free_positions(pattern)
    nfree = len(free)
    n = stop - start
    out = np.zeros((n, 3, 6), dtype=np.uint8)
    for r, c in zip(range(3), pattern):
        out[:, r, c] = 1
    idx = np.arange(start, stop, dtype=np.int64)
    for j, (r, c) in enumerate(free):
        out[:, r, c] = (idx // q ** (nfree - 1 - j)) % q
    return out


def enumeration_chunks(q: int, chunk_size: int) -> list[tuple[int, int, int]]:
    """Deterministic (pattern_index, start, stop) cover of the enumeration."""
    chunks = []
    for i, pattern in enumerate(PIVOT_PATTERNS):
        size = pattern_block_size(q, pattern)
        for start in range(0, size, chunk_size):
            chunks.append((i, start, min(start + chunk_size, size)))
    return chunks

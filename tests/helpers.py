"""Independent reference implementations used to cross-check the package.

Everything here recomputes results from first principles (integer
arithmetic mod p, explicit rank profiles, entry-by-entry GF(q) table
lookups) without touching the exp/log tables, the point table that the
census kernel and pg5.plane_points read, or the located-label tally that
the package itself relies on.  The rank-based oracles (all_points,
incidence, meet_dim, enumerate_planes, odometer_plane, verify_regularity,
classify_by_meets, transversals_brute), the eager chunk list
(eager_chunks), the broadcast cover parameters (sweep_params) and the
arithmetic plane points (plane_points_by_arithmetic) live only here; the
rank oracles eliminate with their own code (reduce_by, rank), not the
package's RREF.  The
exceptions are classify_plane, which runs the package's census kernel on a
single plane so that tests can compare it plane by plane, and locate_np,
which reads the package's locate table (FieldCtx.ratio_np) point by point,
so that tests check it against Spread.locate and use it as the label
oracle.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import product

import numpy as np

from hyperreguli.census import _classify_block
from hyperreguli.pg5 import (
    PIVOT_PATTERNS,
    _plane_from_rref,
    free_positions,
    pattern_block_size,
    plane_from_rows,
    planes_block_np,
    projective_coeffs,
    run_length,
)


def normalize_point(base, v) -> tuple[int, ...]:
    """Scale v so its first nonzero coordinate is 1; rejects the zero vector."""
    for c in v:
        if c:
            if c == 1:
                return tuple(v)
            s = base._inv[c]
            mrow = base._mul[s]
            return tuple(mrow[x] for x in v)
    raise ValueError("the zero vector is not a projective point")


def locate_np(ctx, v):
    """Spread.locate over the last axis of an array of nonzero 6-vectors.

    The vectors need not be normalised: y/x is unchanged by scaling.  Each
    vector's flat index x*q^3 + y, x = c0 + c1 q + c2 q^2 and
    y = c3 + c4 q + c5 q^2, summed in int64, reads its uint16 label from
    FieldCtx.ratio_np (q^3 where x = 0).
    """
    q, q3 = ctx.q, ctx.q3
    weights = np.array([q3, q3 * q, q3 * q * q, 1, q, q * q], dtype=np.int64)
    return ctx.ratio_np[np.asarray(v, dtype=np.int64) @ weights]


def all_points(base):
    """All points of PG(5,q), normalized, in a fixed deterministic order."""
    for lead in range(6):
        for tail in product(range(base.q), repeat=5 - lead):
            yield (0,) * lead + (1,) + tail


def reduce_by(base, v, pl) -> list[int]:
    """v minus its part in the row space of pl: each RREF row of pl clears
    its pivot entry of v.  Zero exactly when v lies in pl."""
    add, mul, neg = base._add, base._mul, base._neg
    v = list(v)
    for row in pl.basis:
        col = row.index(1)  # the pivot: an RREF row's first nonzero entry is 1
        if v[col]:
            mrow = mul[neg[v[col]]]
            v = [add[x][mrow[r]] for x, r in zip(v, row)]
    return v


def incidence(base, pt, pl) -> bool:
    """True iff pt lies in the row space of pl (reduction against the RREF)."""
    return not any(reduce_by(base, pt, pl))


def rank(base, rows) -> int:
    """Rank over GF(q) by forward elimination: a nonzero row with its first
    nonzero entry in column c adds one to the rank of the others once they
    are cleared in column c."""
    add, mul, neg, inv = base._add, base._mul, base._neg, base._inv
    rows = [list(r) for r in rows]
    n = 0
    while rows:
        pivot = rows.pop()
        if not any(pivot):
            continue
        n += 1
        col = next(i for i, x in enumerate(pivot) if x)
        lead = inv[pivot[col]]
        for i, r in enumerate(rows):
            if r[col]:
                mrow = mul[neg[mul[r[col]][lead]]]
                rows[i] = [add[x][mrow[y]] for x, y in zip(r, pivot)]
    return n


def meet_dim(base, a, b) -> int:
    """Projective dimension of a∩b: -1 empty, 0 point, 1 line, 2 equal.

    a+b has rank 3 plus the rank of b's rows reduced by a, so a∩b has
    rank 3 minus that."""
    return 2 - rank(base, [reduce_by(base, row, a) for row in b.basis])


def enumerate_planes(base):
    """Every plane of PG(5,q) exactly once, streamed in the order of the
    package's numpy blocks: pattern by pattern, the last free entry fastest."""
    for pattern in PIVOT_PATTERNS:
        free = free_positions(pattern)
        template = [[0] * 6 for _ in range(3)]
        for r, c in zip(range(3), pattern):
            template[r][c] = 1
        for filling in product(range(base.q), repeat=len(free)):
            for (r, c), v in zip(free, filling):
                template[r][c] = v
            yield _plane_from_rref(template)


def odometer_plane(q, pattern, index):
    """The plane of a pattern's odometer index, by definition: its free
    entries, in free_positions order, are the base-q digits of index, the
    last the lowest.  One plane, with Python integers; enumerate_planes
    streams the same planes in index order."""
    template = [[0] * 6 for _ in range(3)]
    for r, c in zip(range(3), pattern):
        template[r][c] = 1
    for r, c in reversed(free_positions(pattern)):
        index, template[r][c] = divmod(index, q)
    return _plane_from_rref(template)


def eager_chunks(q, chunk_size) -> list[tuple[int, int, int]]:
    """The (pattern_index, start, stop) chunks of the whole enumeration as
    one list: each pattern stepped from 0 by chunk_size rounded down to a
    multiple of its run length, and never below it."""
    chunks = []
    for i, pattern in enumerate(PIVOT_PATTERNS):
        size, s = pattern_block_size(q, pattern), run_length(q, pattern)
        step = max(s, chunk_size // s * s)
        for start in range(0, size, step):
            chunks.append((i, start, min(start + step, size)))
    return chunks


def sweep_params(q) -> np.ndarray:
    """The (kind, a, b, f) of every row of covers.enumerate_covers, b = -1
    for kind 1, as (N, 4) int32 rows built by broadcasting over the sweep:
    kind 1 by (a, f), then kind 2 by (a < b, f)."""
    q3 = q**3
    pair_a, pair_b = np.triu_indices(q3, 1)
    params = np.empty((q3 * (q - 1) + len(pair_a) * (q - 1), 4), dtype=np.int32)
    kind1 = params[: q3 * (q - 1)].reshape(q3, q - 1, 4)
    kind2 = params[q3 * (q - 1) :].reshape(len(pair_a), q - 1, 4)
    kind1[..., 0], kind1[..., 1], kind1[..., 2] = 1, np.arange(q3)[:, None], -1
    kind2[..., 0], kind2[..., 1], kind2[..., 2] = 2, pair_a[:, None], pair_b[:, None]
    kind1[..., 3] = kind2[..., 3] = np.arange(1, q)
    return params


def plane_points_by_arithmetic(base, pl) -> list[tuple[int, ...]]:
    """The q^2+q+1 points of a plane in coefficient order, each a GF(q)
    combination of the basis rows by table lookups, coordinate by coordinate,
    then scaled by normalize_point: no point table."""
    add, mul = base._add, base._mul
    r1, r2, r3 = pl.basis
    pts = []
    for c1, c2, c3 in projective_coeffs(base.q):
        m1, m2, m3 = mul[c1], mul[c2], mul[c3]
        v = [add[add[m1[a]][m2[b]]][m3[c]] for a, b, c in zip(r1, r2, r3)]
        pts.append(normalize_point(base, v))
    return pts


def verify_regularity(spread) -> bool:
    """Each transversal line of two spread elements meets q+1 distinct
    elements, each in one point; exhaustive, so offered for q = 2 only."""
    ctx = spread.ctx
    if ctx.q != 2:
        raise ValueError("the regularity check is only provided for q = 2")
    base = ctx.base
    pts = [plane_points_by_arithmetic(base, pl) for pl in spread.planes]
    for a in range(ctx.q3 + 1):
        for b in range(a + 1, ctx.q3 + 1):
            for pa in pts[a]:
                for pb in pts[b]:
                    # the q+1 points of the line through pa, pb
                    line = [pa] + [normalize_point(base, [base._add[base._mul[lam][x]][y]
                                                          for x, y in zip(pa, pb)])
                                   for lam in range(ctx.q)]
                    if len({spread.locate(p) for p in line}) != ctx.q + 1:
                        return False
    return True


def transversals_brute(spread, hr) -> list:
    """All planes meeting every plane of hr in one point, by a sweep of the
    full plane enumeration with rank-based meet dimensions only."""
    base = spread.ctx.base
    found = [pl for pl in enumerate_planes(base)
             if all(meet_dim(base, pl, s) == 0 for s in hr.planes)]
    return sorted(found, key=lambda pl: pl.key)


# trace: the k labels for tag B, the label of the element met in a line for
# C, and the element's own label for A
PlaneClass = namedtuple("PlaneClass", "tag trace")


def classify_plane(spread, pl) -> PlaneClass:
    """Classify one plane: the census kernel applied to a one-plane block."""
    codes, is_a, is_b, _ = _classify_block(spread.ctx, np.array([pl.basis], dtype=np.uint8))
    labels = codes[0].tolist()
    if is_b[0]:
        return PlaneClass("B", tuple(labels))
    # A: every label equal; C: the line-met label is the only repeated one
    repeated = labels[int(np.argmax(codes[0, 1:] == codes[0, :-1]))]
    return PlaneClass("A" if is_a[0] else "C", (repeated,))


class PolyFieldOracle:
    """GF(p)[t]/(cubic) on the package's integer indices, prime p only.

    Multiplication is plain convolution reduced mod the cubic with integer
    coefficient arithmetic mod p; the norm is computed by repeated
    multiplication.  No tables, no discrete logs.
    """

    def __init__(self, p: int, cubic: tuple[int, ...]):
        assert len(cubic) == 4 and cubic[3] == 1
        self.p = p
        self.cubic = cubic
        self.q3 = p**3

    def _digits(self, x: int) -> list[int]:
        p = self.p
        return [x % p, (x // p) % p, x // (p * p)]

    def _index(self, d) -> int:
        p = self.p
        return d[0] + p * d[1] + p * p * d[2]

    def add(self, a: int, b: int) -> int:
        p = self.p
        return self._index([(x + y) % p for x, y in zip(self._digits(a), self._digits(b))])

    def mul(self, a: int, b: int) -> int:
        p = self.p
        da, db = self._digits(a), self._digits(b)
        conv = [0] * 5
        for i in range(3):
            for j in range(3):
                conv[i + j] = (conv[i + j] + da[i] * db[j]) % p
        for k in (4, 3):
            c = conv[k]
            if c:
                conv[k] = 0
                for j in range(3):
                    conv[k - 3 + j] = (conv[k - 3 + j] - c * self.cubic[j]) % p
        return self._index(conv[:3])

    def norm(self, x: int) -> int:
        e = self.p * self.p + self.p + 1
        r = 1
        for _ in range(e):
            r = self.mul(r, x)
        return r


def classify_by_meets(spread, pl) -> str:
    """Rank-based plane classification: the direct meet-dimension route."""
    base = spread.ctx.base
    q = spread.ctx.q
    k = q * q + q + 1
    profile = Counter(meet_dim(base, pl, s) for s in spread.planes)
    if profile[2] == 1 and profile[-1] == spread.ctx.q3:
        return "A"
    if profile[1] == 1 and profile[0] == q * q:
        return "C"
    if profile[0] == k:
        return "B"
    raise AssertionError(f"unclassifiable meet profile {dict(profile)}")


def gather_points(base, B):
    """The k points of each plane basis in B (n, 3, 6), as (n, k, 6) uint8.

    pts[n, c] = sum_r coeffs[c, r] * B[n, r], evaluated entry by entry
    through the GF(q) add and mul tables, plane by plane: no column codes.
    """
    coeffs = np.array(projective_coeffs(base.q), dtype=np.uint8)
    add_np = np.array(base._add, dtype=np.uint8)
    mul_np = np.array(base._mul, dtype=np.uint8)
    pts = mul_np[coeffs[None, :, 0, None], B[:, None, 0, :]]
    pts = add_np[pts, mul_np[coeffs[None, :, 1, None], B[:, None, 1, :]]]
    return add_np[pts, mul_np[coeffs[None, :, 2, None], B[:, None, 2, :]]]


def seeded_blocks(q, rng, size=64):
    """Plane bases (n, 3, 6) from every fifth pivot pattern: each pattern's
    last `size` planes, where free entries are large, and `size` random ones
    (odometer_plane)."""
    blocks = []
    for pattern in PIVOT_PATTERNS[::5]:
        n, s = pattern_block_size(q, pattern), run_length(q, pattern)
        blocks.append(planes_block_np(q, pattern, max(0, n - size) // s * s, n).bases()[-size:])
        blocks.append(np.array([odometer_plane(q, pattern, i).basis
                                for i in sorted(rng.randrange(n) for _ in range(size))],
                               dtype=np.uint8))
    return np.concatenate(blocks)


def random_full_rank_rows(base, rng):
    """Three random rows over GF(q) spanning a plane."""
    while True:
        rows = [[rng.randrange(base.q) for _ in range(6)] for _ in range(3)]
        try:
            return rows, plane_from_rows(base, rows)
        except ValueError:
            continue


def random_recombination(base, rows, rng, steps: int = 8):
    """Apply random invertible row operations (swap, scale, add-multiple)."""
    rows = [list(r) for r in rows]
    for _ in range(steps):
        op = rng.randrange(3)
        i, j = rng.sample(range(3), 2)
        if op == 0:
            rows[i], rows[j] = rows[j], rows[i]
        elif op == 1:
            s = rng.randrange(1, base.q)
            rows[i] = [base._mul[s][x] for x in rows[i]]
        else:
            s = rng.randrange(base.q)
            rows[i] = [base._add[x][base._mul[s][y]] for x, y in zip(rows[i], rows[j])]
    return rows


def trace_counter(keys, hits, witnesses) -> Counter:
    """The B-plane trace multiset as a Counter of key bytes: hits[i] times
    key row i, plus the witnesses (traces that are no cover)."""
    traces = Counter()
    for row, n in zip(keys, hits):
        if n:
            traces[np.asarray(row, dtype="<u2").tobytes()] += int(n)
    traces.update(witnesses)
    return traces


def trace_check_oracle(q, traces: Counter, cover_keys: set) -> tuple[bool, bool]:
    """(matched, multiplicity_ok) of a trace Counter against a set of cover
    key bytes, by set comparison: every trace is a cover, and the traces are
    exactly the covers, each 2(q^2+q+1) times."""
    two_k = 2 * (q * q + q + 1)
    matched = set(traces) <= cover_keys
    return matched, set(traces) == cover_keys and all(c == two_k for c in traces.values())


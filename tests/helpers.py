"""Independent reference implementations used to cross-check the package.

Everything here recomputes results from first principles (integer
arithmetic mod p, explicit rank profiles, entry-by-entry GF(q) table
lookups) without touching the exp/log tables, the digit-plane matrix
product or the located-label tally that the package itself relies on.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from hyperreguli.pg5 import (
    PIVOT_PATTERNS,
    meet_dim,
    pattern_block_size,
    plane_from_rows,
    planes_block_np,
    projective_coeffs,
)


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
    through the GF(q) add and mul tables: no digit planes, no matrix product.
    """
    coeffs = np.array(projective_coeffs(base.q), dtype=np.uint8)
    add_np = np.array(base._add, dtype=np.uint8)
    mul_np = np.array(base._mul, dtype=np.uint8)
    pts = mul_np[coeffs[None, :, 0, None], B[:, None, 0, :]]
    pts = add_np[pts, mul_np[coeffs[None, :, 1, None], B[:, None, 1, :]]]
    return add_np[pts, mul_np[coeffs[None, :, 2, None], B[:, None, 2, :]]]


def seeded_blocks(q, rng, size=64):
    """Plane bases (n, 3, 6) from every fifth pivot pattern: each pattern's
    last `size` planes, where free entries are large, and `size` random ones."""
    blocks = []
    for pattern in PIVOT_PATTERNS[::5]:
        n = pattern_block_size(q, pattern)
        blocks.append(planes_block_np(q, pattern, max(0, n - size), n))
        for i in sorted(rng.randrange(n) for _ in range(size)):
            blocks.append(planes_block_np(q, pattern, i, i + 1))
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

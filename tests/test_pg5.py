import random
from itertools import permutations

import numpy as np
import pytest

from hyperreguli.census import DEFAULT_CHUNK_SIZE
from hyperreguli.pg5 import (
    PIVOT_PATTERNS,
    column_codes,
    count_planes,
    enumeration_chunks,
    fast_column,
    free_columns,
    free_positions,
    gaussian_binomial,
    normalize_point,
    num_points,
    pattern_block_size,
    plane_from_points,
    plane_from_rows,
    plane_points,
    planes_block_np,
    run_length,
)

from helpers import (
    all_points,
    enumerate_planes,
    incidence,
    meet_dim,
    random_full_rank_rows,
    random_recombination,
)

E = [tuple(1 if i == j else 0 for j in range(6)) for i in range(6)]


def test_plane_from_unit_vectors(ctx2):
    pl = plane_from_points(ctx2.base, E[0], E[1], E[2])
    assert pl.basis == (E[0], E[1], E[2])
    assert len(pl.key) == 18


def test_plane_from_points_rejects_dependent(ctx3):
    base = ctx3.base
    with pytest.raises(ValueError, match="rank"):
        plane_from_points(base, E[0], E[0], E[1])
    third = tuple(base.add(a, b) for a, b in zip(E[0], E[1]))
    with pytest.raises(ValueError, match="rank"):
        plane_from_points(base, E[0], E[1], third)


def test_plane_key_invariant_under_point_order(ctx3):
    pts = [(1, 0, 2, 1, 0, 0), (0, 1, 1, 0, 2, 0), (0, 0, 0, 1, 1, 1)]
    keys = {plane_from_points(ctx3.base, *perm).key for perm in permutations(pts)}
    assert len(keys) == 1


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_rref_canonical_under_recombination(q, ctx_by_q):
    """>= 1000 random invertible basis changes leave the key unchanged."""
    base = ctx_by_q[q].base
    rng = random.Random(1000 + q)
    for _ in range(1000):
        rows, pl = random_full_rank_rows(base, rng)
        scrambled = random_recombination(base, pl.basis, rng)
        assert plane_from_rows(base, scrambled).key == pl.key


def test_incidence_on_own_points(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        rng = random.Random(5)
        for _ in range(20):
            _, pl = random_full_rank_rows(ctx.base, rng)
            pts = plane_points(ctx.base, pl)
            assert len(set(pts)) == ctx.q**2 + ctx.q + 1
            assert all(incidence(ctx.base, p, pl) for p in pts)


def test_incidence_count_over_pg52(ctx2):
    pl = plane_from_points(ctx2.base, E[0], E[1], E[2])
    assert sum(1 for p in all_points(ctx2.base) if incidence(ctx2.base, p, pl)) == 7


def test_incidence_false_for_disjoint_spread_elements(spread2):
    base = spread2.ctx.base
    j0, j1 = spread2.element(0), spread2.element(1)
    assert all(not incidence(base, p, j1) for p in plane_points(base, j0))


def test_meet_dim_cases(ctx3):
    base = ctx3.base
    a = plane_from_points(base, E[0], E[1], E[2])
    assert meet_dim(base, a, a) == 2
    line = plane_from_points(base, E[0], E[1], E[3])
    assert meet_dim(base, a, line) == 1
    point = plane_from_points(base, E[0], E[3], E[4])
    assert meet_dim(base, a, point) == 0
    skew = plane_from_points(base, E[3], E[4], E[5])
    assert meet_dim(base, a, skew) == -1


def test_enumeration_count_and_distinctness_q2(ctx2):
    keys = [pl.key for pl in enumerate_planes(ctx2.base)]
    assert len(keys) == count_planes(2) == 1395
    assert len(set(keys)) == 1395


def test_enumeration_count_q3(ctx3):
    assert sum(1 for _ in enumerate_planes(ctx3.base)) == count_planes(3) == 33880


def test_enumerated_bases_are_canonical_q2(ctx2):
    for pl in enumerate_planes(ctx2.base):
        assert plane_from_rows(ctx2.base, pl.basis).key == pl.key


def test_plane_point_counts_sampled(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        k = ctx.q**2 + ctx.q + 1
        for i, pl in enumerate(enumerate_planes(ctx.base)):
            if i >= 100:
                break
            assert len(set(plane_points(ctx.base, pl))) == k


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_count_formula_matches_gaussian_binomial(q):
    assert count_planes(q) == gaussian_binomial(6, 3, q)


def test_total_free_positions_account_for_all_planes():
    for q in (2, 3, 4, 5):
        assert sum(pattern_block_size(q, pat) for pat in PIVOT_PATTERNS) == count_planes(q)


def test_batch_blocks_match_stream_order(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        q = ctx.q
        stream = [pl.key for pl in enumerate_planes(ctx.base)]
        batch = [planes_block_np(q, pat, 0, pattern_block_size(q, pat)).tobytes()
                 for pat in PIVOT_PATTERNS]
        assert b"".join(batch) == b"".join(stream)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_odometer_is_column_major(q):
    """A plane's odometer index is the mixed-radix number of its free
    columns' codes, the fast column last, so each aligned run of a pattern's
    block keeps every other column and steps the fast column's code through
    0 .. s-1; enumeration_chunks cut every pattern at whole runs."""
    for pattern in PIVOT_PATTERNS:
        size, s, fast = pattern_block_size(q, pattern), run_length(q, pattern), fast_column(pattern)
        codes = column_codes(q, planes_block_np(q, pattern, 0, size))  # (6, size)
        index = np.zeros(size, dtype=np.int64)
        for c in free_columns(pattern):
            index = index * q ** sum(r < c for r in pattern) + codes[c]
        assert np.array_equal(index, np.arange(size))
        runs = codes.reshape(6, size // s, s)
        others = [c for c in range(6) if c != fast]
        assert (runs[others] == runs[others, :, :1]).all()
        if fast is not None:
            assert (runs[fast] == np.arange(s)).all()
    for chunk_size in (1, 100, DEFAULT_CHUNK_SIZE):
        for i, start, stop in enumeration_chunks(q, chunk_size):
            s = run_length(q, PIVOT_PATTERNS[i])
            assert start % s == 0 and stop % s == 0
            assert s <= stop - start <= max(s, chunk_size)


def test_chunk_split_is_invariant(ctx2):
    whole = []
    for i, s, t in enumeration_chunks(2, 1 << 20):
        whole.append(planes_block_np(2, PIVOT_PATTERNS[i], s, t))
    small = []
    for i, s, t in enumeration_chunks(2, 37):
        small.append(planes_block_np(2, PIVOT_PATTERNS[i], s, t))
    flat = [bytes(int(x) for x in m.reshape(-1)) for b in whole for m in b]
    flat_small = [bytes(int(x) for x in m.reshape(-1)) for b in small for m in b]
    assert flat == flat_small


@pytest.mark.parametrize("q", [3, 4, 5])
def test_pattern_blocks_vary_only_in_free_columns(q):
    """Over each pivot pattern's block every column outside free_columns is
    the RREF template's: a unit pivot column or, left of the first pivot,
    zero.  The blocks are built chunk by chunk into one reused out array."""
    out = np.full((DEFAULT_CHUNK_SIZE, 3, 6), 7, dtype=np.uint8)  # stale entries
    for i, start, stop in enumeration_chunks(q, DEFAULT_CHUNK_SIZE):
        pattern = PIVOT_PATTERNS[i]
        cols = free_columns(pattern)
        assert set(cols) == {c for _, c in free_positions(pattern)}
        fixed = [c for c in range(6) if c not in cols]
        template = np.zeros((3, 6), dtype=np.uint8)
        template[range(3), pattern] = 1
        block = planes_block_np(q, pattern, start, stop, out=out)
        assert np.shares_memory(block, out) and len(block) == stop - start
        assert (block[:, :, fixed] == template[:, fixed]).all()
        if q < 5:
            assert np.array_equal(block, planes_block_np(q, pattern, start, stop))


def test_all_points_count_and_normalization(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        pts = list(all_points(ctx.base))
        assert len(pts) == num_points(ctx.q)
        assert len(set(pts)) == len(pts)
        for p in pts[:200]:
            lead = next(x for x in p if x)
            assert lead == 1


def test_normalize_point(ctx3):
    base = ctx3.base
    assert normalize_point(base, (0, 2, 1, 0, 0, 0)) == (0, 1, 2, 0, 0, 0)
    assert normalize_point(base, normalize_point(base, (2, 2, 0, 1, 0, 0))) == \
        normalize_point(base, (2, 2, 0, 1, 0, 0))
    for s in (1, 2):
        scaled = tuple(base.mul(s, x) for x in (0, 1, 2, 0, 1, 1))
        assert normalize_point(base, scaled) == (0, 1, 2, 0, 1, 1)
    with pytest.raises(ValueError):
        normalize_point(base, (0, 0, 0, 0, 0, 0))

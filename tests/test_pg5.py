import pickle
import random
import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from hyperreguli.census import DEFAULT_CHUNK_SIZE
from hyperreguli.covers import cover_type2
from hyperreguli.gf import factorize, make_field
from hyperreguli.hyperreg import _graph_plane, hyper_regulus, transversal_planes
from hyperreguli.pg5 import (
    PIVOT_PATTERNS,
    column_codes,
    count_planes,
    enumeration_chunks,
    fast_column,
    free_columns,
    free_positions,
    gaussian_binomial,
    num_points,
    pattern_block_size,
    plane_from_points,
    plane_from_rows,
    plane_points,
    planes_block_np,
    run_length,
)
from hyperreguli.spread import build_spread

from helpers import (
    all_points,
    eager_chunks,
    enumerate_planes,
    incidence,
    meet_dim,
    normalize_point,
    odometer_plane,
    plane_points_by_arithmetic,
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


@pytest.mark.parametrize("q, base_modulus", [
    (2, None), (3, None), (4, None), (5, None), (7, None), (8, None), (8, (1, 0, 1, 1)),
    (9, None), (16, None),
])
def test_plane_points_match_arithmetic_oracle(q, base_modulus):
    """plane_points reads the point table and scales nothing; on RREF bases
    it gives the arithmetic points exactly, each with first nonzero
    coordinate 1.  Planes: J(0), J(inf) and seeded spread elements, André Y
    and Z graph planes, transversals of a kind-2 cover and seeded planes
    from plane_from_rows."""
    ((p, h),) = factorize(q).items()
    ctx = make_field(p, h, base_modulus=base_modulus)
    base, q3 = ctx.base, ctx.q3
    spread = build_spread(ctx, check=False)
    rng = random.Random(700 + q)
    f = rng.randrange(1, q)
    ms = [m for m in range(1, q3) if ctx.norm_table[m] == f]
    a, b = rng.sample(range(q3), 2)
    planes = [spread.element(m) for m in [0, q3] + rng.sample(range(1, q3), 7)]
    planes += [_graph_plane(ctx, a, m, power) for m in rng.sample(ms, 4) for power in (1, 2)]
    planes += rng.sample(transversal_planes(spread, hyper_regulus(spread, cover_type2(ctx, a, b, f))), 8)
    planes += [random_full_rank_rows(base, rng)[1] for _ in range(16)]
    for pl in planes:
        pts = plane_points(base, pl)
        assert pts == plane_points_by_arithmetic(base, pl), pl
        assert all(next(c for c in pt if c) == 1 for pt in pts), pl


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
        batch = [planes_block_np(q, pat, 0, pattern_block_size(q, pat)).bases().tobytes()
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
        codes = column_codes(q, planes_block_np(q, pattern, 0, size).bases())  # (6, size)
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


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_single_share_plan_is_the_eager_chunk_list(q):
    """With one share the lazy plan iterates the eager list's chunks, in its
    order, and its len is theirs."""
    for chunk_size in (1, 37, 100, 4096, DEFAULT_CHUNK_SIZE, 1 << 30):
        plan, want = enumeration_chunks(q, chunk_size), eager_chunks(q, chunk_size)
        assert list(plan) == want and len(plan) == len(want)


@pytest.mark.parametrize("q", [3, 4])
@pytest.mark.parametrize("shares", [2, 3, 4])
def test_share_plans_cover_every_plane_once(q, shares):
    """The shares' chunks, of whole runs, cover every plane of every pattern
    exactly once; each share holds less than one run per pattern more or
    fewer than the pattern's mean, and at q = 4 is within 1% of the mean
    plane count; each share's largest chunk is the first of one of its
    ranges."""
    seen = {i: np.zeros(pattern_block_size(q, p), dtype=int) for i, p in enumerate(PIVOT_PATTERNS)}
    for j in range(shares):
        plan = enumeration_chunks(q, DEFAULT_CHUNK_SIZE, j, shares)
        chunks = list(plan)
        assert len(plan) == len(chunks) > 0
        per_pattern = np.zeros(len(PIVOT_PATTERNS), dtype=int)
        for i, start, stop in chunks:
            s = run_length(q, PIVOT_PATTERNS[i])
            assert start % s == stop % s == 0 and start < stop
            seen[i][start:stop] += 1
            per_pattern[i] += stop - start
        for i, pattern in enumerate(PIVOT_PATTERNS):
            assert abs(per_pattern[i] - pattern_block_size(q, pattern) / shares) < run_length(q, pattern)
        if q == 4:
            assert per_pattern.sum() / (count_planes(q) / shares) - 1 < 0.01
        assert max(stop - start for _, start, stop in chunks) == max(
            min(r.step, r.stop - r.start) for _, r in plan.ranges)
    assert all((counts == 1).all() for counts in seen.values())


def test_q16_plan_is_lazy():
    """At q = 16 the plan has 4,492,499 chunks, yet the whole plan and two
    share plans are built and pickled in under 1 MB of traced memory."""
    tracemalloc.start()
    try:
        plans = [enumeration_chunks(16, DEFAULT_CHUNK_SIZE)]
        plans += [enumeration_chunks(16, DEFAULT_CHUNK_SIZE, j, 2) for j in range(2)]
        sizes = [len(pickle.dumps(plan)) for plan in plans]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(plans[0]) == 4_492_499
    assert peak < 1 << 20 and max(sizes) < 4096
    assert all(len(plan.ranges) <= len(PIVOT_PATTERNS) for plan in plans)


def test_chunk_split_is_invariant(ctx2):
    whole = []
    for i, s, t in enumeration_chunks(2, 1 << 20):
        whole.append(planes_block_np(2, PIVOT_PATTERNS[i], s, t).bases())
    small = []
    for i, s, t in enumeration_chunks(2, 37):
        small.append(planes_block_np(2, PIVOT_PATTERNS[i], s, t).bases())
    flat = [bytes(int(x) for x in m.reshape(-1)) for b in whole for m in b]
    flat_small = [bytes(int(x) for x in m.reshape(-1)) for b in small for m in b]
    assert flat == flat_small


@pytest.mark.parametrize("q", [3, 4, 5])
def test_pattern_blocks_vary_only_in_free_columns(q):
    """Over each pivot pattern's block every column outside free_columns is
    the RREF template's: a unit pivot column or, left of the first pivot,
    zero.  Each chunk's block holds the first plane of each of its runs
    as that run's head."""
    for i, start, stop in enumeration_chunks(q, DEFAULT_CHUNK_SIZE):
        pattern = PIVOT_PATTERNS[i]
        cols = free_columns(pattern)
        assert set(cols) == {c for _, c in free_positions(pattern)}
        fixed = [c for c in range(6) if c not in cols]
        template = np.zeros((3, 6), dtype=np.uint8)
        template[range(3), pattern] = 1
        block = planes_block_np(q, pattern, start, stop)
        bases = block.bases()
        assert len(block) == len(bases) == stop - start
        assert (bases[:, :, fixed] == template[:, fixed]).all()
        assert np.array_equal(bases[:: run_length(q, pattern)], block.heads)


def _check_range(q, pattern, start, stop, want):
    """The planes [start, stop) of a pattern are want (n, 3, 6), read from
    the PlaneBlock of the whole runs that meet them: all at once through
    bases() and the first and last one by one through block[i], the last
    from the block's end.  The range itself is a PlaneBlock only when its
    ends are run boundaries."""
    s = run_length(q, pattern)
    lo, hi = start // s * s, -(-stop // s) * s
    block = planes_block_np(q, pattern, lo, hi)
    assert len(block) == hi - lo
    assert np.array_equal(block.bases()[start - lo : stop - lo], want), (q, pattern, start, stop)
    assert np.array_equal(block[start - lo], want[0]) and np.array_equal(block[stop - 1 - hi], want[-1])
    if (lo, hi) != (start, stop):
        with pytest.raises(ValueError, match="whole runs"):
            planes_block_np(q, pattern, start, stop)


def _check_every_plane(block, want):
    """block[i] is want[i] for every plane of the block, and bases() is want."""
    assert np.array_equal(np.array([block[i] for i in range(len(block))]), want)
    assert np.array_equal(block.bases(), want)


@pytest.mark.parametrize("q", [2, 3])
def test_unaligned_ranges_match_the_stream(q, ctx_by_q):
    """Every start of every pattern, with a length from 1 to 2s+1 that
    cycles with the start: ranges inside one run, single planes, and ranges
    that start and stop mid-run around zero, one or two whole runs, read
    from the whole runs that meet them, against enumerate_planes; each
    pattern's whole range plane by plane.  odometer_plane, the oracle at
    larger q, agrees."""
    stream = np.array([pl.basis for pl in enumerate_planes(ctx_by_q[q].base)], dtype=np.uint8)
    offset = 0
    for pattern in PIVOT_PATTERNS:
        size, s = pattern_block_size(q, pattern), run_length(q, pattern)
        want = stream[offset : offset + size]
        offset += size
        assert [odometer_plane(q, pattern, i).basis for i in range(size)] == \
            [tuple(map(tuple, b.tolist())) for b in want]
        for start in range(size):
            stop = min(size, start + 1 + start % (2 * s + 1))
            _check_range(q, pattern, start, stop, want[start:stop])
        _check_every_plane(planes_block_np(q, pattern, 0, size), want)
    assert offset == len(stream) == count_planes(q)


@pytest.mark.parametrize("q", [4, 5, 7])
def test_seeded_unaligned_ranges_match_the_odometer(q):
    """Seeded ranges of every pattern at larger q: single planes, ranges
    inside one run, and ranges that start and stop mid-run around whole
    runs, read from the whole runs that meet them, and a seeded range of up
    to three whole runs plane by plane, against odometer_plane."""
    rng = random.Random(q)

    def odometer(start, stop):
        return np.array([odometer_plane(q, pattern, i).basis for i in range(start, stop)],
                        dtype=np.uint8)

    for pattern in PIVOT_PATTERNS:
        size, s = pattern_block_size(q, pattern), run_length(q, pattern)
        for length in (1, max(1, s // 2), s + 1, 2 * s + 1, 3 * s):
            start = rng.randrange(size - min(size, length) + 1)
            stop = start + min(size - start, length)
            _check_range(q, pattern, start, stop, odometer(start, stop))
        runs = rng.randrange(1, min(3, size // s) + 1)
        start = rng.randrange(size // s - runs + 1) * s
        stop = start + runs * s
        _check_every_plane(planes_block_np(q, pattern, start, stop), odometer(start, stop))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_partial_run_ranges_are_refused(q):
    """A PlaneBlock holds whole runs only: a range that starts or stops
    inside a run, is empty or leaves its pattern raises ValueError, and
    each pattern's first and last run are blocks."""
    for pattern in PIVOT_PATTERNS:
        size, s = pattern_block_size(q, pattern), run_length(q, pattern)
        bad = [(0, 0), (s, s), (s, 0), (-s, s), (0, size + s)]
        if s > 1:
            bad += [(1, s), (0, s - 1), (s - 1, 2 * s), (0, size - 1), (size - s + 1, size)]
        for start, stop in bad:
            with pytest.raises(ValueError, match="whole runs"):
                planes_block_np(q, pattern, start, stop)
        for start in (0, size - s):
            assert len(planes_block_np(q, pattern, start, start + s)) == s


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

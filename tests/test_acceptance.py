"""Acceptance suite: every exit criterion at its stated tolerance.

All counts are exact integers (tolerance zero).  Each criterion prints one
PASS/FAIL line; run with `pytest -s tests/test_acceptance.py` to see them.
"""

import random
import time

import pytest

from hyperreguli.census import (
    run_census,
    type_a_count,
    type_b_count,
    type_c_count,
)
from hyperreguli.covers import (
    cover_size,
    enumerate_covers,
    kind1_count,
    kind2_count,
    total_count,
)
from hyperreguli.gf import make_field
from hyperreguli.hyperreg import (
    andre_switching_sets,
    hyper_regulus,
    transversal_count,
    transversal_planes,
)
from hyperreguli.pg5 import count_planes, plane_from_rows
from hyperreguli.spread import build_spread

from helpers import random_full_rank_rows, random_recombination


def report(num, ok, desc):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}")
    assert ok, f"criterion {num}: {desc}"


@pytest.fixture(scope="module")
def covers_timed(ctx_by_q):
    out = {}
    for q in (2, 3, 4):
        t0 = time.perf_counter()
        out[q] = (enumerate_covers(ctx_by_q[q], check_dedup=True),
                  time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def census_timed(ctx_by_q, spread_by_q):
    out = {}
    for q in (2, 3, 4):
        t0 = time.perf_counter()
        out[q] = (run_census(ctx_by_q[q], spread_by_q[q]),
                  time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def census5_timed(ctx5):
    """The q = 5 sweep, shared by the count and trace criteria."""
    t0 = time.perf_counter()
    return run_census(ctx5, jobs=2), time.perf_counter() - t0


def test_criterion_1_cover_counts(covers_timed):
    limits = {2: 1.0, 3: 1.0, 4: 30.0}
    ok = True
    for q, (cs, elapsed) in covers_timed.items():
        ok &= cs.total == total_count(q)
        ok &= cs.count_kind1 == kind1_count(q)
        ok &= cs.count_kind2 == kind2_count(q)
        ok &= cs.dedup_exact is True
        ok &= elapsed < limits[q]
    report(1, ok, "cover counts 36/756/6240 with exact swap-pair dedup, in time")


def test_criterion_2_census_counts(census_timed, census5_timed):
    expected = {
        2: (9, 504, 882, 1395, 5.0),
        3: (28, 19656, 14196, 33880, 60.0),
        4: (65, 262080, 114660, 376805, 600.0),
    }
    ok = True
    for q, (r, elapsed) in census_timed.items():
        a, b, c, total, limit = expected[q]
        ok &= (r.count_a, r.count_b, r.count_c, r.total) == (a, b, c, total)
        ok &= (type_a_count(q), type_b_count(q), type_c_count(q)) == (a, b, c)
        ok &= elapsed < limit
    # the four closed forms at q = 5 are consistent and the sweep confirms them
    q5 = (type_a_count(5), type_b_count(5), type_c_count(5))
    ok &= q5 == (126, 1953000, 605430)
    ok &= sum(q5) == count_planes(5) == 2558556
    r5, elapsed = census5_timed
    ok &= (r5.count_a, r5.count_b, r5.count_c, r5.total) == (*q5, 2558556)
    ok &= elapsed < 3600.0
    report(2, ok, "census counts exact for q=2,3,4 and the q=5 sweep, in time")


def test_criterion_3_x_equals_y(census_timed):
    ok = True
    for q, (r, _) in census_timed.items():
        ok &= r.identity_x_eq_y
        ok &= r.count_b == r.covers_total * transversal_count(q)
    report(3, ok, "count_b == covers_total * 2(q^2+q+1) for q=2,3,4")


def test_criterion_4_transversal_counts(ctx_by_q, spread_by_q):
    ok = True
    # q=2: all covers, span and brute agree on key sets
    ctx, spread = ctx_by_q[2], spread_by_q[2]
    for cov in enumerate_covers(ctx).covers:
        hr = hyper_regulus(spread, cov)
        span = transversal_planes(spread, hr, "span")
        brute = transversal_planes(spread, hr, "brute")
        ok &= len(span) == 14
        ok &= [p.key for p in span] == [p.key for p in brute]
    # q=3: all 756 covers
    ctx, spread = ctx_by_q[3], spread_by_q[3]
    for cov in enumerate_covers(ctx).covers:
        hr = hyper_regulus(spread, cov)
        ok &= len(transversal_planes(spread, hr)) == 26
    # q=4: seeded sample of >= 20 covers, both kinds
    ctx, spread = ctx_by_q[4], spread_by_q[4]
    cs = enumerate_covers(ctx)
    rng = random.Random(2024)
    kind1 = [c for c in cs.covers if c.kind == 1]
    kind2 = [c for c in cs.covers if c.kind == 2]
    for cov in rng.sample(kind1, 10) + rng.sample(kind2, 10):
        hr = hyper_regulus(spread, cov)
        ok &= len(transversal_planes(spread, hr)) == 42
    report(4, ok, "transversals: 14 for all 36 covers (span==brute), 26 for all "
                  "756, 42 for 20 sampled covers at q=4")


def test_criterion_5_switching_property(ctx_by_q, spread_by_q):
    ok = True
    for q in (2, 3):  # all (a, f) pairs; q=4 sampled below
        ctx, spread = ctx_by_q[q], spread_by_q[q]
        for a in range(ctx.q3):
            for f in range(1, q):
                ok &= _switching_matches_transversals(ctx, spread, a, f)
    ctx, spread = ctx_by_q[4], spread_by_q[4]
    rng = random.Random(55)
    for a, f in {(rng.randrange(64), rng.randrange(1, 4)) for _ in range(6)}:
        ok &= _switching_matches_transversals(ctx, spread, a, f)
    report(5, ok, "switching sets verify and Y u Z equals the transversal "
                  "search for all kind-1 covers at q=2,3 and a q=4 sample")


def _switching_matches_transversals(ctx, spread, a, f):
    from hyperreguli.covers import cover_type1

    pair = andre_switching_sets(ctx, spread, a, f)  # raises if property fails
    hr = hyper_regulus(spread, cover_type1(ctx, a, f))
    tv = transversal_planes(spread, hr)
    union = sorted({p.key for p in pair.y_planes} | {p.key for p in pair.z_planes})
    return union == [p.key for p in tv]


def test_criterion_6_trace_bijection(census_timed, census5_timed):
    ok = True
    runs = {q: r for q, (r, _) in census_timed.items()}
    runs[5] = census5_timed[0]
    for q, r in runs.items():
        ok &= r.trace_check.checked
        ok &= r.trace_check.matched is True
        ok &= r.trace_check.multiplicity_ok is True
        ok &= r.count_b == total_count(q) * 2 * cover_size(q)
    report(6, ok, "every B-plane trace is a cover and every cover is hit "
                  "exactly 2(q^2+q+1) times at q=2,3,4,5")


def test_criterion_7_property_suites(ctx_by_q, spread_by_q):
    ok = True
    # norm multiplicativity and fiber sizes (built-in exhaustive self-tests)
    for q in (2, 3, 4):
        ok &= all(rec["pass"] for rec in ctx_by_q[q].self_test())
    # spread partition of all (q^6-1)/(q-1) points
    for q in (2, 3, 4, 5):
        build_spread(ctx_by_q[q], check=True)  # raises on violation
    # RREF canonicity under >= 1000 random recombinations per q
    for q in (2, 3, 4, 5):
        base = ctx_by_q[q].base
        rng = random.Random(700 + q)
        for _ in range(1000):
            _, pl = random_full_rank_rows(base, rng)
            ok &= plane_from_rows(base, random_recombination(base, pl.basis, rng)).key \
                == pl.key
    # census invariance under cubic-modulus override
    for q, cubic in ((2, (1, 0, 1, 1)), (3, (2, 2, 0, 1))):
        alt = make_field(ctx_by_q[q].p, ctx_by_q[q].h, cubic_modulus=cubic)
        r = run_census(alt)
        ok &= (r.count_a, r.count_b, r.count_c, r.total) == (
            type_a_count(q), type_b_count(q), type_c_count(q), count_planes(q))
        ok &= r.identity_x_eq_y and r.trace_check.multiplicity_ok is True
    # census invariance under worker count
    for q in (2, 3):
        runs = [run_census(ctx_by_q[q], jobs=j) for j in (1, 2, 8)]
        sigs = {(r.count_a, r.count_b, r.count_c, r.total, r.covers_total,
                 r.identity_x_eq_y, r.trace_check.matched,
                 r.trace_check.multiplicity_ok) for r in runs}
        ok &= len(sigs) == 1
    report(7, ok, "property suites: norm fibers, spread partition, RREF "
                  "canonicity, modulus-override and worker-count invariance")

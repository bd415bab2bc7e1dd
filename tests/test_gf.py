import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from hyperreguli.gf import BaseField, make_field

from helpers import PolyFieldOracle


@pytest.mark.parametrize("p", [2, 3, 5])
def test_tables_match_polynomial_oracle(p):
    """Exhaustive add/mul/norm agreement with table-free polynomial arithmetic."""
    ctx = make_field(p)
    oracle = PolyFieldOracle(p, ctx.cubic_modulus)
    for a in range(ctx.q3):
        for b in range(ctx.q3):
            assert ctx.add(a, b) == oracle.add(a, b)
            assert ctx.mul(a, b) == oracle.mul(a, b)
    for x in range(ctx.q3):
        assert ctx.norm(x) == oracle.norm(x)


def test_cubic_modulus_q2_is_pinned(ctx2):
    # x^3 + x + 1 precedes x^3 + x^2 + 1 in the integer-encoding order
    assert ctx2.cubic_modulus == (1, 1, 0, 1)


def test_chosen_cubic_has_no_root(ctx_by_q):
    for ctx in ctx_by_q.values():
        base = ctx.base
        c = ctx.cubic_modulus
        for u in range(ctx.q):
            acc, upow = 0, 1
            for coeff in c:
                acc = base.add(acc, base.mul(coeff, upow))
                upow = base.mul(upow, u)
            assert acc != 0, f"root {u} in GF({ctx.q})"


@pytest.mark.parametrize("q,ph", [(2, (2, 1)), (3, (3, 1)), (4, (2, 2)), (5, (5, 1))])
def test_base_field_axioms_exhaustive(q, ph):
    base = BaseField(*ph, make_field(*ph).base.modulus)
    els = range(q)
    for a in els:
        assert base.add(a, 0) == a and base.mul(a, 1) == a
        assert base.add(a, base.neg(a)) == 0
        if a:
            assert base.mul(a, base.inv(a)) == 1
        for b in els:
            assert base.add(a, b) == base.add(b, a)
            assert base.mul(a, b) == base.mul(b, a)
            for c in els:
                assert base.mul(a, base.mul(b, c)) == base.mul(base.mul(a, b), c)
                assert base.mul(a, base.add(b, c)) == base.add(base.mul(a, b), base.mul(a, c))


def test_gf4_multiplication_pinned(ctx4):
    # with modulus u^2+u+1, the element t (index 2) squares to t+1 (index 3)
    assert ctx4.base.mul(2, 2) == 3


def test_ext_axioms_sampled(ctx_by_q):
    rng = random.Random(11)
    for ctx in ctx_by_q.values():
        for _ in range(500):
            a, b, c = (rng.randrange(ctx.q3) for _ in range(3))
            assert ctx.mul(a, ctx.mul(b, c)) == ctx.mul(ctx.mul(a, b), c)
            assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
            assert ctx.add(a, b) == ctx.add(b, a)
            assert ctx.sub(ctx.add(a, b), b) == a


def test_inverse_identities_gf8(ctx2):
    for x in range(1, 8):
        assert ctx2.mul(x, ctx2.inv(x)) == 1
        assert ctx2.add(x, ctx2.neg(x)) == 0


def test_pow_group_order(ctx_by_q):
    for ctx in ctx_by_q.values():
        g = ctx.exp[1]
        assert ctx.pow(g, ctx.q3 - 1) == 1
        assert ctx.pow(g, -1) == ctx.inv(g)
        assert ctx.pow(0, 5) == 0 and ctx.pow(0, 0) == 1


def test_division_by_zero_raises(ctx2):
    with pytest.raises(ZeroDivisionError):
        ctx2.div(3, 0)
    with pytest.raises(ZeroDivisionError):
        ctx2.inv(0)
    with pytest.raises(ZeroDivisionError):
        ctx2.base.inv(0)


def test_norm_q2_constant_one(ctx2):
    assert all(ctx2.norm(x) == 1 for x in range(1, 8))


def test_norm_of_one_and_zero(ctx_by_q):
    for ctx in ctx_by_q.values():
        assert ctx.norm(1) == 1
        assert ctx.norm(0) == 0


def test_norm_fibers_q3_thirteen_each(ctx3):
    fibers = Counter(ctx3.norm(x) for x in range(1, 27))
    assert fibers == {1: 13, 2: 13}


def test_norm_fiber_sizes(ctx_by_q):
    for q, ctx in ctx_by_q.items():
        fibers = Counter(ctx.norm(x) for x in range(1, ctx.q3))
        assert fibers == {f: q * q + q + 1 for f in range(1, q)}


def test_norm_multiplicative_exhaustive(ctx_by_q):
    for q in (2, 3, 4):
        ctx = ctx_by_q[q]
        for x in range(ctx.q3):
            for y in range(ctx.q3):
                assert ctx.norm(ctx.mul(x, y)) == ctx.base.mul(ctx.norm(x), ctx.norm(y))


def test_norm_lands_in_base(ctx_by_q):
    for ctx in ctx_by_q.values():
        assert all(ctx.is_base(ctx.norm(x)) for x in range(ctx.q3))


def test_frobenius_identity_power(ctx3):
    assert all(ctx3.frobenius(x, 0) == x for x in range(27))


def test_frobenius_cubed_is_identity(ctx_by_q):
    for q in (2, 3):
        ctx = ctx_by_q[q]
        for x in range(ctx.q3):
            y = ctx.frobenius(ctx.frobenius(ctx.frobenius(x, 1), 1), 1)
            assert y == x
            assert ctx.frobenius(ctx.frobenius(x, 1), 2) == x


def test_frobenius_fixed_points_gf8(ctx2):
    assert [x for x in range(8) if ctx2.frobenius(x, 1) == x] == [0, 1]


def test_is_base_iff_frobenius_fixed(ctx_by_q):
    for ctx in ctx_by_q.values():
        for x in range(ctx.q3):
            assert ctx.is_base(x) == (ctx.frobenius(x, 1) == x)


def test_frobenius_is_base_linear(ctx_by_q):
    for q in (2, 3, 4):
        ctx = ctx_by_q[q]
        for a in range(q):
            for x in range(ctx.q3):
                assert ctx.frobenius(ctx.mul(a, x), 1) == ctx.mul(a, ctx.frobenius(x, 1))
        for x in range(ctx.q3):
            for y in range(ctx.q3):
                lhs = ctx.frobenius(ctx.add(x, y), 1)
                assert lhs == ctx.add(ctx.frobenius(x, 1), ctx.frobenius(y, 1))


def test_coords_roundtrip_and_linearity(ctx3):
    assert ctx3.to_coords(0) == (0, 0, 0)
    for x in range(27):
        assert ctx3.from_coords(ctx3.to_coords(x)) == x
        for y in range(27):
            cs = ctx3.to_coords(ctx3.add(x, y))
            expect = tuple(
                ctx3.base.add(a, b)
                for a, b in zip(ctx3.to_coords(x), ctx3.to_coords(y))
            )
            assert cs == expect


def test_make_field_rejects_bad_parameters():
    with pytest.raises(ValueError, match="not prime"):
        make_field(4)
    with pytest.raises(ValueError, match="not prime"):
        make_field(6)
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(ValueError, match="capacity"):
        make_field(17)
    with pytest.raises(ValueError, match="capacity"):
        make_field(2, 5)


def test_make_field_rejects_reducible_overrides():
    with pytest.raises(ValueError, match="cubic"):
        make_field(2, cubic_modulus=(0, 0, 0, 1))  # x^3
    with pytest.raises(ValueError, match="cubic"):
        make_field(2, cubic_modulus=(1, 0, 0, 1))  # x^3+1 has root 1
    with pytest.raises(ValueError, match="base"):
        make_field(2, 2, base_modulus=(1, 0, 1))  # x^2+1 = (x+1)^2
    with pytest.raises(ValueError, match="cubic"):
        make_field(2, cubic_modulus=(1, 1, 1))  # wrong degree


def test_modulus_override_builds_valid_field():
    alt2 = make_field(2, cubic_modulus=(1, 0, 1, 1))
    assert sum(1 for x in range(1, 8) if alt2.norm(x) == 1) == 7
    alt3 = make_field(3, cubic_modulus=(2, 2, 0, 1))
    fibers = Counter(alt3.norm(x) for x in range(1, 27))
    assert fibers == {1: 13, 2: 13}
    assert all(c["pass"] for c in alt3.self_test())


def test_base_modulus_override_builds_valid_field():
    alt8 = make_field(2, 3, base_modulus=(1, 0, 1, 1))
    assert alt8.q == 8
    assert all(c["pass"] for c in alt8.self_test())


def test_construction_is_deterministic():
    a, b = make_field(3), make_field(3)
    assert a.cubic_modulus == b.cubic_modulus
    assert a.exp == b.exp
    assert a.base.modulus == b.base.modulus


def test_self_test_passes(ctx_by_q):
    for ctx in ctx_by_q.values():
        failures = [c for c in ctx.self_test() if not c["pass"]]
        assert not failures


@pytest.mark.parametrize("ph", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_ratio_table_exhaustive(ph):
    """ratio_np[x*q^3 + y] = y/x, and the infinity label q^3 on x = 0."""
    ctx = make_field(*ph)
    q3 = ctx.q3
    table = ctx.ratio_np
    assert table.shape == (q3 * q3,) and table.dtype == np.uint16
    grid = table.reshape(q3, q3)
    assert (grid[0] == q3).all()
    want = [[ctx.div(y, x) for y in range(q3)] for x in range(1, q3)]
    assert grid[1:].tolist() == want


def test_ratio_table_peak_memory_q16():
    """The flat q^6 ratio table is built without int64 temporaries: at
    q = 16 the traced peak stays within 2.5x the 33.5 MB table."""
    ctx = make_field(2, 4)
    tracemalloc.start()
    try:
        table = ctx.ratio_np
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (4096 * 4096,) and table.dtype == np.uint16
    assert peak <= 2.5 * table.nbytes
    rng = random.Random(16)
    for _ in range(2000):
        x, y = rng.randrange(4096), rng.randrange(4096)
        assert table[x * 4096 + y] == (4096 if x == 0 else ctx.div(y, x))

import hashlib
import json
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from hyperreguli.gf import BaseField, factorize, make_field

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


@pytest.mark.parametrize("ph", [(7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)],
                         ids=lambda ph: f"q{ph[0] ** ph[1]}")
def test_self_test_passes_at_larger_q(ph):
    """The q that make_field accepts beyond ctx_by_q, up to q = 16, where
    every check is as exhaustive as at q = 2."""
    checks = make_field(*ph).self_test()
    assert len(checks) == 8 and [c["name"] for c in checks if not c["pass"]] == []


@pytest.mark.parametrize("entry", ["zero", "nonzero"])
@pytest.mark.parametrize("ph", [(3, 2), (2, 4)], ids=["q9", "q16"])
def test_self_test_catches_one_wrong_base_product(ph, entry):
    """One wrong entry of base._mul fails gf.norm_multiplicative and no other
    check.  The check reads the entry (0, q-1) only at the q^2+q+1 pairs
    (0, y) with N(y) = q-1, out of q^6 pairs: a sample of pairs would
    likely miss it."""
    ctx = make_field(*ph)
    q = ctx.q
    u, v = (0, q - 1) if entry == "zero" else (q - 1, q - 1)
    ctx.base._mul[u][v] ^= 1  # a field of this test's own
    assert [c["name"] for c in ctx.self_test() if not c["pass"]] == ["gf.norm_multiplicative"]


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


def _table_digest(ctx) -> str:
    """sha256 of every table make_field builds, at both levels of the tower."""
    b = ctx.base
    tables = [b.modulus, ctx.cubic_modulus, b.generator, b.exp, b.log,
              b._add, b._mul, b._neg, b._inv,
              ctx.exp, ctx.log, ctx.norm_table, list(ctx.frob_tables)]
    return hashlib.sha256(json.dumps(tables).encode()).hexdigest()


# Pinned on the table builder that kept two copies of each job, one per
# level: element indices, and so every label, key and report, must not move.
TABLE_DIGESTS = {
    ((2, 1), None, None):
        "780914bb0228701525603c57a4f3df7e5ea1cd9d1bdf7b7a89576c033da0fdb5",
    ((3, 1), None, None):
        "d0e8a91f675e3a5b6ec68d705fea4caac670419c6ad534ca7ff1ffc3bedd6631",
    ((2, 2), None, None):
        "83fabc90cc88a3434f5fc49699abd6d07145c6eaf615173b141c79e4aa4d65bd",
    ((5, 1), None, None):
        "8758238726c6482bdaa11254af1806f6c3f5be81fd152b203b3e64b884895b3c",
    ((7, 1), None, None):
        "5db28288e0b8c535b5f31fe866991412b651dfed310e16b1ea54cd1b65ea281d",
    ((2, 3), None, None):
        "2992e9436b7fa0ca08ead383daa814af6c958f2f753893e93e52f69db94e8e0c",
    ((3, 2), None, None):
        "02baf3fd1f33caca11cea3b8fa24ced752a197486f591358172ecf595a13b5a5",
    ((11, 1), None, None):
        "eb882fae8f52d653be2c1c2ef2a94e68edb02a37f907070558f9bad6e6f6ee26",
    ((13, 1), None, None):
        "a36c4e15c27c182d4d8e251ec66908b4ca0d0f4d146829e3ed714a85ea5688ff",
    ((2, 4), None, None):
        "3e780df7129a7e31cdf98a2ee568d69fb7bb9c396225c8e9510375d98271617f",
    ((2, 3), (1, 0, 1, 1), None):
        "626aaffa4a96e06e5a85a511bb8d2da94bafbe629d0be01fa08eda613af8ac8a",
    ((3, 1), None, (2, 2, 0, 1)):
        "6e0ab55a5e88ec49830a19db42c06489d4403a65f457b193ed1b7783f6909f3e",
}


@pytest.mark.parametrize("ph, base_modulus, cubic_modulus", list(TABLE_DIGESTS),
                         ids=lambda v: "-".join(map(str, v)) if v else "default")
def test_field_tables_match_golden_digests(ph, base_modulus, cubic_modulus):
    ctx = make_field(*ph, base_modulus=base_modulus, cubic_modulus=cubic_modulus)
    assert _table_digest(ctx) == TABLE_DIGESTS[ph, base_modulus, cubic_modulus]


def _mobius(n: int) -> int:
    fac = factorize(n)
    return 0 if any(e > 1 for e in fac.values()) else (-1) ** len(fac)


def _gauss_count(s: int, d: int) -> int:
    """Number of monic irreducibles of degree d over a field of s elements."""
    return sum(_mobius(e) * s ** (d // e) for e in range(1, d + 1) if d % e == 0) // d


def _accepts(**kwargs) -> bool:
    try:
        make_field(**kwargs)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("p, h, count", [(2, 2, 1), (2, 3, 2), (2, 4, 3), (3, 2, 3)])
def test_base_modulus_sweep_accepts_gauss_count(p, h, count):
    accepted = sum(
        _accepts(p=p, h=h, base_modulus=[(code // p**i) % p for i in range(h)] + [1])
        for code in range(p**h)
    )
    assert accepted == count == _gauss_count(p, h)


@pytest.mark.parametrize("q, count", [(2, 2), (3, 8), (4, 20), (5, 40)])
def test_cubic_modulus_sweep_accepts_gauss_count(q, count):
    ((p, h),) = factorize(q).items()
    accepted = sum(
        _accepts(p=p, h=h, cubic_modulus=(code % q, (code // q) % q, code // (q * q), 1))
        for code in range(q**3)
    )
    assert accepted == count == _gauss_count(q, 3) == (q**3 - q) // 3

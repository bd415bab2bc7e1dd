import hashlib
import random
import sys
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from hyperreguli import covers
from hyperreguli.covers import (
    CoverRows,
    _distinct_counts,
    _level_keys,
    cover_size,
    cover_type1,
    cover_type2,
    enumerate_covers,
    kind1_count,
    kind2_count,
    total_count,
)
from hyperreguli.gf import make_field

from helpers import PolyFieldOracle, sweep_params


def test_type1_q2_is_all_nonzero(ctx2):
    assert cover_type1(ctx2, 0, 1).key == tuple(range(1, 8))


def test_type1_q3_matches_oracle_norm_fiber(ctx3):
    oracle = PolyFieldOracle(3, ctx3.cubic_modulus)
    fiber = tuple(x for x in range(27) if oracle.norm(x) == 1)
    cov = cover_type1(ctx3, 0, 1)
    assert cov.key == fiber
    assert len(cov.key) == 13


@pytest.mark.parametrize("q", [2, 3])
def test_type1_translation_property(q, ctx_by_q):
    ctx = ctx_by_q[q]
    for f in range(1, q):
        base_points = cover_type1(ctx, 0, f).points
        for a in range(ctx.q3):
            translated = {ctx.add(a, x) for x in base_points}
            assert translated == set(cover_type1(ctx, a, f).key)


@pytest.mark.parametrize("q", [2, 3])
def test_type2_swap_identity_exhaustive(q, ctx_by_q):
    ctx = ctx_by_q[q]
    for a in range(ctx.q3):
        for b in range(ctx.q3):
            if a == b:
                continue
            for f in range(1, q):
                lhs = cover_type2(ctx, a, b, f)
                rhs = cover_type2(ctx, b, a, ctx.base.inv(f))
                assert lhs.key == rhs.key


def test_type2_swap_identity_sampled_q4(ctx4):
    rng = random.Random(44)
    for _ in range(60):
        a, b = rng.sample(range(64), 2)
        f = rng.randrange(1, 4)
        assert cover_type2(ctx4, a, b, f).key == \
            cover_type2(ctx4, b, a, ctx4.base.inv(f)).key


def test_type2_q2_shape(ctx2):
    for a in range(8):
        for b in range(8):
            if a == b:
                continue
            cov = cover_type2(ctx2, a, b, 1)
            assert len(cov.key) == 7
            assert 8 in cov.points
            assert a not in cov.points and b not in cov.points


@pytest.mark.parametrize("q", [2, 3])
def test_type2_infinity_iff_f_is_one(q, ctx_by_q):
    ctx = ctx_by_q[q]
    inf = ctx.q3
    for a in range(ctx.q3):
        for b in range(ctx.q3):
            if a == b:
                continue
            for f in range(1, q):
                cov = cover_type2(ctx, a, b, f)
                assert (inf in cov.points) == (f == 1)
                assert a not in cov.points and b not in cov.points


@pytest.mark.parametrize("q", [2, 3, 4])
def test_every_cover_has_exact_size(q, ctx_by_q):
    ctx = ctx_by_q[q]
    k = cover_size(q)
    cs = enumerate_covers(ctx)
    assert all(len(c.key) == k for c in cs.covers)
    assert all(tuple(sorted(c.key)) == c.key for c in cs.covers)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_enumeration_counts(q, ctx_by_q):
    cs = enumerate_covers(ctx_by_q[q])
    assert cs.total == total_count(q)
    assert cs.count_kind1 == kind1_count(q)
    assert cs.count_kind2 == kind2_count(q)


def test_q2_covers_are_exactly_the_seven_subsets(ctx2):
    cs = enumerate_covers(ctx2)
    assert {c.key for c in cs.covers} == set(combinations(range(9), 7))


@pytest.mark.parametrize("q", [2, 3])
def test_families_are_disjoint(q, ctx_by_q):
    cs = enumerate_covers(ctx_by_q[q])
    k1 = {c.key for c in cs.covers if c.kind == 1}
    k2 = {c.key for c in cs.covers if c.kind == 2}
    assert not k1 & k2
    assert len(k1) == kind1_count(q)
    assert len(k2) == kind2_count(q)


@pytest.mark.parametrize("q", [2, 3])
def test_full_grid_dedups_to_exact_swap_pairs(q, ctx_by_q):
    ctx = ctx_by_q[q]
    cs = enumerate_covers(ctx, check_dedup=True)
    assert cs.dedup_exact is True
    # direct recount of the ordered grid
    seen = {}
    for a in range(ctx.q3):
        for b in range(ctx.q3):
            if a == b:
                continue
            for f in range(1, q):
                seen.setdefault(cover_type2(ctx, a, b, f).key, []).append((a, b, f))
    assert len(seen) == kind2_count(q)
    for key, params in seen.items():
        assert len(params) == 2
        (a1, b1, f1), (a2, b2, f2) = params
        assert (a2, b2, f2) == (b1, a1, ctx.base.inv(f1))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_enumeration_matches_scalar_constructors(q, ctx_by_q):
    ctx = ctx_by_q[q]
    for cov in enumerate_covers(ctx).covers:
        if cov.kind == 1:
            rebuilt = cover_type1(ctx, cov.a, cov.f)
        else:
            rebuilt = cover_type2(ctx, cov.a, cov.b, cov.f)
        assert rebuilt.key == cov.key


def test_enumeration_is_deterministic(ctx3):
    a = enumerate_covers(ctx3)
    b = enumerate_covers(ctx3)
    assert [c.key for c in a.covers] == [c.key for c in b.covers]
    assert [(c.kind, c.a, c.b, c.f) for c in a.covers] == \
        [(c.kind, c.a, c.b, c.f) for c in b.covers]


def test_parameter_validation(ctx3):
    with pytest.raises(ValueError):
        cover_type1(ctx3, 0, 0)
    with pytest.raises(ValueError):
        cover_type1(ctx3, 0, 3)  # not in the base subfield
    with pytest.raises(ValueError):
        cover_type1(ctx3, 27, 1)
    with pytest.raises(ValueError):
        cover_type2(ctx3, 5, 5, 1)
    with pytest.raises(ValueError):
        cover_type2(ctx3, 0, 1, 5)


def test_infinity_sorts_last_in_keys(ctx3):
    cov = cover_type2(ctx3, 0, 1, 1)
    assert cov.key[-1] == 27
    assert all(m < 27 for m in cov.key[:-1])


def test_audit_fails_on_a_wrong_swap_inverse_q4(ctx4, monkeypatch):
    """With 1/f replaced by f, no a > b key matches the stored key of its swap."""
    assert enumerate_covers(ctx4, check_dedup=True).dedup_exact is True
    assert ctx4.base._inv != list(range(4))  # GF(4)* inversion swaps 2 and 3
    monkeypatch.setattr(ctx4.base, "_inv", list(range(4)))
    assert enumerate_covers(ctx4, check_dedup=True).dedup_exact is False


@pytest.mark.parametrize("table, kind", [("norm_np", 1), ("exp", 2)])
def test_table_bug_raises_naming_the_cover(table, kind):
    """One wrong entry in the norm table, which every row reads, or in the
    GF(q) exp table, which only the kind-2 norm quotients read."""
    ctx = make_field(3)
    if table == "norm_np":
        bad = ctx.norm_np.copy()
        bad[1] = 2  # N(1) = 1
        ctx.__dict__["norm_np"] = bad
    else:
        ctx.base.exp[1] = 1  # GF(3)* is generated by 2
    with pytest.raises(RuntimeError, match=rf"cover {kind}:0,(None|1),[12] has \d+ points"):
        enumerate_covers(ctx)


@pytest.mark.parametrize("multipliers", ["equal", "zero"])
@pytest.mark.parametrize("q", [2, 3])
def test_dedup_exact_under_hash_collisions(q, multipliers, ctx_by_q, monkeypatch):
    """Keys sharing a hash are told apart by their bytes: same counts, same audit."""
    value = 1 if multipliers == "equal" else 0
    monkeypatch.setattr(covers, "_HASH_MULTIPLIERS",
                        np.full_like(covers._HASH_MULTIPLIERS, value))
    cs = enumerate_covers(ctx_by_q[q], check_dedup=True)
    assert len(np.unique(cs.hashes)) < len(cs.keys)
    assert (cs.count_kind1, cs.count_kind2, cs.total) == \
        (kind1_count(q), kind2_count(q), total_count(q))
    assert cs.dedup_exact is True


@pytest.mark.parametrize("multipliers", ["seeded", "zero"])
def test_injected_duplicate_key_counts_one_fewer(ctx3, monkeypatch, multipliers):
    """A key row overwritten by a copy of another row loses one distinct key,
    also when every row shares one hash."""
    if multipliers == "zero":
        monkeypatch.setattr(covers, "_HASH_MULTIPLIERS", np.zeros_like(covers._HASH_MULTIPLIERS))
    cs = enumerate_covers(ctx3)
    n1, counts = kind1_count(3), (kind1_count(3), kind2_count(3), total_count(3))
    assert (cs.count_kind1, cs.count_kind2, cs.total) == counts
    for dst, src, want in [
        (-1, -2, (counts[0], counts[1] - 1, counts[2] - 1)),  # two equal kind-2 rows
        (1, 0, (counts[0] - 1, counts[1], counts[2] - 1)),  # two equal kind-1 rows
        (n1, 0, (counts[0], counts[1], counts[2] - 1)),  # a kind-1 key among the kind-2 rows
    ]:
        keys = cs.keys.copy()
        keys[dst] = keys[src]
        order = np.argsort(covers.row_hash(keys)).astype(np.int32)
        assert _distinct_counts(keys, n1, covers.row_hash(keys[order]), order) == want


@pytest.mark.parametrize("kind", [1, 2])
def test_level_size_probes_match_the_full_pattern(kind):
    """The 2q-position probe of the sorted keys accepts a row exactly when
    the row's sorted values are the level pattern, on uint8 rows with entries
    moved between levels, out of range or swapped, at q = 3 and 16.  Among
    the out-of-range values are v + 16, which a uint16 key wraps to v at
    q = 16 (and a uint8 key at q = 3), and 255."""
    for q in (3, 16):
        q3, k = q**3, cover_size(q)
        sizes = [kind, k + 1 - kind] + [k] * (q - 2)
        pattern = np.repeat(np.arange(q, dtype=np.uint8), sizes)
        rng = np.random.default_rng(kind)
        vals = np.tile(pattern, (400, 1))
        for row in vals[1:]:
            rng.shuffle(row)
            for _ in range(rng.integers(0, 3)):
                i = rng.integers(q3)
                row[i] = rng.choice([rng.integers(q + 1), row[i] % 16 + 16, 255])
        idx = np.arange(vals.size).reshape(vals.shape)
        out = np.empty((len(vals) * (q - 1), k), dtype=np.uint16)
        ok = _level_keys(vals.ravel(), idx, q, kind, out)
        want = (np.sort(vals, axis=1) == pattern).all(axis=1)
        assert np.array_equal(ok, want)
        assert want[0] and 0 < want.sum() < len(vals)
        assert ((np.sort(vals % 16, axis=1) == pattern).all(axis=1) & ~want).any()  # wraps tried


def cover_params(c) -> list[int]:
    """A cover's [kind, a, b, f], with b = -1 for kind 1."""
    return [c.kind, c.a, -1 if c.b is None else c.b, c.f]


def decoded_params(cs) -> np.ndarray:
    """The cover_params that cs.covers decodes from each row index, as the
    (N, 4) int32 array that the digests hash."""
    return np.array([cover_params(c) for c in cs.covers], dtype=np.int32).reshape(-1, 4)


def cover_set_digest(cs, hashed: bool = True, params: np.ndarray | None = None) -> str:
    """sha256 of a CoverSet's arrays (dtype, shape and bytes), with the
    (N, 4) params (decoded_params unless given) after the keys, and of its
    counts; without hashed, of keys and params alone, which no hash change
    moves."""
    params = decoded_params(cs) if params is None else params
    h = hashlib.sha256()
    for a in (cs.keys, params) + ((cs.hashes, cs.order) if hashed else ()):
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(repr((cs.count_kind1, cs.count_kind2, cs.total, cs.dedup_exact)).encode())
    return h.hexdigest()


# cover_set_digest of the audited enumeration under the default moduli.
# The hashes and their order are those of row_hash over three 64-bit words
# of each row; with the earlier hash of 12 strided labels, the same keys,
# params, counts and audit verdicts (GOLDEN_KEY_SETS, equal under both
# hashes) gave the digests that the uint16 row kernel produced first.
GOLDEN_COVER_SETS = {
    2: "5f91ea18eae0d96167622d421015fc0a25dff3fdbf5340329ae4feca1a7b0187",
    3: "6d68032c87beef13810fe7a5edb69af05f27d7ac975331c94ff8d30ec4b60500",
    4: "f3636accb75d561eb2756080a34893e73aadf7610b24e454c6956d5a70594ccc",
    5: "9e6ab27242a8da94cd63ca1f4c2c006fca80b161e8d6f36a36136a768908b24f",
    7: "1814e4c72d957ac68f2cab51c96a2e3cec9da3683d37764389825a604e4daa17",
}
GOLDEN_KEY_SETS = {
    2: "a620e22188dd06dcda0e77977f37987f5fbece4140f2efb0161fda2daf3d9265",
    3: "8fa5e19a0fe02f471b79c1022d0b4abc3fcbb26c7dd87ff9680113e491424200",
    4: "5fdda16b295ff20c8fd150ae615dffc4b459d773e96e9c0220b32b8b675b75c7",
    5: "53a6e8d232238cea42806b39e5bf6d674db82f10501936d14543c43e0a2a5184",
    7: "7d58a7566e74d03dedfaecf446c6cc68c0dc9866962fb1a0e73ee05e5c38d98f",
}


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_audited_enumeration_matches_golden_digest(q, ctx_by_q):
    """keys, decoded params, hashes, order, the counts and the audit
    verdict, byte for byte."""
    cs = enumerate_covers(ctx_by_q[q], check_dedup=True)
    params = decoded_params(cs)
    assert cover_set_digest(cs, params=params) == GOLDEN_COVER_SETS[q]
    assert cover_set_digest(cs, hashed=False, params=params) == GOLDEN_KEY_SETS[q]


def test_flat_quotient_index_addresses_every_pair_q16():
    """In uint8, u*q + v runs over 0..255 for (u, v) in GF(16)^2 with no
    wrap, and the flat table holds u/v there (v != 0) and 0 at v = 0, a
    kind-2 row's pole; the norm rows are uint8."""
    ctx = make_field(2, 4)
    base, q = ctx.base, 16
    assert ctx.norm_np.dtype == np.uint8 and ctx.norm_np.tolist() == ctx.norm_table
    u, v = (g.ravel() for g in np.meshgrid(np.arange(q, dtype=np.uint8),
                                           np.arange(q, dtype=np.uint8), indexing="ij"))
    flat = u * np.uint8(q) + v
    assert flat.dtype == np.uint8 and flat.tolist() == list(range(q * q))
    table = covers._quotients(base)
    assert table.dtype == np.uint8 and table.shape == (q * q,)
    assert not table[::q].any()
    got = table[flat].tolist()
    for x, y, quot in zip(u.tolist(), v.tolist(), got):
        if y:
            assert quot == base.div(x, y)
            assert base.mul(quot, y) == x


@pytest.mark.parametrize("q", [2, 3, 4])
def test_params_rows_follow_the_sweep_order(q, ctx_by_q):
    """CoverRows decodes (kind, a, b, f) from each row index: kind 1 by
    (a, f) with b = None, then kind 2 by (a < b, f), as sweep_params
    broadcasts them; negative indices count from the end, and the index
    len(rows) raises IndexError."""
    q3 = q**3
    want = [[1, a, -1, f] for a in range(q3) for f in range(1, q)]
    want += [[2, a, b, f] for a in range(q3) for b in range(a + 1, q3) for f in range(1, q)]
    rows = CoverRows(q, enumerate_covers(ctx_by_q[q]).keys)
    assert [cover_params(c) for c in rows] == want == sweep_params(q).tolist()
    assert rows[-1] == rows[len(rows) - 1] and rows[-len(rows)] == rows[0]
    for i in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError):
            rows[i]


def word_labels(k: int) -> list[list[int]]:
    """The label positions of each word that row_hash reads at row length
    k, lowest lane first, decoded from the words of the row 0, 1, ..., k-1."""
    words = covers.hashed_words(np.arange(k)[None])[0].tolist()
    lanes = range(4) if sys.byteorder == "little" else range(3, -1, -1)
    return [[w >> 16 * j & 0xFFFF for j in lanes] for w in words]


@pytest.mark.parametrize("q", [2, 3, 4])
def test_row_hash_is_the_wrapping_sum_of_labels_times_multipliers(q, ctx_by_q):
    """row_hash, with no label widened, is sum(word * multiplier) mod 2^64
    over three words of four labels each, word i the labels from i*d
    (d = (k-5) // 2) read as one uint64 in the host's byte order, for
    uint16 key rows and for int32 query rows alike (hashed as their uint16
    cast); hashed_words is a view of uint16 rows."""
    every = enumerate_covers(ctx_by_q[q]).keys
    keys = every[::37].copy()
    k = keys.shape[1]
    d = (k - 5) // 2
    lanes = range(4) if sys.byteorder == "little" else range(3, -1, -1)
    mult = covers._HASH_MULTIPLIERS.tolist()
    assert len(mult) == 3 and all(m % 2 for m in mult)
    want = [sum(m * sum(row[i * d + j] << 16 * lane for j, lane in enumerate(lanes))
                for i, m in enumerate(mult)) % 2**64 for row in keys.tolist()]
    assert np.shares_memory(covers.hashed_words(keys), keys)
    assert covers.row_hash(keys).dtype == np.uint64
    assert covers.row_hash(keys).tolist() == want
    assert covers.row_hash(keys.astype(np.int32)).tolist() == want
    assert covers.row_hash(every[::37]).tolist() == want  # not contiguous
    out = np.empty(len(keys), dtype=np.uint64)
    assert covers.row_hash(keys, out=out) is out and out.tolist() == want
    blocks = np.tile(keys, (covers._HASH_BLOCK // len(keys) + 2, 1))  # more rows than a block
    assert covers.row_hash(blocks).tolist() == want * (len(blocks) // len(keys))
    assert covers.row_hash(keys[:0]).shape == (0,)


@pytest.mark.parametrize("k", [7, 13, 31, 91, 273])
def test_row_hash_reads_twelve_labels_before_the_last(k):
    """At every cover size (q = 2, 3, 5, 9, 16) the hash reads three words
    of four consecutive labels, from 0, d and 2d (d = (k-5) // 2), so the
    last word ends just before the last label, which is infinity in every
    kind-2 cover with f = 1; the words overlap only at k = 7."""
    words = word_labels(k)
    d = (k - 5) // 2
    assert words == [list(range(i * d, i * d + 4)) for i in range(3)]
    assert words[-1][-1] == k - 2
    assert len({p for word in words for p in word}) == (12 if k > 7 else 6)


# rows of the enumeration whose row_hash another row shares: none at q = 3..9
# (q = 9 took 3 s), nor at q = 11, counted a block of pairs at a time outside
# the suite; with 8 strided labels instead of 12, q = 8 had 7,168.  At
# q = 2 the words read positions 0..5 of 7, so the covers that differ in
# their last label alone tie, as under any hash that skips that label: the
# 3 covers that start 0..5 and the 2 of each of the 6 that start with 5 of
# 0..5 and then 6.
TIED_COVER_ROWS = {2: 15, 3: 0, 4: 0, 5: 0, 7: 0, 8: 0}


@pytest.mark.parametrize("q", sorted(TIED_COVER_ROWS))
def test_few_cover_rows_share_a_row_hash(q, ctx_by_q):
    """Hash ties only cost time, but the census's table reads one
    candidate per trace and searches among the covers of a hash only after
    a tie, so from q = 3 on fewer than 0.1% of the cover rows may share a
    hash; the count is pinned."""
    ctx = ctx_by_q[q] if q in ctx_by_q else make_field(*{7: (7, 1), 8: (2, 3)}[q])
    h = enumerate_covers(ctx).hashes
    new = h[1:] != h[:-1]
    tied = int((~(np.r_[True, new] & np.r_[new, True])).sum())
    assert tied < len(h) / 1000 or q == 2
    assert tied == TIED_COVER_ROWS[q]


def test_cover_rows_view(ctx3):
    cs = enumerate_covers(ctx3)
    view = cs.covers
    assert len(view) == len(cs.keys) == total_count(3) and not hasattr(cs, "params")
    last = view[-1]
    assert (last.kind, last.a, last.b, last.f) == (2, 25, 26, 2)
    assert last == cover_type2(ctx3, 25, 26, 2)
    assert view[0] == cover_type1(ctx3, 0, 1)
    assert view[1:3] == [view[1], view[2]]
    with pytest.raises(IndexError):
        view[len(view)]
    with pytest.raises(TypeError):
        view[0] = view[1]


@pytest.fixture(scope="module")
def covers7():
    """The audited q = 7 enumeration (labels exceed 255) and its traced peak."""
    ctx = make_field(7)
    tracemalloc.start()
    try:
        cs = enumerate_covers(ctx, check_dedup=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return ctx, cs, peak


def test_enumeration_q7_counts_and_audit(covers7):
    _, cs, peak = covers7
    assert (cs.total, cs.count_kind1, cs.count_kind2) == \
        (total_count(7), kind1_count(7), kind2_count(7))
    assert cs.dedup_exact is True
    assert cs.keys.shape == (total_count(7), cover_size(7))
    assert peak < 256 * 2**20  # the keys take 40 MB; about 100 MB are traced in all


def test_enumeration_q7_matches_golden_digest(covers7):
    """The digests hash the broadcast sweep_params, as decoding all 353,976
    rows takes seconds; a seeded sample of decoded rows, the ends of both
    kinds among them, must match it."""
    cs = covers7[1]
    params = sweep_params(7)
    n1 = kind1_count(7)
    rows = random.Random(7).sample(range(len(cs.keys)), 500) + [0, n1 - 1, n1, len(cs.keys) - 1]
    for i in rows:
        assert cover_params(cs.covers[i]) == params[i].tolist()
    assert cover_set_digest(cs, params=params) == GOLDEN_COVER_SETS[7]
    assert cover_set_digest(cs, hashed=False, params=params) == GOLDEN_KEY_SETS[7]


def test_enumeration_q7_sample_matches_scalar_constructors(covers7):
    ctx, cs, _ = covers7
    rng = random.Random(7)
    n1 = kind1_count(7)
    rows = rng.sample(range(n1), 100) + rng.sample(range(n1, len(cs.covers)), 100)
    for i in rows:
        cov = cs.covers[i]
        if cov.kind == 1:
            rebuilt = cover_type1(ctx, cov.a, cov.f)
        else:
            rebuilt = cover_type2(ctx, cov.a, cov.b, cov.f)
        assert rebuilt == cov
    assert {cs.covers[i].kind for i in rows} == {1, 2}

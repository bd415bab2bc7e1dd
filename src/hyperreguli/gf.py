"""Table-driven arithmetic for GF(q) and its cubic extension GF(q^3).

Elements are plain integers.  An element of GF(q), q = p^h, is encoded by
its polynomial coordinates over GF(p): index = c0 + c1*p + ... + c_{h-1}*p^{h-1}
(low-degree digit least significant).  An element of GF(q^3) is encoded the
same way over GF(q): index = d0 + d1*q + d2*q^2 with digits d_i in [0, q).
Under this encoding the subfield GF(q) of GF(q^3) is exactly the indices
0 .. q-1, so base-field values can be used directly as extension values.

Both levels are built by one set of routines over a coefficient field F
(GF(p) for GF(q), GF(q) for GF(q^3)): product mod the modulus, the
irreducibility test, the modulus search and the exp/log tables.  Both moduli
are monic irreducibles chosen deterministically: the candidate whose integer
encoding (as above) is smallest.  Overrides are accepted and checked for
irreducibility by one routine, exhaustive trial division by every monic
polynomial over F of degree at most half the modulus's.

Tables are sized for q <= 16 (GF(q^3) <= 4096 elements).  Scalar operations
run off Python list tables.  Two cached numpy tables back the vectorized
sweeps: ratio_np (y/x for every pair, (q^3)^2 uint16 entries, 33.5 MB at
q = 16) is the spread's locate table, read by spread.block_labels and
spread.point_labels for the census, the spread check (and its witness) and
the span search; norm_np (the norm of
every element of GF(q^3), uint8, since norms are GF(q) indices below
q <= 16) gives the cover rows of covers.enumerate_covers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

MAX_Q = 16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (n is tiny here)."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# ----------------------------------------------------------------------
# Routines over a coefficient field F, passed as its (add, mul, neg)
# tables.  Polynomials are coefficient lists, low degree first.
# ----------------------------------------------------------------------

def _digits(n: int, base: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(n % base)
        n //= base
    return out


def _undigits(digs, base: int) -> int:
    n = 0
    for d in reversed(digs):
        n = n * base + d
    return n


def _prime_field(p: int):
    """GF(p) as its (add, mul, neg) tables of integers mod p."""
    els = range(p)
    return ([[(a + b) % p for b in els] for a in els],
            [[a * b % p for b in els] for a in els],
            [-a % p for a in els])


def _poly_rem(F, num, den) -> list[int]:
    """Remainder of num / den over F, as deg(den) coefficients; den must be monic."""
    add, mul, neg = F
    num = list(num)
    dd = len(den) - 1
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        if c:
            row = mul[neg[c]]
            for j in range(dd + 1):
                num[k - dd + j] = add[num[k - dd + j]][row[den[j]]]
    return num[:dd]


def _index_mul(F, modulus):
    """Product on integer indices of F[t]/(modulus), digits over F."""
    add, mul, _ = F
    s, deg = len(add), len(modulus) - 1
    digits = [_digits(x, s, deg) for x in range(s**deg)]

    def product(a: int, b: int) -> int:
        db = digits[b]
        conv = [0] * (2 * deg - 1)
        for i, ai in enumerate(digits[a]):
            if ai:
                row = mul[ai]
                for j, bj in enumerate(db):
                    conv[i + j] = add[conv[i + j]][row[bj]]
        return _undigits(_poly_rem(F, conv, modulus), s)

    return product


def _is_irreducible(F, coeffs, deg: int) -> bool:
    """Monic of degree deg over F with no monic divisor of degree 1 .. deg/2,
    by exhaustive trial division."""
    s = len(F[0])
    if len(coeffs) != deg + 1 or coeffs[-1] != 1:
        return False
    if any(not 0 <= c < s for c in coeffs):
        return False
    return all(
        any(_poly_rem(F, coeffs, _digits(code, s, d) + [1]))
        for d in range(1, deg // 2 + 1)
        for code in range(s**d)
    )


def _smallest_irreducible(F, deg: int) -> tuple[int, ...]:
    s = len(F[0])
    for code in range(s**deg):
        coeffs = _digits(code, s, deg) + [1]
        if _is_irreducible(F, coeffs, deg):
            return tuple(coeffs)
    raise RuntimeError(f"no irreducible of degree {deg} over GF({s})")  # unreachable


def _exp_log(size: int, mul) -> tuple[int, list[int], list[int]]:
    """The smallest primitive element of a field of `size` elements with
    product `mul` on indices, and its exp and log tables."""
    n = size - 1

    def power(a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = mul(r, a)
            a = mul(a, a)
            e >>= 1
        return r

    primes = list(factorize(n))
    gen = next(g for g in range(1, size) if all(power(g, n // ell) != 1 for ell in primes))
    exp = [0] * n
    log = [-1] * size
    x = 1
    for i in range(n):
        exp[i] = x
        log[x] = i
        x = mul(x, gen)
    if x != 1 or -1 in log[1:]:
        raise RuntimeError(f"GF({size}) exp/log construction failed")  # signals a table bug
    return gen, exp, log


class _ExpLogOps:
    """inv, div and pow from a field's exp and log tables.

    exp lists g^0 .. g^(n-1) for a primitive g, so n = len(exp) is the order
    of the multiplicative group; log[0] is never read.
    """

    _name: str  # the field, in error messages
    exp: list[int]
    log: list[int]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in {self._name}")
        n = len(self.exp)
        return self.exp[(n - self.log[a]) % n]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError(f"division by zero in {self._name}")
        if a == 0:
            return 0
        n = len(self.exp)
        return self.exp[(self.log[a] - self.log[b]) % n]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise ZeroDivisionError("negative power of zero")
        return self.exp[(self.log[a] * e) % len(self.exp)]


# ----------------------------------------------------------------------
# GF(q) with full lookup tables.
# ----------------------------------------------------------------------

class BaseField(_ExpLogOps):
    """GF(q), q = p^h, with complete add/mul/neg/inv and exp/log tables."""

    _name = "GF(q)"

    def __init__(self, p: int, h: int, modulus: tuple[int, ...]):
        self.p = p
        self.h = h
        self.q = p**h
        self.modulus = modulus
        q = self.q

        self._add = [
            [_undigits([(x + y) % p for x, y in zip(_digits(a, p, h), _digits(b, p, h))], p)
             for b in range(q)]
            for a in range(q)
        ]
        self._neg = [self._add[a].index(0) for a in range(q)]
        product = _index_mul(_prime_field(p), modulus)
        self._mul = [[product(a, b) for b in range(q)] for a in range(q)]
        self.generator, self.exp, self.log = _exp_log(q, lambda a, b: self._mul[a][b])
        self._inv = [0] + [self.inv(a) for a in range(1, q)]

    # -- scalar ops ------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]


# ----------------------------------------------------------------------
# The tower GF(p) < GF(q) < GF(q^3).
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FieldCtx(_ExpLogOps):
    """Arithmetic context for GF(q) and GF(q^3) with norm and Frobenius maps.

    Extension elements are indices in [0, q^3); indices below q are exactly
    the base subfield.  All operations are pure; instances are immutable and
    safe to share between threads and processes.
    """

    _name = "GF(q^3)"

    p: int
    h: int
    q: int
    q3: int
    base: BaseField
    cubic_modulus: tuple[int, ...]
    exp: list[int] = field(repr=False)
    log: list[int] = field(repr=False)
    norm_table: list[int] = field(repr=False)
    frob_tables: tuple[list[int], list[int]] = field(repr=False)

    # -- coordinates -------------------------------------------------------

    def to_coords(self, x: int) -> tuple[int, int, int]:
        """Coordinates of x in the basis {1, t, t^2} over GF(q)."""
        q = self.q
        return (x % q, (x // q) % q, x // (q * q))

    def from_coords(self, c) -> int:
        q = self.q
        return c[0] + q * c[1] + q * q * c[2]

    def is_base(self, x: int) -> bool:
        return 0 <= x < self.q

    # -- extension arithmetic ------------------------------------------------

    def add(self, a: int, b: int) -> int:
        q, badd = self.q, self.base._add
        a0, a1, a2 = a % q, (a // q) % q, a // (q * q)
        b0, b1, b2 = b % q, (b // q) % q, b // (q * q)
        return badd[a0][b0] + q * badd[a1][b1] + q * q * badd[a2][b2]

    def neg(self, a: int) -> int:
        q, bneg = self.q, self.base._neg
        return bneg[a % q] + q * bneg[(a // q) % q] + q * q * bneg[a // (q * q)]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        n = self.q3 - 1
        return self.exp[(self.log[a] + self.log[b]) % n]

    def norm(self, x: int) -> int:
        """The norm x^(q^2+q+1) down to GF(q), returned as a base-field index."""
        return self.norm_table[x]

    def frobenius(self, x: int, i: int) -> int:
        """x^(q^i) for i in {0, 1, 2}."""
        if i == 0:
            return x
        return self.frob_tables[i - 1][x]

    # -- numpy mirrors (vectorized sweeps) -----------------------------------

    @cached_property
    def ratio_np(self) -> np.ndarray:
        """Flat (q^3)^2 uint16 table: entry x*q^3 + y is y/x, and q^3 where x = 0.

        q^3 is the infinity label, so this is the spread's locate table.
        log y - log x + (q^3-1) lies in [0, 2(q^3-1)), so a doubled exp table
        needs no % (q^3-1) and the index sums fit uint16, like the table.
        """
        q3, n = self.q3, self.q3 - 1
        logs = np.array([0] + self.log[1:], dtype=np.uint16)
        exps2 = np.array(self.exp * 2, dtype=np.uint16)
        table = exps2[(n - logs)[:, None] + logs[None, :]]
        table[:, 0] = 0
        table[0, :] = q3
        return table.reshape(-1)

    @cached_property
    def norm_np(self) -> np.ndarray:
        return np.array(self.norm_table, dtype=np.uint8)

    # -- built-in diagnostics -------------------------------------------------

    def self_test(self) -> list[dict]:
        """Consistency checks of the tables; returns one record per check.

        Every check is exhaustive at every q <= 16: each runs as whole-array
        passes over the tables, and gf.norm_multiplicative covers every
        pair (x, y) of GF(q^3), zero included.
        """
        q, q3 = self.q, self.q3
        xs = np.arange(q3)
        exp, log = np.array(self.exp), np.array(self.log)
        norm = np.array(self.norm_table)
        frob = np.array(self.frob_tables[0])
        checks = []

        def rec(name, expected, actual):
            checks.append({"name": name, "expected": expected, "actual": actual,
                           "pass": expected == actual})

        rec("gf.exp_log_roundtrip", True, bool(np.array_equal(exp[log[1:]], xs[1:])))
        rec("gf.exp_period", 1, self.pow(self.exp[1], q3 - 1))
        in_base = bool(((norm >= 0) & (norm < q)).all())
        rec("gf.norm_in_base_field", True, in_base)
        rec("gf.norm_multiplicative", True, in_base and self._norm_multiplicative(norm))
        rec("gf.norm_fiber_sizes",
            [0] + [q * q + q + 1] * (q - 1), np.bincount(norm[1:], minlength=q).tolist())
        rec("gf.frobenius_order_three", True, bool(np.array_equal(frob[frob[frob]], xs)))
        rec("gf.frobenius_fixed_field", list(range(q)), np.flatnonzero(frob == xs).tolist())
        rec("gf.coords_roundtrip",
            True, bool(np.array_equal(self.from_coords(self.to_coords(xs)), xs)))
        return checks

    def _norm_multiplicative(self, norm: np.ndarray) -> bool:
        """N(xy) = N(x)N(y) for every pair (x, y) of GF(q^3), given the norm
        of every element as a GF(q) index.

        A pair with a zero factor is checked against N(0).  The others are
        (g^i, g^j) for the primitive g = exp[1]: with nl[i] = N(g^i), row i
        compares the window nl[i : i + n] of nl doubled, the norms of
        g^(i+j), j < n, against the products bmul[nl[i], nl], a block of
        uint8 rows at a time.
        """
        q, n = self.q, self.q3 - 1
        norm = norm.astype(np.uint8)
        bmul = np.array(self.base._mul)
        bmul = np.where((bmul >= 0) & (bmul < q), bmul, q).astype(np.uint8)  # q: no norm
        zero = norm[0]
        if not ((bmul[zero, norm] == zero).all() and (bmul[norm, zero] == zero).all()):
            return False
        nl = norm[np.array(self.exp)]
        windows = np.lib.stride_tricks.sliding_window_view(np.concatenate([nl, nl[:-1]]), n)
        prods = bmul[:, nl]  # prods[u, j] = u N(g^j)
        rows = max(1, 2**22 // n)
        return all(bool((windows[i : i + rows] == prods[nl[i : i + rows]]).all())
                   for i in range(0, n, rows))


def make_field(
    p: int,
    h: int = 1,
    base_modulus=None,
    cubic_modulus=None,
) -> FieldCtx:
    """Build the arithmetic context for GF(q), q = p^h, and GF(q^3).

    Without overrides the moduli are the irreducibles with the smallest
    integer encoding, so element indices are reproducible across runs.
    Raises ValueError for composite p, q > 16, or a reducible override.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if h < 1:
        raise ValueError("extension degree h must be >= 1")
    q = p**h
    if q > MAX_Q:
        raise ValueError(f"q = {q} exceeds the table capacity q <= {MAX_Q}")

    prime = _prime_field(p)
    if base_modulus is None:
        base_mod = _smallest_irreducible(prime, h)
    else:
        base_mod = tuple(int(c) for c in base_modulus)
        if not _is_irreducible(prime, base_mod, h):
            raise ValueError(
                f"base modulus {base_mod} is not a monic irreducible of degree {h} over GF({p})"
            )
    base = BaseField(p, h, base_mod)

    F = (base._add, base._mul, base._neg)
    if cubic_modulus is None:
        cubic = _smallest_irreducible(F, 3)
    else:
        cubic = tuple(int(c) for c in cubic_modulus)
        if not _is_irreducible(F, cubic, 3):
            raise ValueError(
                f"cubic modulus {cubic} is not a monic irreducible cubic over GF({q})"
            )

    q3 = q**3
    n = q3 - 1
    _, exp, log = _exp_log(q3, _index_mul(F, cubic))

    e_norm = q * q + q + 1
    norm_table = [0] * q3
    for y in range(1, q3):
        v = exp[(log[y] * e_norm) % n]
        if v >= q:
            raise RuntimeError("norm left the base subfield")  # table bug
        norm_table[y] = v

    frob1 = [0] * q3
    frob2 = [0] * q3
    for y in range(1, q3):
        frob1[y] = exp[(log[y] * q) % n]
        frob2[y] = exp[(log[y] * q * q) % n]

    return FieldCtx(
        p=p, h=h, q=q, q3=q3, base=base, cubic_modulus=cubic,
        exp=exp, log=log, norm_table=norm_table, frob_tables=(frob1, frob2),
    )

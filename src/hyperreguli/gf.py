"""Table-driven arithmetic for GF(q) and its cubic extension GF(q^3).

Elements are plain integers.  An element of GF(q), q = p^h, is encoded by
its polynomial coordinates over GF(p): index = c0 + c1*p + ... + c_{h-1}*p^{h-1}
(low-degree digit least significant).  An element of GF(q^3) is encoded the
same way over GF(q): index = d0 + d1*q + d2*q^2 with digits d_i in [0, q).
Under this encoding the subfield GF(q) of GF(q^3) is exactly the indices
0 .. q-1, so base-field values can be used directly as extension values.

Both moduli are monic irreducibles chosen deterministically: the candidate
whose integer encoding (as above) is smallest.  Overrides are accepted and
checked for irreducibility by exhaustive root/factor search.

Tables are sized for q <= 16 (GF(q^3) <= 4096 elements).  Scalar operations
run off Python list tables; the GF(q^3) numpy mirrors exposed as cached
properties back the vectorized sweeps in the enumeration modules.
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
# Polynomials over GF(p), coefficients as ints mod p, low degree first.
# ----------------------------------------------------------------------

def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mod_p(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num / den over GF(p); den must be monic."""
    num = list(num)
    dd = len(den) - 1
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        if c:
            for j in range(dd + 1):
                num[k - dd + j] = (num[k - dd + j] - c * den[j]) % p
    return _poly_trim(num[:dd])


def _poly_is_irreducible_p(coeffs: list[int], p: int) -> bool:
    """Exhaustive trial division by every monic divisor of degree <= deg/2."""
    deg = len(coeffs) - 1
    if deg < 1 or coeffs[-1] != 1:
        return False
    if any(c % p != c for c in coeffs):
        return False
    for d in range(1, deg // 2 + 1):
        for code in range(p**d):
            den = _digits(code, p, d) + [1]
            if not _poly_mod_p(coeffs, den, p):
                return False
    return True


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


def _smallest_irreducible_p(p: int, deg: int) -> tuple[int, ...]:
    for code in range(p**deg):
        coeffs = _digits(code, p, deg) + [1]
        if _poly_is_irreducible_p(coeffs, p):
            return tuple(coeffs)
    raise RuntimeError(f"no irreducible of degree {deg} over GF({p})")  # unreachable


# ----------------------------------------------------------------------
# GF(q) with full lookup tables.
# ----------------------------------------------------------------------

class BaseField:
    """GF(q), q = p^h, with complete add/mul/neg/inv and exp/log tables."""

    def __init__(self, p: int, h: int, modulus: tuple[int, ...]):
        self.p = p
        self.h = h
        self.q = p**h
        self.modulus = modulus
        q = self.q

        def mul_poly(a: int, b: int) -> int:
            da, db = _digits(a, p, h), _digits(b, p, h)
            conv = [0] * (2 * h - 1)
            for i, ai in enumerate(da):
                if ai:
                    for j, bj in enumerate(db):
                        conv[i + j] = (conv[i + j] + ai * bj) % p
            return _undigits(_poly_mod_p(conv, list(modulus), p) + [0] * h, p)

        self._add = [
            [_undigits([(x + y) % p for x, y in zip(_digits(a, p, h), _digits(b, p, h))], p)
             for b in range(q)]
            for a in range(q)
        ]
        self._neg = [self._add[a].index(0) for a in range(q)]
        self._mul = [[mul_poly(a, b) for b in range(q)] for a in range(q)]

        self.generator = self._find_generator()
        self.exp = [0] * (q - 1)
        self.log = [-1] * q
        x = 1
        for i in range(q - 1):
            self.exp[i] = x
            self.log[x] = i
            x = self._mul[x][self.generator]
        if x != 1 or -1 in self.log[1:]:
            raise RuntimeError("exp/log construction failed")  # signals a table bug

        self._inv = [0] * q
        for a in range(1, q):
            self._inv[a] = self.exp[(q - 1 - self.log[a]) % (q - 1)]

    def _find_generator(self) -> int:
        n = self.q - 1
        primes = list(factorize(n))
        for g in range(1, self.q):
            if all(self._pow_raw(g, n // ell) != 1 for ell in primes):
                return g
        raise RuntimeError("no generator found")  # unreachable for a field

    def _pow_raw(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._mul[r][a]
            a = self._mul[a][a]
            e >>= 1
        return r

    # -- scalar ops ------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in GF(q)")
        return self._inv[a]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by zero in GF(q)")
        return self._mul[a][self._inv[b]]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise ZeroDivisionError("negative power of zero")
        return self.exp[(self.log[a] * e) % (self.q - 1)]

    def elements(self) -> range:
        return range(self.q)

    def nonzero(self) -> range:
        return range(1, self.q)


# ----------------------------------------------------------------------
# The tower GF(p) < GF(q) < GF(q^3).
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FieldCtx:
    """Arithmetic context for GF(q) and GF(q^3) with norm and Frobenius maps.

    Extension elements are indices in [0, q^3); indices below q are exactly
    the base subfield.  All operations are pure; instances are immutable and
    safe to share between threads and processes.
    """

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

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in GF(q^3)")
        n = self.q3 - 1
        return self.exp[(n - self.log[a]) % n]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by zero in GF(q^3)")
        if a == 0:
            return 0
        n = self.q3 - 1
        return self.exp[(self.log[a] - self.log[b]) % n]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise ZeroDivisionError("negative power of zero")
        return self.exp[(self.log[a] * e) % (self.q3 - 1)]

    def norm(self, x: int) -> int:
        """The norm x^(q^2+q+1) down to GF(q), returned as a base-field index."""
        return self.norm_table[x]

    def frobenius(self, x: int, i: int) -> int:
        """x^(q^i) for i in {0, 1, 2}."""
        if i == 0:
            return x
        return self.frob_tables[i - 1][x]

    def elements(self) -> range:
        return range(self.q3)

    def nonzero(self) -> range:
        return range(1, self.q3)

    # -- numpy mirrors (vectorized sweeps) -----------------------------------

    @cached_property
    def ext_mul_np(self) -> np.ndarray:
        # log a + log b < 2(q^3-1), so a doubled exp table needs no % (q^3-1)
        # and the index sums fit uint16, like the table itself
        logs = np.array([0] + self.log[1:], dtype=np.uint16)
        exps2 = np.array(self.exp * 2, dtype=np.uint16)
        table = exps2[logs[:, None] + logs[None, :]]
        table[0, :] = 0
        table[:, 0] = 0
        return table

    @cached_property
    def ext_add_np(self) -> np.ndarray:
        q = self.q
        idx = np.arange(self.q3)
        d0, d1, d2 = idx % q, (idx // q) % q, idx // (q * q)
        badd = np.array(self.base._add, dtype=np.uint16)
        return (
            badd[d0[:, None], d0[None, :]]
            + q * badd[d1[:, None], d1[None, :]]
            + q * q * badd[d2[:, None], d2[None, :]]
        )

    @cached_property
    def ext_neg_np(self) -> np.ndarray:
        return np.array([self.neg(a) for a in range(self.q3)], dtype=np.uint16)

    @cached_property
    def ext_inv_np(self) -> np.ndarray:
        # entry 0 is a placeholder; callers mask x == 0 before indexing through it
        return np.array([0] + [self.inv(a) for a in range(1, self.q3)], dtype=np.uint16)

    @cached_property
    def norm_np(self) -> np.ndarray:
        return np.array(self.norm_table, dtype=np.uint16)

    # -- built-in diagnostics -------------------------------------------------

    def self_test(self) -> list[dict]:
        """Exhaustive consistency checks; returns one record per check."""
        q, q3 = self.q, self.q3
        checks = []

        def rec(name, expected, actual):
            checks.append({"name": name, "expected": expected, "actual": actual,
                           "pass": expected == actual})

        rec("gf.exp_log_roundtrip",
            True, all(self.exp[self.log[x]] == x for x in range(1, q3)))
        rec("gf.exp_period", 1, self.pow(self.exp[1], q3 - 1))
        rec("gf.norm_in_base_field",
            True, all(self.is_base(self.norm_table[x]) for x in range(q3)))
        rec("gf.norm_multiplicative", True, self._norm_multiplicative())
        fibers = [0] * q
        for x in range(1, q3):
            fibers[self.norm_table[x]] += 1
        rec("gf.norm_fiber_sizes",
            [0] + [q * q + q + 1] * (q - 1), fibers)
        rec("gf.frobenius_order_three",
            True,
            all(self.frobenius(self.frobenius(self.frobenius(x, 1), 1), 1) == x
                for x in range(q3)))
        rec("gf.frobenius_fixed_field",
            list(range(q)),
            [x for x in range(q3) if self.frobenius(x, 1) == x])
        rec("gf.coords_roundtrip",
            True, all(self.from_coords(self.to_coords(x)) == x for x in range(q3)))
        return checks

    def _norm_multiplicative(self) -> bool:
        bmul = self.base._mul
        if self.q3 <= 512:
            pairs = ((x, y) for x in range(self.q3) for y in range(self.q3))
        else:
            import random
            rng = random.Random(0)
            pairs = ((rng.randrange(self.q3), rng.randrange(self.q3))
                     for _ in range(20000))
        return all(
            self.norm_table[self.mul(x, y)] == bmul[self.norm_table[x]][self.norm_table[y]]
            for x, y in pairs
        )


def _ext_mul_poly(base: BaseField, cubic: tuple[int, ...], a: int, b: int) -> int:
    """Product in GF(q)[t]/(cubic) on integer indices; table-construction helper."""
    q = base.q
    da = (a % q, (a // q) % q, a // (q * q))
    db = (b % q, (b // q) % q, b // (q * q))
    conv = [0] * 5
    for i in range(3):
        if da[i]:
            row = base._mul[da[i]]
            for j in range(3):
                if db[j]:
                    conv[i + j] = base._add[conv[i + j]][row[db[j]]]
    for k in (4, 3):
        c = conv[k]
        if c:
            conv[k] = 0
            row = base._mul[c]
            for j in range(3):
                conv[k - 3 + j] = base._add[conv[k - 3 + j]][base._neg[row[cubic[j]]]]
    return conv[0] + q * conv[1] + q * q * conv[2]


def _smallest_irreducible_cubic(base: BaseField) -> tuple[int, ...]:
    for code in range(base.q**3):
        c0, c1, c2 = code % base.q, (code // base.q) % base.q, code // (base.q**2)
        cand = (c0, c1, c2, 1)
        if _cubic_is_irreducible(base, cand):
            return cand
    raise RuntimeError(f"no irreducible cubic over GF({base.q})")  # unreachable


def _cubic_is_irreducible(base: BaseField, coeffs: tuple[int, ...]) -> bool:
    """A cubic is irreducible over GF(q) iff it has no root there."""
    if len(coeffs) != 4 or coeffs[3] != 1:
        return False
    if any(not (0 <= c < base.q) for c in coeffs):
        return False
    for u in range(base.q):
        acc = 0
        upow = 1
        for c in coeffs:
            acc = base._add[acc][base._mul[c][upow]]
            upow = base._mul[upow][u]
        if acc == 0:
            return False
    return True


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

    if base_modulus is None:
        base_mod = _smallest_irreducible_p(p, h)
    else:
        base_mod = tuple(int(c) for c in base_modulus)
        if len(base_mod) != h + 1 or not _poly_is_irreducible_p(list(base_mod), p):
            raise ValueError(
                f"base modulus {base_mod} is not a monic irreducible of degree {h} over GF({p})"
            )
    base = BaseField(p, h, base_mod)

    if cubic_modulus is None:
        cubic = _smallest_irreducible_cubic(base)
    else:
        cubic = tuple(int(c) for c in cubic_modulus)
        if not _cubic_is_irreducible(base, cubic):
            raise ValueError(
                f"cubic modulus {cubic} is not a monic irreducible cubic over GF({q})"
            )

    q3 = q**3
    n = q3 - 1
    primes = list(factorize(n))

    def pow_poly(a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = _ext_mul_poly(base, cubic, r, a)
            a = _ext_mul_poly(base, cubic, a, a)
            e >>= 1
        return r

    gen = next(
        g for g in range(1, q3)
        if all(pow_poly(g, n // ell) != 1 for ell in primes)
    )

    exp = [0] * n
    log = [-1] * q3
    x = 1
    for i in range(n):
        exp[i] = x
        log[x] = i
        x = _ext_mul_poly(base, cubic, x, gen)
    if x != 1 or -1 in log[1:]:
        raise RuntimeError("GF(q^3) exp/log construction failed")  # table bug

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

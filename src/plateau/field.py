"""Finite fields F_{p^deg} on integer-encoded elements.

An element's index digits (little-endian base p) are its coordinates on the
polynomial basis {1, x, ..., x^(deg-1)} modulo a fixed monic irreducible
polynomial, given as the little-endian coefficient tuple of length deg+1.

The default modulus for each (p, deg) is the lexicographically smallest monic
irreducible polynomial (smallest index encoding of its non-leading
coefficients), found by deterministic search, verified by trial division and
cached — so every table built here is reproducible across runs and machines.
Walsh and distribution statistics are basis-invariant; individual value
tables are not, and carry the modulus that produced them.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .domain import digits, from_digits, is_prime, matrix_apply, vec_add
from .errors import InternalCheckError


def _poly_rem(num: list[int], den: Sequence[int], p: int) -> list[int]:
    """Remainder of num modulo monic den, coefficients little-endian mod p."""
    num = [c % p for c in num]
    dn = len(den) - 1
    for k in range(len(num) - 1, dn - 1, -1):
        c = num[k]
        if c:
            off = k - dn
            for i in range(dn + 1):
                num[off + i] = (num[off + i] - c * den[i]) % p
    return num[:dn]


def is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Trial-division irreducibility test for a monic polynomial over F_p."""
    deg = len(poly) - 1
    if deg < 1 or poly[-1] % p != 1:
        raise ValueError("need a monic polynomial of degree >= 1")
    if deg == 1:
        return True
    for e in range(1, deg // 2 + 1):
        for idx in range(p ** e):
            den = digits(idx, p, e) + (1,)
            if not any(_poly_rem(list(poly), den, p)):
                return False
    return True


@functools.lru_cache(maxsize=None)
def default_modulus(p: int, deg: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible polynomial of given degree."""
    for idx in range(p ** deg):
        cand = digits(idx, p, deg) + (1,)
        if is_irreducible(cand, p):
            return cand
    raise AssertionError("irreducible polynomial exists for every degree")


class FieldCtx:
    """Arithmetic context for F_{p^deg} with a fixed modulus."""

    __slots__ = ("p", "deg", "modulus", "order", "_mod_int", "_reduce_rows", "_sub_maps")

    def __init__(self, p: int, deg: int, modulus: Sequence[int] | None = None):
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if deg < 1:
            raise ValueError(f"degree must be >= 1, got {deg}")
        # the exponent is bounded first (p >= 2), so no huge degree builds p^deg
        if deg // 2 + 1 > 22 or p ** (deg // 2 + 1) > 1 << 22:
            raise ValueError(f"degree {deg} over F_{p} is beyond desk scale")
        if modulus is None:
            mod = default_modulus(p, deg)
        else:
            mod = tuple(int(c) % p for c in modulus)
            if len(mod) != deg + 1 or mod[-1] != 1:
                raise ValueError(
                    f"modulus must be monic of degree {deg} (little-endian, {deg + 1} coefficients)"
                )
            if not is_irreducible(mod, p):
                raise ValueError(f"modulus {list(mod)} is reducible over F_{p}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "deg", deg)
        object.__setattr__(self, "modulus", mod)
        object.__setattr__(self, "order", p ** deg)
        object.__setattr__(self, "_mod_int", from_digits(mod, 2) if p == 2 else 0)
        object.__setattr__(self, "_reduce_rows", self._build_reduce_rows() if p != 2 else ())
        object.__setattr__(self, "_sub_maps", {})

    def __setattr__(self, name, value) -> None:
        raise AttributeError("FieldCtx is immutable")

    def _build_reduce_rows(self) -> tuple[tuple[int, ...], ...]:
        # row k = coordinates of x^(deg+k) on the polynomial basis
        p, deg, mod = self.p, self.deg, self.modulus
        base = tuple((-mod[t]) % p for t in range(deg))
        rows = [base]
        for _ in range(deg - 2):
            prev = rows[-1]
            shifted = [0] + list(prev[: deg - 1])
            top = prev[deg - 1]
            if top:
                shifted = [(shifted[t] + top * base[t]) % p for t in range(deg)]
            rows.append(tuple(v % p for v in shifted))
        return tuple(rows)

    def _check(self, a: int) -> None:
        if not 0 <= a < self.order:
            raise ValueError(f"element {a} outside [0, {self.order})")

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return vec_add(a, b, self.p, self.deg)

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        p, deg = self.p, self.deg
        if p == 2:
            r = 0
            top = 1 << deg
            mi = self._mod_int
            while b:
                if b & 1:
                    r ^= a
                b >>= 1
                a <<= 1
                if a & top:
                    a ^= mi
            return r
        da = digits(a, p, deg)
        db = digits(b, p, deg)
        conv = [0] * (2 * deg - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    conv[i + j] += x * y
        res = [c % p for c in conv[:deg]]
        for k in range(deg, 2 * deg - 1):
            c = conv[k] % p
            if c:
                row = self._reduce_rows[k - deg]
                for t in range(deg):
                    res[t] = (res[t] + c * row[t]) % p
        return from_digits(res, p)

    def pow(self, a: int, e: int) -> int:
        self._check(a)
        if e < 0:
            raise ValueError("negative exponents: use inv() then pow()")
        r = 1
        base = a
        while e:
            if e & 1:
                r = self.mul(r, base)
            e >>= 1
            base = self.mul(base, base)
        return r

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.pow(a, self.order - 2)

    # -- relative trace onto the degree-m subfield ----------------------------

    def rel_trace(self, a: int, m: int) -> int:
        """Tr from F_{p^deg} onto F_{p^m}, re-encoded as an m-digit index.

        The subfield copy of F_{p^m} inside this context is matched to the
        standalone default degree-m field through the smallest-index root
        theta of the default degree-m modulus: the trace sum_j c_j theta^j is
        encoded as the index of (c_0, ..., c_(m-1)), so outputs compose
        consistently with a FieldCtx(p, m) built separately.
        """
        self._check(a)
        if m < 1 or self.deg % m != 0:
            raise ValueError(f"m={m} must divide the extension degree {self.deg}")
        q = self.p ** m
        term = a
        acc = a
        for _ in range(self.deg // m - 1):
            term = self.pow(term, q)
            acc = self.add(acc, term)
        return self._subfield_encode(acc, m)

    def _subfield_map(self, m: int) -> dict[int, int]:
        """The index of sum_j c_j theta^j mapped to the index of c, for each of
        the p^m coordinate vectors c; theta as in rel_trace."""
        cached = self._sub_maps.get(m)
        if cached is not None:
            return cached
        p, deg = self.p, self.deg
        g = default_modulus(p, m)
        theta = None
        for z in range(self.order):
            acc = 0
            for c in reversed(g):
                acc = self.add(self.mul(acc, z), c)
            if acc == 0:
                theta = z
                break
        if theta is None:
            raise InternalCheckError(
                f"default modulus of degree {m} has no root in F_{p}^{deg}"
            )
        cols = []
        power = 1
        for _ in range(m):
            cols.append(digits(power, p, deg))
            power = self.mul(power, theta)
        # row t of the basis matrix holds digit t of theta^0, ..., theta^(m-1)
        images = matrix_apply(list(zip(*cols)), np.arange(p**m, dtype=np.int64), p, m)
        table = dict(zip(images.tolist(), range(p**m)))
        if len(table) < p**m:
            raise InternalCheckError("subfield basis is rank-deficient")
        self._sub_maps[m] = table
        return table

    def _subfield_encode(self, s: int, m: int) -> int:
        if m == self.deg and self.modulus == default_modulus(self.p, m):
            return s
        coords = self._subfield_map(m).get(s)
        if coords is None:
            raise InternalCheckError("relative trace landed outside the subfield")
        return coords

    def __repr__(self) -> str:
        return f"FieldCtx(p={self.p}, deg={self.deg}, modulus={list(self.modulus)})"


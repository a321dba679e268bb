"""Finite fields F_{p^deg} on integer-encoded elements, one array engine for every p.

An element's index digits (little-endian base p) are its coordinates on the
polynomial basis {1, x, ..., x^(deg-1)} modulo a fixed monic irreducible
polynomial, given as the little-endian coefficient tuple of length deg+1.

The default modulus for each (p, deg) is the lexicographically smallest monic
irreducible polynomial (smallest index encoding of its non-leading
coefficients), found by deterministic search and cached — so every table
built here is reproducible across runs and machines.
Walsh and distribution statistics are basis-invariant; individual value
tables are not, and carry the modulus that produced them.

Every method takes an int or an index array and returns the same kind, and
works on N elements as their (deg, N) digit planes the same way at every p.
A product A * B is sum_j B[j] * (x^j A); multiplying by x shifts the planes
up a digit and folds the top one back in, x^deg = -sum_t mod_t x^t.  The
partial products are summed in the narrowest unsigned dtype that holds
deg * (p - 1)^2 + p - 1, then reduced mod p.  Frobenius y -> y^(p^k) is
F_p-linear, one deg x deg matrix (domain.matrix_apply): y^e is the product
of the Frobenius images of the powers y^(e_k) of the base-p digits of e
(each by square-and-multiply, and y itself at p = 2), and the relative
trace is one matrix.  A call holds O(deg * N) entries, so constructions
passes blocks of at most _util.SCRATCH elements.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from ._util import fits_int64
from .domain import digits, from_planes, is_prime, matrix_apply, matrix_rank, to_planes, value_dtype
from .errors import InternalCheckError


def is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Whether a monic polynomial of degree deg over F_p is irreducible, from the
    matrix Q of y -> y^p modulo it: Q - I has rank deg minus the number of distinct
    irreducible factors (Berlekamp), and Q^deg = I (x^(p^deg) = x, and x^(p^deg) - x
    is squarefree) rules out a repeated factor."""
    deg = len(poly) - 1
    if deg < 1 or poly[-1] % p != 1:
        raise ValueError("need a monic polynomial of degree >= 1")
    if deg >= 62 or not fits_int64(p**deg):
        raise ValueError(f"degree {deg} over F_{p} is beyond desk scale")
    ring = FieldCtx.__new__(FieldCtx)
    ring._setup(p, tuple(int(c) % p for c in poly))
    q, eye = ring._frobenius(1), ring._frobenius(0)
    rank = matrix_rank(((q - eye) % p).tolist(), p)
    return rank == deg - 1 and bool((ring._frobenius(deg) == eye).all())


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

    __slots__ = ("p", "deg", "modulus", "order", "_fold", "_plane_dtype", "_frobs", "_sub_maps")

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
        self._setup(p, mod)

    def _setup(self, p: int, mod: tuple[int, ...]) -> None:
        """Arithmetic modulo any monic mod: a field when mod is irreducible."""
        deg = len(mod) - 1
        # x^deg = sum_t fold_t x^t, kept as the (t, fold_t) with fold_t != 0
        fold = tuple((t, -c % p) for t, c in enumerate(mod[:deg]) if c)
        plane_dtype = np.min_scalar_type(deg * (p - 1) ** 2 + p - 1)
        values = (p, deg, mod, p**deg, fold, plane_dtype, [], {})  # in __slots__ order
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value) -> None:
        raise AttributeError("FieldCtx is immutable")

    def _elements(self, *args) -> tuple[list[np.ndarray], tuple[int, ...]]:
        """The range-checked arguments broadcast, as flat int64 arrays, and their shape."""
        arrs = np.broadcast_arrays(*(np.asarray(a) for a in args))
        for arr in arrs:
            bad = arr[(arr < 0) | (arr >= self.order)] if arr.dtype.kind in "iu" else arr
            if bad.size:
                raise ValueError(f"element {bad.flat[0]} is not an integer in [0, {self.order})")
        return [arr.reshape(-1).astype(np.int64) for arr in arrs], arrs[0].shape

    @staticmethod
    def _shaped(out: np.ndarray, shape: tuple[int, ...]):
        return int(out[0]) if shape == () else out.reshape(shape)

    # -- arithmetic ----------------------------------------------------------

    def add(self, a, b):
        (xs, ys), shape = self._elements(a, b)
        planes = to_planes(xs, self.p, self.deg) + to_planes(ys, self.p, self.deg)
        return self._shaped(from_planes(planes % self.p, self.p, value_dtype(self.order)), shape)

    def mul(self, a, b):
        (xs, ys), shape = self._elements(a, b)
        return self._shaped(self._mul(xs, ys), shape)

    def pow(self, a, e: int):
        if e < 0:
            raise ValueError("negative exponents: use inv() then pow()")
        (xs,), shape = self._elements(a)
        return self._shaped(self._pow(xs, e), shape)

    def inv(self, a):
        (xs,), shape = self._elements(a)
        if not xs.all():
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._shaped(self._pow(xs, self.order - 2), shape)

    def _mul(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Products of two flat index arrays, in value_dtype(order)."""
        p, deg, dt = self.p, self.deg, self._plane_dtype
        b = to_planes(ys, p, deg, dt)
        # rows s .. s + deg - 1 of w hold x^j A, s = deg - 1 - j: multiplying
        # by x moves the window down a row and folds in the row it drops
        w = np.zeros((2 * deg - 1, xs.size), dtype=dt)
        w[deg - 1 :] = to_planes(xs, p, deg, dt)
        acc = np.zeros((deg, xs.size), dtype=dt)
        for j in range(deg):
            s = deg - 1 - j
            if j:
                for t, c in self._fold:
                    w[s + t] += w[s + deg] * c
                    w[s + t] %= p
            acc += w[s : s + deg] * b[j]
        acc %= p
        return from_planes(acc, p, value_dtype(self.order))

    def _square_multiply(self, xs: np.ndarray, e: int) -> np.ndarray:
        """xs^e for e >= 1 by square-and-multiply."""
        out = xs
        for bit in bin(e)[3:]:
            out = self._mul(out, out)
            if bit == "1":
                out = self._mul(out, xs)
        return out

    def _pow(self, xs: np.ndarray, e: int) -> np.ndarray:
        """xs^e, in value_dtype(order): the product over the base-p digits
        e_k of e of Frobenius_k(xs^(e_k))."""
        p, deg = self.p, self.deg
        # y^(order - 1) = 1 for y != 0, and e stays >= 1 so that 0^e = 0
        ds = digits(e if e < self.order else (e - 1) % (self.order - 1) + 1, p, deg)
        if not any(ds):
            return np.ones(xs.size, dtype=value_dtype(self.order))
        powers = {c: self._square_multiply(xs, c) for c in set(ds) - {0}}
        terms = (
            matrix_apply(self._frobenius(k), powers[c], p, deg) if k else powers[c]
            for k, c in enumerate(ds)
            if c
        )
        return functools.reduce(self._mul, terms).astype(value_dtype(self.order))

    def _frobenius(self, k: int) -> np.ndarray:
        """The deg x deg matrix of y -> y^(p^k): column i holds the digits of
        x^(i * p^k), and x^i has index p^i."""
        p, deg, frobs = self.p, self.deg, self._frobs
        if not frobs:
            images = self._square_multiply(p ** np.arange(deg, dtype=np.int64), p)
            frobs += [np.eye(deg, dtype=np.int64), to_planes(images, p, deg)]
        while len(frobs) <= k:
            frobs.append(frobs[1] @ frobs[-1] % p)
        return frobs[k]

    # -- relative trace onto the degree-m subfield ----------------------------

    def rel_trace(self, a, m: int):
        """Tr from F_{p^deg} onto F_{p^m}, re-encoded as an m-digit index.

        The subfield copy of F_{p^m} inside this context is matched to the
        standalone default degree-m field through the smallest-index root
        theta of the default degree-m modulus: the trace sum_j c_j theta^j is
        encoded as the index of (c_0, ..., c_(m-1)), so outputs compose
        consistently with a FieldCtx(p, m) built separately.
        """
        (xs,), shape = self._elements(a)
        if m < 1 or self.deg % m != 0:
            raise ValueError(f"m={m} must divide the extension degree {self.deg}")
        traces = matrix_apply(self._trace_matrix(m), xs, self.p, self.deg)
        return self._shaped(self._subfield_encode(traces, m), shape)

    def _trace_matrix(self, m: int) -> np.ndarray:
        """The matrix of y -> sum_i y^(p^(m i)), i < deg / m."""
        return sum(self._frobenius(m * i) for i in range(self.deg // m)) % self.p

    def _subfield_map(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """(keys, codes): the sorted indices of the p^m elements
        sum_j c_j theta^j, theta as in rel_trace, and the index of c for each."""
        if m in self._sub_maps:
            return self._sub_maps[m]
        p, deg = self.p, self.deg
        # the trace is onto the subfield, so the traces of any m independent
        # basis elements span it: theta is sought among p^m elements only
        trace = self._trace_matrix(m)
        cols: list[int] = []
        for i in range(deg):
            if matrix_rank(trace[:, cols + [i]].T.tolist(), p) > len(cols):
                cols.append(i)
        subfield = matrix_apply(trace[:, cols], np.arange(p ** len(cols)), p, len(cols))
        acc = np.zeros(subfield.size, dtype=np.int64)
        for c in reversed(default_modulus(p, m)):
            acc = self.add(self.mul(acc, subfield), c)
        if not (acc == 0).any():
            raise InternalCheckError(f"default modulus of degree {m} has no root in F_{p}^{deg}")
        powers = [self.pow(int(subfield[acc == 0].min()), j) for j in range(m)]
        # row t of the basis matrix holds digit t of theta^0, ..., theta^(m-1)
        images = matrix_apply(to_planes(np.array(powers), p, deg), np.arange(p**m), p, m)
        codes = np.argsort(images).astype(value_dtype(p**m))
        keys = images[codes]
        if np.any(keys[1:] == keys[:-1]):
            raise InternalCheckError("subfield basis is rank-deficient")
        self._sub_maps[m] = (keys, codes)
        return keys, codes

    def _subfield_encode(self, s: np.ndarray, m: int) -> np.ndarray:
        """The m-digit index of each subfield element in s, by one sorted lookup."""
        if m == self.deg and self.modulus == default_modulus(self.p, m):
            return s
        keys, codes = self._subfield_map(m)
        pos = np.minimum(np.searchsorted(keys, s), keys.size - 1)
        if not np.array_equal(keys[pos], s):
            raise InternalCheckError("relative trace landed outside the subfield")
        return codes[pos]

    def __repr__(self) -> str:
        return f"FieldCtx(p={self.p}, deg={self.deg}, modulus={list(self.modulus)})"

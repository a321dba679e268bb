"""Integer encodings for vectors over F_p and value tables of F: F_p^n -> F_p^m.

A vector (x_0, ..., x_{k-1}) over F_p is encoded as the index sum x_i * p**i,
so digit 0 is the least significant; for p = 2 the index is the familiar bit
mask and vector addition is XOR.  A function is stored as the array of output
indices in input-index order, in value_dtype(p^m); kernels widen at their bound.
Component values <b, F(x)> have one rule, FuncTable.components; at odd p it
multiplies the masks' digits into the table's digit planes (to_planes), split
once per table and summed in the dtype matrix_apply uses.

Odd-p digitwise subtraction of index arrays (vec_sub_arrays) never divides
digit by digit.  It reads a cached digit-group table: for g digits,
T[u * p^g + v] is the index of the digitwise difference u - v, with u and v
below p^g.  Length-k operands split into the fewest groups whose table has
at most _util.SCRATCH entries, g = ceil(k / groups) digits each, and the
table is stored in the narrowest unsigned dtype that holds p^g - 1.  Each
group costs one division of each operand by p^(g*i), before the operands are
broadcast together, and one gather; the gathered values are widened to int64
before they are scaled by p^(g*i) and accumulated, since the scaled values
overflow any narrow dtype.  Primes with p^2 > SCRATCH have no table and keep
the per-digit loop.  Index sizes are held to _util.fits_int64.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import _util
from ._util import fits_int64


def is_prime(p: int) -> bool:
    """Miller-Rabin to the first twelve prime bases, which no composite below
    3.3 * 10^24 passes, so exact for every p < 2^62 that DomainParams tests."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if p < 2 or any(p % a == 0 for a in bases):
        return p in bases
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    # p - 1 = d * 2^s with d odd: a prime p has a^d = 1 or a^(d * 2^k) = -1
    # for some k < s
    for a in bases:
        x = pow(a, d, p)
        if x != 1 and p - 1 not in [pow(x, 1 << k, p) for k in range(s)]:
            return False
    return True


def digits(i: int, p: int, length: int) -> tuple[int, ...]:
    """Little-endian base-p digit vector of the index i."""
    out = []
    for _ in range(length):
        out.append(i % p)
        i //= p
    return tuple(out)


# ---------------------------------------------------------------------------
# vectorized variants over numpy index arrays (exact int64 arithmetic)

def _group_digits(p: int, length: int) -> int:
    """Digits per group: ceil(length / groups) for the fewest groups whose
    table has at most _util.SCRATCH entries; 0 when even one digit has none."""
    g = 0
    while p ** (2 * (g + 1)) <= _util.SCRATCH:
        g += 1
    if g == 0:
        return 0
    groups = -(-length // g)
    return -(-length // groups)


@functools.lru_cache(maxsize=None)
def _sub_table(p: int, g: int) -> np.ndarray:
    """T[u * p^g + v] = index of the digitwise difference u - v over g digits."""
    u = np.arange(p**g, dtype=np.int64)
    table = np.zeros((u.size, u.size), dtype=np.int64)
    pk = 1
    for _ in range(g):
        d = (u // pk) % p
        table += (d[:, None] - d[None, :]) % p * pk
        pk *= p
    table = table.reshape(-1).astype(np.min_scalar_type(p**g - 1))
    table.setflags(write=False)
    return table


def vec_sub_arrays(us: np.ndarray, vs: np.ndarray, p: int, length: int) -> np.ndarray:
    """Digitwise us - vs of broadcastable index arrays (vs may be one index)
    of any integer dtype: XOR in the operands' dtype at p = 2, int64 indices
    at odd p."""
    if p == 2:
        return us ^ vs
    shape = np.broadcast_shapes(np.shape(us), np.shape(vs))
    g = _group_digits(p, length)
    if g:
        table = _sub_table(p, g)
        q = p**g
        out = np.zeros(shape, dtype=np.int64)
        for lo in range(0, length, g):
            # each operand's digit group is cut out before the two are
            # broadcast together; u's is scaled by q, so it is widened first
            pk = p**lo
            ug = np.floor_divide(us, pk, dtype=np.int64)
            vg = vs // pk
            if lo + g < length:
                ug %= q
                vg %= q
            ug *= q
            part = table.take(np.add(ug, vg, dtype=np.int64))
            # widen before scaling: p^lo times a group overflows the table's
            # narrow dtype
            out += np.multiply(part, pk, dtype=np.int64)
        return out
    # the digits are subtracted, so unsigned operands are widened first
    us, vs = np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)
    out = np.zeros(shape, dtype=np.int64)
    pk = 1
    for _ in range(length):
        out += ((us // pk) % p - (vs // pk) % p) % p * pk
        pk *= p
    return out


def to_planes(vals: np.ndarray, p: int, length: int, dtype=np.int64) -> np.ndarray:
    """The (length, N) digit planes of N indices (any integer dtype, any
    shape, read flat): row t holds digit t."""
    rest = np.array(vals, dtype=np.int64).reshape(-1)
    planes = np.empty((length, rest.size), dtype=dtype)
    for t in range(length):
        rest, planes[t] = np.divmod(rest, p)
    return planes


def from_planes(planes: np.ndarray, p: int, dtype=np.int64) -> np.ndarray:
    """The indices whose digits (each below p) are the rows of planes, in
    dtype, which must hold them."""
    out = np.zeros(planes.shape[1:], dtype=dtype)
    for row in planes[::-1]:
        out *= p
        np.add(out, row, out=out, casting="unsafe")
    return out


def _plane_sum_dtype(p: int, length: int) -> np.dtype:
    """Narrowest unsigned dtype of a sum of `length` products of two digits
    below p: it holds length * (p - 1)^2."""
    return np.min_scalar_type(length * (p - 1) ** 2)


def matrix_apply(
    matrix: Sequence[Sequence[int]], vals: np.ndarray, p: int, in_len: int
) -> np.ndarray:
    """Encoded L*v for every entry of vals, in value_dtype(p^rows); matrix
    rows index output digits.  One plane product per _util.SCRATCH entries,
    summed in _plane_sum_dtype(p, in_len)."""
    if any(len(row) != in_len for row in matrix):
        raise ValueError(f"matrix rows must have {in_len} entries")
    dt = _plane_sum_dtype(p, in_len)
    mat = np.array([[int(c) % p for c in row] for row in matrix], dtype=dt).reshape(-1, in_len)
    flat = np.ravel(vals)
    out = np.empty(flat.size, dtype=value_dtype(p ** len(mat)))
    for lo in range(0, flat.size, _util.SCRATCH):
        planes = to_planes(flat[lo : lo + _util.SCRATCH], p, in_len, dt)
        prod = np.einsum("ij,jn->in", mat, planes)
        out[lo : lo + _util.SCRATCH] = from_planes(prod % p, p, out.dtype)
    return out.reshape(np.shape(vals))


def matrix_rank(matrix: Sequence[Sequence[int]], p: int) -> int:
    """Rank over F_p by Gaussian elimination on a copy."""
    rows = [[c % p for c in row] for row in matrix]
    if not rows:
        return 0
    cols = len(rows[0])
    rank = 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p) if p > 2 else 1
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DomainParams:
    """Shape (p, n, m) of a function F_p^n -> F_p^m."""

    p: int
    n: int
    m: int

    def __post_init__(self) -> None:
        p, n, m = self.p, self.n, self.m
        if n < 1 or m < 1:
            raise ValueError(f"dimensions must be >= 1, got n={n} m={m}")
        # each bound is checked before the power it guards, and all of them
        # before the primality test, so no header costs bigint arithmetic
        if p >= 2 and not (fits_int64(p) and max(n, m) < 62 and fits_int64(p ** max(n, m))):
            raise ValueError(f"p^n and p^m must stay below 2^62; got p={p} n={n} m={m}")
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")

    @property
    def domain_size(self) -> int:
        return self.p ** self.n

    @property
    def codomain_size(self) -> int:
        return self.p ** self.m


def value_dtype(codomain_size: int) -> np.dtype:
    """The one table dtype rule: the narrowest unsigned dtype holding codomain_size - 1."""
    return np.min_scalar_type(codomain_size - 1)


class FuncTable:
    """A function F_p^n -> F_p^m as the read-only array of output indices in
    value_dtype(p^m).  An integer array is validated as it is, by min() (if
    signed) and max(); a read-only one in that dtype is kept, not copied, so
    it must never change.  Anything numpy does not hold as 64-bit integers
    (floats, Python ints past 64 bits) is refused with ValueError.  Equality
    compares shape parameters and the table.
    """

    __slots__ = ("params", "values", "_planes")

    def __init__(self, params: DomainParams, values: Iterable[int] | np.ndarray):
        arr = np.asarray(values)
        if arr.dtype.kind not in "iu":
            # floats would truncate; an object array holds ints past 64 bits
            raise ValueError(f"table values must be 64-bit integers, got dtype {arr.dtype}")
        if arr.shape != (params.domain_size,):
            raise ValueError(
                f"expected {params.domain_size} values for p={params.p} n={params.n}, "
                f"got shape {arr.shape}"
            )
        signed = arr.dtype.kind == "i"
        if (signed and int(arr.min()) < 0) or int(arr.max()) >= params.codomain_size:
            bad = int(np.argmax((arr < 0) | (arr >= params.codomain_size)))
            raise ValueError(
                f"value {int(arr[bad])} at input {bad} is outside [0, {params.codomain_size})"
            )
        dt = value_dtype(params.codomain_size)
        if arr.dtype != dt or arr.flags.writeable:
            arr = arr.astype(dt)
            arr.setflags(write=False)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "_planes", None)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("FuncTable is immutable")

    def value(self, x: int) -> int:
        return int(self.values[x])

    def components(self, bs: Iterable[int] | np.ndarray) -> np.ndarray:
        """The (len(bs), p^n) values <b, F(x)> of the masks b in bs, in
        value_dtype(p): at p = 2 the parity of values & b in the table's
        dtype, at odd p the masks' digits times the cached digit planes."""
        p, m = self.params.p, self.params.m
        if p == 2:
            masked = self.values[None, :] & np.ravel(bs).astype(self.values.dtype)[:, None]
            return np.bitwise_count(masked) & np.uint8(1)
        if self._planes is None:
            # threads racing here build equal arrays, so no lock is needed
            planes = to_planes(self.values, p, m, value_dtype(p))
            planes.setflags(write=False)
            object.__setattr__(self, "_planes", planes)
        coeffs = np.array([digits(b, p, m) for b in np.ravel(bs).tolist()], _plane_sum_dtype(p, m))
        prod = np.einsum("ij,jn->in", coeffs.reshape(-1, m), self._planes)
        return (prod % p).astype(value_dtype(p), copy=False)

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def __iter__(self) -> Iterator[int]:
        return iter(self.values.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, FuncTable):
            return NotImplemented
        return self.params == other.params and bool(np.array_equal(self.values, other.values))

    def __hash__(self) -> int:
        return hash((self.params, self.values.tobytes()))

    def __repr__(self) -> str:
        pr = self.params
        return f"FuncTable(p={pr.p}, n={pr.n}, m={pr.m})"

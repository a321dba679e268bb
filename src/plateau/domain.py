"""Integer encodings for vectors over F_p and value tables of F: F_p^n -> F_p^m.

A vector (x_0, ..., x_{k-1}) over F_p is encoded as the index sum x_i * p**i,
so digit 0 is the least significant; for p = 2 the index is the familiar bit
mask and vector addition is XOR.  A function is stored as the array of output
indices in input-index order.

Odd-p digitwise subtraction of index arrays (vec_sub_arrays) never divides
digit by digit.  It reads a cached digit-group table: for g digits,
T[u * p^g + v] is the index of the digitwise difference u - v, with u and v
below p^g.  Length-k operands split into the fewest groups whose table has
at most _DIGIT_TABLE = 2^16 entries, g = ceil(k / groups) digits each, so
every table value is below p^g <= 2^8 and the table is uint8, 64 KiB at
most.  Each group costs one division of each operand by p^(g*i), before
the operands are broadcast together, and one gather; the gathered values are
widened to int64 before they are scaled by p^(g*i) and accumulated, since the
scaled values overflow any narrow dtype.  Primes with p^2 > 2^16 have no
table and keep the per-digit loop.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

_MAX_INDEX = 1 << 62


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


def from_digits(ds: Sequence[int], p: int) -> int:
    i = 0
    for d in reversed(ds):
        i = i * p + d
    return i


def vec_add(i: int, j: int, p: int, length: int) -> int:
    if p == 2:
        return i ^ j
    out = 0
    pk = 1
    for _ in range(length):
        out += ((i + j) % p) * pk
        i //= p
        j //= p
        pk *= p
    return out


def vec_neg(i: int, p: int, length: int) -> int:
    if p == 2:
        return i
    out = 0
    pk = 1
    for _ in range(length):
        out += ((p - i) % p) * pk
        i //= p
        pk *= p
    return out


def vec_sub(i: int, j: int, p: int, length: int) -> int:
    return vec_add(i, vec_neg(j, p, length), p, length)


def dot(i: int, j: int, p: int, length: int) -> int:
    """Coordinatewise scalar product <i, j> in F_p."""
    if p == 2:
        return (i & j).bit_count() & 1
    acc = 0
    for _ in range(length):
        acc += (i % p) * (j % p)
        i //= p
        j //= p
    return acc % p


# ---------------------------------------------------------------------------
# vectorized variants over numpy index arrays (exact int64 arithmetic)

# entries of one digit-group subtraction table (see the module docstring)
_DIGIT_TABLE = 1 << 16


def _group_digits(p: int, length: int) -> int:
    """Digits per group: ceil(length / groups) for the fewest groups whose
    table has at most _DIGIT_TABLE entries; 0 when even one digit has none."""
    g = 0
    while p ** (2 * (g + 1)) <= _DIGIT_TABLE:
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
    table = table.reshape(-1).astype(np.uint8)
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
            # widen before scaling: p^lo times a group overflows uint8
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


def dot_array(b: int, vals: np.ndarray, p: int, length: int) -> np.ndarray:
    """<b, vals[i]> for every entry, values in [0, p)."""
    if p == 2:
        return (np.bitwise_count(vals & b) & 1).astype(np.int64)
    acc = np.zeros_like(vals)
    bb = b
    pk = 1
    for _ in range(length):
        bd = bb % p
        if bd:
            acc += bd * ((vals // pk) % p)
        bb //= p
        pk *= p
    return acc % p


def matrix_apply(
    matrix: Sequence[Sequence[int]], vals: np.ndarray, p: int, in_len: int
) -> np.ndarray:
    """Encoded L*v for every entry of vals; matrix rows index output digits."""
    if any(len(row) != in_len for row in matrix):
        raise ValueError(f"matrix rows must have {in_len} entries")
    out = np.zeros_like(vals)
    for j, row in enumerate(matrix):
        out += dot_array(from_digits([c % p for c in row], p), vals, p, in_len) * p**j
    return out


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
        if p >= 2 and (p >= _MAX_INDEX or max(n, m) >= 62 or p ** max(n, m) >= _MAX_INDEX):
            raise ValueError(f"p^n and p^m must stay below 2^62; got p={p} n={n} m={m}")
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")

    @property
    def domain_size(self) -> int:
        return self.p ** self.n

    @property
    def codomain_size(self) -> int:
        return self.p ** self.m


class FuncTable:
    """A function F_p^n -> F_p^m as the int64 array of output indices.

    The array is held read-only; equality compares shape parameters and the
    full table.
    """

    __slots__ = ("params", "values")

    def __init__(self, params: DomainParams, values: Iterable[int] | np.ndarray):
        arr = np.asarray(values, dtype=np.int64)
        if arr.shape != (params.domain_size,):
            raise ValueError(
                f"expected {params.domain_size} values for p={params.p} n={params.n}, "
                f"got shape {arr.shape}"
            )
        if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= params.codomain_size):
            bad = int(np.argmax((arr < 0) | (arr >= params.codomain_size)))
            raise ValueError(
                f"value {int(arr[bad])} at input {bad} is outside [0, {params.codomain_size})"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("FuncTable is immutable")

    @classmethod
    def from_callable(cls, params: DomainParams, fn: Callable[[int], int]) -> "FuncTable":
        return cls(params, [fn(x) for x in range(params.domain_size)])

    def value(self, x: int) -> int:
        return int(self.values[x])

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

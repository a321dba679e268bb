"""Walsh transforms of p-ary and vectorial functions, in exact arithmetic.

W_F(b, a) = sum_x zeta^{<b,F(x)> - <a,x>} is a plain integer for p = 2 and an
element of Z[zeta_p] for odd p.  A row (fixed output mask b) is computed by
in-place butterflies: radix-4 Walsh-Hadamard stages on sign vectors for
p = 2, per-axis size-p DFTs for odd p.

Every p = 2 transform here is of +-1 sign rows of length 2^n or of preimage
counts totalling 2^n, so every value, intermediate ones included, has
magnitude at most 2^n.  One rule (_p2_dtype) turns that bound into the
narrowest dtype that holds it: int16 while n <= 14, int32 while n <= 30,
int64 while n <= 62, BudgetError beyond.

Odd-p intermediate values live in (size, p) int64 matrices of exponent
coefficients — entry [i, k] is the coefficient of zeta^k before
canonicalization — so multiplying by zeta^s is a cyclic shift along the last
axis; CycInt objects are materialized on access.

The zero column W_F(b, 0) over all b depends only on the value distribution
and is computed as the length-p^m transform of the preimage count vector,
never touching the full spectrum.

`walsh_point` is the deliberately naive direct summation used as the
reference oracle for every fast path.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from ._util import exact_sum
from .cyclotomic import CycInt
from .domain import DomainParams, FuncTable, dot, dot_array
from .errors import BudgetError, InternalCheckError


def component_values(table: FuncTable, b: int) -> np.ndarray:
    """<b, F(x)> for every x, values in [0, p)."""
    pr = table.params
    return dot_array(b, table.values, pr.p, pr.m)


def walsh_point(table: FuncTable, b: int, a: int) -> "int | CycInt":
    """Direct-summation W_F(b, a); the reference oracle, O(p^n) per call."""
    pr = table.params
    p = pr.p
    if p == 2:
        acc = 0
        for x in range(pr.domain_size):
            e = dot(b, table.value(x), 2, pr.m) ^ dot(a, x, 2, pr.n)
            acc += 1 - 2 * e
        return acc
    counts = [0] * p
    for x in range(pr.domain_size):
        e = (dot(b, table.value(x), p, pr.m) - dot(a, x, p, pr.n)) % p
        counts[e] += 1
    return CycInt.from_exponent_coeffs(p, counts)


# ---------------------------------------------------------------------------
# transform kernels

# fwht_last_axis: stages with stride h below _SHORT_STRIDE run block-major over
# blocks of _BLOCK entries, which keeps each block in cache
_SHORT_STRIDE = 8
_BLOCK = 1 << 12


def _p2_dtype(n: int) -> np.dtype:
    """Narrowest integer dtype for every p = 2 transform of a size-n table.

    The bound: each intermediate value of the transform of a +-1 sign row of
    length 2^n, or of preimage counts summing to 2^n, is a signed sum of
    entries whose magnitudes total 2^n, so its magnitude is at most 2^n.
    Hence int16 while n <= 14, int32 while n <= 30, int64 while n <= 62.
    """
    if n <= 14:
        return np.dtype(np.int16)
    if n <= 30:
        return np.dtype(np.int32)
    if n <= 62:
        return np.dtype(np.int64)
    raise BudgetError(f"p = 2 transforms at n={n} exceed the int64 budget")


def fwht_last_axis(arr: np.ndarray) -> np.ndarray:
    """In-place Walsh-Hadamard transform along the last axis (length 2^k).

    Radix-4 butterflies: each stage maps the quadruple (a, b, c, d) at
    stride h to (a+b+c+d, a-b+c-d, a+b-c-d, a-b-c+d), two radix-2 stages at
    once, written back through np.add/np.subtract with out=.  When k is odd
    one radix-2 stage runs first.  Every temporary is a value of some radix-2
    stage, so the arithmetic stays within the input's dtype whenever the
    final values do (the p = 2 bound is in _p2_dtype).  `arr` must be
    C-contiguous, so that the stage views write through to it.
    """
    size = arr.shape[-1]
    if size < 1 or size & (size - 1):
        raise ValueError(f"transform length {size} is not a power of two")
    if not arr.flags.c_contiguous:
        raise ValueError("fwht_last_axis needs a C-contiguous array")
    # a stage only mixes entries within aligned runs of 4h, which never cross
    # a row boundary, so the stages can work on the flat buffer
    flat = arr.reshape(-1)
    scratch = np.empty(flat.size // 2, dtype=arr.dtype)
    h = 1
    if (size.bit_length() - 1) % 2:
        a, b = flat[0::2], flat[1::2]
        np.subtract(a, b, out=scratch)
        np.add(a, b, out=a)
        np.copyto(b, scratch)
        h = 2
    quarter = flat.size // 4
    while h < size:
        if h < _SHORT_STRIDE:
            # run along the quadruples of one offset at a time, block by
            # block, instead of one inner loop of length h per quadruple
            width = min(size, _BLOCK)
            v = flat.reshape(-1, width // (4 * h), 4, h).swapaxes(1, 3)
            a, b, c, d = v[:, :, 0], v[:, :, 1], v[:, :, 2], v[:, :, 3]
            order = "C"
        else:
            v = flat.reshape(-1, 4, h)
            a, b, c, d = v[:, 0], v[:, 1], v[:, 2], v[:, 3]
            order = "K"
        s = scratch[:quarter].reshape(a.shape)
        t = scratch[quarter:].reshape(a.shape)
        np.add(a, b, out=s, order=order)
        np.subtract(a, b, out=t, order=order)
        np.add(c, d, out=a, order=order)
        np.subtract(c, d, out=b, order=order)
        np.subtract(s, a, out=c, order=order)
        np.subtract(t, b, out=d, order=order)
        np.add(s, a, out=a, order=order)
        np.add(t, b, out=b, order=order)
        h *= 4
    return arr


def _sign_transform(bits: np.ndarray, n: int) -> np.ndarray:
    """Transform of the sign rows (-1)^bits of length 2^n, in _p2_dtype(n)."""
    signs = bits.astype(_p2_dtype(n))
    signs *= -2
    signs += 1
    return fwht_last_axis(signs)


def dft_p_axes(mat: np.ndarray, p: int, axes: int, sign: int) -> np.ndarray:
    """Size-p DFT with kernel zeta^(sign*j*t) over each of `axes` base-p axes.

    mat has shape (p^axes, p): rows indexed by the point, columns by the
    exponent coefficient.  Exact integer arithmetic throughout.
    """
    for k in range(axes):
        stride = p ** k
        v = mat.reshape(-1, p, stride, p)
        out = np.zeros_like(v)
        for j in range(p):
            for t in range(p):
                s = (sign * j * t) % p
                seg = v[:, t, :, :]
                out[:, j, :, :] += np.roll(seg, s, axis=-1) if s else seg
        mat = out.reshape(-1, p)
    return mat


def _exponent_one_hot(evec: np.ndarray, p: int) -> np.ndarray:
    out = np.zeros((evec.shape[0], p), dtype=np.int64)
    out[np.arange(evec.shape[0]), evec] = 1
    return out


def _sq_mod_coeffs(mat: np.ndarray) -> np.ndarray:
    """Coefficient matrix of W * conj(W) per row, in exponent coordinates."""
    p = mat.shape[1]
    out = np.empty_like(mat)
    for k in range(p):
        out[:, k] = (mat * np.roll(mat, k, axis=1)).sum(axis=1)
    return out


def _guard_int64(p: int, n: int) -> None:
    # squared-modulus coefficients are bounded by p^(2n+1)
    if p ** (2 * n + 1) >= 1 << 62:
        raise BudgetError(f"odd-p spectra at p={p}, n={n} exceed the int64 budget")


def _canonical_int_from_coeff_sums(p: int, sums: list[int], what: str) -> int:
    if any(sums[k] != sums[1] for k in range(2, p)):
        raise InternalCheckError(f"{what} is not a rational integer: {sums}")
    return sums[0] - sums[1]


# ---------------------------------------------------------------------------

class WalshRow:
    """One spectrum row W_F(b, ·) with exact accessors."""

    __slots__ = ("p", "n", "b", "data")

    def __init__(self, p: int, n: int, b: int, data: np.ndarray):
        self.p = p
        self.n = n
        self.b = b
        self.data = data

    def value(self, a: int) -> "int | CycInt":
        if self.p == 2:
            return int(self.data[a])
        return CycInt.from_exponent_coeffs(self.p, self.data[a].tolist())

    def values(self) -> list:
        if self.p == 2:
            return [int(v) for v in self.data.tolist()]
        return [CycInt.from_exponent_coeffs(self.p, row) for row in self.data.tolist()]

    def sq_modulus_profile(self) -> tuple[np.ndarray, np.ndarray]:
        """(rational_mask, sq) with sq[i] = |W(b,i)|^2 where rational, else 0.

        For odd p a squared modulus can be a non-rational element of
        Z[zeta_p]; such entries are reported False in the mask.
        """
        if self.p == 2:
            sq = self.data.astype(np.int64) ** 2
            return np.ones(sq.shape, dtype=bool), sq
        m = _sq_mod_coeffs(self.data)
        rational = np.all(m[:, 1:] == m[:, 1:2], axis=1)
        sq = m[:, 0] - m[:, 1]
        sq[~rational] = 0
        return rational, sq

    def parseval_sum(self) -> int:
        """Sum of |W(b,a)|^2 over a, exact; equals p^(2n) for any input."""
        if self.p == 2:
            bits = 2 * self.n + 1
            total = 0
            chunk = 1 << 20
            for lo in range(0, self.data.shape[0], chunk):
                seg = self.data[lo : lo + chunk].astype(np.int64)
                total += exact_sum(seg * seg, bits)
            return total
        m = _sq_mod_coeffs(self.data)
        bits = (self.p ** (2 * self.n + 1)).bit_length()
        sums = [exact_sum(m[:, k], bits) for k in range(self.p)]
        return _canonical_int_from_coeff_sums(self.p, sums, "Parseval sum")

    def support_count(self) -> int:
        """Number of a with W(b,a) != 0."""
        if self.p == 2:
            return int(np.count_nonzero(self.data))
        zero = np.all(self.data == self.data[:, :1], axis=1)
        return int(self.data.shape[0] - np.count_nonzero(zero))

    def __len__(self) -> int:
        return int(self.data.shape[0])


def walsh_row(table: FuncTable, b: int) -> WalshRow:
    """Full spectrum row for output mask b via fast butterflies."""
    pr = table.params
    p, n = pr.p, pr.n
    if p == 2:
        return WalshRow(2, n, b, _sign_transform(component_values(table, b), n))
    _guard_int64(p, n)
    evec = component_values(table, b)
    mat = _exponent_one_hot(evec, p)
    return WalshRow(p, n, b, dft_p_axes(mat, p, n, sign=-1))


def walsh_rows_signs_p2(table: FuncTable, bs: np.ndarray) -> np.ndarray:
    """Batched transformed rows for p=2: (len(bs), 2^n) in _p2_dtype(n).

    Entries are bounded by 2^n in magnitude: int16 while n <= 14, int32
    while n <= 30.  Batches beyond n = 30 are refused.
    """
    pr = table.params
    if pr.p != 2:
        raise ValueError("batched sign rows are a p=2 path")
    if pr.n > 30:
        raise BudgetError("batched rows beyond n=30 exceed the int32 budget")
    fb = np.bitwise_count(table.values[None, :] & bs[:, None]) & np.uint8(1)
    return _sign_transform(fb, pr.n)


class ZeroColumn:
    """The vector W_F(b, 0) over all output masks b."""

    __slots__ = ("p", "n", "m", "data")

    def __init__(self, p: int, n: int, m: int, data: np.ndarray):
        self.p = p
        self.n = n
        self.m = m
        self.data = data

    def value(self, b: int) -> "int | CycInt":
        if self.p == 2:
            return int(self.data[b])
        return CycInt.from_exponent_coeffs(self.p, self.data[b].tolist())

    def values(self) -> list:
        if self.p == 2:
            return [int(v) for v in self.data.tolist()]
        return [CycInt.from_exponent_coeffs(self.p, row) for row in self.data.tolist()]

    def sum_all(self) -> int:
        """Sum of W(b,0) over every b; equals p^m * |F^{-1}(0)| exactly."""
        bits = (self.p ** self.n).bit_length() + 1
        if self.p == 2:
            return exact_sum(self.data, bits)
        sums = [exact_sum(self.data[:, k], bits) for k in range(self.p)]
        return _canonical_int_from_coeff_sums(self.p, sums, "zero-column sum")

    def sq_sum_nonzero(self) -> int:
        """Sum of |W(b,0)|^2 over b != 0, exact."""
        if self.p == 2:
            total = 0
            chunk = 1 << 20
            for lo in range(1, self.data.shape[0], chunk):
                seg = self.data[lo : lo + chunk].astype(np.int64)
                total += exact_sum(seg * seg, 2 * self.n + 1)
            return total
        _guard_int64(self.p, self.n)
        mat = self.data[1:]
        bits = (self.p ** (2 * self.n + 1)).bit_length()
        sums = []
        for k in range(self.p):
            sums.append(exact_sum((mat * np.roll(mat, k, axis=1)).sum(axis=1), bits))
        return _canonical_int_from_coeff_sums(self.p, sums, "zero-column square sum")

    def __len__(self) -> int:
        return int(self.data.shape[0])


def zero_column(table: FuncTable, counts: Optional[np.ndarray] = None) -> ZeroColumn:
    """W_F(b, 0) for all b from the preimage counts: O(p^n + m * p^(m+1)).

    `counts` are the table's preimage counts (PreimageDist.counts) when the
    caller already holds them; otherwise they are counted here.  For p = 2
    the transform runs in _p2_dtype(n): the counts total 2^n, which bounds
    every value of the transform.
    """
    pr = table.params
    p, n, m = pr.p, pr.n, pr.m
    if counts is None:
        counts = np.bincount(table.values, minlength=pr.codomain_size)
    elif (
        counts.shape != (pr.codomain_size,)
        or int(counts.min()) < 0
        or int(counts.sum()) != pr.domain_size
    ):
        raise ValueError(f"counts are not the preimage counts of {table!r}")
    if p == 2:
        return ZeroColumn(2, n, m, fwht_last_axis(counts.astype(_p2_dtype(n))))
    _guard_int64(p, n)
    mat = np.zeros((pr.codomain_size, p), dtype=np.int64)
    mat[:, 0] = counts
    return ZeroColumn(p, n, m, dft_p_axes(mat, p, m, sign=+1))


def spectrum_rows(table: FuncTable) -> Iterator[WalshRow]:
    """All rows in b-major order, including b = 0."""
    for b in range(table.params.codomain_size):
        yield walsh_row(table, b)

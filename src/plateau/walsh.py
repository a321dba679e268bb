"""Walsh transforms of p-ary and vectorial functions, in exact arithmetic.

W_F(b, a) = sum_x zeta^{<b,F(x)> - <a,x>} is a plain integer for p = 2 and an
element of Z[zeta_p] for odd p, handled only through its coordinates on the
basis 1, zeta, ..., zeta^(p-2) (Python ints or numpy arrays, never a ring
object).  A row (fixed output mask b) is computed by in-place radix-4
Walsh-Hadamard butterflies on sign vectors for p = 2 and by one size-p DFT
per base-p axis for odd p.

Every transform here, at every p, runs in signed_dtype(p^n), the narrowest
of int16, int32 and int64 that holds p^n.  Each value it holds, intermediate
ones included, is a signed sum of counts of inputs x totalling p^n, so its
magnitude is at most p^n: +-1 sign rows of length 2^n and preimage counts at
p = 2, nonnegative exponent counts at odd p.  preimage_distribution keeps the
counts in that dtype, so the zero column is transformed without a cast.
Component values <b, F(x)> come from FuncTable.components.  Squared moduli
are widened to int64, or to Python ints past _util.fits_int64; odd-p
squared-modulus coefficients are at most p^(2n+1), which _guard_int64 holds
to fits_int64.

The p = 2 transform (fwht_last_axis) runs every stage that fits in a block
of 4 * _util.SCRATCH entries block by block, then the longer stages in
quarter-block chunks, through one half-block scratch buffer.  Blocking only
reorders butterflies, each still writing a value of a partial transform, so
the p^n bound holds.

Odd-p values live in (size, p) matrices of exponent coefficients: entry
[i, k] is the coefficient of zeta^k before canonicalization.  The DFT along
one axis (dft_p_axes) is a gather: output coefficient k at frequency j is
the sum over positions t of input coefficient k - j*t (mod p), read straight
from the untransposed input (at p >= 41, from a row written out twice);
takes are sized by _util.SCRATCH.

Rows and the zero column are returned as WalshVector, the one type that
knows this layout and the p = 2 / odd-p split: callers ask it for basis
coordinates, rational integers, squared moduli and exact sums of squared
moduli, and never index its storage.

The zero column W_F(b, 0) over all b depends only on the value distribution
and is computed as the length-p^m transform of the preimage count vector,
never touching the full spectrum, once per table (PreimageDist.zero_col).
The column of F - beta is that one times zeta^(-<b, beta>) (rotated).

The reference oracle for every fast path is the direct summation in
tests/oracles.py (walsh_counts), which shares no code with this module.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _util
from ._util import exact_sum, fits_int64
from .domain import FuncTable
from .errors import BudgetError, InternalCheckError

if TYPE_CHECKING:
    from .distribution import PreimageDist


# ---------------------------------------------------------------------------
# transform kernels

# fwht_last_axis: in-block stages of stride h < _SHORT_STRIDE run along the
# quadruples of one offset at a time, not an inner loop of length h each
_SHORT_STRIDE = 8


def signed_dtype(bound: int) -> np.dtype:
    """Narrowest of int16, int32, int64 holding magnitudes up to `bound`."""
    for dt in map(np.dtype, (np.int16, np.int32, np.int64)):
        if bound <= np.iinfo(dt).max:
            return dt
    raise BudgetError(f"values of magnitude up to {bound} exceed the int64 budget")


def _butterfly4(quad: np.ndarray, pair: np.ndarray) -> None:
    """Radix-4 butterfly in place: the views (a, b, c, d) stacked in quad
    become (a+b+c+d, a-b+c-d, a+b-c-d, a-b-c+d), through the two scratch
    arrays stacked in pair.  C order, so that a transposed view is walked
    along its last (long) axis."""
    a, b, c, d = quad
    s, t = pair
    np.add(a, b, out=s, order="C")
    np.subtract(a, b, out=t, order="C")
    np.add(c, d, out=a, order="C")
    np.subtract(c, d, out=b, order="C")
    np.subtract(s, a, out=c, order="C")
    np.subtract(t, b, out=d, order="C")
    np.add(s, a, out=a, order="C")
    np.add(t, b, out=b, order="C")


def fwht_last_axis(arr: np.ndarray) -> np.ndarray:
    """In-place Walsh-Hadamard transform along the last axis (length 2^k).

    Radix-4 stages: the stage at stride h maps each quadruple (a, b, c, d)
    at stride h to (a+b+c+d, a-b+c-d, a+b-c-d, a-b-c+d) and mixes only runs
    of 4h entries (its span), never crossing a row.  When k is odd one
    radix-2 stage runs first.  With B = 4 * _util.SCRATCH rounded down to a
    power of two, each block of B entries (whole rows when rows are shorter)
    runs every stage of span <= B while it is in cache; each longer stage
    then passes over the array in chunks of B/4 entries per quadruple
    member.  One scratch buffer of B/2 entries serves both phases.  Blocking
    only reorders butterflies, each writing a value of a partial transform,
    so the arithmetic stays within the input's dtype whenever the final
    values do (the p = 2 bound is in the module docstring).  `arr` must be
    C-contiguous, so that the stage views write through to it.
    """
    size = arr.shape[-1]
    if size < 1 or size & (size - 1):
        raise ValueError(f"transform length {size} is not a power of two")
    if not arr.flags.c_contiguous:
        raise ValueError("fwht_last_axis needs a C-contiguous array")
    flat = arr.reshape(-1)
    block = 1 << (_util.SCRATCH.bit_length() + 1)
    scratch = np.empty(min(block, flat.size) // 2, dtype=arr.dtype)
    odd = (size.bit_length() - 1) % 2
    # strides of the radix-4 stages whose span fits in a block
    inner, h = [], 1 + odd
    while 4 * h <= min(size, block):
        inner.append(h)
        h *= 4
    for lo in range(0, flat.size, block):
        blk = flat[lo : lo + block]
        if odd:
            a, b, t = blk[0::2], blk[1::2], scratch[: blk.size // 2]
            np.subtract(a, b, out=t)
            np.add(a, b, out=a)
            np.copyto(b, t)
        for hs in inner:
            v = blk.reshape(-1, 4, hs)
            v = v.transpose(1, 2, 0) if hs < _SHORT_STRIDE else v.swapaxes(0, 1)
            _butterfly4(v, scratch[: blk.size // 2].reshape(2, *v.shape[1:]))
    quarter = block // 4
    while h < size:
        v = flat.reshape(-1, 4, h)
        for g in range(v.shape[0]):
            for lo in range(0, h, quarter):
                _butterfly4(v[g, :, lo : lo + quarter], scratch.reshape(2, quarter))
        h *= 4
    return arr


def _sign_transform(bits: np.ndarray, size: int) -> np.ndarray:
    """Transform of the sign rows (-1)^bits of length size = 2^n, in signed_dtype(size)."""
    signs = bits.astype(signed_dtype(size))
    signs *= -2
    signs += 1
    return fwht_last_axis(signs)


@functools.lru_cache(maxsize=16)
def _dft_take_index(p: int, sign: int, rest: int, rows: int) -> np.ndarray:
    """idx[t, (r, j, k)] = (t*rest + r)*p + (k - sign*j*t) % p for r < rows:
    where, in the flat (p, rest, p) input, output coefficient k of frequency
    j of row r reads input coefficient k - sign*j*t of position t."""
    t, r, j, k = np.ix_(range(p), range(rows), range(p), range(p))
    # built in place where it can be, so that at most one temporary of the
    # index's size sits beside it
    idx = k - sign * j * t
    idx %= p
    # left writable: np.take copies a read-only index on every call
    return (idx + (t * rest + r) * p).reshape(p, -1)


@functools.lru_cache(maxsize=None)
def _window_starts(p: int, sign: int) -> np.ndarray:
    """starts[t, j] = 2p*t + p - (sign*j*t) % p: where, in p vectors of p
    coefficients each written out twice, vector t rotated by sign*j*t begins."""
    t, j = np.ix_(range(p), range(p))
    starts = 2 * p * t + p - (sign * j * t) % p
    starts.setflags(write=False)
    return starts


def dft_p_axes(mat: np.ndarray, p: int, axes: int, sign: int) -> np.ndarray:
    """Size-p DFT with kernel zeta^(sign*j*t) over each of `axes` base-p axes.

    mat has shape (p^axes, p): rows indexed by the point, columns by the
    exponent coefficient; the result is a new array of that shape and dtype.
    Each step transforms the top base-p axis and emits it as the bottom one,
    so after `axes` steps the original order is back.  A step reads the
    C-contiguous input as a flat (p, rest, p) array (position t, row r,
    coefficient e), with no transposed copy: output coefficient k of
    frequency j of row r is the sum over t of input coefficient k - sign*j*t.
    While p^3 <= _util.SCRATCH that is one take per block of SCRATCH // p^3
    rows, through the cached index of _dft_take_index into a (p, rows*p*p)
    buffer, and one np.add.reduce over t; the block at row lo takes from the
    view flat[lo*p:], so one index serves every block of every step.  Past
    that (p >= 41) the index would outgrow SCRATCH, so a row's p vectors are
    written out twice, where each rotation is a window, and each set of
    max(1, SCRATCH // p^2) frequencies is one gather of the windows at
    _window_starts, reduced over t.  No index is built per row or set.

    Bounds: a step only adds nonnegative exponent counts, so every entry
    stays at most the sum of the input (p^n for walsh_row and zero_column,
    held in signed_dtype(p^n)); _guard_int64 bounds the squared moduli taken
    afterwards.  A take or gather holds at most max(p^2, SCRATCH) entries;
    besides it a transform needs its input, two output buffers and, past
    p^3 > SCRATCH, the (p, 2p) row buffer and the (p, p) starts."""
    rest = mat.shape[0] // p
    # the steps alternate between two output buffers
    flat = mat.reshape(-1)
    spare = [np.empty_like(flat) for _ in range(min(axes, 2))]
    if p**3 <= _util.SCRATCH:
        block = min(rest, _util.SCRATCH // p**3)
        idx = _dft_take_index(p, sign, rest, block)
        # one gather buffer for every take: a fresh one per take can cost a
        # heap trim and page faults each time
        taken = np.empty(idx.size, dtype=mat.dtype)
        for step in range(axes):
            out = spare[step % 2]
            for lo in range(0, rest, block):
                width = min(block, rest - lo) * p * p
                buf = taken[: p * width].reshape(p, width)
                # every index is in range; mode="clip" only skips the
                # buffered copy that out= costs under mode="raise"
                flat[lo * p :].take(idx[:, :width], out=buf, mode="clip")
                np.add.reduce(buf, axis=0, out=out[lo * p * p : lo * p * p + width])
            flat = out
        return flat.reshape(-1, p)
    span, starts = max(1, _util.SCRATCH // (p * p)), _window_starts(p, sign)
    twice = np.empty((p, 2, p), dtype=mat.dtype)
    windows = sliding_window_view(twice.reshape(-1), p)
    for step in range(axes):
        src, out = flat.reshape(p, rest, p), spare[step % 2].reshape(rest, p, p)
        for r in range(rest):
            twice[:] = src[:, r, None]
            for js in (slice(j0, j0 + span) for j0 in range(0, p, span)):
                np.add.reduce(windows[starts[:, js]], axis=0, out=out[r, js])
        flat = out.reshape(-1)
    return flat.reshape(-1, p)


def _sq_mod_coeffs(mat: np.ndarray) -> np.ndarray:
    """Coefficient matrix of W * conj(W) per row, in exponent coordinates:
    entry k is the sum over i of mat[i] * mat[i + k], indices mod p.  One
    einsum, exact in int64 and on object (Python-int) arrays alike."""
    return np.einsum("ni,nki->nk", mat, mat[:, _shift_index(mat.shape[1])])


@functools.lru_cache(maxsize=None)
def _shift_index(p: int) -> np.ndarray:
    """idx[k, i] = (i + k) % p."""
    idx = np.add.outer(np.arange(p), np.arange(p)) % p
    idx.setflags(write=False)
    return idx


def _guard_int64(p: int, n: int) -> None:
    # squared-modulus coefficients are bounded by p^(2n+1)
    if not fits_int64(p ** (2 * n + 1)):
        raise BudgetError(f"odd-p spectra at p={p}, n={n} exceed the int64 budget")


# ---------------------------------------------------------------------------

class WalshVector:
    """Exact Walsh values along one axis: a spectrum row W_F(b, ·) or the
    zero column W_F(·, 0).

    Every value is a sum of p^n p-th roots of unity (|W|^2 of a vector at n
    is one at 2n).  The storage layout is private to this class: a 1-D
    integer array at p = 2, an (N, p) matrix of exponent coefficients for
    odd p.  Only basis_coords, sq_moduli and rotated read it; integers and
    the exact sums work on the basis coordinates.  Squares and squared
    moduli stay in int64 while _fits_int64 says so and switch to Python ints
    (object arrays) beyond.
    """

    __slots__ = ("p", "n", "data")

    def __init__(self, p: int, n: int, data: np.ndarray):
        self.p = p
        self.n = n
        self.data = data

    def basis_coords(self) -> np.ndarray:
        """(N, p - 1) coordinates on the basis 1, zeta, ..., zeta^(p-2); one
        column holding the value itself at p = 2."""
        if self.p == 2:
            return self.data.reshape(-1, 1)
        return self.data[:, : self.p - 1] - self.data[:, self.p - 1 :]

    def _fits_int64(self) -> bool:
        """Whether a squared-modulus coefficient, at most p^(2n), stays in
        int64 with the headroom the exact sums use."""
        return fits_int64(self.p ** (2 * self.n + 3))

    def sq_moduli(self) -> "WalshVector":
        """The vector of |v_i|^2, exact; for odd p an entry can be a
        non-rational element of Z[zeta_p]."""
        wide = self.data.astype(np.int64 if self._fits_int64() else object, copy=False)
        if self.p == 2:
            return WalshVector(2, 2 * self.n, wide * wide)
        return WalshVector(self.p, 2 * self.n, _sq_mod_coeffs(wide))

    def sq_slices(self) -> Iterator["WalshVector"]:
        """|v_i|^2 as consecutive vectors of _util.SCRATCH entries (the last
        one shorter), so that no caller widens the whole vector at once."""
        step = _util.SCRATCH
        for lo in range(0, len(self), step):
            yield WalshVector(self.p, self.n, self.data[lo : lo + step]).sq_moduli()

    def sq_total(self) -> int:
        """Sum of |v_i|^2, exact, slice by slice: p^(2n) for a spectrum row by
        Parseval, and rational for the zero column.  Raises
        InternalCheckError when the sum is not a rational integer."""
        return rational_sum(self.p, self.sq_slices(), "sum of squared moduli")

    def integers(self) -> tuple[np.ndarray, np.ndarray]:
        """(rational, ints): rational[i] says entry i is a rational integer,
        ints[i] is its value there and 0 elsewhere.  At p = 2 ints is a view
        of the stored values, so callers must not write to it."""
        coords = self.basis_coords()
        rational = ~np.any(coords[:, 1:], axis=1)
        ints = coords[:, 0] if rational.all() else np.where(rational, coords[:, 0], 0)
        return rational, ints

    def rotated(self, exps: np.ndarray) -> "WalshVector":
        """The vector whose entry i is v_i * zeta^exps[i], exps in [0, p);
        zeta = -1 at p = 2."""
        if self.p == 2:
            return WalshVector(2, self.n, np.where(exps == 0, self.data, -self.data))
        # the coefficient of zeta^k moves to zeta^(k + e)
        shift = (np.arange(self.p) - exps[:, None]) % self.p
        return WalshVector(self.p, self.n, np.take_along_axis(self.data, shift, axis=1))

    def __len__(self) -> int:
        return int(self.data.shape[0])


def _exact_coords(p: int, vecs: Iterable[WalshVector]) -> list[int]:
    """The p - 1 basis coordinates of the sum of every entry of every vector,
    exact Python ints."""
    sums = [0] * (p - 1)
    for vec in vecs:
        coords = vec.basis_coords()
        bits = (p**vec.n).bit_length() + 1
        sums = [s + exact_sum(coords[:, k], bits) for k, s in enumerate(sums)]
    return sums


def rational_sum(p: int, vecs: Iterable[WalshVector], what: str) -> int:
    """The sum of every entry of every vector, exact; InternalCheckError,
    naming `what`, when it is not a rational integer."""
    coords = _exact_coords(p, vecs)
    if any(coords[1:]):
        raise InternalCheckError(f"{what} is not a rational integer: basis coordinates {coords}")
    return coords[0]


def walsh_row(table: FuncTable, b: int) -> WalshVector:
    """Full spectrum row for output mask b via fast butterflies."""
    pr = table.params
    p, n = pr.p, pr.n
    evec = table.components([b])[0]
    if p == 2:
        return WalshVector(2, n, _sign_transform(evec, pr.domain_size))
    _guard_int64(p, n)
    mat = np.zeros((pr.domain_size, p), dtype=signed_dtype(pr.domain_size))
    mat[np.arange(pr.domain_size), evec] = 1
    return WalshVector(p, n, dft_p_axes(mat, p, n, sign=-1))


def walsh_rows_signs_p2(table: FuncTable, bs: np.ndarray) -> np.ndarray:
    """Batched transformed rows for p=2: (len(bs), 2^n) in signed_dtype(2^n)."""
    pr = table.params
    if pr.p != 2:
        raise ValueError("batched sign rows are a p=2 path")
    return _sign_transform(table.components(bs), pr.domain_size)


def zero_column(dist: "PreimageDist") -> WalshVector:
    """W_F(b, 0) for all b from the preimage counts of F: O(m * p^(m+1)).

    The transform runs in the counts' own dtype, signed_dtype(p^n) (see the
    module docstring), so the counts are copied without a cast.
    """
    pr = dist.params
    p, n, m = pr.p, pr.n, pr.m
    if p == 2:
        return WalshVector(2, n, fwht_last_axis(dist.counts.copy()))
    _guard_int64(p, n)
    mat = np.zeros((pr.codomain_size, p), dtype=dist.counts.dtype)
    mat[:, 0] = dist.counts
    return WalshVector(p, n, dft_p_axes(mat, p, m, sign=+1))


def spectrum_rows(table: FuncTable) -> Iterator[WalshVector]:
    """All rows in b-major order, including b = 0."""
    for b in range(table.params.codomain_size):
        yield walsh_row(table, b)

"""Walsh transforms of p-ary and vectorial functions, in exact arithmetic.

W_F(b, a) = sum_x zeta^{<b,F(x)> - <a,x>} is a plain integer for p = 2 and an
element of Z[zeta_p] for odd p.  A row (fixed output mask b) is computed by
in-place radix-4 Walsh-Hadamard butterflies on sign vectors for p = 2 and by
one size-p DFT per base-p axis for odd p.

Every p = 2 transform here is of +-1 sign rows of length 2^n or of preimage
counts totalling 2^n, so every value, intermediate ones included, has
magnitude at most 2^n.  One rule (_p2_dtype) turns that bound into the
narrowest dtype that holds it: int16 while n <= 14, int32 while n <= 30,
int64 while n <= 62, BudgetError beyond.

Odd-p intermediate values live in (size, p) int64 matrices of exponent
coefficients: entry [i, k] is the coefficient of zeta^k before
canonicalization.  The DFT along one axis (dft_p_axes) is a gather: output
coefficient k at frequency j is the sum over positions t of input coefficient
k - j*t (mod p), read straight from the untransposed input through one cached
flat index, so each axis costs a fixed number of numpy calls whatever p is.
The coefficients are exponent counts, nonnegative and totalling p^n, and
squared-modulus coefficients are at most p^(2n+1); _guard_int64 refuses
p^(2n+1) >= 2^62.  The index and the gathered values cover blocks of rows of
at most _DFT_SCRATCH entries each (p^3 when one row is larger), so a
transform needs its input, two output buffers, one index and one block.

Rows and the zero column are returned as WalshVector, the one type that
knows this layout and the p = 2 / odd-p split: callers ask it for values
(int or CycInt), rational integers, squared moduli, exact sums, support
counts and basis coordinates, and never index its storage.

The zero column W_F(b, 0) over all b depends only on the value distribution
and is computed as the length-p^m transform of the preimage count vector,
never touching the full spectrum, once per table (PreimageDist.zero_col).
The column of F - beta is that one times zeta^(-<b, beta>) (rotated).

`walsh_point` is the deliberately naive direct summation used as the
reference oracle for every fast path.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Iterator

import numpy as np

from ._util import exact_square_sum, exact_sum
from .cyclotomic import CycInt
from .domain import DomainParams, FuncTable, dot, dot_array
from .errors import BudgetError

if TYPE_CHECKING:
    from .distribution import PreimageDist


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


# dft_p_axes: entries of the flat take index, and of the gathered block, per
# block of rows
_DFT_SCRATCH = 1 << 16


@functools.lru_cache(maxsize=16)
def _dft_take_index(p: int, sign: int, rest: int, rows: int) -> np.ndarray:
    """idx[t, (r, j, k)] = (t*rest + r)*p + (k - sign*j*t) % p for r < rows:
    where, in the flat (p, rest, p) input, output coefficient k of frequency
    j of row r reads input coefficient k - sign*j*t of position t."""
    t, r, j, k = np.ix_(range(p), range(rows), range(p), range(p))
    # built in place where it can be, so that at most one p^3 temporary
    # sits beside the index
    idx = k - sign * j * t
    idx %= p
    # left writable: np.take copies a read-only index on every call
    return (idx + (t * rest + r) * p).reshape(p, -1)


def dft_p_axes(mat: np.ndarray, p: int, axes: int, sign: int) -> np.ndarray:
    """Size-p DFT with kernel zeta^(sign*j*t) over each of `axes` base-p axes.

    mat has shape (p^axes, p): rows indexed by the point, columns by the
    exponent coefficient; the result is a new array of that shape and dtype.
    Each step transforms the top base-p axis and emits it as the bottom one,
    so after `axes` steps the original order is back.  A step reads the
    C-contiguous input as a flat (p, rest, p) array (position t, row r,
    coefficient e), with no transposed copy, through the flat index of
    _dft_take_index: block by block over `rest` it is one take into a
    (p, rows*p*p) buffer and one np.add.reduce over t, so output coefficient
    k of frequency j of row r is the sum over t of input coefficient
    k - sign*j*t.  The block starting at row lo takes from the view
    flat[lo*p:], so one index serves every block and every step.  That is
    two numpy calls per block, whatever p is.

    Bounds: a step only adds nonnegative exponent counts, so every entry
    stays at most the sum of the input (p^n for walsh_row and zero_column)
    and int64 cannot overflow; _guard_int64 bounds the squared moduli taken
    afterwards.  A row of a block is p^3 index entries and p^3 gathered
    values; blocks have max(1, _DFT_SCRATCH // p^3) rows, so the index and
    the gather buffer each hold at most max(p^3, _DFT_SCRATCH) entries.  The
    steps alternate between two output buffers, so a transform needs its
    input, those two, one index and one gather buffer.  The index cache holds
    16 indices.
    """
    rest = mat.shape[0] // p
    block = min(rest, max(1, _DFT_SCRATCH // p**3))
    idx = _dft_take_index(p, sign, rest, block)
    # one gather buffer for every block and step: a fresh one per block can
    # cost a heap trim and page faults each time
    taken = np.empty(idx.size, dtype=mat.dtype)
    blocks = []  # (first row, index, gather buffer) per block
    for lo in range(0, rest, block):
        width = min(block, rest - lo) * p * p
        part = idx if width == idx.shape[1] else idx[:, :width]
        blocks.append((lo, part, taken[: p * width].reshape(p, width)))
    # the steps alternate between two output buffers
    flat = mat.reshape(-1)
    spare = [np.empty_like(flat) for _ in range(min(axes, 2))]
    for step in range(axes):
        out = spare[step % 2]
        for lo, part, buf in blocks:
            # every index is in range; mode="clip" only skips the buffered
            # copy that out= costs under mode="raise"
            flat[lo * p :].take(part, out=buf, mode="clip")
            np.add.reduce(buf, axis=0, out=out[lo * p * p : lo * p * p + buf.shape[1]])
        flat = out
    return flat.reshape(-1, p)


def _exponent_one_hot(evec: np.ndarray, p: int) -> np.ndarray:
    out = np.zeros((evec.shape[0], p), dtype=np.int64)
    out[np.arange(evec.shape[0]), evec] = 1
    return out


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
    if p ** (2 * n + 1) >= 1 << 62:
        raise BudgetError(f"odd-p spectra at p={p}, n={n} exceed the int64 budget")


# ---------------------------------------------------------------------------

class WalshVector:
    """Exact Walsh values along one axis: a spectrum row W_F(b, ·) or the
    zero column W_F(·, 0).

    Every value is a sum of p^n p-th roots of unity (|W|^2 of a vector at n
    is one at 2n).  The storage layout is private to this class: a 1-D
    integer array at p = 2, an (N, p) matrix of exponent coefficients for
    odd p.  Only basis_coords, sq_moduli and rotated read it; every other
    accessor works on the basis coordinates.  Squares and squared moduli stay
    in int64 while _fits_int64 says so and switch to Python ints (object
    arrays) beyond.
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
        """Whether a square (p = 2) or a squared-modulus coefficient (odd p),
        at most p^(2n), fits int64 with the headroom the exact sums use."""
        if self.p == 2:
            return 2 * self.n + 1 <= 63
        return self.p ** (2 * self.n + 3) < 1 << 62

    def sq_moduli(self) -> "WalshVector":
        """The vector of |v_i|^2, exact; for odd p an entry can be a
        non-rational element of Z[zeta_p]."""
        wide = self.data.astype(np.int64 if self._fits_int64() else object, copy=False)
        if self.p == 2:
            return WalshVector(2, 2 * self.n, wide * wide)
        return WalshVector(self.p, 2 * self.n, _sq_mod_coeffs(wide))

    def sq_total(self) -> "int | CycInt":
        """Sum of |v_i|^2, exact; a Python int when rational (always for a
        spectrum row, p^(2n) by Parseval, and for the zero column)."""
        if self.p == 2 and self._fits_int64():
            # squared in 2^20-entry chunks, never widening the whole vector
            return exact_square_sum(self.data, 2 * self.n + 1)
        return self.sq_moduli().total()

    def total(self) -> "int | CycInt":
        """Sum of the values, exact: a Python int when rational, else a
        CycInt.  For the zero column it is p^m * |F^{-1}(0)|."""
        coords = self.basis_coords()
        bits = (self.p ** self.n).bit_length() + 1
        v = CycInt(self.p, [exact_sum(coords[:, k], bits) for k in range(self.p - 1)])
        return v.coeffs[0] if v.is_rational() else v

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

    def support_count(self) -> int:
        """Number of nonzero entries."""
        return int(np.count_nonzero(np.any(self.basis_coords(), axis=1)))

    def value(self, i: int) -> "int | CycInt":
        """Entry i: an int at p = 2, a CycInt for odd p."""
        return WalshVector(self.p, self.n, self.data[[i]]).values()[0]

    def values(self) -> list:
        return [self._element(c) for c in self.basis_coords().tolist()]

    def _element(self, coords: list) -> "int | CycInt":
        return coords[0] if self.p == 2 else CycInt(self.p, coords)

    def __len__(self) -> int:
        return int(self.data.shape[0])


def walsh_row(table: FuncTable, b: int) -> WalshVector:
    """Full spectrum row for output mask b via fast butterflies."""
    pr = table.params
    p, n = pr.p, pr.n
    if p == 2:
        return WalshVector(2, n, _sign_transform(component_values(table, b), n))
    _guard_int64(p, n)
    evec = component_values(table, b)
    mat = _exponent_one_hot(evec, p)
    return WalshVector(p, n, dft_p_axes(mat, p, n, sign=-1))


# entries of one batch of spectrum rows: the profile and the fourth-moment
# check take at most max(1, _ROWS_SCRATCH // p^n) masks a batch
_ROWS_SCRATCH = 1 << 22


def walsh_rows_signs_p2(table: FuncTable, bs: np.ndarray) -> np.ndarray:
    """Batched transformed rows for p=2: (len(bs), 2^n) in _p2_dtype(n).

    Entries are bounded by 2^n in magnitude: int16 while n <= 14, int32
    while n <= 30.  Batches beyond n = 30 are refused.  The masks and values
    are ANDed in the narrowest unsigned dtype that holds 2^m - 1, so the
    (len(bs), 2^n) temporary is 1 to 8 bytes an entry instead of 8.
    """
    pr = table.params
    if pr.p != 2:
        raise ValueError("batched sign rows are a p=2 path")
    if pr.n > 30:
        raise BudgetError("batched rows beyond n=30 exceed the int32 budget")
    word = np.min_scalar_type(pr.codomain_size - 1)
    masked = table.values.astype(word)[None, :] & bs.astype(word)[:, None]
    fb = np.bitwise_count(masked) & np.uint8(1)
    return _sign_transform(fb, pr.n)


def zero_column(dist: "PreimageDist") -> WalshVector:
    """W_F(b, 0) for all b from the preimage counts of F: O(m * p^(m+1)).

    For p = 2 the transform runs in _p2_dtype(n): the counts total 2^n, which
    bounds every value of the transform.
    """
    pr = dist.params
    p, n, m = pr.p, pr.n, pr.m
    if p == 2:
        return WalshVector(2, n, fwht_last_axis(dist.counts.astype(_p2_dtype(n))))
    _guard_int64(p, n)
    mat = np.zeros((pr.codomain_size, p), dtype=np.int64)
    mat[:, 0] = dist.counts
    return WalshVector(p, n, dft_p_axes(mat, p, m, sign=+1))


def spectrum_rows(table: FuncTable) -> Iterator[WalshVector]:
    """All rows in b-major order, including b = 0."""
    for b in range(table.params.codomain_size):
        yield walsh_row(table, b)

"""Difference distribution tables, uniformity, and fourth-moment identities.

A DDT row for the input difference c counts solutions of F(x+c) - F(x) = d.
ddt_rows yields every row once, in ascending c, by one of three kernels: the
digit kernel at odd p, and at p = 2 the cheaper of two exact routes, half
the domain or the squared Walsh spectrum (the rule and the bounds are in its
docstring).  Rows are produced lazily, a block of input differences at a
time, so the digit and half kernels never hold more than _util.SCRATCH
counts or gathered values at once (or one row, when that alone is larger),
and the spectral route at most _util.ROWS_SCRATCH values.  The fourth moment
of the Walsh spectrum is computed on the differential side, p^(n+m) * sum
of squared difference-map fiber sizes, which equals the spectral sum over
all (b, a); the spectral side is recomputed directly as a cross-check
whenever the table is small enough.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import _util, walsh
from .domain import DomainParams, FuncTable, vec_sub_arrays
from .errors import BudgetError, InternalCheckError
from .walsh import WalshVector, rational_sum, walsh_row, walsh_rows_signs_p2


def ddt_rows(table: FuncTable) -> Iterator[tuple[int, np.ndarray]]:
    """(c, row) pairs for every c != 0, in ascending c order, as int64 rows.

    Row c counts F(x) - F(x - c) = d over x, which after x -> x - c is the
    count of F(x + c) - F(x) = d.  Rows are computed in blocks of input
    differences, each block's rows sharing one array; callers must not hold
    references across iterations (copy if needed).

    - Odd p, the digit kernel: the index x - c and the difference
      F(x) - F(x - c) both come from domain.vec_sub_arrays, in blocks of
      SCRATCH // max(p^n, p^m) rows.
    - p = 2, half the domain (_half_rows): x and x ^ c give the same
      difference, so only the 2^(n-1) inputs with c's top bit clear are
      gathered and the counts doubled, in blocks of
      SCRATCH // max(2^(n-1), 2^m) rows.
    - p = 2, spectral (_spectral_rows): 2^(n+m) DDT(c, d) is the sum over
      (b, a) of (-1)^(a.c + b.d) W(b, a)^2, two Walsh transforms of the
      squared spectrum, the second in blocks of SCRATCH // 2^m rows.

    The p = 2 rule (_spectral_route) takes the spectral route while its
    transforms cost less, (n + m) 2^m < 2^n, its 2^(n+m) values fit
    _util.ROWS_SCRATCH, and their bound 2^(2n+m) fits int64.

    Row checks: diff_summary checks that every row sums to p^n, which the
    digit and half kernels meet by construction and the spectral route only
    when the b = 0 spectrum row is right.  Every p = 2 entry is even.  The
    half route is even by construction, so the first row of each top bit is
    recounted over the whole domain instead (n recounts a pass).  The
    spectral route checks that each block is a multiple of 2^(n+m+1) and
    recounts the block's last row with a direct gather, so the fourth
    moment's differential side does not rest on the Walsh rows that its
    spectral side also uses.
    """
    pr = table.params
    p, n, m = pr.p, pr.n, pr.m
    if p == 2:
        yield from (_spectral_rows if _spectral_route(n, m) else _half_rows)(table)
        return
    pn, pm = pr.domain_size, pr.codomain_size
    # a chunk of input differences covers at most SCRATCH gathered values
    # and SCRATCH bincount counts, or one row
    chunk = max(1, _util.SCRATCH // max(pn, pm))
    vals = table.values
    xs = np.arange(pn, dtype=np.min_scalar_type(pn - 1))
    offsets = np.arange(chunk, dtype=np.int64)[:, None] * pm
    for lo in range(1, pn, chunk):
        hi = min(lo + chunk, pn)
        cs = np.arange(lo, hi, dtype=xs.dtype)[:, None]
        shifted = vals.take(vec_sub_arrays(xs, cs, p, n))
        # row k of the chunk counts into bins k * p^m ... (k + 1) * p^m - 1
        key = vec_sub_arrays(vals, shifted, p, m).astype(np.int64)
        key += offsets[: hi - lo]
        rows = np.bincount(key.reshape(-1), minlength=(hi - lo) * pm)
        yield from zip(range(lo, hi), rows.reshape(hi - lo, pm))


def _spectral_route(n: int, m: int) -> bool:
    """The one p = 2 route rule: the spectral route when its transforms,
    about (n + m) 2^(n+m) butterfly steps, cost less than the half route's
    2^(2n-1) gathered differences, its values fit one batch of spectrum
    rows, and their bound fits int64."""
    return (
        (n + m) << m < 1 << n
        and 1 << (n + m) <= _util.ROWS_SCRATCH
        and _util.fits_int64(1 << (2 * n + m))
    )


def _recount(vals: np.ndarray, c: int, row: np.ndarray) -> None:
    """Count row c over the whole domain with one direct gather and raise
    InternalCheckError unless it equals `row`."""
    xs = np.arange(vals.size, dtype=np.min_scalar_type(vals.size - 1))
    want = np.bincount((vals.take(xs ^ c) ^ vals).astype(np.int64), minlength=row.size)
    if not np.array_equal(row, want):
        raise InternalCheckError(f"DDT row {c} differs from its full-domain recount")


def _half_index(n: int, t: int) -> np.ndarray:
    """The 2^(n-1) inputs x < 2^n whose bit t is clear, ascending."""
    j = np.arange(1 << (n - 1), dtype=np.min_scalar_type((1 << n) - 1))
    return (j >> t << (t + 1)) | (j & ((1 << t) - 1))


def _half_rows(table: FuncTable) -> Iterator[tuple[int, np.ndarray]]:
    """p = 2 rows from half the domain.  Exactly one of x and x ^ c has
    bit t, c's top set bit, clear, so row c is twice the count over those
    x.  The rows with top bit t share one half index and F at it, and no
    block crosses a top bit; the first row of each is recounted."""
    pr = table.params
    n, pm = pr.n, pr.codomain_size
    chunk = max(1, _util.SCRATCH // max(1 << (n - 1), pm))
    vals = table.values
    offsets = np.arange(chunk, dtype=np.int64)[:, None] * pm
    for t in range(n):
        half = _half_index(n, t)
        f_half = vals.take(half)
        for lo in range(1 << t, 2 << t, chunk):
            hi = min(lo + chunk, 2 << t)
            cs = np.arange(lo, hi, dtype=half.dtype)[:, None]
            # row k of the block counts into bins k * 2^m ... (k + 1) * 2^m - 1
            key = (vals.take(half ^ cs) ^ f_half).astype(np.int64)
            key += offsets[: hi - lo]
            rows = np.bincount(key.reshape(-1), minlength=(hi - lo) * pm).reshape(hi - lo, pm)
            rows <<= 1
            if lo == 1 << t:
                _recount(vals, lo, rows[0])
            yield from zip(range(lo, hi), rows)


def _spectral_rows(table: FuncTable) -> Iterator[tuple[int, np.ndarray]]:
    """p = 2 rows from the spectrum.  With A_b(c) = sum_x (-1)^(b.D_cF(x)),
    the transform of W(b, .)^2 along a is 2^n A_b(c), and the transform of
    that along b is 2^(n+m) DDT(c, d).  Every value, partial sums included,
    is at most 2^(2n+m) in magnitude and is held in signed_dtype of that.
    A set bit below n + m is a transform fault and bit n + m an odd entry.
    The transforms are called through the walsh module, whose names count
    as spectrum work, not as fourth-moment rows."""
    pr = table.params
    n, m, pm = pr.n, pr.m, pr.codomain_size
    dtype = walsh.signed_dtype(1 << (2 * n + m))
    sq = walsh.walsh_rows_signs_p2(table, np.arange(pm)).astype(dtype)
    sq *= sq
    # row b becomes 2^n A_b(c) over c
    walsh.fwht_last_axis(sq)
    block = max(1, _util.SCRATCH // pm)
    low = (1 << (n + m + 1)) - 1
    for lo in range(0, pr.domain_size, block):
        hi = min(lo + block, pr.domain_size)
        rows = np.ascontiguousarray(sq[:, lo:hi].T)
        walsh.fwht_last_axis(rows)
        if np.any(rows & low):
            raise InternalCheckError(
                f"spectral DDT rows {lo}..{hi - 1} are not multiples of 2^{n + m + 1}"
            )
        rows >>= n + m
        rows = rows.astype(np.int64, copy=False)
        _recount(table.values, hi - 1, rows[-1])
        first = max(lo, 1)
        yield from zip(range(first, hi), rows[first - lo :])


def apn_shape(params: DomainParams) -> bool:
    """Whether APN applies to the shape: p = 2 and n = m."""
    return params.p == 2 and params.n == params.m


@dataclass(frozen=True)
class DiffSummary:
    """Differential uniformity and shape of the nonzero DDT entries."""

    delta: int
    two_valued_at: Optional[int]
    apn: Optional[bool]


def diff_summary(table: FuncTable) -> DiffSummary:
    """Streams DDT rows once; never materializes the full table."""
    pr = table.params
    pn = pr.domain_size
    delta = 0
    # the table is two-valued exactly when every row's nonzero entries equal
    # its maximum (the row is uniform) and every row maximum equals delta
    lowest = pn
    uniform = True
    for c, row in ddt_rows(table):
        # nonnegative entries totalling p^n < 2^62, so int64 cannot overflow
        total = int(row.sum(dtype=np.int64))
        if total != pn:
            raise InternalCheckError(f"DDT row {c} sums to {total}, expected {pn}")
        m = int(row.max())
        delta = max(delta, m)
        lowest = min(lowest, m)
        if uniform and lowest == delta:
            # the entries are nonnegative and total pn, so the nonzero ones
            # all equal m exactly when there are pn / m of them; once the row
            # maxima differ the answer is None and no row needs counting
            uniform = int(np.count_nonzero(row)) * m == pn
    two_valued = delta if uniform and lowest == delta else None
    apn = (delta <= 2) if apn_shape(pr) else None
    return DiffSummary(delta, two_valued, apn)


@dataclass(frozen=True)
class FourthMoment:
    """Exact fourth-moment sums of the Walsh spectrum.

    `restricted` excludes the b = 0 row, matching the sum whose value
    p^(3n+t)(p^n - 1) characterizes t-plateaued single-amplitude functions
    and whose APN threshold is (2^n - 1) 2^(3n+1).
    """

    all_masks: int
    restricted: int
    apn_by_moment: Optional[bool]


def _diff_sq_sum_all(table: FuncTable) -> int:
    """Sum over every c (including 0) and d of squared DDT entries."""
    pr = table.params
    total = pr.domain_size ** 2  # c = 0 row: single spike of p^n
    # a row's nonnegative entries total p^n, so its squares sum to at most
    # (p^n)^2: one int64 dot product per row
    if not _util.fits_int64(total):
        raise BudgetError(f"squared DDT rows at p={pr.p}, n={pr.n} exceed the int64 budget")
    return total + sum(int(row @ row) for _, row in ddt_rows(table))


def _walsh_fourth_sum_all(table: FuncTable) -> int:
    """Direct spectral sum of |W(b,a)|^4 over every (b, a); cross-check path.

    A single row's sum can be irrational at p >= 5; only the sum over every b
    is a rational integer, so the rows' basis coordinates are summed first and
    an irrational total raises InternalCheckError.
    """
    pr = table.params
    pm = pr.codomain_size
    if pr.p == 2:
        step = max(1, _util.ROWS_SCRATCH // pr.domain_size)
        batches = (np.arange(lo, min(lo + step, pm), dtype=np.int64) for lo in range(0, pm, step))
        vecs = (WalshVector(2, pr.n, walsh_rows_signs_p2(table, bs).reshape(-1)) for bs in batches)
    else:
        vecs = (walsh_row(table, b) for b in range(pm))
    # |W|^2 is real, so the squared moduli of |W|^2 are |W|^4
    fourth = (sq.sq_moduli() for vec in vecs for sq in vec.sq_slices())
    return rational_sum(pr.p, fourth, "spectral fourth-moment sum")


def fourth_moment(table: FuncTable) -> FourthMoment:
    """Fourth moment via the differential side, cross-checked when small.

    Tables with p^(n+m) <= 2^20 also get the spectral side, and the two sides
    must agree exactly or an internal error is raised.
    """
    pr = table.params
    diff_side = _diff_sq_sum_all(table)
    all_masks = pr.p ** (pr.n + pr.m) * diff_side
    if pr.p ** (pr.n + pr.m) <= 1 << 20:
        walsh_side = _walsh_fourth_sum_all(table)
        if walsh_side != all_masks:
            raise InternalCheckError(
                f"fourth moment mismatch: spectral side {walsh_side}, "
                f"differential side {all_masks}"
            )
    restricted = all_masks - pr.p ** (4 * pr.n)
    apn_by_moment = None
    if apn_shape(pr):
        apn_by_moment = restricted == (2 ** pr.n - 1) * 2 ** (3 * pr.n + 1)
    return FourthMoment(all_masks, restricted, apn_by_moment)

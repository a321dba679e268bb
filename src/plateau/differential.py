"""Difference distribution tables, uniformity, and fourth-moment identities.

A DDT row for the input difference c counts solutions of F(x+c) - F(x) = d.
ddt_rows yields every row once, in ascending c, a block of input
differences at a time, from one counted kernel or, at p = 2, from the
squared Walsh spectrum, and checks every row's sum, so diff_summary, the
fourth moment and the --ddt-full CSV all read sum-checked rows (the routes,
their memory bounds and the checks are in its docstring).  The fourth moment
of the Walsh spectrum is computed on the differential side, p^(n+m) * sum
of squared difference-map fiber sizes, which equals the spectral sum over
all (b, a); the spectral side is recomputed directly as a cross-check
whenever the table is small enough: at odd p as one Gram matrix of every
row's |W|^2 coefficients (walsh.fourth_power_sum), at p = 2 from squared
slices of batched sign rows.
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
    references across iterations (copy if needed).  The blocks come from

    - the counted kernel, _counted_rows, in blocks of SCRATCH // max(|xs|,
      p^m) rows over the inputs xs: every input at odd p, and at p = 2 the
      half of the domain with c's top bit clear, counts doubled
      (_half_rows);
    - or at p = 2 the spectral route, _spectral_rows, which _spectral_route
      takes while its transforms cost less, (n + m) 2^m < 2^n, its 2^(n+m)
      values fit _util.ROWS_SCRATCH, and their bound 2^(2n+m) fits int64.

    Checks: here one sum per block, that every row (c = 0 too, on the
    spectral route) sums to p^n, catches a count spilled into another row's
    bins and a wrong b = 0 spectrum row.  Doubled counts sum right by
    construction, so _half_rows recounts the first row of each top bit over
    the whole domain, which catches a wrong half index.  _spectral_rows
    checks that each block is a multiple of 2^(n+m+1), which catches a
    transform fault or an odd entry, and recounts the block's last row
    directly, so the fourth moment's differential side does not rest on the
    Walsh rows that its spectral side also uses.
    """
    pr = table.params
    pn = pr.domain_size
    if pr.p == 2:
        blocks = (_spectral_rows if _spectral_route(pr.n, pr.m) else _half_rows)(table)
    else:
        blocks = _counted_rows(table, np.arange(pn, dtype=np.min_scalar_type(pn - 1)), 1, pn)
    for lo, rows in blocks:
        # no int64 overflow, even on a fault: a row's counts total at most
        # 2 p^n, and a spectral row is 2^m values of 63 - n - m bits
        totals = rows.sum(axis=1)
        wrong = totals != pn
        if wrong.any():
            k = int(wrong.argmax())
            raise InternalCheckError(f"DDT row {lo + k} sums to {totals[k]}, expected {pn}")
        first = max(lo, 1)
        yield from zip(range(first, lo + len(rows)), rows[first - lo :])


def _counted_rows(
    table: FuncTable, xs: np.ndarray, first: int, stop: int
) -> Iterator[tuple[int, np.ndarray]]:
    """(lo, rows) blocks for the input differences first <= c < stop: row
    lo + k counts F(x) - F(x - c) = d over the inputs xs only, both
    subtractions by domain.vec_sub_arrays (XOR at p = 2).  A block covers at
    most SCRATCH gathered values and SCRATCH counts, or one row."""
    pr = table.params
    p, pm = pr.p, pr.codomain_size
    chunk = max(1, _util.SCRATCH // max(xs.size, pm))
    vals = table.values
    f_xs = vals.take(xs)
    offsets = np.arange(chunk, dtype=np.int64)[:, None] * pm
    for lo in range(first, stop, chunk):
        hi = min(lo + chunk, stop)
        cs = np.arange(lo, hi, dtype=xs.dtype)[:, None]
        shifted = vals.take(vec_sub_arrays(xs, cs, p, pr.n))
        # row k of the block counts into bins k * p^m ... (k + 1) * p^m - 1
        key = vec_sub_arrays(f_xs, shifted, p, pr.m).astype(np.int64)
        key += offsets[: hi - lo]
        rows = np.bincount(key.reshape(-1), minlength=(hi - lo) * pm)
        yield lo, rows.reshape(hi - lo, pm)


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
    """p = 2 blocks from half the domain.  Exactly one of x and x ^ c has
    bit t, c's top set bit, clear, so row c is twice the count over those
    x.  The rows with top bit t are one call of the counted kernel over one
    half index, so no block crosses a top bit; the first row of each is
    recounted."""
    n = table.params.n
    for t in range(n):
        for lo, rows in _counted_rows(table, _half_index(n, t), 1 << t, 2 << t):
            rows <<= 1
            if lo == 1 << t:
                _recount(table.values, lo, rows[0])
            yield lo, rows


def _spectral_rows(table: FuncTable) -> Iterator[tuple[int, np.ndarray]]:
    """p = 2 blocks, c = 0 included, from the spectrum.  With
    A_b(c) = sum_x (-1)^(b.D_cF(x)), the transform of W(b, .)^2 along a is
    2^n A_b(c), and the transform of that along b is 2^(n+m) DDT(c, d).  Every value, partial sums included,
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
        yield lo, rows


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
    for _, row in ddt_rows(table):
        m = int(row.max())
        delta = max(delta, m)
        lowest = min(lowest, m)
        if uniform and lowest == delta:
            # the entries are nonnegative and ddt_rows checks that they
            # total pn, so the nonzero ones all equal m exactly when there
            # are pn / m of them; once the row maxima differ the answer is
            # None and no row needs counting
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
    is a rational integer, so the rows' sums are accumulated first (one Gram
    matrix at odd p, basis coordinates at p = 2) and an irrational total
    raises InternalCheckError.
    """
    pr = table.params
    pm = pr.codomain_size
    if pr.p != 2:
        return walsh.fourth_power_sum((walsh_row(table, b) for b in range(pm)), pm)
    step = max(1, _util.ROWS_SCRATCH // pr.domain_size)
    batches = (np.arange(lo, min(lo + step, pm), dtype=np.int64) for lo in range(0, pm, step))
    vecs = (WalshVector(2, pr.n, walsh_rows_signs_p2(table, bs).reshape(-1)) for bs in batches)
    # |W|^2 is real, so the squared moduli of |W|^2 are |W|^4
    fourth = (sq.sq_moduli() for vec in vecs for sq in vec.sq_slices())
    return rational_sum(2, fourth, "spectral fourth-moment sum")


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

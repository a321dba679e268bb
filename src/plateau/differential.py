"""Difference distribution tables, uniformity, and fourth-moment identities.

A DDT row for the input difference c counts solutions of F(x+c) - F(x) = d.
One kernel, ddt_rows, serves every p: the index x - c and the difference
F(x) - F(x - c) both come from domain.vec_sub_arrays.  Rows are produced
lazily, a chunk of input differences at a time, so summaries never hold more
than _util.SCRATCH counts or gathered values at once (or one row, when p^n or
p^m alone is larger).  The fourth moment of the Walsh spectrum is computed on
the differential side, p^(n+m) * sum of squared difference-map fiber sizes,
which equals the spectral sum over all (b, a); the spectral side is
recomputed directly as a cross-check whenever the table is small enough.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import _util
from .domain import DomainParams, FuncTable, vec_sub_arrays
from .errors import BudgetError, InternalCheckError
from .walsh import WalshVector, rational_sum, walsh_row, walsh_rows_signs_p2


def ddt_rows(table: FuncTable) -> Iterator[tuple[int, np.ndarray]]:
    """(c, row) pairs for every c != 0, in ascending c order.

    Row c counts F(x) - F(x - c) = d over x, which after x -> x - c is the
    count of F(x + c) - F(x) = d.  Rows are computed in chunks of input
    differences, each chunk's rows sharing one block; callers must not hold
    references across iterations (copy if needed).
    """
    pr = table.params
    p, n, m = pr.p, pr.n, pr.m
    pn, pm = pr.domain_size, pr.codomain_size
    # a chunk of input differences covers at most SCRATCH gathered values
    # and SCRATCH bincount counts, or one row
    chunk = max(1, _util.SCRATCH // max(pn, pm))
    # values and indices in the narrowest dtypes, which the XOR of
    # vec_sub_arrays keeps at p = 2; only the bincount key is int64 at every p
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
        if pr.p == 2 and bool(np.any(row & 1)):
            raise InternalCheckError(f"DDT row {c} has an odd entry at p = 2")
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

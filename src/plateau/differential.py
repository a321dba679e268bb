"""Difference distribution tables, uniformity, and fourth-moment identities.

A DDT row for the input difference c counts solutions of F(x+c) - F(x) = d.
Rows are produced lazily, a chunk of input differences at a time, so
summaries never hold more than _SCRATCH counts or gathered values at once (or
one row, when p^n or p^m alone is larger).  The fourth moment of the Walsh
spectrum is computed on the differential side, p^(n+m) * sum of squared
difference-map fiber sizes, which equals the spectral sum over all (b, a); the
spectral side is recomputed directly as a cross-check whenever the table is
small enough.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import walsh
from ._util import exact_sum
from .cyclotomic import CycInt
from .domain import FuncTable, vec_neg, vec_sub_arrays
from .errors import InternalCheckError
from .walsh import walsh_row, walsh_rows_signs_p2

# entries in one block of difference rows: a chunk of input differences c
# covers at most this many gathered values and at most this many bincount
# counts (or one row, when p^n or p^m alone is larger); 2^16 keeps a block's
# temporaries inside a core's L2 cache
_SCRATCH = 1 << 16


def ddt_row(table: FuncTable, c: int) -> np.ndarray:
    """Counts of F(x+c) - F(x) = d over all x, indexed by d."""
    pr = table.params
    if not 0 <= c < pr.domain_size:
        raise ValueError(f"difference {c} outside [0, {pr.domain_size})")
    xs = np.arange(pr.domain_size, dtype=np.int64)
    shifted = table.values[vec_sub_arrays(xs, vec_neg(c, pr.p, pr.n), pr.p, pr.n)]
    diffs = vec_sub_arrays(shifted, table.values, pr.p, pr.m)
    return np.bincount(diffs, minlength=pr.codomain_size)


def ddt_rows(table: FuncTable, include_zero: bool = False) -> Iterator[tuple[int, np.ndarray]]:
    """(c, row) pairs in ascending c order, skipping c = 0 unless asked.

    Rows are computed in chunks of input differences, each chunk's rows
    sharing one block; callers must not hold references across iterations
    (copy if needed).
    """
    pr = table.params
    p, n = pr.p, pr.n
    pn, pm = pr.domain_size, pr.codomain_size
    start = 0 if include_zero else 1
    chunk = max(1, _SCRATCH // max(pn, pm))
    if p == 2:
        # values below p^m and indices below p^n in the narrowest dtypes;
        # only the bincount key is widened to int64
        vals = table.values.astype(np.min_scalar_type(pm - 1))
        xs = np.arange(pn, dtype=np.min_scalar_type(pn - 1))

        def diffs_of(lo: int, hi: int) -> np.ndarray:
            cs = np.arange(lo, hi, dtype=xs.dtype)
            diffs = vals.take(xs[None, :] ^ cs[:, None])
            diffs ^= vals
            return diffs.astype(np.int64)

    else:
        # viewed as (chunk, p, ..., p), the index of x + c is the sum over
        # digits k of ((x_k + c_k) % p) * p^k, and x_k varies only along axis
        # n - k, so each digit is one broadcast (chunk, p) term added in place
        digit = np.arange(p, dtype=np.int64)
        powers = p ** np.arange(n, dtype=np.int64)

        def diffs_of(lo: int, hi: int) -> np.ndarray:
            cs = np.arange(lo, hi, dtype=np.int64)
            idx = np.zeros((hi - lo,) + (p,) * n, dtype=np.int64)
            c_digits = (cs[:, None] // powers) % p
            for k in range(n):
                term = (c_digits[:, k, None] + digit) % p * powers[k]
                idx += term.reshape((-1,) + (1,) * (n - 1 - k) + (p,) + (1,) * k)
            idx = idx.reshape(-1, pn)
            return vec_sub_arrays(table.values[idx], table.values[None, :], p, pr.m)

    offsets = np.arange(chunk, dtype=np.int64)[:, None] * pm
    for lo in range(start, pn, chunk):
        hi = min(lo + chunk, pn)
        # row k of the chunk counts into bins k * p^m ... (k + 1) * p^m - 1
        key = diffs_of(lo, hi)
        key += offsets[: hi - lo]
        rows = np.bincount(key.reshape(-1), minlength=(hi - lo) * pm)
        rows = rows.reshape(hi - lo, pm)
        for k in range(hi - lo):
            yield lo + k, rows[k]


@dataclass(frozen=True)
class DiffSummary:
    """Differential uniformity and shape of the nonzero DDT entries."""

    delta: int
    two_valued_at: Optional[int]
    apn: Optional[bool]

    def as_dict(self) -> dict:
        return {"delta": self.delta, "two_valued_at": self.two_valued_at, "apn": self.apn}


def diff_summary(table: FuncTable) -> DiffSummary:
    """Streams DDT rows once; never materializes the full table."""
    pr = table.params
    pn = pr.domain_size
    delta = 0
    # the least nonzero entry so far; the nonzero entries all equal delta
    # exactly when it does, and once it falls below delta it stays below
    least = pn
    for c, row in ddt_rows(table):
        # nonnegative entries totalling p^n < 2^62, so int64 cannot overflow
        total = int(row.sum(dtype=np.int64))
        if total != pn:
            raise InternalCheckError(f"DDT row {c} sums to {total}, expected {pn}")
        if pr.p == 2 and bool(np.any(row & 1)):
            raise InternalCheckError(f"DDT row {c} has an odd entry at p = 2")
        m = int(row.max())
        if m > delta:
            delta = m
        if least >= delta:
            # the entries are nonnegative and total pn, so the nonzero ones
            # all equal m exactly when there are pn / m of them; a row where
            # they do not drops least below delta for good
            single = int(np.count_nonzero(row)) * m == pn
            least = min(least, m if single else int(row[row > 0].min()))
    two_valued = delta if least == delta else None
    apn = (delta <= 2) if (pr.p == 2 and pr.n == pr.m) else None
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

    def as_dict(self) -> dict:
        return {
            "all_masks": self.all_masks,
            "restricted": self.restricted,
            "apn_by_moment": self.apn_by_moment,
        }


def _diff_sq_sum_all(table: FuncTable) -> int:
    """Sum over every c (including 0) and d of squared DDT entries."""
    pr = table.params
    bits = (pr.domain_size ** 2).bit_length()
    total = pr.domain_size ** 2  # c = 0 row: single spike of p^n
    # a row's nonnegative entries total p^n, so its squares sum to at most
    # (p^n)^2: one int64 dot product per row while that fits in 62 bits
    for _, row in ddt_rows(table):
        total += int(row @ row) if bits <= 62 else exact_sum(row * row, bits)
    return total


def _walsh_fourth_sum_all(table: FuncTable) -> "int | CycInt":
    """Direct spectral sum of |W(b,a)|^4 over every (b, a); cross-check path.

    A single row's sum can be a non-rational element of Z[zeta_p] at p >= 5;
    only the sum over every b is a rational integer, so the total is an exact
    ring element that equals the differential side when the code is right.
    """
    pr = table.params
    n = pr.n
    if pr.p == 2 and 4 * n + 1 <= 62:
        total = 0
        step = max(1, walsh._ROWS_SCRATCH // pr.domain_size)
        for lo in range(0, pr.codomain_size, step):
            bs = np.arange(lo, min(lo + step, pr.codomain_size), dtype=np.int64)
            rows = walsh_rows_signs_p2(table, bs).astype(np.int64)
            sq = rows * rows
            total += exact_sum(sq * sq, 4 * n + 1)
        return total
    # |W|^2 is real, so the squared modulus of |W|^2 is |W|^4
    return sum(
        walsh_row(table, b).sq_moduli().sq_total() for b in range(pr.codomain_size)
    )


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
    if pr.p == 2 and pr.n == pr.m:
        apn_by_moment = restricted == (2 ** pr.n - 1) * 2 ** (3 * pr.n + 1)
    return FourthMoment(all_masks, restricted, apn_by_moment)

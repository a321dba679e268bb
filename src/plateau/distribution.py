"""Value distributions, imbalance, exact preimage bounds, AB classification.

Every comparison against a bound of the form (A +- sqrt(R))/D is decided on
squared cross-multiplied integers — (D*x - A)^2 vs R — so equality of a fiber
size with a bound is exact, never rounded.  The integer ends of such an
interval are ceil((A - isqrt(R))/D) and floor((A + isqrt(R))/D), since an
integer D*x - A lies within sqrt(R) of 0 exactly when it lies within
isqrt(R).  The imbalance is always computed twice (zero-column transform vs.
sum of squared fiber sizes) and the two routes must agree to the bit; a
mismatch raises InternalCheckError because it can only mean an arithmetic
bug.  The imbalance and the checks that need the zero column of F - beta
share one transform, PreimageDist.zero_col.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isqrt
from typing import TYPE_CHECKING, Optional

import numpy as np

from ._util import ceil_div, require_counts
from .domain import DomainParams, FuncTable, digits, matrix_apply
from .errors import InternalCheckError
from .verdict import CheckResult
from .walsh import WalshVector, signed_dtype, zero_column

if TYPE_CHECKING:
    from .report import Analysis


@dataclass(frozen=True)
class PreimageDist:
    """Fiber sizes of a table; the multiset X_1 <= ... <= X_image.

    `histogram` lists (size, multiplicity) over nonzero sizes ascending; it is
    the compact encoding of the sorted multiset (tables at n = 24 make a full
    size list wasteful).
    """

    params: DomainParams
    counts: np.ndarray
    image_size: int
    histogram: tuple[tuple[int, int], ...]

    def count_of(self, beta: int) -> int:
        return int(self.counts[beta])

    def sum_sq_sizes(self) -> int:
        return sum(size * size * mult for size, mult in self.histogram)

    @cached_property
    def zero_col(self) -> WalshVector:
        """W_F(b, 0) for every b, transformed once and shared; read-only."""
        col = zero_column(self)
        col.data.setflags(write=False)
        return col

    def shifted_zero_col(self, beta: int) -> WalshVector:
        """W_{F - beta}(b, 0) = zeta^(-<b, beta>) W_F(b, 0) for every b."""
        pr = self.params
        if not 0 <= beta < pr.codomain_size:
            raise ValueError(f"beta {beta} outside [0, {pr.codomain_size})")
        # blocked by SCRATCH, so no (m, p^m) planes; unsigned, so widened to negate
        phase = matrix_apply([digits(beta, pr.p, pr.m)], np.arange(pr.codomain_size), pr.p, pr.m)
        return self.zero_col.rotated(-phase.astype(np.int64) % pr.p)


def preimage_distribution(table: FuncTable) -> PreimageDist:
    """Preimage counts and fiber-size histogram of a table.

    The counts total p^n, so they are held in walsh.signed_dtype(p^n), the
    narrowest signed dtype that holds p^n, which at p = 2 is the zero column's
    own dtype, so the transform copies them without a cast.
    np.add.at reads the narrow table values in place, where np.bincount
    copies them all to int64 (and copies any read-only input, so counts is
    made read-only last).  Its increment must be a scalar of the counts'
    dtype: a Python 1 leaves numpy's fast path on a narrow array, about 17
    times slower for 2^22 values into int32 counts.
    """
    pr = table.params
    require_counts(pr.codomain_size, pr.domain_size)
    counts = np.zeros(pr.codomain_size, dtype=signed_dtype(pr.domain_size))
    np.add.at(counts, table.values, counts.dtype.type(1))
    top = int(counts.max())
    if top < counts.size:
        # count the counts: no array larger than counts, where sorting the
        # nonzero ones takes a mask and two copies, and np.bincount would
        # copy the narrow counts to intp
        mults = np.zeros(top + 1, dtype=np.int64)
        np.add.at(mults, counts, np.int64(1))
        sizes = np.flatnonzero(mults[1:]) + 1
        mults = mults[sizes]
    else:
        sizes, mults = np.unique(counts[counts > 0], return_counts=True)
    counts.setflags(write=False)
    histogram = tuple(
        (int(s), int(c)) for s, c in zip(sizes.tolist(), mults.tolist())
    )
    image_size = int(sum(m for _, m in histogram))
    return PreimageDist(pr, counts, image_size, histogram)


def imbalance(dist: PreimageDist) -> int:
    """N_F, from the zero column and re-derived from fiber sizes; both must agree."""
    pr = dist.params
    if pr.m > 2 * pr.n:
        raise ValueError(f"imbalance needs m <= 2n for integrality; got n={pr.n} m={pr.m}")
    pm = pr.codomain_size
    # W(0, 0) = p^n, so dropping b = 0 is exact
    sq = dist.zero_col.sq_total() - pr.p ** (2 * pr.n)
    if sq % pm:
        raise InternalCheckError(f"sum of squared zero-column moduli {sq} not divisible by p^m")
    from_walsh = sq // pm
    from_sizes = dist.sum_sq_sizes() - pr.p ** (2 * pr.n - pr.m)
    if from_walsh != from_sizes:
        raise InternalCheckError(
            f"imbalance mismatch: zero column gives {from_walsh}, fiber sizes give {from_sizes}"
        )
    return from_walsh


def imbalance_defect(dist: PreimageDist, n_f: int) -> tuple[int, int]:
    """(radicand, denominator) of the image-aware radius: value sqrt(R)/I."""
    pr = dist.params
    image = dist.image_size
    radicand = (image - 1) * (image * n_f - pr.p ** (2 * pr.n - pr.m) * (pr.codomain_size - image))
    if radicand < 0:
        raise InternalCheckError(f"defect radicand {radicand} negative")
    return radicand, image


@dataclass(frozen=True)
class BoundPair:
    """Exact interval ((num - sqrt(radicand))/den, (num + sqrt(radicand))/den)."""

    numerator: int
    denominator: int
    radicand: int
    lo_ceil: int
    hi_floor: int

    def contains(self, x: int) -> bool:
        return (self.denominator * x - self.numerator) ** 2 <= self.radicand


def _make_bound_pair(num: int, rad: int, den: int) -> BoundPair:
    # for an integer k, |den*k - num| <= sqrt(rad) exactly when
    # |den*k - num| <= isqrt(rad), so each end is one integer division
    s = isqrt(rad)
    return BoundPair(num, den, rad, ceil_div(num - s, den), (num + s) // den)


def preimage_bounds(dist: PreimageDist, n_f: int) -> tuple[BoundPair, BoundPair]:
    """(image-aware, image-free) bound pairs on every nonzero fiber size."""
    pr = dist.params
    pn, pm = pr.domain_size, pr.codomain_size
    rad_aware, image = imbalance_defect(dist, n_f)
    aware = _make_bound_pair(pn, rad_aware, image)
    free = _make_bound_pair(pn, pm * (pm - 1) * n_f, pm)
    return aware, free


@dataclass(frozen=True)
class ABClass:
    kind: str  # "not_ab" | "type_plus" | "type_minus"
    witness: Optional[int]
    witnesses_plus: tuple[int, ...]
    witnesses_minus: tuple[int, ...]
    surjective: bool


def _witnesses_of_size(dist: PreimageDist, size: int) -> tuple[int, ...]:
    if size <= 0:
        return ()
    idx = np.nonzero(dist.counts == size)[0]
    return tuple(int(v) for v in idx.tolist())


def _verify_rider(dist: PreimageDist, witness_size: int) -> None:
    pr = dist.params
    image = dist.image_size
    if image < 2:
        raise InternalCheckError("rider needs at least two image values")
    rest = pr.domain_size - witness_size
    if rest % (image - 1):
        raise InternalCheckError(
            f"rider violated: {rest} not divisible by image-1 = {image - 1}"
        )
    expected = rest // (image - 1)
    for size, mult in dist.histogram:
        want = mult
        if size == witness_size:
            want -= 1
        if want and size != expected:
            raise InternalCheckError(
                f"rider violated: fiber size {size} (x{want}) != {expected}"
            )


def classify_almost_balanced(dist: PreimageDist, n_f: int) -> ABClass:
    """AB classification per the image-aware bounds, exact equality tests only."""
    pr = dist.params
    surjective = dist.image_size == pr.codomain_size
    rad, image = imbalance_defect(dist, n_f)
    if rad == 0:
        return ABClass("not_ab", None, (), (), surjective)
    pn = pr.domain_size
    s = isqrt(rad)
    plus: tuple[int, ...] = ()
    minus: tuple[int, ...] = ()
    if s * s == rad:
        if (pn + s) % image == 0:
            plus = _witnesses_of_size(dist, (pn + s) // image)
        if (pn - s) % image == 0 and pn - s > 0:
            minus = _witnesses_of_size(dist, (pn - s) // image)
    if plus:
        _verify_rider(dist, (pn + s) // image)
    if minus:
        _verify_rider(dist, (pn - s) // image)
    if plus:
        return ABClass("type_plus", plus[0], plus, minus, surjective)
    if minus:
        return ABClass("type_minus", minus[0], plus, minus, surjective)
    return ABClass("not_ab", None, (), (), surjective)


def ab_walsh_consequences(an: "Analysis") -> CheckResult:
    """For surjective AB functions: the zero column collapses to one integer.

    Verifies, after shifting the witness value to 0: (a) W(b,0) identical over
    all b != 0, (b) the common value is a nonzero rational integer, (c)
    p^m * N_F = (p^m - 1) * W^2, (d) p^m | W, and both fiber-size formulas.
    Takes the distribution, N_F and the AB class from the table's Analysis.
    """
    tag = "ab-walsh"
    pr = an.params
    n_f = an.n_f
    if n_f is None:
        return CheckResult.skipped(tag, "imbalance needs m <= 2n")
    dist = an.dist
    ab = an.ab
    if not ab.surjective:
        return CheckResult.skipped(tag, "function is not surjective")
    if ab.kind == "not_ab":
        return CheckResult.skipped(tag, "function is not almost balanced")
    assert ab.witness is not None
    rational, ints = dist.shifted_zero_col(ab.witness).integers()
    pm = pr.codomain_size
    problems: list[str] = []
    if not bool(rational[1:].all()):
        problems.append("some W(b,0) is not a rational integer")
        common = 0
    else:
        common = int(ints[1])
        if not bool(np.all(ints[1:] == common)):
            problems.append("zero-column values differ across b != 0")
    if not problems:
        if common == 0:
            problems.append("common W(b,0) is zero")
        if pm * n_f != (pm - 1) * common * common:
            problems.append(
                f"imbalance {n_f} != (p^m-1)/p^m * W^2 with W = {common}"
            )
        if common % pm:
            problems.append(f"W(b,0) = {common} not divisible by p^m = {pm}")
        w_abs = abs(common)
        x0 = dist.count_of(ab.witness)
        others = [s for s, _ in dist.histogram if s != x0]
        pn = pr.domain_size
        if ab.kind == "type_plus":
            want0, want_rest = pn + (pm - 1) * w_abs, pn - w_abs
        else:
            want0, want_rest = pn - (pm - 1) * w_abs, pn + w_abs
        if pm * x0 != want0:
            problems.append(f"witness fiber {x0} != (p^n {'+' if ab.kind == 'type_plus' else '-'} (p^m-1)|W|)/p^m")
        if others and any(pm * u != want_rest for u in others):
            problems.append(f"non-witness fibers {others} do not match (p^n -/+ |W|)/p^m")
    return CheckResult.judged(
        tag,
        problems,
        witness=ab.witness,
        ab_type=ab.kind,
        common_walsh_value=common,
        imbalance=n_f,
    )


def surjectivity_certificate(dist: PreimageDist, n_f: int) -> bool:
    """Whether the imbalance guarantees surjectivity (a one-way certificate:
    small enough imbalance forces it); a guarantee the image contradicts
    raises InternalCheckError."""
    pr = dist.params
    pm = pr.codomain_size
    guaranteed = n_f * (pm - 1) * pm < pr.domain_size ** 2
    if guaranteed and dist.image_size != pm:
        raise InternalCheckError(
            f"imbalance {n_f} certifies surjectivity but image is {dist.image_size} < {pm}"
        )
    return guaranteed


def image_lower_bound(params: DomainParams, n_f: int) -> int:
    """ceil(p^2n / (p^(2n-m) + N_F)); never exceeds the actual image size."""
    if params.m > 2 * params.n:
        raise ValueError("image bound needs m <= 2n")
    pn2 = params.p ** (2 * params.n)
    return ceil_div(pn2, params.p ** (2 * params.n - params.m) + n_f)

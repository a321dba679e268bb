"""Component amplitude profiles and the structural checks built on them.

A component <b, F> is plateaued with parameter t when every squared Walsh
modulus lies in {0, p^(n+t)}; t = 0 is bent.  Membership is decided on exact
integers (power-of-p tests, never logarithms).  A component <b, F> is balanced
exactly when W(b, 0) = 0, for every prime p: W(b, 0) = sum_k N_k zeta^k with
N_k = #{x : <b, F(x)> = k}, and since 1 + zeta + ... + zeta^(p-1) is the
minimal polynomial of zeta, that sum is 0 only when all the N_k are equal.
So balance is read off the row at a = 0, in exact arithmetic.

One classifier, _classify_rows, serves every p: one two-valued test, one
power-of-p test (a cached table of the powers below 2^62) and one Parseval
guard over a block of rows.  The only p split is the row source: |W| from
walsh_rows_signs_p2 at p = 2; at odd p the rational |W|^2 of one walsh_row
per mask, 0 where irrational.  _util.ROWS_SCRATCH, never the worker count,
sizes the blocks.

Every named check returns a CheckResult instead of assuming its hypotheses:
hypothesis mismatches are "skipped", violated conclusions are "fail" with the
offending quantities in details.  A check takes the table's `Analysis` and
asks it for each artifact when it needs it; an artifact a budget withholds
raises `report.Withheld` out of the check.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from . import _util
from ._util import exact_sum, fits_int64, run_ordered, thread_count
# the checks take their artifacts from an Analysis; diff_summary,
# preimage_distribution and zero_column stay importable here because
# perfbench/tracer.py wraps them under these names
from .differential import apn_shape, diff_summary
from .distribution import PreimageDist, preimage_distribution
from .domain import DomainParams, FuncTable
from .errors import BudgetError, InternalCheckError
from .verdict import CheckResult, combine, render
from .walsh import walsh_row, walsh_rows_signs_p2, zero_column

if TYPE_CHECKING:
    from .report import Analysis

# Odd-p rows whose DFT gathers fewer entries than this, n * p^(n+2) a row, are
# profiled on the calling thread: each row makes about 50 short numpy calls,
# and worker threads convoy on the GIL between them.  Best of 3, 1 thread
# against 2 threads, random tables on 2 vCPUs:
#   (3, 6, 5)     39366 gathers a row   0.048 s against 0.089 s
#   (7, 3, 3)     50421                 0.060 s against 0.081 s
#   (13, 2, 3)    57122                 0.463 s against 0.491 s
#   (5, 4, 3)     62500                 0.024 s against 0.040 s
#   (3, 7, 5)    137781                 0.150 s against 0.144 s
#   (17, 2, 2)   167042                 0.151 s against 0.113 s
#   (7, 4, 2)    470596                 0.053 s against 0.044 s
#   (31, 2, 2)  1847042                 3.95 s against 2.49 s
# p^n alone does not place the crossover: (31, 2, 2) has 961 entries a row.
_THREADED_ROW_GATHERS = 1 << 17


@functools.lru_cache(maxsize=None)
def _p_powers(p: int) -> np.ndarray:
    """p^0, p^1, ..., every power of p below 2^62, as int64."""
    powers = [1]
    while fits_int64(powers[-1] * p):
        powers.append(powers[-1] * p)
    table = np.array(powers, dtype=np.int64)
    table.setflags(write=False)
    return table


def _p_exponents(v, p: int) -> np.ndarray:
    """e with v = p^e entrywise, -1 where v is not a power of p; v < 2^62."""
    powers = _p_powers(p)
    e = np.minimum(np.searchsorted(powers, v), powers.size - 1)
    return np.where(powers[e] == v, e, -1)


def _p_power_exponent(v: int, p: int) -> Optional[int]:
    """e with v = p^e, or None; v < 2^62."""
    e = int(_p_exponents(v, p))
    return e if e >= 0 else None


@dataclass(frozen=True)
class AmplitudeProfile:
    """Per-mask plateaued classification for every nonzero b.

    t_values[b] is the plateau parameter, or -1 when the component is not
    plateaued; index 0 is unused.  max_sq[b] is the largest rational squared
    modulus in the row (for p = 2 this is the true maximum; for odd p
    non-rational squared moduli exist only in non-plateaued rows and are
    excluded, see all_sq_rational).
    """

    params: DomainParams
    t_values: np.ndarray
    balanced_mask: np.ndarray
    max_sq: np.ndarray
    all_sq_rational: bool

    @property
    def not_plateaued_count(self) -> int:
        return int(np.count_nonzero(self.t_values[1:] == -1))

    @property
    def all_plateaued(self) -> bool:
        return self.not_plateaued_count == 0

    @property
    def bent_count(self) -> int:
        return int(np.count_nonzero(self.t_values[1:] == 0))

    @property
    def balanced_count(self) -> int:
        return int(np.count_nonzero(self.balanced_mask[1:]))

    def t_histogram(self) -> tuple[tuple[int, int], ...]:
        """(t, count) over plateaued components, t ascending."""
        ts = self.t_values[1:]
        vals, counts = np.unique(ts[ts >= 0], return_counts=True)
        return tuple((int(t), int(c)) for t, c in zip(vals.tolist(), counts.tolist()))

    @property
    def single_t(self) -> Optional[int]:
        hist = self.t_histogram()
        if self.all_plateaued and len(hist) == 1:
            return hist[0][0]
        return None

    @property
    def linearity_sq(self) -> Optional[int]:
        """max |W(b,a)|^2 over b != 0; None when odd-p irrational moduli occur."""
        if not self.all_sq_rational:
            return None
        return int(self.max_sq[1:].max())

    @property
    def linearity(self) -> Optional[int]:
        from math import isqrt

        sq = self.linearity_sq
        if sq is None:
            return None
        r = isqrt(sq)
        return r if r * r == sq else None

    def as_dict(self) -> dict:
        return {
            "all_plateaued": self.all_plateaued,
            "not_plateaued_count": self.not_plateaued_count,
            "bent_count": self.bent_count,
            "balanced_count": self.balanced_count,
            "t_histogram": [list(x) for x in self.t_histogram()],
            "single_t": self.single_t,
            "linearity_sq": self.linearity_sq,
            "linearity": self.linearity,
        }


def _classify_rows(
    p: int, n: int, mags: np.ndarray, power: int, rational: np.ndarray, balanced: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(t, balanced, max_sq, rational) for a block of spectrum rows.

    mags is a (masks, p^n) block of nonnegative integers, mags^power = |W|^2
    at every entry whose squared modulus is rational and 0 at the others;
    rational says a row has no other entries, balanced that W(b, 0) = 0.  A
    rational row is t-plateaued when its nonzero entries are one value and
    its |W|^2 is p^(n+t), t >= 0; t is -1 otherwise.  max_sq is the largest
    rational |W|^2 of each row, at most p^(2n), which component_profile
    holds to the int64 rule.
    """
    support = np.count_nonzero(mags, axis=1)
    top = mags.max(axis=1)
    # a row is two-valued in |W|^2 exactly when it is in mags
    two_valued = np.all((mags == 0) | (mags == top[:, None]), axis=1)
    top = top.astype(np.int64)
    if bool(np.any(rational & (top < 1))):
        raise InternalCheckError("a Walsh row is identically zero")
    max_sq = top**power
    # a top that is no power of p has exponent -1, so t < 0
    t = power * _p_exponents(top, p) - n
    plateaued = rational & two_valued & (t >= 0)
    if bool(np.any(plateaued & (support * max_sq != p ** (2 * n)))):
        raise InternalCheckError("plateaued row support count contradicts Parseval")
    return np.where(plateaued, t, -1), balanced, max_sq, rational


def component_profile(table: FuncTable, threads: Optional[int] = None) -> AmplitudeProfile:
    """Classify every nonzero component; cost O(p^m) row transforms."""
    pr = table.params
    p, n, pn, pm = pr.p, pr.n, pr.domain_size, pr.codomain_size
    workers = thread_count() if threads is None else threads
    if not fits_int64(pn * pn):
        raise BudgetError(f"squared Walsh values at p={p}, n={n} exceed the int64 budget")
    if p == 2:
        width = 256

        def rows(bs: np.ndarray) -> tuple:
            signs = walsh_rows_signs_p2(table, bs)
            balanced = signs[:, 0] == 0
            # |W| <= 2^n fits the rows' dtype, so it overwrites them
            return np.abs(signs, out=signs), 2, np.ones(bs.size, dtype=bool), balanced

    else:
        width = 32
        if n * p ** (n + 2) < _THREADED_ROW_GATHERS:
            workers = 1

        def rows(bs: np.ndarray) -> tuple:
            # row by row: one row's squared moduli at a time, never a group's
            sq = np.empty((bs.size, pn), dtype=np.int64)
            rational = np.empty(bs.size, dtype=bool)
            balanced = np.empty(bs.size, dtype=bool)
            for i, b in enumerate(bs.tolist()):
                row = walsh_row(table, b)
                rat, sq[i] = row.sq_moduli().integers()
                rational[i] = rat.all()
                balanced[i] = not row.basis_coords()[0].any()
            return sq, 1, rational, balanced

    # masks per batch: fixed, so output never depends on the worker count
    step = min(width, max(1, _util.ROWS_SCRATCH // pn))
    batches = [np.arange(lo, min(lo + step, pm), dtype=np.int64) for lo in range(1, pm, step)]
    results = run_ordered(lambda bs: _classify_rows(p, n, *rows(bs)), batches, workers)
    t_values = np.full(pm, -1, dtype=np.int64)
    balanced = np.zeros(pm, dtype=bool)
    max_sq = np.zeros(pm, dtype=np.int64)
    rational = np.ones(pm, dtype=bool)
    for bs, res in zip(batches, results):
        t_values[bs], balanced[bs], max_sq[bs], rational[bs] = res
    return AmplitudeProfile(pr, t_values, balanced, max_sq, bool(rational.all()))


# ---------------------------------------------------------------------------
# d-to-1 structure

def detect_dto1(dist: PreimageDist) -> Optional[int]:
    """d when the distribution is one size-1 fiber plus size-d fibers, else None."""
    pn = dist.params.domain_size
    hist = dist.histogram
    if hist == ((1, pn),):
        return 1
    if len(hist) == 2 and hist[0] == (1, 1):
        d, mult = hist[1]
        if d * mult == pn - 1:
            return d
    return None


def dto1_check(an: "Analysis") -> CheckResult:
    """Detect the d-to-1 pattern and verify the spectral structure it forces.

    For d > 2 the verified conclusions are: n even, d = p^t + 1, t | n/2,
    every component plateaued, exactly p^n - 1 - (p^n-1)/d bent components and
    (p^n-1)/d of amplitude p^(n/2+t), linearity p^(n/2+t).  For d = 2 at odd p
    the conclusion is that every component is bent.  The spectral facts are
    treated as conclusions to verify, never as trusted hypotheses, so a table
    whose distribution matches but whose spectrum does not is a failure.
    """
    tag = "platdto1"
    pr = an.params
    if pr.n != pr.m:
        return CheckResult.skipped(tag, "d-to-1 analysis needs n = m")
    d = detect_dto1(an.dist)
    if d is None:
        return CheckResult.skipped(tag, "value distribution is not d-to-1")
    profile = an.profile()
    pn = pr.domain_size
    if d == 1:
        return CheckResult.skipped(tag, "function is a permutation (d = 1)")
    if d == 2:
        if pr.p == 2:
            return CheckResult.skipped(tag, "d = 2 at p = 2 is outside the theorem")
        problems = []
        if not profile.all_plateaued:
            problems.append(f"{profile.not_plateaued_count} components are not plateaued")
        elif profile.t_histogram() != ((0, pn - 1),):
            problems.append(
                f"expected every component bent, got t histogram {profile.t_histogram()}"
            )
        return CheckResult.judged(tag, problems, d=2, case="planar-2to1", profile=render(profile))
    t = _p_power_exponent(d - 1, pr.p)
    problems = []
    if pr.n % 2:
        problems.append(f"n = {pr.n} is odd")
    if t is None or t < 1:
        problems.append(f"d - 1 = {d - 1} is not a positive power of p = {pr.p}")
    expected_n1 = (pn - 1) // d
    expected_n0 = pn - 1 - expected_n1
    amp_count = None
    if t is not None and t >= 1:
        if pr.n % 2 == 0 and (pr.n // 2) % t:
            problems.append(f"t = {t} does not divide n/2 = {pr.n // 2}")
        amp_sq = pr.p ** (pr.n + 2 * t)
        if not profile.all_plateaued:
            problems.append(f"{profile.not_plateaued_count} components are not plateaued")
        else:
            hist = dict(profile.t_histogram())
            amp_count = hist.get(2 * t, 0)
            if profile.bent_count != expected_n0:
                problems.append(
                    f"bent components: {profile.bent_count}, expected {expected_n0}"
                )
            if amp_count != expected_n1:
                problems.append(
                    f"components of squared amplitude p^(n+2t) = {amp_sq}: "
                    f"{amp_count}, expected {expected_n1}"
                )
            extra = {k: v for k, v in hist.items() if k not in (0, 2 * t)}
            if extra:
                problems.append(f"unexpected plateau parameters {extra}")
            if profile.linearity_sq != amp_sq:
                problems.append(
                    f"squared linearity {profile.linearity_sq}, expected {amp_sq}"
                )
    return CheckResult.judged(
        tag,
        problems,
        d=d,
        t=t,
        expected_n0=expected_n0,
        expected_n1=expected_n1,
        profile=render(profile),
    )


def walsh_integrality_check(an: "Analysis") -> CheckResult:
    """For odd p and a d-to-1 table with d > 2: W(b,0) must be a rational
    integer congruent to 1 mod d, after shifting the size-1 fiber to 0."""
    tag = "integrality"
    pr = an.params
    if pr.p == 2:
        return CheckResult.skipped(tag, "requires odd p")
    if pr.n != pr.m:
        return CheckResult.skipped(tag, "d-to-1 analysis needs n = m")
    dist = an.dist
    d = detect_dto1(dist)
    if d is None:
        return CheckResult.skipped(tag, "value distribution is not d-to-1")
    if d <= 2:
        return CheckResult.skipped(tag, f"needs d > 2, got d = {d}")
    witness = int(np.nonzero(dist.counts == 1)[0][0])
    rational, ints = dist.shifted_zero_col(witness).integers()
    problems = []
    values: list[int] = []
    if not bool(rational.all()):
        bad = int(np.argmin(rational))
        problems.append(f"W({bad},0) is not a rational integer")
    else:
        values = sorted(set(int(v) for v in ints.tolist()))
        off = (ints - 1) % d != 0
        if bool(off.any()):
            bad = int(np.argmax(off))
            problems.append(f"W({bad},0) = {int(ints[bad])} is not 1 mod d = {d}")
    return CheckResult.judged(tag, problems, d=d, witness=witness, distinct_values=values)


# ---------------------------------------------------------------------------
# APN structure

def _min_image_type(dist: PreimageDist) -> "int | str":
    pn = dist.params.domain_size
    hist = dist.histogram
    if hist == ((1, 1), (3, (pn - 1) // 3)):
        return 1
    if hist == ((2, 2), (3, (pn - 4) // 3)):
        return 2
    if hist == ((2, 3), (3, (pn - 10) // 3), (4, 1)):
        return 3
    return "other"


def apn_structure(an: "Analysis") -> CheckResult:
    """The imbalance, bent-count, and value-distribution facts forced on
    plateaued APN functions; each verified as a separate sub-check."""
    tag = "apn-structure"
    pr = an.params
    if not apn_shape(pr):
        return CheckResult.skipped(tag, "requires p = 2 and n = m")
    diff = an.diff()
    if not diff.apn:
        return CheckResult.skipped(tag, f"not APN (differential uniformity {diff.delta})")
    dist = an.dist
    n_f = an.n_f
    profile = an.profile()
    n = pr.n
    pn = pr.domain_size
    checks = [
        CheckResult.passed("kkk-imbalance", n_f=n_f, bound=2 * pn - 2)
        if n_f <= 2 * pn - 2
        else CheckResult.failed(
            "kkk-imbalance", f"imbalance {n_f} exceeds 2^(n+1) - 2 = {2 * pn - 2}", n_f=n_f
        )
    ]
    carlet_sum = None
    if not profile.all_plateaued:
        reason = f"{profile.not_plateaued_count} components are not plateaued"
        checks.append(CheckResult.skipped("carlet-identity", reason))
    else:
        carlet_sum = exact_sum(profile.max_sq[1:], (pn * pn).bit_length())
        want = 2 * pn * (pn - 1)
        problems = []
        if carlet_sum != want:
            problems.append(f"sum of squared amplitudes {carlet_sum} != 2^(n+1)(2^n - 1) = {want}")
        checks.append(CheckResult.judged("carlet-identity", problems, total=carlet_sum))
    bent = profile.bent_count
    balanced = profile.balanced_count
    image = dist.image_size
    dist_type: Optional[int | str] = None
    if n % 2 or not profile.all_plateaued:
        reason = (
            f"n = {n} is odd" if n % 2 else f"{profile.not_plateaued_count} components are not plateaued"
        )
        for sub in (
            "bent-lower",
            "extreme-imbalance",
            "imbalance-mod4",
            "bent-mod4",
            "min-image",
        ):
            checks.append(CheckResult.skipped(sub, reason))
        min_image_attained = False
    else:
        # n even, so 3 | 2^n + 2 and the floor below is exact
        min_image = (pn + 2) // 3
        problems = []
        if 3 * bent < 2 * (pn - 1):
            problems.append(f"bent components {bent} below 2(2^n - 1)/3 = {2 * (pn - 1) // 3}")
        checks.append(CheckResult.judged("bent-lower", problems, bent_count=bent))
        problems = []
        if 3 * n_f < 2 * pn - 2:
            problems.append(f"imbalance {n_f} below (2^(n+1) - 2)/3")
        if n_f > 2 * pn - 2:
            problems.append(f"imbalance {n_f} above 2^(n+1) - 2")
        at_upper = n_f == 2 * pn - 2
        if at_upper != (balanced == 0):
            problems.append(
                f"upper bound attained: {at_upper}, but balanced component count is {balanced}"
            )
        at_lower = 3 * n_f == 2 * pn - 2
        lower_shape = 3 * bent == 2 * (pn - 1) and 3 * balanced == pn - 1
        if at_lower != lower_shape:
            problems.append(
                f"lower bound attained: {at_lower}, but (bent, balanced) = ({bent}, {balanced})"
            )
        checks.append(CheckResult.judged("extreme-imbalance", problems, n_f=n_f))
        problems = []
        if n_f % 4 != 2:
            problems.append(f"imbalance {n_f} is not 2 mod 4")
        if balanced >= 1 and n_f > 2 * pn - 6:
            problems.append(
                f"balanced component present but imbalance {n_f} exceeds 2^(n+1) - 6"
            )
        checks.append(CheckResult.judged("imbalance-mod4", problems, n_f=n_f))
        problems = []
        if bent % 4 != 2:
            problems.append(f"bent count {bent} is not 2 mod 4")
        checks.append(CheckResult.judged("bent-mod4", problems, bent_count=bent))
        problems = []
        if 3 * image < pn + 2:
            problems.append(f"image size {image} below (2^n + 2)/3")
        min_image_attained = image == min_image
        if min_image_attained:
            dist_type = _min_image_type(dist)
            if dist_type == "other":
                problems.append(
                    f"minimum image size attained but distribution {dist.histogram} "
                    "matches none of the three admissible patterns"
                )
            if dist_type == 2:
                problems.append(
                    "distribution type 2 is impossible for plateaued APN functions"
                )
            if balanced:
                problems.append(
                    f"minimum image size attained but {balanced} components are balanced"
                )
        checks.append(
            CheckResult.judged(
                "min-image", problems, image_size=image, distribution_type=dist_type
            )
        )
    structure = {
        "n_f": n_f,
        "bent_count": bent,
        "balanced_count": balanced,
        "image_size": image,
        "min_image_attained": min_image_attained,
        "distribution_type": dist_type,
        "carlet_sum": carlet_sum,
    }
    return combine(tag, checks, structure=structure)


# ---------------------------------------------------------------------------
# differential two-valuedness

def check_diff_two_valued(an: "Analysis") -> CheckResult:
    """delta >= p^t, with equality exactly for two-valued difference tables.

    Applies in two situations sharing the same conclusion: a single-amplitude
    function with plateau parameter t > 0, and a plateaued d-to-1 function
    with d = p^t + 1.
    """
    tag = "diff-two-valued"
    pr = an.params
    if pr.n != pr.m:
        return CheckResult.skipped(tag, "requires n = m")
    profile = an.profile()
    ts: list[tuple[str, int]] = []
    single = profile.single_t
    if single is not None and single > 0:
        ts.append(("single-amplitude", single))
    d = detect_dto1(an.dist)
    if d is not None and d > 2 and profile.all_plateaued:
        t = _p_power_exponent(d - 1, pr.p)
        if t is not None and t >= 1:
            ts.append(("d-to-1", t))
    if not ts:
        return CheckResult.skipped(
            tag, "neither single-amplitude t > 0 nor plateaued d-to-1 with d = p^t + 1"
        )
    diff = an.diff()
    problems = []
    for source, t in ts:
        pt = pr.p ** t
        if diff.delta < pt:
            problems.append(f"{source}: differential uniformity {diff.delta} below p^t = {pt}")
        if (diff.delta == pt) != (diff.two_valued_at == pt):
            problems.append(
                f"{source}: delta = {diff.delta}, p^t = {pt}, but two-valued value is "
                f"{diff.two_valued_at}"
            )
    return CheckResult.judged(
        tag,
        problems,
        delta=diff.delta,
        two_valued_at=diff.two_valued_at,
        cases=[{"source": s, "t": t} for s, t in ts],
    )

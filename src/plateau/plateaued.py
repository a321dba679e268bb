"""Component amplitude profiles and the structural checks built on them.

A component <b, F> is plateaued with parameter t when every squared Walsh
modulus lies in {0, p^(n+t)}; t = 0 is bent.  Membership is decided on exact
integers (power-of-p tests, never logarithms).  A balanced component is
decided from the component's value distribution, not from W(b,0) alone, since
the two coincide only for p = 2.

Every named check returns a CheckResult instead of assuming its hypotheses:
hypothesis mismatches are "skipped", violated conclusions are "fail" with the
offending quantities in details.  A check takes the table's `Analysis` and
asks it for each artifact when it needs it; an artifact a budget withholds
raises `report.Withheld` out of the check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from ._util import exact_sum, run_ordered, thread_count
# the checks take their artifacts from an Analysis; diff_summary and
# preimage_distribution stay importable here because perfbench/tracer.py
# wraps them under these names
from .differential import diff_summary
from .distribution import PreimageDist, preimage_distribution
from .domain import DomainParams, FuncTable, dot_array
from .errors import InternalCheckError
from .verdict import CheckResult, combine
from .walsh import walsh_row, walsh_rows_signs_p2, zero_column

if TYPE_CHECKING:
    from .report import Analysis

_PROFILE_BATCH = 256  # masks per batch; fixed so output never depends on threads


def _p_power_exponent(v: int, p: int) -> Optional[int]:
    """e with v = p^e, or None."""
    if v < 1:
        return None
    e = 0
    while v % p == 0:
        v //= p
        e += 1
    return e if v == 1 else None


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


def _profile_batch_p2(table: FuncTable, bs: np.ndarray) -> tuple[np.ndarray, ...]:
    pr = table.params
    n = pr.n
    rows = walsh_rows_signs_p2(table, bs)
    balanced = rows[:, 0] == 0
    support = np.count_nonzero(rows, axis=1).astype(np.int64)
    # |W| <= 2^n fits the rows' dtype, so the absolute values overwrite them;
    # a row is two-valued in |W|^2 exactly when it is in |W|
    absr = np.abs(rows, out=rows)
    top = absr.max(axis=1)
    if int(top.min()) < 1:
        raise InternalCheckError("a Walsh row is identically zero")
    two_valued = np.all((absr == 0) | (absr == top[:, None]), axis=1)
    amax = top.astype(np.int64)
    vmax = amax * amax
    powers = np.left_shift(np.int64(1), np.arange(62, dtype=np.int64))
    lam = np.searchsorted(powers, amax)
    pow_of_two = powers[lam] == amax
    t = 2 * lam.astype(np.int64) - n
    plateaued = two_valued & pow_of_two & (t >= 0)
    bad = plateaued & (support * vmax != 1 << (2 * n))
    if bool(bad.any()):
        raise InternalCheckError("plateaued row support count contradicts Parseval")
    t_out = np.where(plateaued, t, np.int64(-1))
    return t_out, balanced, vmax


def _profile_one_odd(table: FuncTable, b: int) -> tuple[int, bool, int, bool]:
    pr = table.params
    p = pr.p
    row = walsh_row(table, b)
    rational, sq = row.sq_modulus_profile()
    all_rat = bool(rational.all())
    vmax = int(sq.max())
    t_val = -1
    if all_rat:
        nz = np.unique(sq[sq > 0])
        if nz.shape[0] == 1:
            e = _p_power_exponent(int(nz[0]), p)
            if e is not None and e >= pr.n:
                t_val = e - pr.n
                support = row.support_count()
                if support * int(nz[0]) != p ** (2 * pr.n):
                    raise InternalCheckError(
                        "plateaued row support count contradicts Parseval"
                    )
    comp = dot_array(b, table.values, p, pr.m)
    counts = np.bincount(comp, minlength=p)
    balanced = bool(np.all(counts == pr.domain_size // p))
    return t_val, balanced, vmax, all_rat


def component_profile(table: FuncTable, threads: Optional[int] = None) -> AmplitudeProfile:
    """Classify every nonzero component; cost O(p^m) row transforms."""
    pr = table.params
    pm = pr.codomain_size
    workers = thread_count() if threads is None else threads
    t_values = np.full(pm, -1, dtype=np.int64)
    balanced = np.zeros(pm, dtype=bool)
    max_sq = np.zeros(pm, dtype=np.int64)
    if pr.p == 2:
        batches = [
            np.arange(lo, min(lo + _PROFILE_BATCH, pm), dtype=np.int64)
            for lo in range(1, pm, _PROFILE_BATCH)
        ]
        results = run_ordered(lambda bs: _profile_batch_p2(table, bs), batches, workers)
        for bs, (t_out, bal, vmax) in zip(batches, results):
            t_values[bs] = t_out
            balanced[bs] = bal
            max_sq[bs] = vmax
        return AmplitudeProfile(pr, t_values, balanced, max_sq, True)
    all_rat = True
    chunk = max(1, _PROFILE_BATCH // 8)
    groups = [list(range(lo, min(lo + chunk, pm))) for lo in range(1, pm, chunk)]

    def work(group: list[int]) -> list[tuple[int, bool, int, bool]]:
        return [_profile_one_odd(table, b) for b in group]

    for group, res in zip(groups, run_ordered(work, groups, workers)):
        for b, (t_val, bal, vmax, rat) in zip(group, res):
            t_values[b] = t_val
            balanced[b] = bal
            max_sq[b] = vmax
            all_rat = all_rat and rat
    return AmplitudeProfile(pr, t_values, balanced, max_sq, all_rat)


# ---------------------------------------------------------------------------
# d-to-1 structure

@dataclass(frozen=True)
class Dto1Report:
    """Detected d-to-1 pattern and the component counts attached to it."""

    is_dto1: bool
    d: Optional[int]
    t: Optional[int]
    n0: Optional[int]
    n1: Optional[int]
    linearity_sq: Optional[int]

    def linearity(self) -> Optional[int]:
        from math import isqrt

        if self.linearity_sq is None:
            return None
        r = isqrt(self.linearity_sq)
        return r if r * r == self.linearity_sq else None

    def as_dict(self) -> dict:
        return {
            "is_dto1": self.is_dto1,
            "d": self.d,
            "t": self.t,
            "n0": self.n0,
            "n1": self.n1,
            "linearity_sq": self.linearity_sq,
            "linearity": self.linearity(),
        }


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


def dto1_check(an: "Analysis") -> tuple[Dto1Report, CheckResult]:
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
    empty = Dto1Report(False, None, None, None, None, None)
    if pr.n != pr.m:
        return empty, CheckResult.skipped(tag, "d-to-1 analysis needs n = m")
    d = detect_dto1(an.dist)
    if d is None:
        return empty, CheckResult.skipped(tag, "value distribution is not d-to-1")
    profile = an.profile()
    report = Dto1Report(True, d, None, profile.bent_count, None, profile.linearity_sq)
    pn = pr.domain_size
    if d == 1:
        return report, CheckResult.skipped(tag, "function is a permutation (d = 1)")
    if d == 2:
        if pr.p == 2:
            return report, CheckResult.skipped(tag, "d = 2 at p = 2 is outside the theorem")
        problems = []
        if not profile.all_plateaued:
            problems.append(f"{profile.not_plateaued_count} components are not plateaued")
        elif profile.t_histogram() != ((0, pn - 1),):
            problems.append(
                f"expected every component bent, got t histogram {profile.t_histogram()}"
            )
        report = Dto1Report(True, 2, 0, profile.bent_count, 0, profile.linearity_sq)
        details = {"d": 2, "case": "planar-2to1", "profile": profile.as_dict()}
        if problems:
            return report, CheckResult.failed(tag, "; ".join(problems), **details)
        return report, CheckResult.passed(tag, **details)
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
    report = Dto1Report(True, d, t, expected_n0, expected_n1, profile.linearity_sq)
    details = {
        "d": d,
        "t": t,
        "expected_n0": expected_n0,
        "expected_n1": expected_n1,
        "profile": profile.as_dict(),
    }
    if problems:
        return report, CheckResult.failed(tag, "; ".join(problems), **details)
    return report, CheckResult.passed(tag, **details)


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
    shifted = an.table if witness == 0 else an.table.shifted_output(witness)
    zc = zero_column(shifted)
    rows = zc.data
    rational = np.all(rows[:, 1:] == rows[:, 1:2], axis=1)
    problems = []
    values: list[int] = []
    if not bool(rational.all()):
        bad = int(np.argmin(rational))
        problems.append(f"W({bad},0) is not a rational integer")
    else:
        ints = rows[:, 0] - rows[:, 1]
        values = sorted(set(int(v) for v in ints.tolist()))
        off = (ints - 1) % d != 0
        if bool(off.any()):
            bad = int(np.argmax(off))
            problems.append(f"W({bad},0) = {int(ints[bad])} is not 1 mod d = {d}")
    details = {"d": d, "witness": witness, "distinct_values": values}
    if problems:
        return CheckResult.failed(tag, "; ".join(problems), **details)
    return CheckResult.passed(tag, **details)


# ---------------------------------------------------------------------------
# APN structure

@dataclass(frozen=True)
class ApnStructure:
    n_f: int
    bent_count: int
    balanced_count: int
    image_size: int
    min_image_attained: bool
    distribution_type: "Optional[int | str]"
    carlet_sum: Optional[int]

    def as_dict(self) -> dict:
        return {
            "n_f": self.n_f,
            "bent_count": self.bent_count,
            "balanced_count": self.balanced_count,
            "image_size": self.image_size,
            "min_image_attained": self.min_image_attained,
            "distribution_type": self.distribution_type,
            "carlet_sum": self.carlet_sum,
        }


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


def apn_structure(an: "Analysis") -> tuple[Optional[ApnStructure], CheckResult]:
    """The imbalance, bent-count, and value-distribution facts forced on
    plateaued APN functions; each verified as a separate sub-check."""
    tag = "apn-structure"
    pr = an.params
    if pr.p != 2 or pr.n != pr.m:
        return None, CheckResult.skipped(tag, "requires p = 2 and n = m")
    diff = an.diff()
    if not diff.apn:
        return None, CheckResult.skipped(tag, f"not APN (differential uniformity {diff.delta})")
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
        if carlet_sum == want:
            checks.append(CheckResult.passed("carlet-identity", total=carlet_sum))
        else:
            checks.append(
                CheckResult.failed(
                    "carlet-identity",
                    f"sum of squared amplitudes {carlet_sum} != 2^(n+1)(2^n - 1) = {want}",
                    total=carlet_sum,
                )
            )
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
        if 3 * bent >= 2 * (pn - 1):
            checks.append(CheckResult.passed("bent-lower", bent_count=bent))
        else:
            checks.append(
                CheckResult.failed(
                    "bent-lower",
                    f"bent components {bent} below 2(2^n - 1)/3 = {2 * (pn - 1) // 3}",
                    bent_count=bent,
                )
            )
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
        if problems:
            checks.append(CheckResult.failed("extreme-imbalance", "; ".join(problems), n_f=n_f))
        else:
            checks.append(CheckResult.passed("extreme-imbalance", n_f=n_f))
        problems = []
        if n_f % 4 != 2:
            problems.append(f"imbalance {n_f} is not 2 mod 4")
        if balanced >= 1 and n_f > 2 * pn - 6:
            problems.append(
                f"balanced component present but imbalance {n_f} exceeds 2^(n+1) - 6"
            )
        if problems:
            checks.append(CheckResult.failed("imbalance-mod4", "; ".join(problems), n_f=n_f))
        else:
            checks.append(CheckResult.passed("imbalance-mod4", n_f=n_f))
        if bent % 4 == 2:
            checks.append(CheckResult.passed("bent-mod4", bent_count=bent))
        else:
            checks.append(
                CheckResult.failed("bent-mod4", f"bent count {bent} is not 2 mod 4", bent_count=bent)
            )
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
        if problems:
            checks.append(
                CheckResult.failed(
                    "min-image", "; ".join(problems), image_size=image, distribution_type=dist_type
                )
            )
        else:
            checks.append(
                CheckResult.passed("min-image", image_size=image, distribution_type=dist_type)
            )
    structure = ApnStructure(
        n_f, bent, balanced, image, min_image_attained, dist_type, carlet_sum
    )
    return structure, combine(tag, checks, structure=structure.as_dict())


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
    details = {
        "delta": diff.delta,
        "two_valued_at": diff.two_valued_at,
        "cases": [{"source": s, "t": t} for s, t in ts],
    }
    if problems:
        return CheckResult.failed(tag, "; ".join(problems), **details)
    return CheckResult.passed(tag, **details)

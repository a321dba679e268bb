"""Analysis orchestration: one function table in, one JSON-ready report out.

The report is a plain dict of exact integers, strings, and booleans, rendered
deterministically (sorted keys); wall-clock data appears only when explicitly
requested so that default reports are byte-identical across runs and thread
counts.

`Analysis(table, opts)` is the memo of one table's artifacts: `dist`, `n_f`
(None when m > 2n), the AB class `ab`, and `profile()` / `diff()`, each
computed at most once.  One budget rule, `require_budget`, decides the two
heavy artifacts: the component profile runs only while
p^(n+m) <= 2^max_profile_log and difference-table work only while
p^(2n) <= 2^max_table_log, and zero_column_only withholds both.  A withheld
artifact raises `Withheld(reason)`.

`CHECKS` is the ordered registry of the file checks, tag -> check of an
`Analysis`.  A check asks for each artifact at the point it needs it, so a
hypothesis that fails first skips the check for its own reason.  `run_check`
turns `Withheld` into a skipped verdict and lists `check:<tag>` as skipped;
`analyze --all` runs every entry and `check-theorem --paper-ref TAG FILE`
runs one, so the two give the same verdict.

A section or check withheld by a budget is listed in the report's "skipped"
array and turns the exit status into 3 (partial result) unless some check
failed outright (1); a check whose hypotheses do not apply skips without
affecting the exit code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

from .differential import DiffSummary, diff_summary, fourth_moment
from .distribution import (
    ABClass,
    PreimageDist,
    classify_almost_balanced,
    ab_walsh_consequences,
    image_lower_bound,
    imbalance,
    imbalance_defect,
    preimage_bounds,
    preimage_distribution,
    surjectivity_certificate,
)
from .domain import DomainParams, FuncTable
from .plateaued import (
    AmplitudeProfile,
    apn_structure,
    check_diff_two_valued,
    component_profile,
    dto1_check,
    walsh_integrality_check,
)
from .verdict import CheckResult

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_PARTIAL = 3

_AB_TYPE_JSON = {"not_ab": None, "type_plus": "+", "type_minus": "-"}


@dataclass(frozen=True)
class AnalysisOptions:
    """What `analyze` computes; mirrors the CLI flags."""

    with_profile: bool = False
    with_differential: bool = False
    with_checks: bool = False
    zero_column_only: bool = False
    max_profile_log: int = 28
    max_table_log: int = 28
    timings: bool = False


class Withheld(Exception):
    """A budget or zero_column_only withholds an artifact; str() is the reason."""


def require_budget(params: DomainParams, opts: AnalysisOptions, artifact: str) -> None:
    """The one budget rule: raise Withheld unless `artifact` ("profile" or
    "diff") may be computed for a table of this shape."""
    pn = params.domain_size
    if artifact == "profile":
        cost, log, what = pn * params.codomain_size, opts.max_profile_log, "component profile"
    else:
        cost, log, what = pn * pn, opts.max_table_log, "difference table"
    if opts.zero_column_only or cost > 1 << log:
        raise Withheld(f"{what} over budget")


class Analysis:
    """The artifacts of one table under one set of options, each computed at
    most once and only when first asked for."""

    def __init__(self, table: FuncTable, opts: AnalysisOptions = AnalysisOptions()):
        self.table = table
        self.params = table.params
        self.opts = opts
        self._profile: Optional[AmplitudeProfile] = None
        self._diff: Optional[DiffSummary] = None

    @cached_property
    def dist(self) -> PreimageDist:
        return preimage_distribution(self.table)

    @cached_property
    def n_f(self) -> Optional[int]:
        """The imbalance N_F, or None when m > 2n (it need not be an integer)."""
        pr = self.params
        return None if pr.m > 2 * pr.n else imbalance(self.dist)

    @cached_property
    def ab(self) -> ABClass:
        """The almost-balanced class; needs n_f."""
        return classify_almost_balanced(self.table, dist=self.dist, n_f=self.n_f)

    def profile(self) -> AmplitudeProfile:
        if self._profile is None:
            require_budget(self.params, self.opts, "profile")
            self._profile = component_profile(self.table)
        return self._profile

    def diff(self) -> DiffSummary:
        if self._diff is None:
            require_budget(self.params, self.opts, "diff")
            self._diff = diff_summary(self.table)
        return self._diff


def _platdto1(an: Analysis) -> CheckResult:
    # the d-to-1 verdict rests on the profile, so its budget is decided
    # before the check's hypotheses are
    require_budget(an.params, an.opts, "profile")
    return dto1_check(an)


# The lambdas look the checks up among this module's globals at call time,
# so a wrapper installed on a name (perfbench/tracer.py) sees every call.
CHECKS: dict[str, Callable[[Analysis], CheckResult]] = {
    "platdto1": _platdto1,
    "integrality": lambda an: walsh_integrality_check(an),
    "ab-walsh": lambda an: ab_walsh_consequences(an),
    "apn-structure": lambda an: apn_structure(an),
    "diff-two-valued": lambda an: check_diff_two_valued(an),
}


def run_check(an: Analysis, tag: str, skipped: list[str]) -> CheckResult:
    """Run the registry entry `tag`; a withheld artifact skips it and
    appends `check:<tag>` to `skipped`."""
    try:
        return CHECKS[tag](an)
    except Withheld as w:
        skipped.append(f"check:{tag}")
        return CheckResult.skipped(tag, str(w))


def _distribution_block(an: Analysis) -> dict:
    pr = an.params
    dist = an.dist
    block: dict = {
        "image_size": dist.image_size,
        "preimage_histogram": [list(x) for x in dist.histogram],
    }
    n_f = an.n_f
    if n_f is None:
        block.update(
            {
                "imbalance": None,
                "note": "imbalance needs m <= 2n; only the raw distribution is reported",
            }
        )
        block["surjectivity"] = {
            "actual": dist.image_size == pr.codomain_size,
            "guaranteed": None,
            "inconclusive": True,
        }
        return block
    rad, image = imbalance_defect(dist, n_f)
    aware, free = preimage_bounds(dist, n_f)
    ab = an.ab
    cert = surjectivity_certificate(dist, n_f)
    lower = image_lower_bound(pr, n_f)
    if lower > dist.image_size:
        raise AssertionError("image lower bound exceeded the actual image size")
    block.update(
        {
            "imbalance": n_f,
            "xi_radicand": rad,
            "xi_denominator": image,
            "ab_type": _AB_TYPE_JSON[ab.kind],
            "ab_witness": ab.witness,
            "ab_witnesses_plus": list(ab.witnesses_plus),
            "ab_witnesses_minus": list(ab.witnesses_minus),
            "bounds": {
                "image_aware": aware.as_dict(),
                "image_free": free.as_dict(),
            },
            "surjectivity": {
                "actual": cert.actual,
                "guaranteed": cert.guaranteed,
                "inconclusive": not cert.guaranteed,
            },
            "image_lower_bound": lower,
        }
    )
    return block


def _differential_block(an: Analysis) -> dict:
    diff = an.diff()
    moments = fourth_moment(an.table)
    return {
        "delta": diff.delta,
        "two_valued_at": diff.two_valued_at,
        "apn": diff.apn,
        "fourth_moment_all": moments.all_masks,
        "fourth_moment_restricted": moments.restricted,
        "apn_by_moment": moments.apn_by_moment,
    }


def run_analysis(table: FuncTable, opts: AnalysisOptions) -> tuple[dict, int]:
    """Build the report dict and its exit code."""
    pr = table.params
    an = Analysis(table, opts)
    t_start = time.perf_counter()
    timings: dict[str, float] = {}
    skipped: list[str] = []
    report: dict = {
        "params": {"p": pr.p, "n": pr.n, "m": pr.m},
    }

    t0 = time.perf_counter()
    report["distribution"] = _distribution_block(an)
    timings["distribution"] = time.perf_counter() - t0
    if an.n_f is None:
        skipped.append("imbalance")

    sections = (
        ("profile", opts.with_profile, lambda: an.profile().as_dict()),
        ("differential", opts.with_differential, lambda: _differential_block(an)),
    )
    for name, wanted, build in sections:
        if not wanted or opts.zero_column_only:
            continue
        t0 = time.perf_counter()
        try:
            report[name] = build()
        except Withheld:
            report[name] = None
            skipped.append(name)
        else:
            timings[name] = time.perf_counter() - t0

    any_fail = False
    if opts.with_checks:
        t0 = time.perf_counter()
        checks = [run_check(an, tag, skipped) for tag in CHECKS]
        report["checks"] = [c.as_dict() for c in checks]
        timings["checks"] = time.perf_counter() - t0
        any_fail = any(c.status == "fail" for c in checks)

    if skipped:
        report["skipped"] = sorted(set(skipped))
    if opts.timings:
        timings["total"] = time.perf_counter() - t_start
        report["timing"] = {k: round(v, 6) for k, v in sorted(timings.items())}

    if any_fail:
        return report, EXIT_FAIL
    if skipped:
        return report, EXIT_PARTIAL
    return report, EXIT_PASS

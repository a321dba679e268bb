import json

import numpy as np
import pytest

import plateau.report as report_mod
from plateau import plateaued
from plateau._util import run_ordered
from plateau.constructions import monomial
from plateau.distribution import imbalance, preimage_distribution
from plateau.domain import DomainParams, FuncTable
from plateau.report import (
    CHECKS,
    EXIT_FAIL,
    EXIT_PARTIAL,
    EXIT_PASS,
    Analysis,
    AnalysisOptions,
    Withheld,
    run_analysis,
    run_check,
)

FULL = AnalysisOptions(with_profile=True, with_differential=True, with_checks=True)


def random_table(p, n, m, seed):
    rng = np.random.default_rng(seed)
    pr = DomainParams(p, n, m)
    return FuncTable(pr, rng.integers(pr.codomain_size, size=pr.domain_size))


def test_full_report_cube_map():
    report, code = run_analysis(monomial(2, 4, 3), FULL)
    assert code == EXIT_PASS
    assert report["params"] == {"p": 2, "n": 4, "m": 4}
    d = report["distribution"]
    assert d["imbalance"] == 30
    assert d["xi_radicand"] == 100
    assert d["xi_denominator"] == 6
    assert d["image_size"] == 6
    assert d["preimage_histogram"] == [[1, 1], [3, 5]]
    assert d["ab_type"] == "-"
    assert d["ab_witness"] == 0
    assert d["image_lower_bound"] == 6
    assert d["bounds"]["image_aware"]["radicand"] == 100
    assert d["bounds"]["image_free"]["radicand"] == 16 * 15 * 30
    assert d["surjectivity"] == {
        "actual": False,
        "guaranteed": False,
        "inconclusive": True,
    }
    assert report["profile"]["t_histogram"] == [[0, 10], [2, 5]]
    assert report["differential"]["delta"] == 2
    assert report["differential"]["apn"] is True
    assert report["differential"]["fourth_moment_all"] == 188416
    assert report["differential"]["fourth_moment_restricted"] == 122880
    assert report["differential"]["apn_by_moment"] is True
    statuses = {c["tag"]: c["status"] for c in report["checks"]}
    assert statuses == {
        "platdto1": "pass",
        "integrality": "skipped",
        "ab-walsh": "skipped",
        "apn-structure": "pass",
        "diff-two-valued": "pass",
    }
    assert "skipped" not in report
    assert "timing" not in report


def test_report_is_deterministic_and_json_ready():
    tbl = random_table(3, 3, 3, 101)
    a, code_a = run_analysis(tbl, FULL)
    b, code_b = run_analysis(tbl, FULL)
    assert code_a == code_b
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_report_thread_count_invariant(monkeypatch):
    """The 511 masks of a (2, 9, 9) table make two profile batches, so the
    4-thread report really fans out."""
    tbl = random_table(2, 9, 9, 102)
    seen = []

    def spy(fn, items, threads):
        seen.append((len(items), threads))
        return run_ordered(fn, items, threads)

    monkeypatch.setattr(plateaued, "run_ordered", spy)
    monkeypatch.setenv("PLATEAU_THREADS", "1")
    one, _ = run_analysis(tbl, AnalysisOptions(with_profile=True))
    monkeypatch.setenv("PLATEAU_THREADS", "4")
    four, _ = run_analysis(tbl, AnalysisOptions(with_profile=True))
    assert seen == [(2, 1), (2, 4)]
    assert json.dumps(one, sort_keys=True) == json.dumps(four, sort_keys=True)


def test_timings_only_when_requested():
    tbl = random_table(2, 4, 2, 103)
    report, _ = run_analysis(tbl, AnalysisOptions(timings=True))
    assert "timing" in report and "total" in report["timing"]
    report, _ = run_analysis(tbl, AnalysisOptions())
    assert "timing" not in report


def test_wide_codomain_partial():
    pr = DomainParams(2, 1, 3)
    report, code = run_analysis(FuncTable(pr, [0, 7]), FULL)
    assert code == EXIT_PARTIAL
    d = report["distribution"]
    assert d["imbalance"] is None
    assert "note" in d
    assert d["surjectivity"]["inconclusive"] is True
    assert report["skipped"] == ["imbalance"]
    statuses = {c["tag"]: c["status"] for c in report["checks"]}
    assert set(statuses.values()) == {"skipped"}


def test_profile_budget_denial():
    tbl = random_table(2, 6, 6, 104)
    opts = AnalysisOptions(
        with_profile=True, with_differential=True, with_checks=True, max_profile_log=10
    )
    report, code = run_analysis(tbl, opts)
    assert code == EXIT_PARTIAL
    assert report["profile"] is None
    assert "profile" in report["skipped"]
    assert "check:platdto1" in report["skipped"]
    by_tag = {c["tag"]: c for c in report["checks"]}
    assert by_tag["platdto1"]["status"] == "skipped"
    assert "over budget" in by_tag["platdto1"]["reason"]
    assert by_tag["diff-two-valued"]["status"] == "skipped"
    # differential stays within its own budget
    assert report["differential"] is not None


def test_table_budget_denial():
    tbl = random_table(2, 6, 6, 105)
    opts = AnalysisOptions(
        with_profile=True, with_differential=True, with_checks=True, max_table_log=10
    )
    report, code = run_analysis(tbl, opts)
    assert code == EXIT_PARTIAL
    assert report["differential"] is None
    assert "differential" in report["skipped"]
    assert report["profile"] is not None


def test_zero_column_only_withholds_heavy_sections():
    tbl = monomial(2, 4, 3)
    opts = AnalysisOptions(
        with_profile=True, with_differential=True, with_checks=True, zero_column_only=True
    )
    report, code = run_analysis(tbl, opts)
    assert code == EXIT_PARTIAL
    assert "profile" not in report
    assert "differential" not in report
    assert report["distribution"]["imbalance"] == 30
    by_tag = {c["tag"]: c["status"] for c in report["checks"]}
    assert by_tag["platdto1"] == "skipped"
    assert by_tag["apn-structure"] == "skipped"
    # the zero column is all the lightweight checks need
    assert by_tag["ab-walsh"] == "skipped"  # hypothesis skip: not surjective


def test_failed_check_beats_partial():
    vals = list(monomial(2, 4, 3))
    vals[1], vals[2] = vals[2], vals[1]
    bad = FuncTable(DomainParams(2, 4, 4), vals)
    report, code = run_analysis(bad, FULL)
    assert code == EXIT_FAIL
    by_tag = {c["tag"]: c for c in report["checks"]}
    assert by_tag["platdto1"]["status"] == "fail"
    assert "not plateaued" in by_tag["platdto1"]["reason"]


def test_checks_off_by_default():
    report, code = run_analysis(monomial(2, 4, 3), AnalysisOptions())
    assert code == EXIT_PASS
    assert "checks" not in report
    assert "profile" not in report
    assert "differential" not in report


def test_analysis_computes_each_artifact_once(monkeypatch):
    calls = {}

    def counting(name):
        orig = getattr(report_mod, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return orig(*args, **kwargs)

        monkeypatch.setattr(report_mod, name, wrapper)

    for name in ("preimage_distribution", "imbalance", "classify_almost_balanced",
                 "component_profile", "diff_summary"):
        counting(name)
    report, code = run_analysis(monomial(2, 4, 3), FULL)
    assert code == EXIT_PASS
    assert calls == dict.fromkeys(calls, 1) and len(calls) == 5


def test_analysis_withholds_over_budget_artifacts():
    tbl = random_table(2, 6, 6, 106)
    an = Analysis(tbl, AnalysisOptions(max_profile_log=11, max_table_log=12))
    with pytest.raises(Withheld, match="component profile over budget"):
        an.profile()
    assert an.diff().delta >= 2
    an = Analysis(tbl, AnalysisOptions(zero_column_only=True))
    with pytest.raises(Withheld, match="difference table over budget"):
        an.diff()
    assert an.n_f == imbalance(preimage_distribution(tbl))
    assert Analysis(random_table(2, 2, 5, 107)).n_f is None


def test_registry_turns_withheld_into_partial_skip():
    an = Analysis(monomial(2, 4, 3), AnalysisOptions(max_table_log=6))
    skipped = []
    res = run_check(an, "apn-structure", skipped)
    assert (res.status, res.reason) == ("skipped", "difference table over budget")
    assert skipped == ["check:apn-structure"]
    # a failing hypothesis skips for its own reason, whatever the budget
    low = AnalysisOptions(max_profile_log=4, max_table_log=4)
    for tbl, tag in (
        (monomial(3, 4, 2), "apn-structure"),
        (monomial(3, 4, 2), "integrality"),
        (random_table(2, 6, 3, 108), "diff-two-valued"),
    ):
        res = run_check(Analysis(tbl, low), tag, skipped)
        assert res.status == "skipped" and "over budget" not in res.reason
    assert skipped == ["check:apn-structure"]
    assert tuple(CHECKS) == (
        "platdto1", "integrality", "ab-walsh", "apn-structure", "diff-two-valued"
    )

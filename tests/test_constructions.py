import numpy as np
import pytest

from plateau.constructions import (
    check_gold,
    check_mm1,
    check_mm2,
    gold_trace,
    linear_compose,
    mm1_case,
    mm1_expected_histogram,
    mm_pair,
    mm_pi_phi,
    monomial,
    monomial_fiber,
)
from plateau.distribution import imbalance, preimage_distribution
from plateau.domain import DomainParams, FuncTable
from plateau.errors import ConstructionError
from plateau.field import FieldCtx
from plateau.report import AnalysisOptions
from plateau.plateaued import component_profile


def test_monomial_values_match_field_power():
    for p, n, d in ((2, 4, 3), (3, 3, 2), (5, 2, 7)):
        ctx = FieldCtx(p, n)
        tbl = monomial(p, n, d)
        assert tbl.params == DomainParams(p, n, n)
        for x in range(p**n):
            assert tbl.value(x) == ctx.pow(x, d)


def test_monomial_fiber_sizes():
    for p, n, d in ((2, 4, 3), (2, 6, 3), (3, 4, 4), (2, 8, 5)):
        g = monomial_fiber(p, n, d)
        dist = preimage_distribution(monomial(p, n, d))
        if g == 1:
            assert dist.histogram == ((1, p**n),)
        else:
            assert dist.histogram == ((1, 1), (g, (p**n - 1) // g))


def test_monomial_rejects_negative_exponent():
    with pytest.raises(ConstructionError):
        monomial(2, 4, -1)


def test_gold_trace_frozen_small_case():
    tbl = gold_trace(6, 1)
    assert tbl.params == DomainParams(2, 6, 3)
    dist = preimage_distribution(tbl)
    assert dist.histogram == ((6, 7), (22, 1))
    assert imbalance(dist) == 224


def test_gold_trace_matches_field_formula():
    ctx = FieldCtx(2, 6)
    tbl = gold_trace(6, 1)
    for x in range(64):
        assert tbl.value(x) == ctx.rel_trace(ctx.pow(x, 3), 3)


def test_gold_trace_gate():
    # gcd(2, 6) = 2 leaves an odd quotient, outside the construction
    with pytest.raises(ConstructionError):
        gold_trace(6, 2)
    with pytest.raises(ConstructionError):
        gold_trace(5, 1)
    with pytest.raises(ConstructionError):
        gold_trace(6, 0)
    forced = gold_trace(6, 2, force=True)
    assert forced.params == DomainParams(2, 6, 3)


def test_check_gold_pass_cases():
    res = check_gold(6, 1)
    assert res.status == "pass"
    assert res.details["d"] == 1
    assert res.details["imbalance"] == 224
    assert res.details["histogram"] == [[6, 7], [22, 1]]
    assert res.details["ab"]["kind"] == "type_plus"
    assert res.details["ab"]["witness"] == 0
    assert res.details["profile"]["single_t"] == 2
    assert res.details["profile"]["linearity"] == 16

    res = check_gold(10, 1)
    assert res.status == "pass"
    assert res.details["imbalance"] == 3968
    assert res.details["histogram"] == [[30, 31], [94, 1]]


def test_check_gold_degenerate_half_degree():
    """d = n/2 collapses the fiber claims; only the amplitude claim remains."""
    res = check_gold(6, 3)
    assert res.status == "pass"
    assert res.details["d"] == 3
    assert res.details["profile"]["single_t"] == 6
    assert "histogram" not in res.details
    res = check_gold(8, 4)
    assert res.status == "pass"
    assert res.details["profile"]["single_t"] == 8


def test_check_gold_skips_rejected_parameters():
    res = check_gold(6, 2)
    assert res.status == "skipped"
    assert "odd" in res.reason


def test_check_gold_reports_broken_case():
    """At n = 8, r = 2 the built function does not have the advertised shape:
    three components keep amplitude 64 and the distribution is 16 + 12 x 20
    on an image of 13. The checker must say so rather than paper over it."""
    res = check_gold(8, 2)
    assert res.status == "fail"
    assert "expected single plateau parameter 4" in res.reason
    assert res.details["profile"]["t_histogram"] == [[0, 12], [4, 3]]
    assert res.details["histogram"] == [[16, 1], [20, 12]]
    assert "not surjective: image size 13" in res.reason


def test_mm_pi_phi_values_and_layout():
    m = 3
    rng = np.random.default_rng(61)
    perm = rng.permutation(8).tolist()
    pi = [perm[y // 2] for y in range(8)]  # 2-to-1 via repetition
    phi = rng.integers(8, size=8).tolist()
    tbl = mm_pi_phi(pi, phi)
    assert tbl.params == DomainParams(2, 6, 3)
    ctx = FieldCtx(2, m)
    for x in range(8):
        for y in range(8):
            want = ctx.mul(x, pi[y]) ^ phi[y]
            assert tbl.value(x * 8 + y) == want


def test_mm_pi_phi_rejects_non_two_to_one():
    with pytest.raises(ConstructionError):
        mm_pi_phi([0, 1, 2, 3], [0, 0, 0, 0])
    with pytest.raises(ConstructionError):
        mm_pi_phi([0, 0, 0, 3], [0, 0, 0, 0])
    with pytest.raises(ConstructionError):
        mm_pi_phi([0, 1, 2], [0, 0, 0])
    with pytest.raises(ConstructionError):
        mm_pi_phi([0, 0, 4, 4], [0, 0, 0, 0])
    tbl = mm_pi_phi([0, 1, 2, 3], [0, 0, 0, 0], force=True)
    assert tbl.params == DomainParams(2, 4, 2)


def test_mm1_case_split():
    assert mm1_case([1, 1, 2, 2], [0, 1, 2, 3]) == (1, ())
    assert mm1_case([0, 0, 3, 3], [1, 1, 2, 3]) == (2, (1,))
    assert mm1_case([0, 0, 3, 3], [2, 1, 0, 0]) == (3, (1, 2))
    with pytest.raises(ConstructionError):
        mm1_case([0, 0, 0, 3], [0, 0, 0, 0])


def test_mm1_expected_histograms():
    assert mm1_expected_histogram(2, 1) == ((4, 4),)
    assert mm1_expected_histogram(2, 2) == ((2, 3), (10, 1))
    assert mm1_expected_histogram(2, 3) == ((2, 2), (6, 2))
    # at m = 1 the small fibers vanish entirely
    assert mm1_expected_histogram(1, 2) == ((4, 1),)
    with pytest.raises(ValueError):
        mm1_expected_histogram(2, 4)


def test_check_mm1_all_cases_small():
    res = check_mm1([1, 1, 2, 2], [0, 1, 2, 3])
    assert res.status == "pass" and res.details["case"] == 1
    assert res.details["histogram"] == [[4, 4]]
    assert res.details["imbalance"] == 0

    res = check_mm1([0, 0, 3, 3], [1, 1, 2, 3])
    assert res.status == "pass" and res.details["case"] == 2
    assert res.details["betas"] == [1]
    assert res.details["histogram"] == [[2, 3], [10, 1]]
    assert res.details["imbalance"] == 48

    res = check_mm1([0, 0, 3, 3], [1, 2, 0, 0])
    assert res.status == "pass" and res.details["case"] == 3
    assert res.details["betas"] == [1, 2]
    assert res.details["histogram"] == [[2, 2], [6, 2]]


def test_check_mm1_m3_randomized():
    rng = np.random.default_rng(62)
    for trial in range(6):
        perm = rng.permutation(8).tolist()
        pi = [perm[y // 2] for y in range(8)]
        phi = rng.integers(8, size=8).tolist()
        res = check_mm1(pi, phi)
        assert res.status == "pass", res.reason
        assert res.details["case"] in (1, 2, 3)
        # all three shapes are bent up to the profile: components plateaued
        assert res.details["profile"]["all_plateaued"]


def test_check_mm1_skips_bad_pi():
    res = check_mm1([0, 1, 2, 3], [0, 0, 0, 0])
    assert res.status == "skipped"
    assert "2-to-1" in res.reason


def test_mm_pair_values_and_distribution():
    m = 3
    pi = list(range(8))
    tbl = mm_pair(pi, 1)
    assert tbl.params == DomainParams(2, 6, 6)
    ctx = FieldCtx(2, m)
    for x in range(8):
        for y in range(8):
            py = pi[y]
            want = (ctx.mul(x, py) << m) | ctx.mul(x, ctx.pow(py, 2))
            assert tbl.value(x * 8 + y) == want
    dist = preimage_distribution(tbl)
    assert dist.histogram == ((1, 49), (15, 1))
    assert dist.count_of(0) == 15


def test_check_mm2_frozen():
    res = check_mm2([0, 1, 2, 3], 1)
    assert res.status == "pass"
    assert res.details["histogram"] == [[1, 9], [7, 1]]
    assert res.details["image_size"] == 10

    res = check_mm2(list(range(8)), 2)
    assert res.status == "pass"
    assert res.details["histogram"] == [[1, 49], [15, 1]]


def test_check_mm2_skips_bad_parameters():
    res = check_mm2([0, 1, 2, 3], 2)
    assert res.status == "skipped" and "gcd" in res.reason
    res = check_mm2([0, 0, 2, 3], 1)
    assert res.status == "skipped" and "permutation" in res.reason
    with pytest.raises(ConstructionError):
        mm_pair([0, 1, 2, 3], 0)


def test_linear_compose_projection():
    tbl = monomial(2, 4, 3)
    rows = ((1, 0, 0, 0), (0, 1, 0, 0))
    out = linear_compose(tbl, rows)
    assert out.params == DomainParams(2, 4, 2)
    for x in range(16):
        assert out.value(x) == tbl.value(x) & 3


def test_linear_compose_identity_keeps_table():
    tbl = monomial(3, 3, 2)
    eye = tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
    out = linear_compose(tbl, eye)
    assert out == tbl


def test_linear_compose_preserves_balance():
    pr = DomainParams(2, 3, 3)
    tbl = FuncTable(pr, list(range(8)))
    out = linear_compose(tbl, ((1, 1, 0), (0, 1, 1)))
    assert imbalance(preimage_distribution(out)) == 0


def test_linear_compose_validation():
    tbl = monomial(2, 4, 3)
    with pytest.raises(ConstructionError):
        linear_compose(tbl, ((1, 0, 0, 0), (1, 0, 0, 0)))
    with pytest.raises(ConstructionError):
        linear_compose(tbl, ((1, 0, 0), (0, 1, 0)))
    with pytest.raises(ConstructionError):
        linear_compose(tbl, ())
    with pytest.raises(ConstructionError):
        linear_compose(tbl, tuple((0,) * 4 for _ in range(5)))


def test_gold_profile_matches_direct_profile():
    tbl = gold_trace(6, 1)
    pf = component_profile(tbl)
    res = check_gold(6, 1)
    assert res.details["profile"] == pf.as_dict()


def test_check_gold_budget_decided_before_the_build(monkeypatch):
    import plateau.constructions as constructions

    def no_build(*args, **kwargs):
        raise AssertionError("gold_trace ran although the budget denies the profile")

    monkeypatch.setattr(constructions, "gold_trace", no_build)
    # p^(n+m) = 2^(10+5) > 2^14
    res = check_gold(10, 1, opts=AnalysisOptions(max_profile_log=14))
    assert (res.status, res.reason) == ("skipped", "component profile over budget")


def test_check_mm_profile_follows_budget():
    low = AnalysisOptions(max_profile_log=6)
    assert check_mm1([1, 1, 2, 2, 5, 5, 6, 6], [0] * 8).details["profile"] is not None
    res = check_mm1([1, 1, 2, 2, 5, 5, 6, 6], [0] * 8, opts=low)  # 2^9 > 2^6
    assert res.status == "pass" and res.details["profile"] is None
    assert check_mm2([0, 1, 2, 3], 1).details["profile"] is not None
    res = check_mm2([0, 1, 2, 3], 1, opts=low)  # 2^8 > 2^6
    assert res.status == "pass" and res.details["profile"] is None

import numpy as np
import pytest

import oracles as o
from plateau.constructions import gold_trace, monomial
from plateau.distribution import (
    ab_walsh_consequences,
    classify_almost_balanced,
    find_balancing_shift,
    image_lower_bound,
    imbalance,
    imbalance_defect,
    preimage_bounds,
    preimage_distribution,
    shifted_by_linear,
    surjectivity_certificate,
)
from plateau.domain import DomainParams, FuncTable
from plateau.report import Analysis


def random_table(p, n, m, seed):
    rng = np.random.default_rng(seed)
    pr = DomainParams(p, n, m)
    return FuncTable(pr, rng.integers(pr.codomain_size, size=pr.domain_size))


def test_preimage_distribution_matches_counting():
    tbl = random_table(3, 3, 2, 21)
    vals = list(tbl)
    dist = preimage_distribution(tbl)
    counts = o.preimage_counts(3, 3, 2, vals)
    assert dist.counts.tolist() == counts
    assert dist.image_size == sum(1 for c in counts if c)
    assert sum(dist.sorted_sizes()) == 27
    assert dist.sorted_sizes() == sorted(c for c in counts if c)
    assert dist.sum_sq_sizes() == sum(c * c for c in counts)


def test_cube_map_frozen_distribution():
    """x^3 on sixteen elements: a 3-to-1 map with one singleton fiber at 0."""
    tbl = monomial(2, 4, 3)
    dist = preimage_distribution(tbl)
    assert dist.histogram == ((1, 1), (3, 5))
    assert dist.image_size == 6
    assert dist.count_of(0) == 1
    n_f = imbalance(tbl, dist=dist)
    assert n_f == 30
    assert imbalance_defect(dist, n_f) == (100, 6)


def test_cube_map_frozen_bounds():
    tbl = monomial(2, 4, 3)
    dist = preimage_distribution(tbl)
    aware, free = preimage_bounds(dist, 30)
    assert aware.as_dict() == {
        "numerator": 16,
        "denominator": 6,
        "radicand": 100,
        "lo_ceil": 1,
        "hi_floor": 4,
    }
    assert free.numerator == 16 and free.denominator == 16
    assert free.radicand == 16 * 15 * 30
    for size, _ in dist.histogram:
        assert aware.contains(size)
        assert free.contains(size)
    # the singleton fiber sits exactly on the image-aware lower edge
    assert aware.attains_lower(1)
    assert not aware.attains_upper(4)


def test_cube_map_is_type_minus():
    tbl = monomial(2, 4, 3)
    ab = classify_almost_balanced(tbl)
    assert ab.kind == "type_minus"
    assert ab.witness == 0
    assert ab.witnesses_minus == (0,)
    assert ab.witnesses_plus == ()
    assert not ab.surjective


def test_gold_trace_is_type_plus_with_walsh_consequences():
    tbl = gold_trace(6, 1)
    dist = preimage_distribution(tbl)
    assert dist.histogram == ((6, 7), (22, 1))
    assert dist.count_of(0) == 22
    n_f = imbalance(tbl, dist=dist)
    assert n_f == 224
    ab = classify_almost_balanced(tbl, dist=dist, n_f=n_f)
    assert ab.kind == "type_plus" and ab.witness == 0 and ab.surjective
    res = ab_walsh_consequences(Analysis(tbl))
    assert res.status == "pass"
    assert abs(res.details["common_walsh_value"]) == 16
    assert res.details["ab_type"] == "type_plus"


def test_ab_walsh_skips_when_not_surjective():
    res = ab_walsh_consequences(Analysis(monomial(2, 4, 3)))
    assert res.status == "skipped"
    assert "surjective" in res.reason


def test_balanced_function_is_not_ab():
    pr = DomainParams(2, 3, 3)
    tbl = FuncTable(pr, list(range(8)))
    dist = preimage_distribution(tbl)
    n_f = imbalance(tbl, dist=dist)
    assert n_f == 0
    assert imbalance_defect(dist, n_f) == (0, 8)
    ab = classify_almost_balanced(tbl, dist=dist, n_f=n_f)
    assert ab.kind == "not_ab" and ab.witness is None and ab.surjective


def test_constant_function_edge():
    pr = DomainParams(2, 3, 3)
    tbl = FuncTable(pr, [5] * 8)
    dist = preimage_distribution(tbl)
    n_f = imbalance(tbl, dist=dist)
    assert n_f == 64 - 8
    # a single image value gives a zero radicand, hence no AB structure
    assert imbalance_defect(dist, n_f) == (0, 1)
    ab = classify_almost_balanced(tbl, dist=dist, n_f=n_f)
    assert ab.kind == "not_ab"
    aware, free = preimage_bounds(dist, n_f)
    assert aware.lo_ceil == aware.hi_floor == 8


def test_imbalance_agrees_with_oracle_both_routes():
    for p, n, m, seed in ((2, 5, 3, 22), (2, 6, 6, 23), (3, 3, 2, 24), (5, 2, 2, 25)):
        tbl = random_table(p, n, m, seed)
        want = o.imbalance(p, n, m, list(tbl))
        assert imbalance(tbl) == want


def test_imbalance_rejects_wide_codomain():
    pr = DomainParams(2, 1, 3)
    tbl = FuncTable(pr, [0, 7])
    with pytest.raises(ValueError):
        imbalance(tbl)


def test_bounds_contain_all_sizes_randomized():
    """Both bound pairs must cover every nonzero fiber size, any function."""
    for seed in range(40):
        p, n, m = [(2, 5, 2), (2, 4, 4), (3, 3, 2), (3, 2, 2)][seed % 4]
        tbl = random_table(p, n, m, 100 + seed)
        dist = preimage_distribution(tbl)
        n_f = imbalance(tbl, dist=dist)
        aware, free = preimage_bounds(dist, n_f)
        for size, _ in dist.histogram:
            assert aware.contains(size), (seed, size)
            assert free.contains(size), (seed, size)
        assert image_lower_bound(tbl.params, n_f) <= dist.image_size
        cert = surjectivity_certificate(dist, n_f)
        assert cert.actual == (dist.image_size == p**m)
        if cert.guaranteed:
            assert cert.actual


def test_surjectivity_certificate_fires_on_balanced():
    pr = DomainParams(2, 4, 2)
    tbl = FuncTable(pr, [x % 4 for x in range(16)])
    dist = preimage_distribution(tbl)
    cert = surjectivity_certificate(dist, imbalance(tbl, dist=dist))
    assert cert.guaranteed and cert.actual


def test_image_lower_bound_tight_on_cube_map():
    # 256 / (16 + 30) rounds up to 6, the exact image size
    assert image_lower_bound(DomainParams(2, 4, 4), 30) == 6


def test_shifted_by_linear_matches_loop():
    tbl = random_table(3, 3, 2, 26)
    matrix = ((1, 2, 0), (0, 1, 1))
    shifted = shifted_by_linear(tbl, matrix)
    for x in range(27):
        xd = o.digits(x, 3, 3)
        lx = [sum(matrix[i][j] * xd[j] for j in range(3)) % 3 for i in range(2)]
        want = o.vadd(tbl.value(x), o.undigits(lx, 3), 3, 2)
        assert shifted.value(x) == want


def test_find_balancing_shift_imbalance_goal():
    tbl = random_table(2, 4, 2, 27)
    res = find_balancing_shift(tbl, goal="imbalance", seed=5)
    assert res.found
    shifted = shifted_by_linear(tbl, res.matrix)
    n_g = imbalance(shifted)
    assert n_g == res.achieved_imbalance
    assert n_g * 4 <= 16 * 4 - 16
    again = find_balancing_shift(tbl, goal="imbalance", seed=5)
    assert again.matrix == res.matrix and again.trial_index == res.trial_index


def test_find_balancing_shift_surjective_goal():
    pr = DomainParams(2, 4, 2)
    tbl = FuncTable(pr, [0] * 16)
    res = find_balancing_shift(tbl, goal="surjective", seed=1)
    assert res.found and res.achieved_surjective
    shifted = shifted_by_linear(tbl, res.matrix)
    assert preimage_distribution(shifted).image_size == 4
    with pytest.raises(ValueError):
        find_balancing_shift(tbl, goal="nearly")


def test_find_balancing_shift_reports_exhaustion():
    pr = DomainParams(2, 2, 1)
    tbl = FuncTable(pr, [0, 1, 1, 0])
    res = find_balancing_shift(tbl, goal="surjective", trials=0)
    assert not res.found and res.trials_run == 0 and res.matrix is None

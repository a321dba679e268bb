from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as o
from plateau.constructions import gold_trace, monomial
from plateau.distribution import (
    _make_bound_pair,
    ab_walsh_consequences,
    classify_almost_balanced,
    image_lower_bound,
    imbalance,
    imbalance_defect,
    preimage_bounds,
    preimage_distribution,
    surjectivity_certificate,
)
from plateau.domain import DomainParams, FuncTable
from plateau.report import Analysis
from plateau.verdict import render
from plateau.walsh import zero_column


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
    sizes = [size for size, mult in dist.histogram for _ in range(mult)]
    assert sum(sizes) == 27
    assert sizes == sorted(c for c in counts if c)
    assert dist.sum_sq_sizes() == sum(c * c for c in counts)


def test_shifted_zero_col_matches_recount():
    """W_{F - beta}(b, 0) from the phase rule, against the zero column of the
    recounted table F - beta at every beta."""
    for p, n, m, seed in ((2, 4, 3, 26), (3, 3, 2, 27), (5, 2, 2, 28), (7, 2, 1, 29)):
        tbl = random_table(p, n, m, seed)
        dist = preimage_distribution(tbl)
        pm = tbl.params.codomain_size
        for beta in range(pm):
            shifted = FuncTable(tbl.params, [o.vsub(v, beta, p, m) for v in tbl])
            want = zero_column(preimage_distribution(shifted))
            got = dist.shifted_zero_col(beta).basis_coords()
            assert np.array_equal(got, want.basis_coords()), beta
        for beta in (-1, pm):
            with pytest.raises(ValueError):
                dist.shifted_zero_col(beta)


@pytest.mark.parametrize("p, n, m", [(2, 4, 3), (3, 3, 2)])
def test_zero_col_is_transformed_once_and_read_only(p, n, m):
    """The cached column is shared, so no accessor may write to it."""
    tbl = random_table(p, n, m, 25)
    dist = preimage_distribution(tbl)
    col = dist.zero_col
    assert col is dist.zero_col
    assert not col.data.flags.writeable
    assert np.array_equal(col.basis_coords(), zero_column(dist).basis_coords())
    rational, ints = col.integers()
    vals = list(tbl)
    want = [o.rational_value(o.walsh_counts(p, n, m, vals, b, 0), p) for b in range(p**m)]
    assert rational.tolist() == [w is not None for w in want]
    assert ints.tolist() == [0 if w is None else w for w in want]


def test_cube_map_frozen_distribution():
    """x^3 on sixteen elements: a 3-to-1 map with one singleton fiber at 0."""
    tbl = monomial(2, 4, 3)
    dist = preimage_distribution(tbl)
    assert dist.histogram == ((1, 1), (3, 5))
    assert dist.image_size == 6
    assert dist.count_of(0) == 1
    n_f = imbalance(dist)
    assert n_f == 30
    assert imbalance_defect(dist, n_f) == (100, 6)


def test_cube_map_frozen_bounds():
    tbl = monomial(2, 4, 3)
    dist = preimage_distribution(tbl)
    aware, free = preimage_bounds(dist, 30)
    assert render(aware) == {
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
    # the singleton fiber sits exactly on the image-aware lower edge; the
    # upper end is strictly inside
    assert aware.lo_ceil == 1 and (6 * 1 - 16) ** 2 == aware.radicand
    assert (6 * 4 - 16) ** 2 < aware.radicand


def _scan_bounds(num, rad, den):
    """Least and greatest integer k with (den*k - num)^2 <= rad, scanning a
    window around num / den that holds every such k; None when none does."""
    centre, width = num // den, isqrt(rad) + 2
    inside = [
        k for k in range(centre - width, centre + width + 1) if (den * k - num) ** 2 <= rad
    ]
    return (inside[0], inside[-1]) if inside else None


@st.composite
def bound_triples(draw):
    """(num, rad, den) with rad = 0, a perfect square or arbitrary, and num
    sometimes below isqrt(rad) so the lower end is negative."""
    den = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["zero", "square", "any"]))
    if kind == "zero":
        rad = 0
    elif kind == "square":
        rad = draw(st.integers(0, 300)) ** 2
    else:
        rad = draw(st.integers(0, 90_000))
    num = draw(st.integers(0, isqrt(rad) + 200))
    return num, rad, den


@settings(max_examples=300, deadline=None)
@given(bound_triples())
def test_make_bound_pair_matches_scan(triple):
    num, rad, den = triple
    pair = _make_bound_pair(num, rad, den)
    scanned = _scan_bounds(num, rad, den)
    if scanned is None:
        # no integer inside: the ends cross
        assert pair.lo_ceil == pair.hi_floor + 1
    else:
        assert (pair.lo_ceil, pair.hi_floor) == scanned
    assert (pair.numerator, pair.radicand, pair.denominator) == (num, rad, den)


def test_cube_map_is_type_minus():
    tbl = monomial(2, 4, 3)
    dist = preimage_distribution(tbl)
    ab = classify_almost_balanced(dist, imbalance(dist))
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
    n_f = imbalance(dist)
    assert n_f == 224
    ab = classify_almost_balanced(dist, n_f)
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
    n_f = imbalance(dist)
    assert n_f == 0
    assert imbalance_defect(dist, n_f) == (0, 8)
    ab = classify_almost_balanced(dist, n_f)
    assert ab.kind == "not_ab" and ab.witness is None and ab.surjective


def test_constant_function_edge():
    pr = DomainParams(2, 3, 3)
    tbl = FuncTable(pr, [5] * 8)
    dist = preimage_distribution(tbl)
    n_f = imbalance(dist)
    assert n_f == 64 - 8
    # a single image value gives a zero radicand, hence no AB structure
    assert imbalance_defect(dist, n_f) == (0, 1)
    ab = classify_almost_balanced(dist, n_f)
    assert ab.kind == "not_ab"
    aware, free = preimage_bounds(dist, n_f)
    assert aware.lo_ceil == aware.hi_floor == 8


def test_imbalance_agrees_with_oracle_both_routes():
    for p, n, m, seed in ((2, 5, 3, 22), (2, 6, 6, 23), (3, 3, 2, 24), (5, 2, 2, 25)):
        tbl = random_table(p, n, m, seed)
        want = o.imbalance(p, n, m, list(tbl))
        assert imbalance(preimage_distribution(tbl)) == want


def test_imbalance_rejects_wide_codomain():
    pr = DomainParams(2, 1, 3)
    tbl = FuncTable(pr, [0, 7])
    with pytest.raises(ValueError):
        imbalance(preimage_distribution(tbl))


def test_bounds_contain_all_sizes_randomized():
    """Both bound pairs must cover every nonzero fiber size, any function."""
    for seed in range(40):
        p, n, m = [(2, 5, 2), (2, 4, 4), (3, 3, 2), (3, 2, 2)][seed % 4]
        tbl = random_table(p, n, m, 100 + seed)
        dist = preimage_distribution(tbl)
        n_f = imbalance(dist)
        aware, free = preimage_bounds(dist, n_f)
        for size, _ in dist.histogram:
            assert aware.contains(size), (seed, size)
            assert free.contains(size), (seed, size)
        assert image_lower_bound(tbl.params, n_f) <= dist.image_size
        if surjectivity_certificate(dist, n_f):
            assert dist.image_size == p**m


def test_surjectivity_certificate_fires_on_balanced():
    pr = DomainParams(2, 4, 2)
    tbl = FuncTable(pr, [x % 4 for x in range(16)])
    dist = preimage_distribution(tbl)
    assert surjectivity_certificate(dist, imbalance(dist)) is True
    assert dist.image_size == 4


def test_image_lower_bound_refuses_wide_codomain():
    with pytest.raises(ValueError, match="m <= 2n"):
        image_lower_bound(DomainParams(2, 1, 3), 0)


def test_image_lower_bound_tight_on_cube_map():
    # 256 / (16 + 30) rounds up to 6, the exact image size
    assert image_lower_bound(DomainParams(2, 4, 4), 30) == 6

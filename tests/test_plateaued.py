import numpy as np
import pytest

import oracles as o
from plateau import _util, plateaued, walsh
from plateau._util import run_ordered
from plateau.constructions import monomial
from plateau.distribution import preimage_distribution
from plateau.domain import DomainParams, FuncTable, vec_sub_arrays
from plateau.plateaued import (
    apn_structure,
    check_diff_two_valued,
    component_profile,
    detect_dto1,
    dto1_check,
    walsh_integrality_check,
)
from plateau.report import Analysis


def random_table(p, n, m, seed):
    rng = np.random.default_rng(seed)
    pr = DomainParams(p, n, m)
    return FuncTable(pr, rng.integers(pr.codomain_size, size=pr.domain_size))


def spy_run_ordered(monkeypatch):
    """Record (item count, threads) of every profile fan-out."""
    seen = []

    def spy(fn, items, threads):
        seen.append((len(items), threads))
        return run_ordered(fn, items, threads)

    monkeypatch.setattr(plateaued, "run_ordered", spy)
    return seen


def corrupted_cube_map():
    """Swap two outputs of the sixteen-element cube map.

    The value distribution stays 3-to-1 but the spectrum breaks, separating
    the distribution hypothesis from the spectral conclusion in the checks.
    """
    vals = list(monomial(2, 4, 3))
    vals[1], vals[2] = vals[2], vals[1]
    return FuncTable(DomainParams(2, 4, 4), vals)


def test_profile_cube_map_frozen():
    pf = component_profile(monomial(2, 4, 3))
    assert pf.as_dict() == {
        "all_plateaued": True,
        "not_plateaued_count": 0,
        "bent_count": 10,
        "balanced_count": 0,
        "t_histogram": [[0, 10], [2, 5]],
        "single_t": None,
        "linearity_sq": 64,
        "linearity": 8,
    }


def test_profile_odd_n_cube_is_single_amplitude():
    pf = component_profile(monomial(2, 5, 3))
    assert pf.single_t == 1
    assert pf.balanced_count == 31
    assert pf.bent_count == 0
    assert pf.linearity == 8


def test_profile_matches_brute_force():
    """Every profile field recomputed from oracle Walsh values, every mask.

    Most squared moduli of the random tables at p = 5 and 7 are irrational.
    In row b = 1 of the (5, 2, 1) table the only rational ones are 0 and
    25 = p^n, so only its rational flag keeps that row from reading as bent.
    The last table's first output coordinate is the bent x0^2 + x1^2 and its
    second is random, so its components b = (b0, 0) are rational rows and
    the others are not."""
    rng = np.random.default_rng(55)
    half_bent = [
        (x0 * x0 + x1 * x1) % 5 + 5 * int(rng.integers(5)) for x1 in range(5) for x0 in range(5)
    ]
    cases = ((2, 4, 3, 51), (3, 3, 2, 52), (5, 2, 2, 53), (7, 2, 1, 54), (5, 2, 1, 62))
    tables = [random_table(*case) for case in cases]
    tables.append(FuncTable(DomainParams(5, 2, 2), half_bent))
    for tbl in tables:
        p, n, m = tbl.params.p, tbl.params.n, tbl.params.m
        vals = list(tbl)
        pf = component_profile(tbl)
        row_rational = []
        for b in range(1, p**m):
            sqs = [
                o.rational_sq_modulus(o.walsh_counts(p, n, m, vals, b, a), p)
                for a in range(p**n)
            ]
            rational = None not in sqs
            row_rational.append(rational)
            want = -1
            if rational:
                nz = sorted(set(sqs) - {0})
                if len(nz) == 1:
                    v = nz[0]
                    # v = p^(n+t) for an integer t >= 0
                    t, w = 0, p**n
                    while w < v:
                        w *= p
                        t += 1
                    if w == v:
                        want = t
            assert int(pf.t_values[b]) == want, (p, n, m, b)
            want_max = max((sq for sq in sqs if sq is not None), default=0)
            assert int(pf.max_sq[b]) == want_max, (p, n, m, b)
            is_bal = o.rational_value(o.walsh_counts(p, n, m, vals, b, 0), p) == 0
            assert bool(pf.balanced_mask[b]) == is_bal, (p, n, m, b)
        assert pf.all_sq_rational == all(row_rational), (p, n, m)
    assert row_rational.count(True) == 4 and not pf.all_sq_rational


def test_profile_flags_non_plateaued():
    pf = component_profile(corrupted_cube_map())
    assert pf.not_plateaued_count == 8
    assert not pf.all_plateaued
    assert pf.single_t is None


def test_profile_balanced_count_odd_p():
    tbl = monomial(3, 3, 2)
    pf = component_profile(tbl)
    vals = list(tbl)
    want = 0
    for b in range(1, 27):
        dist = [0, 0, 0]
        for v in vals:
            dist[o.dot(b, v, 3, 3)] += 1
        want += dist == [9, 9, 9]
    assert pf.balanced_count == want


def test_detect_dto1_shapes():
    assert detect_dto1(preimage_distribution(monomial(2, 4, 3))) == 3
    assert detect_dto1(preimage_distribution(monomial(3, 4, 4))) == 4
    pr = DomainParams(2, 3, 3)
    assert detect_dto1(preimage_distribution(FuncTable(pr, list(range(8))))) == 1
    assert detect_dto1(preimage_distribution(FuncTable(pr, [0] * 8))) is None
    assert detect_dto1(preimage_distribution(FuncTable(pr, [0, 0, 0, 1, 1, 1, 2, 3]))) is None


def dto1_numbers(res):
    """(d, t, expected bent count, expected count of the other amplitude)."""
    det = res.details
    return det["d"], det["t"], det["expected_n0"], det["expected_n1"]


def test_dto1_cube_map_passes():
    res = dto1_check(Analysis(monomial(2, 4, 3)))
    assert res.status == "pass"
    assert dto1_numbers(res) == (3, 1, 10, 5)
    profile = res.details["profile"]
    assert profile["linearity_sq"] == 64 and profile["linearity"] == 8
    assert profile["bent_count"] == 10


def test_dto1_power_five_passes():
    res = dto1_check(Analysis(monomial(2, 8, 5)))
    assert res.status == "pass"
    assert dto1_numbers(res) == (5, 2, 204, 51)
    profile = res.details["profile"]
    assert profile["linearity_sq"] == 2**12 and profile["linearity"] == 64


def test_dto1_quartic_over_f81_passes():
    res = dto1_check(Analysis(monomial(3, 4, 4)))
    assert res.status == "pass"
    assert dto1_numbers(res) == (4, 1, 60, 20)
    assert res.details["profile"]["linearity_sq"] == 3**6


def test_dto1_planar_square_case():
    res = dto1_check(Analysis(monomial(3, 3, 2)))
    assert res.status == "pass"
    assert res.details["case"] == "planar-2to1"
    profile = res.details["profile"]
    # all 26 components bent, none of any other amplitude
    assert res.details["d"] == 2 and profile["bent_count"] == 26
    assert profile["t_histogram"] == [[0, 26]]


def test_dto1_skip_paths():
    res = dto1_check(Analysis(monomial(2, 4, 3, modulus=None)))
    assert res.status == "pass"
    res = dto1_check(Analysis(random_table(2, 4, 3, 53)))
    assert res.status == "skipped" and "n = m" in res.reason
    pr = DomainParams(2, 3, 3)
    res = dto1_check(Analysis(FuncTable(pr, list(range(8)))))
    assert res.status == "skipped" and "permutation" in res.reason
    # d = 2 cannot happen at p = 2 (d divides the odd number 2^n - 1), so a
    # 2-to-1 pattern there is simply not d-to-1 in this sense
    res = dto1_check(Analysis(FuncTable(pr, [0, 0, 1, 1, 2, 2, 3, 3])))
    assert res.status == "skipped" and "not d-to-1" in res.reason
    res = dto1_check(Analysis(FuncTable(pr, [0] * 8)))
    assert res.status == "skipped" and "not d-to-1" in res.reason


def test_dto1_fails_on_corrupted_spectrum():
    res = dto1_check(Analysis(corrupted_cube_map()))
    assert res.details["d"] == 3
    assert res.status == "fail"
    assert "8 components are not plateaued" in res.reason


def test_integrality_quartic_frozen():
    res = walsh_integrality_check(Analysis(monomial(3, 4, 4)))
    assert res.status == "pass"
    assert res.details["d"] == 4 and res.details["witness"] == 0
    assert res.details["distinct_values"] == [-27, 9, 81]
    for v in res.details["distinct_values"]:
        assert (v - 1) % 4 == 0


def test_integrality_skip_paths():
    assert walsh_integrality_check(Analysis(monomial(2, 4, 3))).status == "skipped"
    assert walsh_integrality_check(Analysis(monomial(3, 3, 2))).status == "skipped"
    assert walsh_integrality_check(Analysis(random_table(3, 2, 2, 54))).status == "skipped"


def test_integrality_nonzero_witness():
    """Shifting the quartic moves the size-1 fiber off zero; the check must
    chase it and still pass."""
    quartic = monomial(3, 4, 4)
    shifted = FuncTable(quartic.params, vec_sub_arrays(quartic.values, 7, 3, 4))
    res = walsh_integrality_check(Analysis(shifted))
    assert res.status == "pass"
    dist = preimage_distribution(shifted)
    assert dist.count_of(res.details["witness"]) == 1


def test_apn_structure_cube_map_n6():
    res = apn_structure(Analysis(monomial(2, 6, 3)))
    assert res.status == "pass"
    assert res.details["structure"] == {
        "n_f": 126,
        "bent_count": 42,
        "balanced_count": 0,
        "image_size": 22,
        "min_image_attained": True,
        "distribution_type": 1,
        "carlet_sum": 8064,
    }
    subs = {c["tag"]: c["status"] for c in res.details["checks"]}
    assert subs == {
        "kkk-imbalance": "pass",
        "carlet-identity": "pass",
        "bent-lower": "pass",
        "extreme-imbalance": "pass",
        "imbalance-mod4": "pass",
        "bent-mod4": "pass",
        "min-image": "pass",
    }


def test_apn_structure_odd_n_skips_even_only_facts():
    res = apn_structure(Analysis(monomial(2, 5, 3)))
    assert res.status == "pass"
    subs = {c["tag"]: c["status"] for c in res.details["checks"]}
    assert subs["kkk-imbalance"] == "pass"
    assert subs["carlet-identity"] == "pass"
    assert subs["bent-lower"] == "skipped"
    assert subs["min-image"] == "skipped"
    assert res.details["structure"]["bent_count"] == 0


def test_apn_structure_skips_non_apn():
    res = apn_structure(Analysis(random_table(2, 4, 4, 55)))
    assert res.status == "skipped"
    res = apn_structure(Analysis(monomial(3, 3, 2)))
    assert res.status == "skipped"
    res = apn_structure(Analysis(monomial(2, 4, 3)))
    assert res.status == "pass"


def test_diff_two_valued_cases():
    res = check_diff_two_valued(Analysis(monomial(2, 5, 3)))
    assert res.status == "pass"
    assert res.details["cases"] == [{"source": "single-amplitude", "t": 1}]
    assert res.details["delta"] == 2 and res.details["two_valued_at"] == 2

    res = check_diff_two_valued(Analysis(monomial(3, 4, 4)))
    assert res.status == "pass"
    assert res.details["cases"] == [{"source": "d-to-1", "t": 1}]
    assert res.details["delta"] == 3 and res.details["two_valued_at"] == 3

    res = check_diff_two_valued(Analysis(monomial(2, 8, 5)))
    assert res.status == "pass"
    assert res.details["cases"] == [{"source": "d-to-1", "t": 2}]
    assert res.details["delta"] == 4 and res.details["two_valued_at"] == 4

    assert check_diff_two_valued(Analysis(random_table(2, 4, 4, 56))).status == "skipped"
    assert check_diff_two_valued(Analysis(random_table(2, 4, 3, 57))).status == "skipped"


@pytest.mark.parametrize("p, n, m", [(3, 4, 3), (3, 7, 4)])
def test_odd_profile_thread_count_invariant(monkeypatch, p, n, m):
    """Odd-p profiles are identical at 1 and 4 threads, below the serial
    crossover (3, 4, 3) and above it (3, 7, 4), where the 80 masks make
    three groups that really run on 4 workers."""
    tbl = random_table(p, n, m, 59)
    seen = spy_run_ordered(monkeypatch)
    one = component_profile(tbl, threads=1)
    four = component_profile(tbl, threads=4)
    above = n * p ** (n + 2) >= plateaued._THREADED_ROW_GATHERS
    assert seen[1] == ((3, 4) if above else (1, 1))
    assert np.array_equal(one.t_values, four.t_values)
    assert np.array_equal(one.balanced_mask, four.balanced_mask)
    assert np.array_equal(one.max_sq, four.max_sq)
    assert one.all_sq_rational == four.all_sq_rational


def test_odd_profile_batches_match_row_by_row(monkeypatch):
    """The 80 masks of a (3, 4, 4) table come in batches of 32, 32 and 16,
    each squared together by sq_integers; every mask's t, balance and max
    |W|^2 equal those of its own row classified alone from
    sq_moduli().integers() and the basis coordinates of W(b, 0).  The
    table's first output digit is x0 and the rest are random, so the masks
    b = 1, 2 give balanced components."""
    p, n = 3, 4
    rng = np.random.default_rng(66)
    tbl = FuncTable(DomainParams(p, n, n), np.arange(p**n) % p + p * rng.integers(p**3, size=p**n))
    counts = []

    def spy(rows, count):
        counts.append(count)
        return walsh.sq_integers(rows, count)

    monkeypatch.setattr(plateaued, "sq_integers", spy)
    got = component_profile(tbl)
    assert counts == [32, 32, 16]
    for b in range(1, p**4):
        row = walsh.walsh_row(tbl, b)
        rational, sq = row.sq_moduli().integers()
        balanced = not row.basis_coords()[0].any()
        t, bal, top, rat = plateaued._classify_rows(
            p, n, sq[None], 1, np.array([rational.all()]), np.array([balanced])
        )
        assert (got.t_values[b], got.balanced_mask[b], got.max_sq[b]) == (t[0], bal[0], top[0])
    assert got.all_sq_rational and got.balanced_mask[1:3].all()


def test_profile_thread_count_invariant(monkeypatch):
    """The 511 masks of a (2, 9, 9) table make two 256-mask batches, so the
    4-thread profile really runs on a pool."""
    tbl = random_table(2, 9, 9, 58)
    seen = spy_run_ordered(monkeypatch)
    one = component_profile(tbl, threads=1)
    four = component_profile(tbl, threads=4)
    assert seen == [(2, 1), (2, 4)]
    assert np.array_equal(one.t_values, four.t_values)
    assert np.array_equal(one.balanced_mask, four.balanced_mask)
    assert np.array_equal(one.max_sq, four.max_sq)


def test_profile_batches_follow_row_budget(monkeypatch):
    """With the row budget at 2^12 entries a (2, 10, 3) table's 7 masks come
    in batches of at most 4, and the profile is unchanged."""
    tbl = random_table(2, 10, 3, 60)
    want = component_profile(tbl)
    sizes = []

    def spy(table, bs):
        sizes.append(len(bs))
        return walsh.walsh_rows_signs_p2(table, bs)

    monkeypatch.setattr(_util, "ROWS_SCRATCH", 1 << 12)
    monkeypatch.setattr(plateaued, "walsh_rows_signs_p2", spy)
    got = component_profile(tbl)
    assert sum(sizes) == 7 and max(sizes) <= 4
    assert np.array_equal(got.t_values, want.t_values)
    assert np.array_equal(got.balanced_mask, want.balanced_mask)
    assert np.array_equal(got.max_sq, want.max_sq)

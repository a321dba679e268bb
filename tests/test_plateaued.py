import numpy as np
import pytest

import oracles as o
from plateau.constructions import monomial
from plateau.distribution import preimage_distribution
from plateau.domain import DomainParams, FuncTable
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
    """Plateau parameters recomputed from oracle Walsh values, every mask."""
    for p, n, m, seed in ((2, 4, 3, 51), (3, 3, 2, 52)):
        tbl = random_table(p, n, m, seed)
        vals = list(tbl)
        pf = component_profile(tbl)
        for b in range(1, p**m):
            sqs = set()
            rational = True
            for a in range(p**n):
                sq = o.rational_sq_modulus(o.walsh_counts(p, n, m, vals, b, a), p)
                if sq is None:
                    rational = False
                    break
                sqs.add(sq)
            want = -1
            if rational:
                nz = sorted(sqs - {0})
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
            if want >= 0:
                balanced = o.walsh_counts(p, n, m, vals, b, 0)
                is_bal = o.rational_value(balanced, p) in (0, None) and all(
                    balanced[k] == balanced[0] for k in range(p)
                )
                if p == 2:
                    is_bal = balanced[0] == balanced[1]
                assert bool(pf.balanced_mask[b]) == is_bal


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


def test_dto1_cube_map_passes():
    rep, res = dto1_check(Analysis(monomial(2, 4, 3)))
    assert res.status == "pass"
    assert (rep.d, rep.t, rep.n0, rep.n1) == (3, 1, 10, 5)
    assert rep.linearity_sq == 64 and rep.linearity() == 8
    assert res.details["expected_n0"] == 10


def test_dto1_power_five_passes():
    rep, res = dto1_check(Analysis(monomial(2, 8, 5)))
    assert res.status == "pass"
    assert (rep.d, rep.t, rep.n0, rep.n1) == (5, 2, 204, 51)
    assert rep.linearity_sq == 2**12 and rep.linearity() == 64


def test_dto1_quartic_over_f81_passes():
    rep, res = dto1_check(Analysis(monomial(3, 4, 4)))
    assert res.status == "pass"
    assert (rep.d, rep.t, rep.n0, rep.n1) == (4, 1, 60, 20)
    assert rep.linearity_sq == 3**6


def test_dto1_planar_square_case():
    rep, res = dto1_check(Analysis(monomial(3, 3, 2)))
    assert res.status == "pass"
    assert res.details["case"] == "planar-2to1"
    assert rep.d == 2 and rep.n0 == 26 and rep.n1 == 0


def test_dto1_skip_paths():
    _, res = dto1_check(Analysis(monomial(2, 4, 3, modulus=None)))
    assert res.status == "pass"
    _, res = dto1_check(Analysis(random_table(2, 4, 3, 53)))
    assert res.status == "skipped" and "n = m" in res.reason
    pr = DomainParams(2, 3, 3)
    _, res = dto1_check(Analysis(FuncTable(pr, list(range(8)))))
    assert res.status == "skipped" and "permutation" in res.reason
    # d = 2 cannot happen at p = 2 (d divides the odd number 2^n - 1), so a
    # 2-to-1 pattern there is simply not d-to-1 in this sense
    _, res = dto1_check(Analysis(FuncTable(pr, [0, 0, 1, 1, 2, 2, 3, 3])))
    assert res.status == "skipped" and "not d-to-1" in res.reason
    _, res = dto1_check(Analysis(FuncTable(pr, [0] * 8)))
    assert res.status == "skipped" and "not d-to-1" in res.reason


def test_dto1_fails_on_corrupted_spectrum():
    rep, res = dto1_check(Analysis(corrupted_cube_map()))
    assert rep.is_dto1 and rep.d == 3
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
    shifted = monomial(3, 4, 4).shifted_output(7)
    res = walsh_integrality_check(Analysis(shifted))
    assert res.status == "pass"
    dist = preimage_distribution(shifted)
    assert dist.count_of(res.details["witness"]) == 1


def test_apn_structure_cube_map_n6():
    st, res = apn_structure(Analysis(monomial(2, 6, 3)))
    assert res.status == "pass"
    assert st.as_dict() == {
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
    st, res = apn_structure(Analysis(monomial(2, 5, 3)))
    assert res.status == "pass"
    subs = {c["tag"]: c["status"] for c in res.details["checks"]}
    assert subs["kkk-imbalance"] == "pass"
    assert subs["carlet-identity"] == "pass"
    assert subs["bent-lower"] == "skipped"
    assert subs["min-image"] == "skipped"
    assert st.bent_count == 0


def test_apn_structure_skips_non_apn():
    _, res = apn_structure(Analysis(random_table(2, 4, 4, 55)))
    assert res.status == "skipped"
    _, res = apn_structure(Analysis(monomial(3, 3, 2)))
    assert res.status == "skipped"
    _, res = apn_structure(Analysis(monomial(2, 4, 3)))
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


def test_profile_thread_count_invariant():
    tbl = random_table(2, 6, 6, 58)
    one = component_profile(tbl, threads=1)
    four = component_profile(tbl, threads=4)
    assert np.array_equal(one.t_values, four.t_values)
    assert np.array_equal(one.balanced_mask, four.balanced_mask)
    assert np.array_equal(one.max_sq, four.max_sq)

"""Acceptance gate: nine end-to-end criteria, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see every line; without -s
pytest still shows the line for any failing criterion.  All value checks are
exact integer equality; the only tolerances are the stated wall-time budgets.
"""

import time
from fractions import Fraction
from math import gcd, isqrt

import numpy as np

from plateau.constructions import (
    check_gold,
    check_mm1,
    check_mm2,
    gold_trace,
    mm1_case,
    mm1_expected_histogram,
    mm_pair,
    mm_pi_phi,
    monomial,
)
from plateau.differential import diff_summary, fourth_moment
from plateau.distribution import (
    ab_walsh_consequences,
    classify_almost_balanced,
    image_lower_bound,
    imbalance,
    imbalance_defect,
    preimage_bounds,
    preimage_distribution,
)
from plateau.domain import DomainParams, FuncTable
from plateau.plateaued import (
    apn_structure,
    component_profile,
    dto1_check,
    walsh_integrality_check,
)
from plateau.report import EXIT_FAIL, Analysis, AnalysisOptions, run_analysis
from plateau.walsh import walsh_row, walsh_rows_signs_p2, zero_column


def _verdict(num, label, problems):
    status = "pass" if not problems else "fail"
    line = f"acceptance {num} ({label}): {status}"
    if problems:
        line += " - " + "; ".join(problems)
    print(line)
    assert not problems, line


def _check(problems, cond, message):
    if not cond:
        problems.append(message)


def _budget(problems, elapsed, limit):
    _check(problems, elapsed < limit, f"runtime {elapsed:.2f}s exceeds {limit}s")


def test_acceptance_1_cube_map_f16():
    problems = []
    t0 = time.perf_counter()
    table = monomial(2, 4, 3)
    dist = preimage_distribution(table)
    n_f = imbalance(dist)
    _check(problems, n_f == 30, f"imbalance {n_f} != 30")
    rad, den = imbalance_defect(dist, n_f)
    root = isqrt(rad)
    _check(
        problems,
        root * root == rad and Fraction(root, den) == Fraction(5, 3),
        f"defect sqrt({rad})/{den} != 5/3",
    )
    ab = classify_almost_balanced(table, dist=dist, n_f=n_f)
    _check(problems, ab.kind == "type_minus", f"ab kind {ab.kind} != type_minus")
    _check(problems, dist.image_size == 6, f"image size {dist.image_size} != 6")
    lower = image_lower_bound(table.params, n_f)
    _check(problems, lower == 6 == -(-256 // 46), f"image lower bound {lower} != 6")
    profile = component_profile(table)
    _check(
        problems,
        profile.t_histogram() == ((0, 10), (2, 5)) and profile.linearity == 8,
        f"profile {profile.t_histogram()} != 10 bent + 5 of amplitude 8",
    )
    diff = diff_summary(table)
    _check(problems, diff.apn is True, f" delta {diff.delta}: not APN")
    fm = fourth_moment(table)
    _check(
        problems,
        fm.restricted == 122880 == 15 * 2**13,
        f"fourth moment {fm.restricted} != 122880",
    )
    res = apn_structure(Analysis(table))
    _check(problems, res.status == "pass", f"structure check: {res.reason}")
    structure = res.details.get("structure", {})
    _check(problems, structure.get("distribution_type") == 1, "distribution type != 1")
    _budget(problems, time.perf_counter() - t0, 1.0)
    _verdict(1, "x^3 on F_2^4", problems)


def test_acceptance_2_cube_map_f64():
    problems = []
    t0 = time.perf_counter()
    table = monomial(2, 6, 3)
    dist = preimage_distribution(table)
    n_f = imbalance(dist)
    _check(problems, n_f == 126 == 2**7 - 2, f"imbalance {n_f} != 126")
    _check(problems, n_f % 4 == 2, f"imbalance {n_f} != 2 mod 4")
    profile = component_profile(table)
    diff = diff_summary(table)
    res = apn_structure(Analysis(table))
    _check(problems, res.status == "pass", f"structure check: {res.reason}")
    structure = res.details["structure"]
    bent = structure["bent_count"]
    _check(problems, bent == 42 and bent % 4 == 2, f"bent count {bent} != 42")
    _check(
        problems,
        profile.balanced_count == 0,
        f"{profile.balanced_count} balanced components, expected none",
    )
    _check(
        problems,
        dist.image_size == 22 == (2**6 + 2) // 3,
        f"image size {dist.image_size} != 22",
    )
    _check(problems, structure["distribution_type"] == 1, "distribution type != 1")
    _check(
        problems,
        diff.delta == 2 and diff.two_valued_at == 2,
        f"DDT (delta {diff.delta}, two-valued {diff.two_valued_at}) != (2, 2)",
    )
    _budget(problems, time.perf_counter() - t0, 1.0)
    _verdict(2, "x^3 on F_2^6", problems)


def _gold_amplitude_count(n, d):
    """Components of Tr^n_{n/2}(x^(2^r+1)) with squared amplitude 2^(n+2d).

    With k = n/2 each component is Tr_n(lambda x^(2^r+1)) for a nonzero
    lambda in F_{2^k}; it has that amplitude exactly when lambda is a
    (2^d+1)-th power in F_{2^n}, and is bent otherwise.
    """
    k = n // 2
    return gcd(2**k - 1, (2**n - 1) // (2**d + 1))


def _gold_components(problems, n, r, profile):
    d = gcd(r, n)
    components = 2 ** (n // 2) - 1
    amp = _gold_amplitude_count(n, d)
    expected = tuple((t, c) for t, c in ((0, components - amp), (2 * d, amp)) if c)
    _check(
        problems,
        profile.t_histogram() == expected,
        f"n={n} r={r}: t histogram {profile.t_histogram()} != {expected} "
        f"({amp} of amplitude 2^{n + 2 * d}, the rest bent)",
    )


def _gold_half(problems, n, r):
    """The advertised shape, asserted where it holds: n/(2d) odd."""
    d = gcd(r, n)
    k = n // 2
    assert (k // d) % 2 == 1
    amplitude = 2 ** ((n + 2 * d) // 2)
    big = 2**k + (2**k - 1) * 2**d
    small = 2**k - 2**d
    table = gold_trace(n, r)
    dist = preimage_distribution(table)
    n_f = imbalance(dist)
    want_nf = 2 ** (2 * d + k) * (2**k - 1)
    _check(problems, n_f == want_nf, f"n={n} r={r}: imbalance {n_f} != {want_nf}")
    _gold_components(problems, n, r, component_profile(table))
    expected = ((small, 2**k - 1), (big, 1))
    _check(
        problems,
        dist.histogram == expected,
        f"n={n} r={r}: distribution {dist.histogram} != {expected}",
    )
    ab = classify_almost_balanced(table, dist=dist, n_f=n_f)
    _check(problems, ab.kind == "type_plus", f"n={n} r={r}: ab kind {ab.kind} != type_plus")
    rider = ab_walsh_consequences(Analysis(table))
    _check(
        problems,
        rider.status == "pass",
        f"n={n} r={r}: zero-column consequences {rider.status}: {rider.reason}",
    )
    common = rider.details.get("common_walsh_value")
    _check(
        problems,
        common is not None and abs(common) == amplitude,
        f"n={n} r={r}: common W(b,0) {common}, expected magnitude {amplitude}",
    )
    return n_f


def test_acceptance_3_gold_traces():
    """The single-amplitude shape needs n/(2d) odd, d = gcd(r, n).

    (6, 1) and (12, 2) meet that hypothesis; the expected numbers are the
    closed forms in _gold_half.  (8, 2) has n/d even, so the construction
    accepts it, but n/(2d) = 2 is even: only 3 of its 15 components keep
    the amplitude, and check_gold must report the failure.
    """
    problems = []
    t0 = time.perf_counter()
    n_f = _gold_half(problems, 6, 1)
    _check(problems, n_f == 224, f"n=6 r=1: imbalance {n_f} != 224")
    _check(problems, check_gold(6, 1).status == "pass", "check_gold(6, 1) did not pass")
    _gold_half(problems, 12, 2)
    _check(problems, _gold_amplitude_count(8, 2) == 3, "n=8 r=2: amplitude count != 3")
    _gold_components(problems, 8, 2, component_profile(gold_trace(8, 2)))
    _check(problems, check_gold(8, 2).status == "fail", "check_gold(8, 2) did not fail")
    _budget(problems, time.perf_counter() - t0, 2.0)
    _verdict(3, "trace of Gold monomials", problems)


def test_acceptance_4_x5_f256():
    problems = []
    t0 = time.perf_counter()
    table = monomial(2, 8, 5)
    res = dto1_check(Analysis(table))
    _check(problems, res.status == "pass", f"d-to-1 check: {res.reason}")
    det = res.details
    d, t, n0, n1 = (det.get(k) for k in ("d", "t", "expected_n0", "expected_n1"))
    linearity = det.get("profile", {}).get("linearity")
    _check(problems, d == 5 == 2**2 + 1, f"d {d} != 5")
    _check(problems, t == 2 and 4 % 2 == 0, f"t {t} != 2")
    _check(problems, n0 == 204, f"bent count {n0} != 204")
    _check(problems, n1 == 51, f"amplitude-p^(n/2+t) count {n1} != 51")
    _check(problems, linearity == 2**6, f"linearity {linearity} != 64")
    diff = diff_summary(table)
    _check(
        problems,
        diff.delta == 4 and diff.two_valued_at == 4,
        f"DDT (delta {diff.delta}, two-valued {diff.two_valued_at}) != (4, 4)",
    )
    fm = fourth_moment(table)
    _check(
        problems,
        fm.restricted == 255 * 2**26,
        f"fourth moment {fm.restricted} != 255*2^26",
    )
    _budget(problems, time.perf_counter() - t0, 10.0)
    _verdict(4, "x^5 on F_2^8", problems)


def test_acceptance_5_odd_characteristic():
    problems = []
    t0 = time.perf_counter()
    for n in (3, 4):
        table = monomial(3, n, 2)
        res = dto1_check(Analysis(table))
        _check(problems, res.status == "pass", f"x^2 on F_3^{n}: {res.reason}")
        d = res.details.get("d")
        _check(problems, d == 2, f"x^2 on F_3^{n}: d {d} != 2")
        profile = component_profile(table)
        _check(
            problems,
            profile.t_histogram() == ((0, 3**n - 1),),
            f"x^2 on F_3^{n}: not all components bent: {profile.t_histogram()}",
        )
    table = monomial(3, 4, 4)
    res = dto1_check(Analysis(table))
    _check(problems, res.status == "pass", f"x^4 on F_3^4: {res.reason}")
    det = res.details
    d, t, n0, n1 = (det.get(k) for k in ("d", "t", "expected_n0", "expected_n1"))
    _check(problems, d == 4 == 3 + 1, f"x^4: d {d} != 4")
    _check(problems, t == 1 and 2 % 1 == 0, f"x^4: t {t} != 1")
    _check(problems, n0 == 60, f"x^4: bent count {n0} != 60")
    _check(problems, n1 == 20, f"x^4: amplitude-9 count {n1} != 20")
    integ = walsh_integrality_check(Analysis(table))
    _check(problems, integ.status == "pass", f"x^4 integrality: {integ.reason}")
    for b, value in enumerate(zero_column(preimage_distribution(table)).values()):
        if b == 0:
            continue
        w = value.as_integer()
        _check(problems, w % 4 == 1, f"x^4: W({b},0) = {w} != 1 mod 4")
    _budget(problems, time.perf_counter() - t0, 10.0)
    _verdict(5, "x^2 and x^4 over F_3", problems)


def test_acceptance_6_maiorana_mcfarland():
    problems = []
    t0 = time.perf_counter()
    for m in (2, 3):
        size = 1 << m
        nonzero = [1 + y // 2 for y in range(size)]
        with_zero = [0, 0] + nonzero[: size - 2]
        flat = [0] * size
        cases = [
            (nonzero, flat, 1, ()),
            (with_zero, [1, 1] + flat[2:], 2, (1,)),
            (with_zero, [1, 2] + flat[2:], 3, (1, 2)),
        ]
        for pi, phi, want_case, want_betas in cases:
            case, betas = mm1_case(pi, phi)
            _check(
                problems,
                (case, betas) == (want_case, want_betas),
                f"m={m}: case split gave {(case, betas)}, expected {(want_case, want_betas)}",
            )
            dist = preimage_distribution(mm_pi_phi(pi, phi))
            expected = mm1_expected_histogram(m, want_case)
            _check(
                problems,
                dist.histogram == expected,
                f"m={m} case {want_case}: distribution {dist.histogram} != {expected}",
            )
            for beta in want_betas:
                want = 3 * size - 2 if want_case == 2 else 2 * size - 2
                _check(
                    problems,
                    dist.count_of(beta) == want,
                    f"m={m} case {want_case}: fiber at {beta} != {want}",
                )
            res = check_mm1(pi, phi)
            _check(problems, res.status == "pass", f"m={m} case {want_case}: {res.reason}")
        pi = list(range(size))
        i = 1 if m == 2 else 2
        dist = preimage_distribution(mm_pair(pi, i))
        big = 2 ** (m + 1) - 1
        _check(
            problems,
            dist.histogram == ((1, size * size - big), (big, 1)),
            f"m={m}: pair distribution {dist.histogram}",
        )
        _check(
            problems,
            dist.count_of(0) == big,
            f"m={m}: fiber at (0,0) != 2^(m+1) - 1",
        )
        res = check_mm2(pi, i)
        _check(problems, res.status == "pass", f"m={m} pair: {res.reason}")
    _budget(problems, time.perf_counter() - t0, 1.0)
    _verdict(6, "Maiorana-McFarland forms", problems)


def _random_function_checks(problems, params, vals, where):
    p, n, m = params.p, params.n, params.m
    table = FuncTable(params, vals)
    dist = preimage_distribution(table)
    zc = zero_column(dist)
    sq = zc.sq_total() - p ** (2 * n)
    _check(problems, sq % p**m == 0, f"{where}: zero-column square sum not divisible")
    from_walsh = sq // p**m
    from_sizes = dist.sum_sq_sizes() - p ** (2 * n - m)
    _check(
        problems,
        from_walsh == from_sizes,
        f"{where}: imbalance {from_walsh} (Walsh) != {from_sizes} (fiber sizes)",
    )
    aware, free = preimage_bounds(dist, from_walsh)
    for s, _ in dist.histogram:
        _check(
            problems,
            aware.contains(s) and free.contains(s),
            f"{where}: fiber size {s} escapes the bounds",
        )
    _check(
        problems,
        image_lower_bound(params, from_walsh) <= dist.image_size,
        f"{where}: image lower bound exceeds image size {dist.image_size}",
    )
    target = p ** (2 * n)
    if p == 2:
        rows = walsh_rows_signs_p2(table, np.arange(1, p**m, dtype=np.int64))
        sums = (rows.astype(np.int64) ** 2).sum(axis=1)
        _check(problems, bool(np.all(sums == target)), f"{where}: Parseval violated")
    else:
        for b in range(1, p**m):
            _check(
                problems,
                walsh_row(table, b).sq_total() == target,
                f"{where}: Parseval violated at b = {b}",
            )
    fm = fourth_moment(table)
    _check(
        problems,
        fm.all_masks - fm.restricted == p ** (4 * n),
        f"{where}: b = 0 fourth-moment share is off",
    )


def test_acceptance_7_random_function_properties():
    problems = []
    t0 = time.perf_counter()
    for p, n, m in ((2, 8, 8), (2, 8, 4), (3, 4, 2)):
        params = DomainParams(p, n, m)
        rng = np.random.default_rng(p * 1000 + n * 10 + m)
        for k in range(1000):
            vals = rng.integers(0, p**m, size=p**n, dtype=np.int64)
            _random_function_checks(problems, params, vals, f"({p},{n},{m}) #{k}")
            if len(problems) > 5:
                break
        if len(problems) > 5:
            break
    _budget(problems, time.perf_counter() - t0, 60.0)
    _verdict(7, "properties of 3000 random functions", problems)


def test_acceptance_8_negative_control():
    problems = []
    vals = list(monomial(2, 4, 3))
    vals[1], vals[2] = vals[2], vals[1]
    table = FuncTable(DomainParams(2, 4, 4), vals)
    dist = preimage_distribution(table)
    _check(
        problems,
        dist.histogram == ((1, 1), (3, 5)),
        "corrupted table no longer looks 3-to-1 by distribution",
    )
    opts = AnalysisOptions(with_profile=True, with_differential=True, with_checks=True)
    report, code = run_analysis(table, opts)
    _check(problems, code == EXIT_FAIL, f"exit code {code} != {EXIT_FAIL}")
    by_tag = {c["tag"]: c["status"] for c in report["checks"]}
    _check(
        problems,
        by_tag.get("platdto1") == "fail",
        f"platdto1 status {by_tag.get('platdto1')} != fail",
    )
    _verdict(8, "corrupted 3-to-1 table is rejected", problems)


def test_acceptance_9_performance():
    problems = []
    rng = np.random.default_rng(20260815)
    vals = rng.integers(0, 1 << 24, size=1 << 24, dtype=np.int64)
    params = DomainParams(2, 24, 24)

    def zero_column_analysis():
        table = FuncTable(params, vals)
        dist = preimage_distribution(table)
        n_f = imbalance(dist)
        aware, free = preimage_bounds(dist, n_f)
        ab = classify_almost_balanced(table, dist=dist, n_f=n_f)
        return (n_f, dist.histogram, aware, free, ab)

    t0 = time.perf_counter()
    first = zero_column_analysis()
    elapsed = time.perf_counter() - t0
    _budget(problems, elapsed, 10.0)
    _check(problems, first == zero_column_analysis(), "24-bit analysis not repeatable")
    del vals

    rng = np.random.default_rng(7)
    table = FuncTable(
        DomainParams(2, 14, 14),
        rng.integers(0, 1 << 14, size=1 << 14, dtype=np.int64),
    )
    t0 = time.perf_counter()
    single = component_profile(table, threads=1)
    _budget(problems, time.perf_counter() - t0, 120.0)
    t0 = time.perf_counter()
    threaded = component_profile(table, threads=4)
    _budget(problems, time.perf_counter() - t0, 120.0)
    identical = (
        np.array_equal(single.t_values, threaded.t_values)
        and np.array_equal(single.balanced_mask, threaded.balanced_mask)
        and np.array_equal(single.max_sq, threaded.max_sq)
        and single.as_dict() == threaded.as_dict()
    )
    _check(problems, identical, "threaded profile differs from single-threaded")
    _verdict(9, "24-bit zero column and 14-bit profile", problems)

"""Every violated conclusion of a theorem check fails with its own message.

Real tables satisfy the theorems, so each case starts from a table whose
check passes and doctors one artifact of its Analysis: the profile or the
difference summary (returned in place of the computed one), the
distribution, N_F or the AB class (preset where the Analysis caches them),
or the zero column the distribution caches.  The construction checks get a
corrupted table from a monkeypatched builder.
"""

import numpy as np
import pytest

from plateau import constructions
from plateau.constructions import check_gold, check_mm1, check_mm2, gold_trace, monomial
from plateau.differential import DiffSummary
from plateau.distribution import ABClass, ab_walsh_consequences, preimage_distribution
from plateau.domain import DomainParams, FuncTable
from plateau.plateaued import (
    AmplitudeProfile,
    apn_structure,
    check_diff_two_valued,
    dto1_check,
    walsh_integrality_check,
)
from plateau.report import Analysis
from plateau.verdict import CheckResult
from plateau.walsh import WalshVector

P244 = DomainParams(2, 4, 4)
APN = DiffSummary(2, 2, True)


def doctored(table, **artifacts):
    """An Analysis of `table` whose named artifacts are replaced: `profile`
    and `diff` by methods returning the given value, `dist`, `n_f` and `ab`
    by preset cache entries."""
    an = Analysis(table)
    for name, value in artifacts.items():
        setattr(an, name, (lambda v=value: v) if name in ("profile", "diff") else value)
    return an


def profile_with(params, ts, balanced=()):
    """A profile whose masks 1, 2, ... have plateau parameters ts and squared
    amplitudes p^(n+t), every squared modulus rational; `balanced` lists the
    balanced masks."""
    t = np.array([-1, *ts])
    assert t.size == params.codomain_size
    mask = np.zeros(t.size, dtype=bool)
    mask[list(balanced)] = True
    max_sq = params.p ** (params.n + np.maximum(t, 0))
    return AmplitudeProfile(params, t, mask, max_sq, True)


def table_with(params, sizes):
    """A table whose value v has sizes[v] preimages."""
    return FuncTable(params, np.repeat(np.arange(len(sizes)), sizes))


def with_zero_col(an, edit):
    """Preset the zero column of an's distribution to a copy changed by edit,
    after N_F and the AB class are read from the true one."""
    an.n_f, an.ab
    col = an.dist.zero_col
    data = col.data.copy()
    edit(data)
    vars(an.dist)["zero_col"] = WalshVector(col.p, col.n, data)
    return an


def assert_fails(res, message):
    assert res.status == "fail", res
    assert message in res.reason, res.reason


# x^3 on F_16 is 3-to-1 off 0: ten bent components, five of squared
# amplitude 2^6, N_F = 30, image 6, no balanced component
CUBE = monomial(2, 4, 3)
CUBE_TS = [0] * 10 + [2] * 5


def test_base_tables_pass():
    """The undoctored tables pass every check that the cases below break."""
    assert dto1_check(Analysis(CUBE)).status == "pass"
    assert apn_structure(Analysis(CUBE)).status == "pass"
    assert walsh_integrality_check(Analysis(monomial(3, 4, 4))).status == "pass"
    assert dto1_check(Analysis(monomial(3, 3, 2))).status == "pass"
    assert ab_walsh_consequences(Analysis(gold_trace(6, 1))).status == "pass"
    assert check_diff_two_valued(Analysis(monomial(2, 5, 3))).status == "pass"


@pytest.mark.parametrize(
    "ts, message",
    [
        ([0] * 11 + [2] * 4, "bent components: 11, expected 10"),
        ([0] * 11 + [2] * 4, "components of squared amplitude p^(n+2t) = 64: 4, expected 5"),
        ([0] * 10 + [2] * 4 + [4], "unexpected plateau parameters {4: 1}"),
        ([0] * 10 + [2] * 4 + [4], "squared linearity 256, expected 64"),
        ([-1] + [0] * 9 + [2] * 5, "1 components are not plateaued"),
    ],
)
def test_dto1_spectral_conclusions_fail(ts, message):
    assert_fails(dto1_check(doctored(CUBE, profile=profile_with(P244, ts))), message)


@pytest.mark.parametrize(
    "ts, message",
    [
        ([0] * 25 + [1], "expected every component bent, got t histogram ((0, 25), (1, 1))"),
        ([-1] + [0] * 25, "1 components are not plateaued"),
    ],
)
def test_dto1_planar_needs_every_component_bent(ts, message):
    an = doctored(monomial(3, 3, 2), profile=profile_with(DomainParams(3, 3, 3), ts))
    assert_fails(dto1_check(an), message)


@pytest.mark.parametrize("message", ["n = 5 is odd", "d - 1 = 30 is not a positive power of p = 2"])
def test_dto1_needs_even_n_and_d_one_past_a_power(message):
    """One fiber of 1 and one of 31 on F_2^5 is 31-to-1."""
    assert_fails(dto1_check(Analysis(table_with(DomainParams(2, 5, 5), [1, 31]))), message)


def test_dto1_exponent_must_divide_half_n():
    """p^t + 1 divides p^n - 1 only when t | n/2, so no table reaches this
    conclusion; the 5-to-1 distribution comes from a 16-entry table and the
    shape from a 64-entry one."""
    dist = preimage_distribution(table_with(P244, [1, 5, 5, 5]))
    an = doctored(monomial(2, 6, 3), dist=dist)
    assert_fails(dto1_check(an), "t = 2 does not divide n/2 = 3")


@pytest.mark.parametrize(
    "k, message", [(0, "W(1,0) = -26 is not 1 mod d = 4"), (1, "W(1,0) is not a rational integer")]
)
def test_integrality_conclusions_fail(k, message):
    """W(1, 0) of x^4 on F_81 is -27; adding 1 leaves -26, not 1 mod 4, and
    adding zeta leaves no rational integer."""

    def bump(data):
        data[1, k] += 1

    an = with_zero_col(Analysis(monomial(3, 4, 4)), bump)
    assert_fails(walsh_integrality_check(an), message)


# the trace of x^3 from F_64 to F_8: fibers 22 at 0 and 6 elsewhere, every
# W(b, 0) with b != 0 equal to 16, N_F = 224
GOLD = gold_trace(6, 1)


def _set(idx, value):
    def edit(data):
        data[idx] = value

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set(2, 24), "zero-column values differ across b != 0"),
        (_set(slice(1, None), 0), "common W(b,0) is zero"),
        (_set(slice(1, None), 12), "W(b,0) = 12 not divisible by p^m = 8"),
        (_set(slice(1, None), 24), "imbalance 224 != (p^m-1)/p^m * W^2 with W = 24"),
    ],
)
def test_ab_walsh_zero_column_conclusions_fail(edit, message):
    assert_fails(ab_walsh_consequences(with_zero_col(Analysis(GOLD), edit)), message)


@pytest.mark.parametrize(
    "message",
    ["witness fiber 22 != (p^n - (p^m-1)|W|)/p^m", "non-witness fibers [6] do not match"],
)
def test_ab_walsh_fiber_formulas_fail(message):
    """Read as the smaller-fiber type, the gold fibers break both formulas."""
    an = doctored(GOLD, ab=ABClass("type_minus", 0, (), (0,), True))
    assert_fails(ab_walsh_consequences(an), message)


def test_ab_walsh_needs_a_rational_zero_column():
    """W(1, 0) = 3 + 4 zeta + 2 zeta^2 = 1 + 2 zeta for fibers 3, 4, 2 at p = 3."""
    ab = ABClass("type_plus", 0, (0,), (), True)
    an = doctored(table_with(DomainParams(3, 2, 1), [3, 4, 2]), ab=ab)
    assert_fails(ab_walsh_consequences(an), "some W(b,0) is not a rational integer")


@pytest.mark.parametrize(
    "artifacts, message",
    [
        ({"n_f": 34}, "kkk-imbalance: imbalance 34 exceeds 2^(n+1) - 2 = 30"),
        ({"profile": profile_with(P244, [0] * 15)},
         "carlet-identity: sum of squared amplitudes 240 != 2^(n+1)(2^n - 1) = 480"),
        ({"profile": profile_with(P244, [0] * 6 + [2] * 9)},
         "bent-lower: bent components 6 below 2(2^n - 1)/3 = 10"),
        ({"n_f": 6}, "extreme-imbalance: imbalance 6 below (2^(n+1) - 2)/3"),
        ({"n_f": 34}, "imbalance 34 above 2^(n+1) - 2"),
        ({"profile": profile_with(P244, CUBE_TS, balanced=(1,))},
         "upper bound attained: True, but balanced component count is 1"),
        ({"n_f": 10}, "lower bound attained: True, but (bent, balanced) = (10, 0)"),
        ({"n_f": 28}, "imbalance-mod4: imbalance 28 is not 2 mod 4"),
        ({"profile": profile_with(P244, CUBE_TS, balanced=(1,))},
         "balanced component present but imbalance 30 exceeds 2^(n+1) - 6"),
        ({"profile": profile_with(P244, [0] * 11 + [2] * 4)},
         "bent-mod4: bent count 11 is not 2 mod 4"),
        ({"profile": profile_with(P244, CUBE_TS, balanced=(1,))},
         "min-image: minimum image size attained but 1 components are balanced"),
    ],
)
def test_apn_structure_conclusions_fail(artifacts, message):
    assert_fails(apn_structure(doctored(CUBE, **artifacts)), message)


@pytest.mark.parametrize(
    "sizes, message",
    [
        ([4, 4, 4, 2, 2], "image size 5 below (2^n + 2)/3"),
        ([1, 1, 3, 3, 4, 4], "matches none of the three admissible patterns"),
        ([2, 2, 3, 3, 3, 3], "distribution type 2 is impossible for plateaued APN functions"),
    ],
)
def test_apn_structure_image_conclusions_fail(sizes, message):
    """Tables with the given fibers, read as APN with the cube map's profile."""
    an = doctored(table_with(P244, sizes), diff=APN, profile=profile_with(P244, CUBE_TS))
    assert_fails(apn_structure(an), message)


def test_apn_structure_admits_distribution_type_3():
    an = doctored(table_with(P244, [2, 2, 2, 3, 3, 4]), diff=APN, profile=profile_with(P244, CUBE_TS))
    res = apn_structure(an)
    assert res.details["structure"]["distribution_type"] == 3
    assert {c["tag"]: c["status"] for c in res.details["checks"]}["min-image"] == "pass"


@pytest.mark.parametrize(
    "diff, message",
    [
        (DiffSummary(1, 1, True), "single-amplitude: differential uniformity 1 below p^t = 2"),
        (DiffSummary(2, None, True), "single-amplitude: delta = 2, p^t = 2, but two-valued value is None"),
    ],
)
def test_diff_two_valued_conclusions_fail(diff, message):
    assert_fails(check_diff_two_valued(doctored(monomial(2, 5, 3), diff=diff)), message)


def corrupted(table, old, new):
    """table with its first input of value old sent to new instead."""
    vals = table.values.copy()
    vals[int(np.argmax(vals == old))] = new
    return FuncTable(table.params, vals)


@pytest.mark.parametrize(
    "bad, message",
    [
        (corrupted(GOLD, 0, 1), "components are not plateaued"),
        (FuncTable(DomainParams(2, 6, 3), np.zeros(64, dtype=np.uint8)),
         "expected single plateau parameter 2, got histogram ((6, 7),)"),
        (FuncTable(DomainParams(2, 6, 3), np.zeros(64, dtype=np.uint8)), "not surjective: image size 1"),
        (corrupted(GOLD, 0, 1), "fiber histogram ((6, 6), (7, 1), (21, 1)), expected ((6, 7), (22, 1))"),
        (corrupted(GOLD, 0, 1), "fiber at 0 has size 21, expected 22"),
        (corrupted(GOLD, 0, 1), "expected the larger-fiber type at 0"),
    ],
)
def test_check_gold_conclusions_fail(monkeypatch, bad, message):
    monkeypatch.setattr(constructions, "gold_trace", lambda *args, **kwargs: bad)
    assert_fails(check_gold(6, 1), message)


def test_check_gold_reports_a_failed_zero_column_check(monkeypatch):
    failed = CheckResult.failed("ab-walsh", "doctored")
    monkeypatch.setattr(constructions, "ab_walsh_consequences", lambda an: failed)
    assert_fails(check_gold(6, 1), "zero-column consequence check: doctored")


# pi = (0, 0, 3, 3) and phi = (1, 1, 2, 3) is case 2: one fiber of 10 at 1
MM1_ARGS = ([0, 0, 3, 3], [1, 1, 2, 3])


@pytest.mark.parametrize(
    "message", ["fiber histogram ((2, 2), (3, 1), (9, 1)), expected", "fiber at 1 has size 9, expected 10"]
)
def test_check_mm1_conclusions_fail(monkeypatch, message):
    bad = corrupted(constructions.mm_pi_phi(*MM1_ARGS), 1, 0)
    monkeypatch.setattr(constructions, "mm_pi_phi", lambda *args, **kwargs: bad)
    assert_fails(check_mm1(*MM1_ARGS), message)


@pytest.mark.parametrize(
    "message", ["fiber histogram ((1, 10), (6, 1)), expected", "fiber at (0,0) has size 6, expected 7"]
)
def test_check_mm2_conclusions_fail(monkeypatch, message):
    good = constructions.mm_pair([0, 2, 3, 1], 1)
    bad = corrupted(good, 0, int(np.setdiff1d(np.arange(16), good.values)[0]))
    monkeypatch.setattr(constructions, "mm_pair", lambda *args, **kwargs: bad)
    assert_fails(check_mm2([0, 2, 3, 1], 1), message)

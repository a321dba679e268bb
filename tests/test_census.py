"""Every file check over every monomial x^d, 1 <= d <= p^n - 2, on small fields.

The fields are F_2^4 to F_2^7, F_3^2 to F_3^4, F_5^2 and F_7^2: 413 tables.
A check's conclusions are theorems about plateaued functions, so no check may
fail on a table whose every component is plateaued.  The fail counts per
(p, n, tag) are pinned: they move only when a verdict does.
"""

from collections import Counter

import numpy as np
import pytest

from plateau.constructions import monomial
from plateau.report import CHECKS, Analysis, run_check
from test_affine import affine_invariants_agree

FIELDS = ((2, 4), (2, 5), (2, 6), (2, 7), (3, 2), (3, 3), (3, 4), (5, 2), (7, 2))

FAIL_COUNTS = {
    (2, 6, "platdto1"): 17,
    (3, 3, "platdto1"): 7,
    (3, 4, "platdto1"): 33,
    (5, 2, "platdto1"): 12,
    (7, 2, "platdto1"): 28,
    (3, 4, "integrality"): 4,
    (5, 2, "integrality"): 5,
    (7, 2, "integrality"): 17,
}


@pytest.fixture(scope="module")
def census():
    """(p, n, d, all components plateaued, {tag: status}, Analysis) per monomial."""
    rows = []
    for p, n in FIELDS:
        for d in range(1, p**n - 1):
            an = Analysis(monomial(p, n, d))
            statuses = {tag: run_check(an, tag, []).status for tag in CHECKS}
            rows.append((p, n, d, an.profile().all_plateaued, statuses, an))
    return rows


def test_census_covers_every_monomial(census):
    assert len(census) == 413


def test_no_check_fails_on_plateaued_tables(census):
    failed = [
        (p, n, d, tag)
        for p, n, d, plateaued, statuses, _ in census
        if plateaued
        for tag, status in statuses.items()
        if status == "fail"
    ]
    assert failed == []


def test_census_fail_counts(census):
    counts = Counter(
        (p, n, tag)
        for p, n, _, _, statuses, _ in census
        for tag, status in statuses.items()
        if status == "fail"
    )
    assert dict(counts) == FAIL_COUNTS


def test_census_affine_images_agree(census):
    """A random affine image of every monomial keeps its affine invariants
    (tests/test_affine.py), so no verdict moves across an equivalence class.
    The fourth moment, which would more than double this pass, is left to
    the property there."""
    rng = np.random.default_rng(8)
    moved = [(p, n, d) for p, n, d, _, _, an in census if not affine_invariants_agree(an, rng, with_fourth=False)]
    assert moved == []

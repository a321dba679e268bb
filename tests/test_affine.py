"""Affine-equivalence corpus: invariants that survive a change of coordinates,
checked at sizes no oracle reaches.

G(x) = A F(B x + e) + c, with A and B invertible, has F's fiber-size
histogram, imbalance N_F and AB kind, its component profile (t histogram,
bent and balanced counts, linearity), its differential uniformity delta and
two_valued_at, its fourth moment and every check's status.  F + L, with L
linear, keeps all of these but the distribution, the balanced count and the
check statuses.  B is applied by indexing the table and A by linear_compose.
tests/test_census.py runs the same comparison over every census monomial.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as o
from plateau.constructions import linear_compose, monomial
from plateau.differential import fourth_moment
from plateau.domain import DomainParams, FuncTable, matrix_apply, matrix_rank, vec_sub_arrays
from plateau.report import CHECKS, Analysis, run_check
from plateau.verdict import render


def invertible(p, k, rng):
    """A random invertible k x k matrix over F_p."""
    while True:
        mat = rng.integers(p, size=(k, k)).tolist()
        if matrix_rank(mat, p) == k:
            return mat


def affine_image(table, rng):
    """A F(B x + e) + c for random invertible A, B and random e, c."""
    pr = table.params
    p, n, m = pr.p, pr.n, pr.m
    e, c = int(rng.integers(pr.domain_size)), int(rng.integers(pr.codomain_size))
    xs = matrix_apply(invertible(p, n, rng), np.arange(pr.domain_size), p, n)
    inner = FuncTable(pr, table.values[vec_sub_arrays(xs, o.vsub(0, e, p, n), p, n)])
    outer = linear_compose(inner, invertible(p, m, rng))
    return FuncTable(pr, vec_sub_arrays(outer.values, o.vsub(0, c, p, m), p, m))


def ea_image(table, rng):
    """F - L = F + (-L) for a random linear L: F_p^n -> F_p^m."""
    pr = table.params
    p, n, m = pr.p, pr.n, pr.m
    ls = matrix_apply(rng.integers(p, size=(m, n)).tolist(), np.arange(pr.domain_size), p, n)
    return FuncTable(pr, vec_sub_arrays(table.values, ls, p, m))


def invariants(an, with_fourth=True):
    """(EA invariants, affine invariants) of one table's Analysis."""
    profile = render(an.profile())
    balanced = profile.pop("balanced_count")
    ea = {"profile": profile, "diff": render(an.diff())}
    if with_fourth:
        ea["fourth_moment"] = render(fourth_moment(an.table))
    affine = dict(
        ea,
        balanced_count=balanced,
        histogram=an.dist.histogram,
        n_f=an.n_f,
        ab=None if an.n_f is None else an.ab.kind,
        checks={tag: run_check(an, tag, []).status for tag in CHECKS},
    )
    return ea, affine


def affine_invariants_agree(an, rng, with_fourth=True):
    """Whether an affine image of the Analysis's table keeps its affine
    invariants."""
    want = invariants(an, with_fourth)[1]
    return invariants(Analysis(affine_image(an.table, rng)), with_fourth)[1] == want


# largest n and m drawn per p
TOPS = {2: (12, 12), 3: (7, 7), 5: (4, 4), 7: (3, 3)}


def weight(p, n, m):
    """DDT entries plus spectrum entries, the latter about 25 times as dear
    at odd p (a DFT row against a Walsh-Hadamard row), where each of the p^m
    rows also costs about as much as 160 entries more."""
    return p ** (2 * n) + p**m * (p**n if p == 2 else 25 * (p**n + 160))


# a drawn table weighs at most this, about 0.15 s for its three analyses on
# 2 vCPUs: p = 2 draws reach n = 9 and m = 12 (not both), p = 3 draws
# (3, 6, 2) and (3, 2, 5), and the largest at p = 5 and 7 are (5, 4, 2) and
# (7, 3, 2)
WEIGHT = 1 << 20


@st.composite
def shapes(draw):
    p = draw(st.sampled_from(sorted(TOPS)))
    top_n, top_m = TOPS[p]
    n = draw(st.integers(1, max(k for k in range(1, top_n + 1) if weight(p, k, 1) <= WEIGHT)))
    m = draw(st.integers(1, max(k for k in range(1, top_m + 1) if weight(p, n, k) <= WEIGHT)))
    return p, n, m


@settings(max_examples=15, deadline=None)
@given(shapes(), st.integers(0, 2**32 - 1))
def test_equivalent_tables_share_invariants(shape, seed):
    """On a random table, an affine image keeps every affine invariant and
    F + L every EA invariant."""
    rng = np.random.default_rng(seed)
    pr = DomainParams(*shape)
    table = FuncTable(pr, rng.integers(pr.codomain_size, size=pr.domain_size))
    ea, affine = invariants(Analysis(table))
    assert invariants(Analysis(affine_image(table, rng)))[1] == affine
    assert invariants(Analysis(ea_image(table, rng)))[0] == ea


def test_affine_image_past_2_12_entries():
    """One table with p^n > 2^12, where the difference rows come in many
    chunks: its two low output coordinates are those of x^3 on F_2^13, whose
    components are plateaued, and its two high ones random, so that its
    components are of both kinds.  Only the affine image, without the fourth
    moment: at 2^13 entries each costs one more difference-table pass, about
    0.5 s on 2 vCPUs, and the property checks both at smaller sizes."""
    rng = np.random.default_rng(13)
    gold = linear_compose(monomial(2, 13, 3), [[int(i == j) for j in range(13)] for i in range(2)])
    values = gold.values + 4 * rng.integers(4, size=gold.values.size)
    table = FuncTable(DomainParams(2, 13, 4), values)
    assert affine_invariants_agree(Analysis(table), rng, with_fourth=False)

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as o
from plateau import differential
from plateau.constructions import monomial
from plateau.cyclotomic import CycInt
from plateau.differential import (
    _walsh_fourth_sum_all,
    ddt_rows,
    diff_summary,
    fourth_moment,
)
from plateau.domain import DomainParams, FuncTable
from plateau.walsh import walsh_row


def random_table(p, n, m, seed):
    rng = np.random.default_rng(seed)
    pr = DomainParams(p, n, m)
    return FuncTable(pr, rng.integers(pr.codomain_size, size=pr.domain_size))


def p2_row(tbl, c):
    """Row c of a p = 2 difference table, counted in int64 with numpy."""
    xs = np.arange(tbl.params.domain_size, dtype=np.int64)
    diffs = tbl.values[xs ^ c] ^ tbl.values
    return np.bincount(diffs, minlength=tbl.params.codomain_size)


def test_ddt_matches_oracle():
    """(257, 1, 1) takes the per-digit subtraction on uint16 operands."""
    tables = (
        monomial(2, 4, 3),
        random_table(2, 5, 3, 31),
        random_table(3, 3, 2, 32),
        random_table(257, 1, 1, 34),
    )
    for tbl in tables:
        pr = tbl.params
        want = o.ddt_table(pr.p, pr.n, pr.m, list(tbl))
        got = [(c, row.tolist()) for c, row in ddt_rows(tbl)]
        assert [c for c, _ in got] == list(range(1, pr.domain_size))
        for c, row in got:
            assert row == want[c], c


@st.composite
def tables_and_chunks(draw):
    """A random table with 4 <= p^n <= 125, and a chunk of 2 to p^n - 2
    input differences that does not divide the p^n - 1 rows, so the rows
    span several chunks and the last one is partial."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 6).filter(lambda k: 4 <= p**k <= 125))
    m = draw(st.integers(1, 3))
    pr = DomainParams(p, n, m)
    rows = pr.domain_size - 1
    chunk = draw(st.integers(2, rows - 1).filter(lambda k: rows % k))
    vals = draw(
        st.lists(
            st.integers(0, pr.codomain_size - 1),
            min_size=pr.domain_size,
            max_size=pr.domain_size,
        )
    )
    return FuncTable(pr, vals), chunk


@settings(max_examples=30, deadline=None)
@given(tables_and_chunks())
def test_ddt_rows_across_chunks_match_oracle(case):
    tbl, chunk = case
    pr = tbl.params
    want = o.ddt_table(pr.p, pr.n, pr.m, list(tbl))
    scratch = chunk * max(pr.domain_size, pr.codomain_size)
    with mock.patch.object(differential, "_SCRATCH", scratch):
        rows = [(c, row.copy()) for c, row in ddt_rows(tbl)]
    assert [c for c, _ in rows] == list(range(1, pr.domain_size))
    for c, row in rows:
        assert row.tolist() == want[c], c


@pytest.mark.parametrize("p, n, m", [(3, 4, 2), (5, 3, 2), (7, 2, 2)])
def test_odd_ddt_rows_across_chunks(monkeypatch, p, n, m):
    """Chunks of 7 input differences: 7 divides none of 80, 124 and 48, so
    every table spans several chunks and the last one is partial."""
    tbl = random_table(p, n, m, 60 + p)
    want = o.ddt_table(p, n, m, list(tbl))
    monkeypatch.setattr(differential, "_SCRATCH", 7 * p**n)
    rows = [(c, row.copy()) for c, row in ddt_rows(tbl)]
    assert [c for c, _ in rows] == list(range(1, p**n))
    for c, row in rows:
        assert row.tolist() == want[c], c


def test_p2_ddt_rows_across_chunks(monkeypatch):
    """Chunks of 3 input differences over the 31 rows: the last is partial."""
    tbl = random_table(2, 5, 3, 61)
    want = o.ddt_table(2, 5, 3, list(tbl))
    monkeypatch.setattr(differential, "_SCRATCH", 3 * 2**5)
    rows = [(c, row.copy()) for c, row in ddt_rows(tbl)]
    assert [c for c, _ in rows] == list(range(1, 32))
    for c, row in rows:
        assert row.tolist() == want[c], c


@pytest.mark.parametrize("p, n, m", [(2, 5, 16), (2, 5, 17), (2, 17, 2)])
def test_p2_ddt_rows_at_dtype_edges(p, n, m):
    """Values past uint16 at m = 17 and indices past uint16 at n = 17 match
    rows counted in int64."""
    tbl = random_table(p, n, m, 62 + n + m)
    for c, row in ddt_rows(tbl):
        assert np.array_equal(row, p2_row(tbl, c)), c
        if n == 17:
            break


def test_p2_ddt_rows_chunk_counts_the_wider_side(monkeypatch):
    """The chunk rule divides the scratch by max(p^n, p^m): with 2^10 entries
    and 2^12 counts per row, every (2, 3, 12) row has a block of its own."""
    tbl = random_table(2, 3, 12, 63)
    monkeypatch.setattr(differential, "_SCRATCH", 1 << 10)
    for c, row in ddt_rows(tbl):
        assert row.base.size == 1 << 12, c
        assert np.array_equal(row, p2_row(tbl, c)), c


def test_cube_map_is_apn():
    s = diff_summary(monomial(2, 4, 3))
    assert s.delta == 2
    assert s.two_valued_at == 2
    assert s.apn is True
    assert s.as_dict() == {"delta": 2, "two_valued_at": 2, "apn": True}


def test_power_five_frozen_summary():
    s = diff_summary(monomial(2, 8, 5))
    assert s.delta == 4
    assert s.two_valued_at == 4
    assert s.apn is False


def test_planar_square_map():
    """x^2 in odd characteristic: every difference map is a bijection."""
    for n in (2, 3):
        s = diff_summary(monomial(3, n, 2))
        assert s.delta == 1
        assert s.two_valued_at == 1
        assert s.apn is None


def test_linear_map_summary():
    pr = DomainParams(2, 3, 3)
    s = diff_summary(FuncTable(pr, list(range(8))))
    assert s.delta == 8
    assert s.two_valued_at == 8
    assert s.apn is False


def test_diff_summary_matches_oracle_randomized():
    for seed in range(12):
        p, n, m = [(2, 4, 3), (2, 4, 4), (3, 3, 2), (5, 2, 2)][seed % 4]
        tbl = random_table(p, n, m, 200 + seed)
        want_rows = o.ddt_table(p, n, m, list(tbl))[1:]
        delta = max(max(r) for r in want_rows)
        nonzero = {v for r in want_rows for v in r if v}
        s = diff_summary(tbl)
        assert s.delta == delta
        assert s.two_valued_at == (nonzero.pop() if len(nonzero) == 1 else None)
        if p == 2 and n == m:
            assert s.apn == (delta <= 2)
        else:
            assert s.apn is None


def test_fourth_moment_frozen_cube_map():
    fm = fourth_moment(monomial(2, 4, 3))
    assert fm.all_masks == 188416
    assert fm.restricted == 122880
    assert fm.apn_by_moment is True
    assert fm.restricted == (2**4 - 1) * 2 ** (3 * 4 + 1)


def test_fourth_moment_frozen_power_five():
    fm = fourth_moment(monomial(2, 8, 5))
    assert fm.restricted == 255 * 2**26
    assert fm.apn_by_moment is False


def test_fourth_moment_identity_map():
    pr = DomainParams(2, 3, 3)
    fm = fourth_moment(FuncTable(pr, list(range(8))))
    assert fm.restricted == 7 * 2**12
    assert fm.apn_by_moment is False


def test_fourth_moment_matches_oracle():
    """Differential-side computation equals the direct spectral quadruple sum."""
    for p, n, m, seed in ((2, 3, 2, 41), (3, 2, 2, 42), (5, 2, 1, 43)):
        tbl = random_table(p, n, m, seed)
        fm = fourth_moment(tbl)
        assert fm.restricted == o.fourth_moment_restricted(p, n, m, list(tbl))
        assert fm.all_masks == fm.restricted + p ** (4 * n)


def test_spectral_fourth_moment_past_the_int64_bound():
    """(5, 6, 1) is the smallest odd-p table (by p^(n+m)) whose |W|^4 sums
    leave int64.  Each row's sum is a non-rational element of Z[zeta_5]; only
    the sum over every b is an integer, and it matches a sum accumulated in
    Z[zeta_5] by the oracle."""
    p, n, m = 5, 6, 1
    tbl = random_table(p, n, m, 47)
    rows = [walsh_row(tbl, b) for b in range(p**m)]
    assert not rows[1].sq_moduli()._fits_int64()
    assert walsh_row(random_table(p, n - 1, m, 47), 1).sq_moduli()._fits_int64()
    assert any(isinstance(row.sq_moduli().sq_total(), CycInt) for row in rows)
    want = o.fourth_power_sum(
        p, (list(w.coeffs) + [0] for row in rows for w in row.values())
    )
    assert _walsh_fourth_sum_all(tbl) == want


def test_spectral_fourth_moment_p2_past_the_batched_bound():
    """At n = 16 the p = 2 fourth powers leave int64; per-row sums match
    Python-int sums of the row values."""
    tbl = random_table(2, 16, 1, 48)
    want = sum(int(w) ** 4 for b in range(2) for w in walsh_row(tbl, b).values())
    assert _walsh_fourth_sum_all(tbl) == want

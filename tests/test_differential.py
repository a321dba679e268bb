import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as o
from plateau import _util, differential, walsh
from plateau.constructions import monomial
from plateau.differential import (
    _spectral_route,
    _walsh_fourth_sum_all,
    ddt_rows,
    diff_summary,
    fourth_moment,
)
from plateau.domain import DomainParams, FuncTable
from plateau.errors import InternalCheckError
from plateau.verdict import render
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
    with mock.patch.object(_util, "SCRATCH", scratch):
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
    monkeypatch.setattr(_util, "SCRATCH", 7 * p**n)
    rows = [(c, row.copy()) for c, row in ddt_rows(tbl)]
    assert [c for c, _ in rows] == list(range(1, p**n))
    for c, row in rows:
        assert row.tolist() == want[c], c


def test_p2_ddt_rows_across_chunks(monkeypatch):
    """(2, 5, 3) takes the half route, whose blocks of 96 // 16 = 6 input
    differences stay inside one top bit: the 16 rows of top bit 4 end in a
    partial block."""
    tbl = random_table(2, 5, 3, 61)
    want = o.ddt_table(2, 5, 3, list(tbl))
    monkeypatch.setattr(_util, "SCRATCH", 3 * 2**5)
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
    """The half route divides the scratch by max(p^n / 2, p^m): with 2^10
    entries and 2^12 counts per row, every (2, 3, 12) row has a block of its
    own."""
    tbl = random_table(2, 3, 12, 63)
    monkeypatch.setattr(_util, "SCRATCH", 1 << 10)
    for c, row in ddt_rows(tbl):
        assert row.base.size == 1 << 12, c
        assert np.array_equal(row, p2_row(tbl, c)), c


ROUTE_SHAPES = {
    side: [(n, m) for n in range(1, 10) for m in range(1, 10) if _spectral_route(n, m) == side]
    for side in (False, True)
}


@st.composite
def p2_route_cases(draw):
    """A random p = 2 table on either side of the route rule, with a
    scratch size from one entry to the whole (2^n, 2^m) table, so that
    blocks hold one row, several rows with a partial last block, or every
    row."""
    n, m = draw(st.sampled_from(ROUTE_SHAPES[draw(st.booleans())]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tbl = FuncTable(DomainParams(2, n, m), rng.integers(1 << m, size=1 << n))
    return tbl, draw(st.integers(1, 1 << (n + m)))


@settings(max_examples=60, deadline=None)
@given(p2_route_cases())
def test_p2_routes_match_direct_counts(case):
    """Both p = 2 routes give the rows of the loop oracle (p^n <= 32) or of
    p2_row, in ascending c, whatever the block size."""
    tbl, scratch = case
    n, m = tbl.params.n, tbl.params.m
    if n <= 5:
        want = [np.array(row) for row in o.ddt_table(2, n, m, list(tbl))]
    else:
        want = [p2_row(tbl, c) for c in range(1 << n)]
    with mock.patch.object(_util, "SCRATCH", scratch):
        rows = [(c, row.copy()) for c, row in ddt_rows(tbl)]
    assert [c for c, _ in rows] == list(range(1, 1 << n))
    for c, row in rows:
        assert row.dtype == np.int64 and np.array_equal(row, want[c]), c


@pytest.mark.parametrize("n, m", [(14, 4), (16, 4), (17, 2)])
def test_spectral_route_at_large_n(n, m):
    """The spectral route past the sizes the property draws: the first and
    last row of every block, and 32 random rows, equal p2_row."""
    assert _spectral_route(n, m)
    tbl = random_table(2, n, m, 65 + n)
    block = _util.SCRATCH >> m
    firsts = np.arange(0, 1 << n, block)
    check = {*firsts[1:], *(firsts + block - 1), 1}
    check |= set(np.random.default_rng(n).integers(1, 1 << n, size=32).tolist())
    seen = 0
    for c, row in ddt_rows(tbl):
        if c in check:
            assert np.array_equal(row, p2_row(tbl, c)), c
            seen += 1
    assert seen == len(check)


def test_half_route_recount_catches_a_wrong_half_index(monkeypatch):
    """Top bit 5 given the half index of top bit 4: row 32 then counts the
    pairs {x, x ^ 32} with bit 4 clear twice and the others never.  The recount of the
    group's first row raises before any row of the group is yielded, and
    every row yielded before it is right."""
    tbl = random_table(2, 8, 8, 66)
    assert not _spectral_route(8, 8)
    right = differential._half_index
    monkeypatch.setattr(differential, "_half_index", lambda n, t: right(n, t - (t == 5)))
    seen = []
    with pytest.raises(InternalCheckError, match="DDT row 32 differs from its full-domain recount"):
        for c, row in ddt_rows(tbl):
            seen.append(c)
            assert np.array_equal(row, p2_row(tbl, c)), c
    assert seen == list(range(1, 32))


def spill_into_the_next_row(monkeypatch, m):
    """Make row 1 of every block of three or more rows count one difference
    as p^m, one bin past its last, so the count lands in bin 0 of row 2.
    Only the value differences, vec_sub_arrays at length m, are changed, so
    the tables must have n != m."""
    right = differential.vec_sub_arrays

    def spilled(us, vs, p, length):
        out = right(us, vs, p, length)
        if length == m and out.shape[0] >= 3:
            out = out.astype(np.int64)
            out[1, 0] = p**m
        return out

    monkeypatch.setattr(differential, "vec_sub_arrays", spilled)


@pytest.mark.parametrize(
    "p, n, m, c, total",
    [
        # odd p: one block of all 80 rows
        (3, 4, 2, 2, 80),
        # the half route: top bit 2 is one block, rows 4..7; row 4 is recounted
        (2, 8, 6, 5, 254),
    ],
)
def test_row_sum_check_catches_a_count_in_the_next_row(monkeypatch, p, n, m, c, total):
    """A count spilled from a row that is not the last of its block keeps
    the block's total and every row's length; the block's row sums do not."""
    tbl = random_table(p, n, m, 71)
    assert not (p == 2 and _spectral_route(n, m))
    spill_into_the_next_row(monkeypatch, m)
    with pytest.raises(InternalCheckError, match=f"DDT row {c} sums to {total}, expected {p**n}"):
        for _ in ddt_rows(tbl):
            pass


def test_fourth_moment_reads_sum_checked_rows(monkeypatch):
    """At (3, 7, 6), p^(n+m) = 3^13 is past the 2^20 spectral cross-check,
    so only the row sums stand between a spilled count and a wrong moment."""
    tbl = random_table(3, 7, 6, 72)
    spill_into_the_next_row(monkeypatch, 6)
    with pytest.raises(InternalCheckError, match="DDT row 2 sums to 2186, expected 2187"):
        fourth_moment(tbl)


@pytest.mark.parametrize(
    "delta, match",
    [
        (2, "not multiples of 2\\^12"),
        (1 << 9, "not multiples of 2\\^12"),
        (1 << 10, "DDT row 255 differs from its full-domain recount"),
    ],
)
def test_spectral_route_checks_catch_a_wrong_walsh_value(monkeypatch, delta, match):
    """One Walsh value W(b, a) of a (2, 8, 3) table, b != 0 and W = 2 mod 4,
    off by delta moves every 2^11 DDT(c, d) by delta (2W + delta), never by
    0.  By
    2 that leaves a bit below 2^11 set; by 2^9 it sets bit 11, an odd DDT
    entry; by 2^10 it is a multiple of 2^12 that the bit check cannot see,
    and the recount of the block's last row raises.  No row is yielded."""
    n, m = 8, 3
    tbl = random_table(2, n, m, 69)
    assert _spectral_route(n, m)
    right = walsh.walsh_rows_signs_p2

    def off_by_delta(table, bs):
        rows = right(table, bs)
        b, a = np.argwhere(rows[1:] % 4 == 2)[0]
        rows[1 + b, a] += delta
        return rows

    monkeypatch.setattr(walsh, "walsh_rows_signs_p2", off_by_delta)
    with pytest.raises(InternalCheckError, match=match):
        next(ddt_rows(tbl))


@pytest.mark.parametrize("n, m, spectral", [(14, 4, True), (11, 11, False)])
def test_quadratic_rows_match_the_rank_oracle(n, m, spectral):
    """A random quadratic map's difference map at c is affine with matrix
    M_c, so row c has 2^rank(M_c) nonzero entries, each 2^(n - rank(M_c)),
    on either route; the ranks differ between rows."""
    assert _spectral_route(n, m) == spectral
    vals, ranks = o.quadratic_p2(n, m, 70 + n)
    assert len(set(ranks[1:].tolist())) > 1
    for c, row in ddt_rows(FuncTable(DomainParams(2, n, m), vals)):
        nonzero, r = row[row != 0], int(ranks[c])
        assert nonzero.size == 1 << r and np.all(nonzero == 1 << (n - r)), c


def test_cube_map_is_apn():
    s = diff_summary(monomial(2, 4, 3))
    assert s.delta == 2
    assert s.two_valued_at == 2
    assert s.apn is True
    assert render(s) == {"delta": 2, "two_valued_at": 2, "apn": True}


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


def x0_times_x1(p, n):
    """x0 * x1 into F_p: every derivative is affine, so every DDT row is
    uniform, but the rows with c0 = c1 = 0 peak at p^n and the others at
    p^(n-1)."""
    xs = np.arange(p**n)
    return FuncTable(DomainParams(p, n, 1), (xs % p) * (xs // p % p) % p)


def test_diff_summary_matches_oracle_randomized():
    tables = [
        random_table(*[(2, 4, 3), (2, 4, 4), (3, 3, 2), (5, 2, 2)][seed % 4], 200 + seed)
        for seed in range(12)
    ]
    tables += [
        monomial(p, n, d)
        for p, n, d in ((2, 4, 7), (2, 5, 3), (2, 5, 5), (2, 5, 7), (2, 6, 5),
                        (3, 3, 2), (3, 3, 4), (3, 3, 5), (5, 2, 3), (7, 2, 2))
    ]
    partially_bent = [x0_times_x1(2, 3), x0_times_x1(2, 4), x0_times_x1(3, 3)]
    for tbl in tables + partially_bent:
        p, n, m = tbl.params.p, tbl.params.n, tbl.params.m
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
    for tbl in partially_bent:
        rows = o.ddt_table(tbl.params.p, tbl.params.n, 1, list(tbl))[1:]
        assert all(len({v for v in r if v}) == 1 for r in rows)
        assert min(max(r) for r in rows) < max(max(r) for r in rows)
        assert diff_summary(tbl).two_valued_at is None


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


@st.composite
def fourth_moment_tables(draw):
    """A random table at p in {2, 3, 5, 7} with p^(2n+m) <= 5^5, which keeps
    the oracle's p^(n+m) direct sums of p^n terms each cheap."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 5).filter(lambda k: p ** (2 * k + 1) <= 5**5))
    m = draw(st.integers(1, 3).filter(lambda k: p ** (2 * n + k) <= 5**5))
    pr = DomainParams(p, n, m)
    vals = draw(
        st.lists(
            st.integers(0, pr.codomain_size - 1),
            min_size=pr.domain_size,
            max_size=pr.domain_size,
        )
    )
    return FuncTable(pr, vals)


@settings(max_examples=40, deadline=None)
@given(fourth_moment_tables())
def test_fourth_moment_sides_match_oracle_randomized(tbl):
    """The spectral sum over every (b, a) and the differential side's
    restricted sum both equal the oracle's direct sum; the b = 0 row adds
    p^(4n)."""
    p, n, m = tbl.params.p, tbl.params.n, tbl.params.m
    want = o.fourth_moment_restricted(p, n, m, list(tbl))
    assert _walsh_fourth_sum_all(tbl) == want + p ** (4 * n)
    assert fourth_moment(tbl).restricted == want


def test_fourth_moment_matches_oracle():
    """Differential-side computation equals the direct spectral quadruple sum."""
    for p, n, m, seed in ((2, 3, 2, 41), (3, 2, 2, 42), (5, 2, 1, 43)):
        tbl = random_table(p, n, m, seed)
        fm = fourth_moment(tbl)
        assert fm.restricted == o.fourth_moment_restricted(p, n, m, list(tbl))
        assert fm.all_masks == fm.restricted + p ** (4 * n)


def wide_odd_rows():
    """The rows of a random (5, 6, 1) table, the smallest odd-p table (by
    p^(n+m)) whose |W|^4 sums leave int64."""
    p, n, m = 5, 6, 1
    tbl = random_table(p, n, m, 47)
    return tbl, [walsh_row(tbl, b) for b in range(p**m)]


def test_spectral_fourth_moment_past_the_int64_bound():
    """Only the sum over every b is an integer, and it matches a sum
    accumulated in Z[zeta_5] by the oracle."""
    tbl, rows = wide_odd_rows()
    p, n = 5, 6
    assert not rows[1].sq_moduli()._fits_int64()
    assert walsh_row(random_table(p, n - 1, 1, 47), 1).sq_moduli()._fits_int64()
    # basis coordinates with a zero top exponent count are exponent counts
    want = o.fourth_power_sum(p, (c + [0] for row in rows for c in row.basis_coords().tolist()))
    assert _walsh_fourth_sum_all(tbl) == want


def test_sq_total_refuses_an_irrational_row_sum():
    """A single row's sum of |W|^4 can be irrational at p = 5, as on the
    (5, 6, 1) table; sq_total raises InternalCheckError there and returns
    the integer on every other row."""
    _, rows = wide_odd_rows()
    irrational = 0
    for row in rows:
        sq = row.sq_moduli()
        coords = walsh._exact_coords(5, sq.sq_slices())
        if any(coords[1:]):
            irrational += 1
            with pytest.raises(InternalCheckError, match="not a rational integer"):
                sq.sq_total()
        else:
            assert sq.sq_total() == coords[0]
    assert irrational


def test_p2_spectral_fourth_moment_squares_slice_by_slice():
    """At (2, 11, 11) one batch holds 2048 rows of 2048 int16 entries, 8 MiB.
    Squaring it slice by slice keeps the traced peak under 16 MiB, where
    widening the whole batch to int64 twice took 72 MiB; the sum equals the
    differential side, which fourth_moment does not cross-check this large."""
    tbl = random_table(2, 11, 11, 49)
    tracemalloc.start()
    try:
        got = _walsh_fourth_sum_all(tbl)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    assert got == fourth_moment(tbl).all_masks


def test_spectral_fourth_moment_p2_past_the_batched_bound():
    """At n = 16 the p = 2 fourth powers leave int64: the batched rows take
    the Python-int path of sq_total and match Python-int sums of the row
    values."""
    tbl = random_table(2, 16, 1, 48)
    want = sum(w**4 for b in range(2) for w in walsh_row(tbl, b).data.tolist())
    assert _walsh_fourth_sum_all(tbl) == want

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as o
from plateau import walsh
from plateau.cyclotomic import CycInt
from plateau.distribution import preimage_distribution
from plateau.domain import DomainParams, FuncTable
from plateau.errors import BudgetError
from plateau.walsh import (
    WalshVector,
    _p2_dtype,
    component_values,
    dft_p_axes,
    fwht_last_axis,
    spectrum_rows,
    walsh_point,
    walsh_row,
    walsh_rows_signs_p2,
    zero_column,
)


def random_table(p, n, m, seed):
    rng = np.random.default_rng(seed)
    pr = DomainParams(p, n, m)
    return FuncTable(pr, rng.integers(pr.codomain_size, size=pr.domain_size))


def test_component_values_match_dot():
    tbl = random_table(3, 3, 2, 1)
    vals = list(tbl)
    for b in range(9):
        got = component_values(tbl, b)
        assert got.tolist() == [o.dot(b, v, 3, 2) for v in vals]


def test_walsh_point_matches_direct_sum_p2():
    tbl = random_table(2, 4, 4, 2)
    vals = list(tbl)
    for b in range(16):
        for a in range(16):
            assert walsh_point(tbl, b, a) == o.walsh_int_p2(4, 4, vals, b, a)


def test_walsh_point_matches_direct_sum_p3():
    tbl = random_table(3, 2, 2, 3)
    vals = list(tbl)
    for b in range(9):
        for a in range(9):
            want = CycInt.from_exponent_coeffs(3, o.walsh_counts(3, 2, 2, vals, b, a))
            assert walsh_point(tbl, b, a) == want


def test_row_matches_points_p2():
    """The butterfly row agrees with direct summation on every entry."""
    tbl = random_table(2, 6, 6, 4)
    vals = list(tbl)
    for b in range(64):
        row = walsh_row(tbl, b)
        got = row.values()
        for a in range(64):
            assert got[a] == o.walsh_int_p2(6, 6, vals, b, a), (b, a)


def test_row_matches_points_p3():
    tbl = random_table(3, 3, 2, 5)
    vals = list(tbl)
    for b in range(9):
        row = walsh_row(tbl, b)
        got = row.values()
        for a in range(27):
            want = CycInt.from_exponent_coeffs(3, o.walsh_counts(3, 3, 2, vals, b, a))
            assert got[a] == want, (b, a)


def test_row_matches_points_p5():
    tbl = random_table(5, 2, 2, 6)
    vals = list(tbl)
    for b in range(25):
        row = walsh_row(tbl, b)
        for a in range(25):
            want = CycInt.from_exponent_coeffs(5, o.walsh_counts(5, 2, 2, vals, b, a))
            assert row.value(a) == want, (b, a)


def test_parseval_sum_every_row():
    for p, n, m, seed in ((2, 6, 3, 7), (3, 3, 2, 8), (5, 2, 1, 9)):
        tbl = random_table(p, n, m, seed)
        for b in range(p**m):
            row = walsh_row(tbl, b)
            assert row.sq_total() == p ** (2 * n)
            assert 0 < row.support_count() <= p**n


def test_sq_modulus_profile_matches_oracle():
    tbl = random_table(3, 3, 3, 10)
    vals = list(tbl)
    for b in (1, 5, 20):
        rational, sq = walsh_row(tbl, b).sq_moduli().integers()
        for a in range(27):
            want = o.rational_sq_modulus(o.walsh_counts(3, 3, 3, vals, b, a), 3)
            if want is None:
                assert not rational[a]
            else:
                assert rational[a] and int(sq[a]) == want


def test_fwht_doubles_back():
    rng = np.random.default_rng(11)
    v = rng.integers(-9, 10, size=32).astype(np.int64)
    twice = fwht_last_axis(fwht_last_axis(v.copy()))
    assert np.array_equal(twice, 32 * v)


def sylvester_hadamard(k):
    """H_(2^k) by its block definition H_2N = [[H_N, H_N], [H_N, -H_N]]."""
    h = np.ones((1, 1), dtype=np.int8)
    for _ in range(k):
        h = np.block([[h, h], [h, -h]])
    return h


@pytest.mark.parametrize("k", range(13))
def test_fwht_matches_sylvester_hadamard_direct_sum(k):
    """Every length 2^0 ... 2^12 (odd and even log2), 1-D and batched, in
    every dtype the p = 2 paths use."""
    rng = np.random.default_rng(100 + k)
    # |entries| <= 7, so every output is at most 7 * 2^12 < 2^15 and even
    # the int16 transform is exact
    x = rng.integers(-7, 8, size=(3, 1 << k))
    h = sylvester_hadamard(k)
    want = np.empty_like(x)
    step = 256
    for lo in range(0, 1 << k, step):
        want[:, lo : lo + step] = x @ h[lo : lo + step].T.astype(np.int64)
    for dtype in (np.int16, np.int32, np.int64):
        batch = fwht_last_axis(x.astype(dtype))
        assert batch.dtype == dtype
        assert np.array_equal(batch, want), (k, dtype)
        single = fwht_last_axis(x[1].astype(dtype))
        assert np.array_equal(single, want[1]), (k, dtype)


@pytest.mark.parametrize("k", [13, 14, 15])
def test_fwht_beyond_one_block_matches_direct_sums(k):
    """Lengths past the 2^12 block of the short-stride stages: sampled
    outputs against the direct sum, and the transform applied twice."""
    rng = np.random.default_rng(200 + k)
    x = rng.integers(-7, 8, size=(2, 1 << k))
    got = fwht_last_axis(x.astype(np.int32))
    js = np.arange(1 << k)
    for i in rng.integers(0, 1 << k, size=16).tolist():
        signs = 1 - 2 * (np.bitwise_count(js & i) & 1).astype(np.int64)
        assert np.array_equal(got[:, i], x @ signs), (k, i)
    assert np.array_equal(fwht_last_axis(got), x << k)


def test_fwht_rejects_bad_input():
    with pytest.raises(ValueError):
        fwht_last_axis(np.zeros(6, dtype=np.int32))
    with pytest.raises(ValueError):
        fwht_last_axis(np.zeros((4, 8), dtype=np.int32)[:, ::2])


def test_p2_dtype_rule_edges():
    assert _p2_dtype(0) == np.int16
    assert _p2_dtype(14) == np.int16
    assert _p2_dtype(15) == np.int32
    assert _p2_dtype(30) == np.int32
    assert _p2_dtype(31) == np.int64
    assert _p2_dtype(62) == np.int64
    with pytest.raises(BudgetError):
        _p2_dtype(63)


@pytest.mark.parametrize("n", [14, 15])
def test_identity_table_reaches_the_bound(n):
    """F(x) = x: row b = 1 is 2^n at a = 1 and 0 elsewhere, and W(0, 0) = 2^n.
    At n = 15 an int16 choice would wrap 2^15 to -2^15."""
    tbl = FuncTable(DomainParams(2, n, n), np.arange(1 << n, dtype=np.int64))
    want = np.zeros(1 << n, dtype=np.int64)
    want[1] = 1 << n
    row = walsh_row(tbl, 1)
    assert row.data.dtype == _p2_dtype(n)
    assert np.array_equal(row.data, want)
    batch = walsh_rows_signs_p2(tbl, np.array([1], dtype=np.int64))
    assert batch.dtype == _p2_dtype(n)
    assert np.array_equal(batch[0], want)
    zc = zero_column(preimage_distribution(tbl))
    assert zc.data.dtype == _p2_dtype(n)
    assert zc.value(0) == 1 << n
    assert not np.any(zc.data[1:])


@pytest.mark.parametrize("n", [30, 31])
def test_counts_at_the_int32_edge(n):
    """Counts totalling 2^n transform exactly in _p2_dtype(n); at n = 31 an
    int32 choice would wrap 2^31."""
    counts = np.array([1 << n, 0, 0, 0], dtype=_p2_dtype(n))
    assert fwht_last_axis(counts).tolist() == [1 << n] * 4


def test_batched_sign_rows_match_single_rows():
    tbl = random_table(2, 5, 3, 12)
    bs = np.arange(8, dtype=np.int64)
    batch = walsh_rows_signs_p2(tbl, bs)
    assert batch.shape == (8, 32)
    for b in range(8):
        assert batch[b].tolist() == walsh_row(tbl, b).data.tolist()


def test_zero_column_matches_points():
    for p, n, m, seed in ((2, 6, 4, 13), (3, 3, 2, 14)):
        tbl = random_table(p, n, m, seed)
        vals = list(tbl)
        zc = zero_column(preimage_distribution(tbl))
        assert len(zc) == p**m
        for b in range(p**m):
            if p == 2:
                want = o.walsh_int_p2(n, m, vals, b, 0)
            else:
                want = CycInt.from_exponent_coeffs(p, o.walsh_counts(p, n, m, vals, b, 0))
            assert zc.value(b) == want, b


def test_zero_column_sums():
    for p, n, m, seed in ((2, 5, 3, 15), (3, 3, 2, 16), (5, 2, 2, 17)):
        tbl = random_table(p, n, m, seed)
        vals = list(tbl)
        zc = zero_column(preimage_distribution(tbl))
        fiber0 = o.preimage_counts(p, n, m, vals)[0]
        assert zc.total() == p**m * fiber0
        total = [0] * p
        for b in range(p**m):
            c = o.walsh_counts(p, n, m, vals, b, 0)
            total = [t + u for t, u in zip(total, o.sq_modulus_counts(c, p))]
        assert zc.sq_total() == o.rational_value(total, p)


def test_spectrum_rows_cover_all_masks_in_order():
    tbl = random_table(3, 2, 2, 18)
    rows = list(spectrum_rows(tbl))
    assert len(rows) == 9
    for b, row in enumerate(rows):
        single = walsh_row(tbl, b)
        assert np.array_equal(row.data, single.data)


# largest n per p for the property test: p^n <= 81 keeps walsh_point cheap
_MAX_N = {2: 6, 3: 4, 5: 2, 7: 2}


@st.composite
def tables_and_masks(draw):
    p = draw(st.sampled_from(sorted(_MAX_N)))
    n = draw(st.integers(1, _MAX_N[p]))
    m = draw(st.integers(1, 2))
    pr = DomainParams(p, n, m)
    size = pr.domain_size
    vals = draw(st.lists(st.integers(0, pr.codomain_size - 1), min_size=size, max_size=size))
    return FuncTable(pr, vals), draw(st.integers(0, pr.codomain_size - 1))


@settings(max_examples=40, deadline=None)
@given(tables_and_masks())
def test_walsh_vector_matches_walsh_point(case):
    """Every accessor of a row and of the zero column, entry by entry against
    walsh_point and CycInt arithmetic."""
    tbl, b = case
    pr = tbl.params
    p = pr.p
    vectors = (
        (walsh_row(tbl, b), [walsh_point(tbl, b, a) for a in range(pr.domain_size)]),
        (
            zero_column(preimage_distribution(tbl)),
            [walsh_point(tbl, c, 0) for c in range(pr.codomain_size)],
        ),
    )
    for vec, want in vectors:
        assert vec.values() == want
        coords = [[w] if p == 2 else list(w.coeffs) for w in want]
        assert vec.basis_coords().tolist() == coords
        rational, ints = vec.integers()
        for i, w in enumerate(want):
            is_int = p == 2 or w.is_rational()
            assert bool(rational[i]) == is_int
            assert int(ints[i]) == (int(w) if p == 2 else w.as_integer() if is_int else 0)
        sq_want = [w * w if p == 2 else w.sq_modulus() for w in want]
        sq = vec.sq_moduli()
        assert sq.values() == sq_want
        assert vec.sq_total() == sum(sq_want)
        # |W|^2 is real, so its ring square is |W|^4
        assert sq.sq_total() == sum(s * s for s in sq_want)
        assert vec.total() == sum(want)
        assert vec.support_count() == sum(1 for w in want if w != 0)
    assert vectors[0][0].sq_total() == p ** (2 * pr.n)


def test_p2_fourth_powers_past_int64():
    """At n = 16 the square of a +-2^16 entry fits int64 but its fourth power
    2^64 does not; the sums match Python-int sums."""
    rng = np.random.default_rng(21)
    data = ((1 - 2 * rng.integers(0, 2, size=4096)) << 16).astype(_p2_dtype(16))
    data[::7] = 0
    vec = WalshVector(2, 16, data)
    ints = [int(x) for x in data.tolist()]
    assert vec.sq_total() == sum(x * x for x in ints)
    sq = vec.sq_moduli()
    assert sq.values() == [x * x for x in ints]
    assert not sq._fits_int64()
    assert sq.sq_total() == sum(x**4 for x in ints) == 3510 << 64
    assert sq.total() == sum(x * x for x in ints)
    assert vec.support_count() == 3510


@st.composite
def odd_tables(draw):
    """Random tables at odd p in {3, 5, 7}, n <= 4, m <= 3, with p^n <= 343
    so that one direct sum per entry stays cheap."""
    p = draw(st.sampled_from([3, 5, 7]))
    n = draw(st.integers(1, 4).filter(lambda k: p**k <= 343))
    m = draw(st.integers(1, 3))
    pr = DomainParams(p, n, m)
    size = pr.domain_size
    vals = draw(st.lists(st.integers(0, pr.codomain_size - 1), min_size=size, max_size=size))
    return FuncTable(pr, vals), draw(st.integers(0, pr.codomain_size - 1))


@settings(max_examples=25, deadline=None)
@given(odd_tables())
def test_odd_rows_and_zero_column_match_walsh_counts(case):
    """The gather DFT, entry by entry against oracles.walsh_counts."""
    tbl, b = case
    pr = tbl.params
    p, n, m = pr.p, pr.n, pr.m
    vals = list(tbl)
    row = walsh_row(tbl, b).basis_coords().tolist()
    for a in range(pr.domain_size):
        assert tuple(row[a]) == o.counts_canonical(o.walsh_counts(p, n, m, vals, b, a), p)
    col = zero_column(preimage_distribution(tbl)).basis_coords().tolist()
    for c in range(pr.codomain_size):
        assert tuple(col[c]) == o.counts_canonical(o.walsh_counts(p, n, m, vals, c, 0), p)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("n", [2, 40])
def test_sq_moduli_match_cycint(p, n):
    """sq_moduli against W * conj(W) in CycInt arithmetic, on the int64 path
    (n = 2) and on the object path (n = 40, where p^(2n+3) >= 2^62).  The
    entries are synthetic exponent counts; at n = 40 they reach 2^40."""
    rng = np.random.default_rng(30 + p)
    data = rng.integers(0, 1 << min(n, 40), size=(64, p), dtype=np.int64)
    vec = WalshVector(p, n, data)
    assert vec._fits_int64() == (n == 2)
    got = vec.sq_moduli()
    assert got.data.dtype == (np.int64 if n == 2 else object)
    want = [w * w.conj() for w in vec.values()]
    assert got.values() == want


@pytest.mark.parametrize("p, axes", [(3, 5), (5, 3), (7, 2)])
def test_dft_p_axes_blocks_agree(monkeypatch, p, axes):
    """Forcing one (p, p, p) gather per block gives the same transform as
    one block, for both signs."""
    rng = np.random.default_rng(40 + p)
    mat = rng.integers(0, 50, size=(p**axes, p), dtype=np.int64)
    whole = [dft_p_axes(mat, p, axes, sign) for sign in (-1, 1)]
    monkeypatch.setattr(walsh, "_DFT_SCRATCH", p**3)
    blocked = [dft_p_axes(mat, p, axes, sign) for sign in (-1, 1)]
    for w, b in zip(whole, blocked):
        assert b.dtype == w.dtype == np.int64
        assert np.array_equal(w, b)


@pytest.mark.parametrize("p, n, m", [(3, 4, 2), (5, 3, 2), (7, 2, 2)])
def test_blocked_dft_p_axes_matches_walsh_counts(monkeypatch, p, n, m):
    """Blocks of two rows, the last one partial, against the direct sums for
    both signs: the exponent counts at frequency a are those of W(b, a) for
    sign -1 and of W(b, -a) for sign +1."""
    monkeypatch.setattr(walsh, "_DFT_SCRATCH", 2 * p**3)
    tbl = random_table(p, n, m, 60 + p)
    vals = list(tbl)
    b = p + 1
    mat = np.zeros((p**n, p), dtype=np.int64)
    mat[np.arange(p**n), component_values(tbl, b)] = 1
    for sign in (-1, 1):
        got = dft_p_axes(mat, p, n, sign).tolist()
        for a in range(p**n):
            freq = a if sign == -1 else o.vsub(0, a, p, n)
            assert got[a] == o.walsh_counts(p, n, m, vals, b, freq)


@pytest.mark.parametrize("m", [16, 32])
def test_batched_sign_rows_narrow_and(m):
    """The AND in the narrowest unsigned dtype for 2^m - 1 (uint16 at
    m = 16, uint32 at m = 32) gives the int64 result, top bit included."""
    rng = np.random.default_rng(50 + m)
    pr = DomainParams(2, 10, m)
    vals = rng.integers(0, 1 << m, size=pr.domain_size, dtype=np.int64)
    vals[0] = (1 << m) - 1
    tbl = FuncTable(pr, vals)
    bs = np.concatenate([[1 << (m - 1), (1 << m) - 1], rng.integers(0, 1 << m, size=14)])
    bits = (np.bitwise_count(tbl.values[None, :] & bs[:, None]) & 1).astype(np.int64)
    want = fwht_last_axis(1 - 2 * bits)
    got = walsh_rows_signs_p2(tbl, bs)
    assert got.dtype == _p2_dtype(10)
    assert np.array_equal(got, want)

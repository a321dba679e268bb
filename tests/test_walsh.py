import numpy as np
import pytest
import tracemalloc
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles as o
from plateau import _util, walsh
from plateau.distribution import preimage_distribution
from plateau.domain import DomainParams, FuncTable, value_dtype
from plateau.errors import BudgetError, InternalCheckError
from plateau.walsh import (
    WalshVector,
    dft_p_axes,
    fwht_last_axis,
    signed_dtype,
    spectrum_rows,
    walsh_row,
    walsh_rows_signs_p2,
    zero_column,
)


def random_table(p, n, m, seed):
    rng = np.random.default_rng(seed)
    pr = DomainParams(p, n, m)
    return FuncTable(pr, rng.integers(pr.codomain_size, size=pr.domain_size))


def coords(vec):
    """A vector's basis coordinates as one tuple per entry."""
    return [tuple(c) for c in vec.basis_coords().tolist()]


def summed(counts_seq):
    """Exponent counts of the sum of the elements with these counts."""
    return [sum(col) for col in zip(*counts_seq)]


def oracle_coords(tbl, b, a):
    """The basis coordinates of W(b, a) by direct summation."""
    pr = tbl.params
    counts = o.walsh_counts(pr.p, pr.n, pr.m, list(tbl), b, a)
    return o.counts_canonical(counts, pr.p)


# largest (n, m) drawn per p: value dtypes uint8 to uint32, and at p = 257
# uint16 digit planes
COMPONENT_SHAPES = {2: (7, 20), 3: (4, 12), 5: (3, 8), 7: (2, 7), 257: (1, 2)}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_component_values_match_dot(data):
    """FuncTable.components(bs) is <b, F(x)> for every mask b and input x,
    in value_dtype(p), for a list or an array of masks, the empty one
    included; a nonempty one always holds the mask with every digit p - 1."""
    p = data.draw(st.sampled_from(sorted(COMPONENT_SHAPES)), label="p")
    top_n, top_m = COMPONENT_SHAPES[p]
    n = data.draw(st.integers(1, top_n), label="n")
    m = data.draw(st.integers(1, top_m), label="m")
    tbl = random_table(p, n, m, data.draw(st.integers(0, 2**16), label="seed"))
    pm = p**m
    bs = data.draw(st.lists(st.integers(0, pm - 1), max_size=3), label="bs") + [pm - 1]
    if data.draw(st.booleans(), label="empty"):
        bs = []
    given_bs = np.array(bs, dtype=np.int64) if data.draw(st.booleans(), label="array") else bs
    got = tbl.components(given_bs)
    assert got.dtype == value_dtype(p)
    assert got.shape == (len(bs), p**n)
    vals = list(tbl)
    assert got.tolist() == [[o.dot(b, v, p, m) for v in vals] for b in bs]


def test_row_matches_points_p2():
    """The butterfly row agrees with direct summation on every entry."""
    tbl = random_table(2, 6, 6, 4)
    vals = list(tbl)
    for b in range(64):
        got = walsh_row(tbl, b).basis_coords()[:, 0].tolist()
        for a in range(64):
            assert got[a] == o.walsh_int_p2(6, 6, vals, b, a), (b, a)


def test_row_matches_points_p3():
    tbl = random_table(3, 3, 2, 5)
    for b in range(9):
        got = coords(walsh_row(tbl, b))
        for a in range(27):
            assert got[a] == oracle_coords(tbl, b, a), (b, a)


def test_row_matches_points_p5():
    tbl = random_table(5, 2, 2, 6)
    for b in range(25):
        got = coords(walsh_row(tbl, b))
        for a in range(25):
            assert got[a] == oracle_coords(tbl, b, a), (b, a)


def test_parseval_sum_every_row():
    for p, n, m, seed in ((2, 6, 3, 7), (3, 3, 2, 8), (5, 2, 1, 9)):
        tbl = random_table(p, n, m, seed)
        for b in range(p**m):
            assert walsh_row(tbl, b).sq_total() == p ** (2 * n)


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


def hadamard_product(x, k):
    """x @ H_(2^k) in int64, 256 columns of H at a time."""
    h = sylvester_hadamard(k)
    want = np.empty_like(x, dtype=np.int64)
    step = 256
    for lo in range(0, 1 << k, step):
        want[..., lo : lo + step] = x @ h[lo : lo + step].T.astype(np.int64)
    return want


@pytest.mark.parametrize("k", range(13))
def test_fwht_matches_sylvester_hadamard_direct_sum(k):
    """Every length 2^0 ... 2^12 (odd and even log2), 1-D and batched, in
    every dtype the p = 2 paths use."""
    rng = np.random.default_rng(100 + k)
    # |entries| <= 7, so every output is at most 7 * 2^12 < 2^15 and even
    # the int16 transform is exact
    x = rng.integers(-7, 8, size=(3, 1 << k))
    want = hadamard_product(x, k)
    for dtype in (np.int16, np.int32, np.int64):
        batch = fwht_last_axis(x.astype(dtype))
        assert batch.dtype == dtype
        assert np.array_equal(batch, want), (k, dtype)
        single = fwht_last_axis(x[1].astype(dtype))
        assert np.array_equal(single, want[1]), (k, dtype)


@pytest.mark.parametrize("k", [13, 14, 15])
def test_fwht_beyond_one_block_matches_direct_sums(k):
    """Lengths 2^13 to 2^15, past the Sylvester products (still one block at
    the default SCRATCH; the test below shrinks it): sampled outputs
    against the direct sum, and the transform applied twice."""
    rng = np.random.default_rng(200 + k)
    x = rng.integers(-7, 8, size=(2, 1 << k))
    got = fwht_last_axis(x.astype(np.int32))
    js = np.arange(1 << k)
    for i in rng.integers(0, 1 << k, size=16).tolist():
        signs = 1 - 2 * (np.bitwise_count(js & i) & 1).astype(np.int64)
        assert np.array_equal(got[:, i], x @ signs), (k, i)
    assert np.array_equal(fwht_last_axis(got), x << k)


@pytest.mark.parametrize("scratch", [1, 4, 64])
def test_fwht_across_blocks_matches_sylvester_hadamard(monkeypatch, scratch):
    """With SCRATCH at 1, 4 and 64 the blocks hold 4, 16 and 256 entries, so
    the cross-block stages run at every k past that: odd and even log2, rows
    shorter and longer than a block, 1-D, batched and a batch of 255 rows
    (the last one of the (2, 12, 12) profile, which leaves a short last block
    of whole rows), in every dtype the p = 2 paths use."""
    monkeypatch.setattr(_util, "SCRATCH", scratch)
    rng = np.random.default_rng(300 + scratch)
    # chunks of SCRATCH entries: at SCRATCH = 1, lengths past 2^9 only cost time
    for k in range(10 if scratch == 1 else 13):
        for rows in (None, 3, 255) if k <= 6 else (None, 3):
            shape = 1 << k if rows is None else (rows, 1 << k)
            x = rng.integers(-7, 8, size=shape)
            want = hadamard_product(x, k)
            for dtype in (np.int16, np.int32, np.int64):
                got = fwht_last_axis(x.astype(dtype))
                assert got.dtype == dtype
                assert np.array_equal(got, want), (k, rows, dtype)


def test_fwht_scratch_is_bounded_by_the_block():
    """One transform of 2^20 int32 entries allocates its half-block scratch
    (2 * SCRATCH entries, 512 KiB) and little else, where a scratch of half
    the array took 2 MiB."""
    x = np.ones(1 << 20, dtype=np.int32)
    tracemalloc.start()
    try:
        fwht_last_axis(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x[0] == 1 << 20 and not np.any(x[1:])
    assert peak < 4 * _util.SCRATCH * x.itemsize


def test_fwht_rejects_bad_input():
    with pytest.raises(ValueError):
        fwht_last_axis(np.zeros(6, dtype=np.int32))
    with pytest.raises(ValueError):
        fwht_last_axis(np.zeros((4, 8), dtype=np.int32)[:, ::2])


def test_p2_dtype_rule_edges():
    """Every p = 2 transform of a size-n table runs in signed_dtype(2^n)."""
    assert signed_dtype(2**0) == np.int16
    assert signed_dtype(2**14) == np.int16
    assert signed_dtype(2**15) == np.int32
    assert signed_dtype(2**30) == np.int32
    assert signed_dtype(2**31) == np.int64
    assert signed_dtype(2**62) == np.int64
    with pytest.raises(BudgetError):
        signed_dtype(2**63)


@pytest.mark.parametrize("n", [14, 15])
def test_identity_table_reaches_the_bound(n):
    """F(x) = x: row b = 1 is 2^n at a = 1 and 0 elsewhere, and W(0, 0) = 2^n.
    At n = 15 an int16 choice would wrap 2^15 to -2^15."""
    tbl = FuncTable(DomainParams(2, n, n), np.arange(1 << n, dtype=np.int64))
    want = np.zeros(1 << n, dtype=np.int64)
    want[1] = 1 << n
    row = walsh_row(tbl, 1)
    assert row.data.dtype == signed_dtype(2**n)
    assert np.array_equal(row.data, want)
    batch = walsh_rows_signs_p2(tbl, np.array([1], dtype=np.int64))
    assert batch.dtype == signed_dtype(2**n)
    assert np.array_equal(batch[0], want)
    zc = zero_column(preimage_distribution(tbl))
    assert zc.data.dtype == signed_dtype(2**n)
    assert coords(zc) == [(1 << n,)] + [(0,)] * ((1 << n) - 1)


@pytest.mark.parametrize("n", [9, 10])
def test_odd_p_identity_reaches_the_bound(n):
    """F(x) = x at p = 3: row b = 1 is 3^n times zeta^0 at a = 1, and
    W(0, 0) = 3^n, in signed_dtype(3^n): int16 at n = 9, int32 at n = 10."""
    tbl = FuncTable(DomainParams(3, n, n), np.arange(3**n, dtype=np.int64))
    row = walsh_row(tbl, 1)
    assert row.data.dtype == signed_dtype(3**n)
    rational, ints = row.integers()
    assert rational.all()
    assert np.flatnonzero(ints).tolist() == [1]
    assert int(ints[1]) == 3**n
    zc = zero_column(preimage_distribution(tbl))
    assert zc.data.dtype == signed_dtype(3**n)
    assert coords(zc) == [(3**n, 0)] + [(0, 0)] * (3**n - 1)


@pytest.mark.parametrize("n", [30, 31])
def test_counts_at_the_int32_edge(n):
    """Counts totalling 2^n transform exactly in signed_dtype(2^n); at n = 31 an
    int32 choice would wrap 2^31."""
    counts = np.array([1 << n, 0, 0, 0], dtype=signed_dtype(2**n))
    assert fwht_last_axis(counts).tolist() == [1 << n] * 4


def test_batched_sign_rows_match_single_rows():
    tbl = random_table(2, 5, 3, 12)
    bs = np.arange(8, dtype=np.int64)
    batch = walsh_rows_signs_p2(tbl, bs)
    assert batch.shape == (8, 32)
    for b in range(8):
        assert batch[b].tolist() == walsh_row(tbl, b).data.tolist()


def test_batched_sign_rows_refuse_odd_p():
    with pytest.raises(ValueError, match="p=2"):
        walsh_rows_signs_p2(random_table(3, 2, 2, 5), np.arange(1, 9))


def test_zero_column_matches_points():
    for p, n, m, seed in ((2, 6, 4, 13), (3, 3, 2, 14)):
        tbl = random_table(p, n, m, seed)
        zc = zero_column(preimage_distribution(tbl))
        assert len(zc) == p**m
        got = coords(zc)
        for b in range(p**m):
            assert got[b] == oracle_coords(tbl, b, 0), b


def test_zero_column_sums():
    for p, n, m, seed in ((2, 5, 3, 15), (3, 3, 2, 16), (5, 2, 2, 17)):
        tbl = random_table(p, n, m, seed)
        vals = list(tbl)
        zc = zero_column(preimage_distribution(tbl))
        fiber0 = o.preimage_counts(p, n, m, vals)[0]
        assert walsh._exact_coords(p, [zc]) == [p**m * fiber0] + [0] * (p - 2)
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


# largest n per p for the property test: p^n <= 81 keeps the direct sums cheap
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
    the pointwise direct sums of oracles.walsh_counts and the oracles'
    exponent-count arithmetic; a sum of fourth powers that is not a rational
    integer (one row at p >= 5 can have one) raises InternalCheckError."""
    tbl, b = case
    pr = tbl.params
    p, n, m = pr.p, pr.n, pr.m
    vals = list(tbl)
    vectors = (
        (walsh_row(tbl, b), [o.walsh_counts(p, n, m, vals, b, a) for a in range(pr.domain_size)]),
        (
            zero_column(preimage_distribution(tbl)),
            [o.walsh_counts(p, n, m, vals, c, 0) for c in range(pr.codomain_size)],
        ),
    )
    for vec, counts in vectors:
        assert coords(vec) == [o.counts_canonical(c, p) for c in counts]
        values = [o.rational_value(c, p) for c in counts]
        rational, ints = vec.integers()
        assert rational.tolist() == [v is not None for v in values]
        assert ints.tolist() == [0 if v is None else v for v in values]
        sq_counts = [o.sq_modulus_counts(c, p) for c in counts]
        sq = vec.sq_moduli()
        assert coords(sq) == [o.counts_canonical(c, p) for c in sq_counts]
        assert vec.sq_total() == o.rational_value(summed(sq_counts), p)
        # |W|^2 is real, so its squared modulus is |W|^4
        fourth = o.rational_value(summed(o.sq_modulus_counts(c, p) for c in sq_counts), p)
        if fourth is None:
            with pytest.raises(InternalCheckError):
                sq.sq_total()
        else:
            assert sq.sq_total() == fourth
    assert vectors[0][0].sq_total() == p ** (2 * n)


def test_p2_fourth_powers_past_int64():
    """At n = 16 the square of a +-2^16 entry fits int64 but its fourth power
    2^64 does not; the sums match Python-int sums."""
    data = fourth_power_data()
    vec = WalshVector(2, 16, data)
    ints = [int(x) for x in data.tolist()]
    assert sum(1 for x in ints if x) == 3510
    assert vec.sq_total() == sum(x * x for x in ints)
    sq = vec.sq_moduli()
    assert sq.basis_coords()[:, 0].tolist() == [x * x for x in ints]
    assert not sq._fits_int64()
    assert sq.sq_total() == sum(x**4 for x in ints) == 3510 << 64
    assert walsh._exact_coords(2, [sq]) == [sum(x * x for x in ints)]


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
    """sq_moduli against W * conj(W) in cyclotomic-integer arithmetic
    (oracles.sq_modulus_counts), on the int64 path
    (n = 2) and on the object path (n = 40, where p^(2n+3) >= 2^62).  The
    entries are synthetic exponent counts; at n = 40 they reach 2^40."""
    rng = np.random.default_rng(30 + p)
    data = rng.integers(0, 1 << min(n, 40), size=(64, p), dtype=np.int64)
    vec = WalshVector(p, n, data)
    assert vec._fits_int64() == (n == 2)
    got = vec.sq_moduli()
    assert got.data.dtype == (np.int64 if n == 2 else object)
    want = [o.counts_canonical(o.sq_modulus_counts(c, p), p) for c in data.tolist()]
    assert coords(got) == want


def dft_with_scratch(monkeypatch, p, axes, scratch):
    """dft_p_axes of a random matrix for both signs, at the default scratch
    size and at `scratch`."""
    rng = np.random.default_rng(40 + p)
    mat = rng.integers(0, 50, size=(p**axes, p), dtype=np.int64)
    whole = [dft_p_axes(mat, p, axes, sign) for sign in (-1, 1)]
    monkeypatch.setattr(_util, "SCRATCH", scratch)
    return whole, [dft_p_axes(mat, p, axes, sign) for sign in (-1, 1)]


@pytest.mark.parametrize("p, axes", [(3, 5), (5, 3), (7, 2)])
def test_dft_p_axes_blocks_agree(monkeypatch, p, axes):
    """Forcing one (p, p, p) gather per block gives the same transform as
    one block, for both signs."""
    whole, blocked = dft_with_scratch(monkeypatch, p, axes, p**3)
    for w, b in zip(whole, blocked):
        assert b.dtype == w.dtype == np.int64
        assert np.array_equal(w, b)


@pytest.mark.parametrize("p, axes", [(3, 5), (5, 3), (7, 2)])
@pytest.mark.parametrize("span", [1, 2])
def test_dft_p_axes_frequency_split_agrees(monkeypatch, p, axes, span):
    """With scratch for only `span` frequencies of one row, the takes split
    the frequencies (the last take partial at odd p when span = 2): the same
    transform, for both signs."""
    whole, split = dft_with_scratch(monkeypatch, p, axes, span * p * p)
    for w, b in zip(whole, split):
        assert b.dtype == w.dtype == np.int64
        assert np.array_equal(w, b)


@pytest.mark.parametrize("p, n, m", [(3, 4, 2), (5, 3, 2), (7, 2, 2)])
def test_blocked_dft_p_axes_matches_walsh_counts(monkeypatch, p, n, m):
    """Blocks of two rows, the last one partial, against the direct sums for
    both signs: the exponent counts at frequency a are those of W(b, a) for
    sign -1 and of W(b, -a) for sign +1."""
    monkeypatch.setattr(_util, "SCRATCH", 2 * p**3)
    tbl = random_table(p, n, m, 60 + p)
    vals = list(tbl)
    b = p + 1
    mat = np.zeros((p**n, p), dtype=np.int64)
    mat[np.arange(p**n), tbl.components([b])[0]] = 1
    for sign in (-1, 1):
        got = dft_p_axes(mat, p, n, sign).tolist()
        for a in range(p**n):
            freq = a if sign == -1 else o.vsub(0, a, p, n)
            assert got[a] == o.walsh_counts(p, n, m, vals, b, freq)


def test_large_p_dft_stays_in_scratch():
    """At p = 211, p^3 is 9.4M entries: the frequencies are split so that no
    take holds more than p^2, and the zero column and a row each stay under
    16 MB of traced allocations while matching the direct sums."""
    p = 211
    tbl = random_table(p, 1, 1, 211)
    dist = preimage_distribution(tbl)
    vals = list(tbl)
    picks = [0, 1, 2, 105, 209, 210]
    for build, fixed in ((lambda: zero_column(dist), 0), (lambda: walsh_row(tbl, 7), 7)):
        tracemalloc.start()
        try:
            vec = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20
        coords = vec.basis_coords().tolist()
        for i in picks:
            b, a = (i, 0) if fixed == 0 else (fixed, i)
            assert tuple(coords[i]) == o.counts_canonical(o.walsh_counts(p, 1, 1, vals, b, a), p)


def test_large_p_dft_builds_indices_once():
    """At p = 211 every frequency set gathers windows at one cached (p, p)
    table of starts: a whole random row matches the direct sums, the transforms
    build at most one table per sign, and the per-call take index of small p
    is never built."""
    p = 211
    tbl = random_table(p, 1, 1, 212)
    walsh._window_starts.cache_clear()
    walsh._dft_take_index.cache_clear()
    for b in (5, 6):
        got = coords(walsh_row(tbl, b))
        assert got == [oracle_coords(tbl, b, a) for a in range(p)]
    zero_column(preimage_distribution(tbl))
    assert walsh._window_starts.cache_info().misses == 2  # signs -1 and +1
    assert walsh._dft_take_index.cache_info().misses == 0


def fourth_power_data():
    """+-2^16 at n = 16, every seventh entry 0: the squares fit int64, the
    fourth powers 2^64 do not."""
    rng = np.random.default_rng(21)
    data = ((1 - 2 * rng.integers(0, 2, size=4096)) << 16).astype(signed_dtype(2**16))
    data[::7] = 0
    return data


@st.composite
def walsh_vectors(draw):
    """A vector at p in {2, 3, 5} and a scratch size small enough that it
    spans several slices, the last one usually partial: p = 2 entries within
    +-2^n, odd-p exponent counts totalling at most p^n."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 20))
    size = draw(st.integers(1, 60))
    if p == 2:
        entries = st.integers(-(1 << n), 1 << n)
        data = np.array(draw(st.lists(entries, min_size=size, max_size=size)), dtype=np.int64)
    else:
        entries = st.integers(0, p ** (n - 1))
        rows = draw(st.lists(st.lists(entries, min_size=p, max_size=p), min_size=size, max_size=size))
        data = np.array(rows, dtype=np.int64)
    return WalshVector(p, n, data), draw(st.integers(1, 9))


@settings(max_examples=60, deadline=None)
@given(walsh_vectors())
@example(
    (
        # the data of test_p2_fourth_powers_past_int64: 2^64 fourth powers
        WalshVector(2, 16, fourth_power_data()),
        1000,
    )
)
def test_sliced_sums_match_python_ints(case):
    """sq_total slice by slice, of a vector and of its squared moduli (the
    fourth powers at p = 2), equals the sum of Python-int squares at p = 2
    and of the oracles' squared moduli at odd p; a sum that is not a rational
    integer raises InternalCheckError."""
    vec, scratch = case
    p = vec.p
    if p == 2:
        ints = vec.data.tolist()
        want = [sum(x * x for x in ints), sum(x**4 for x in ints)]
    else:
        sq = [o.sq_modulus_counts(c, p) for c in vec.data.tolist()]
        fourth = [o.sq_modulus_counts(c, p) for c in sq]
        want = [o.rational_value(summed(cs), p) for cs in (sq, fourth)]
        if p == 3:
            # |w|^2 lies in the real subfield of Q(zeta_3), which is Q
            assert None not in want
    with mock.patch.object(_util, "SCRATCH", scratch):
        for v, w in zip((vec, vec.sq_moduli()), want):
            if w is None:
                with pytest.raises(InternalCheckError):
                    v.sq_total()
            else:
                assert v.sq_total() == w


def test_sq_total_widens_narrow_dtypes_across_slices():
    """int16 -2^15 squares to 2^30, which int16 and int32 products overflow;
    2^20 + 5 entries span 17 slices of 2^16, the last one partial."""
    count = (1 << 20) + 5
    vec = WalshVector(2, 15, np.full(count, -(1 << 15), dtype=np.int16))
    assert vec.sq_total() == count << 30
    rng = np.random.default_rng(92)
    mixed = rng.integers(-(2**15), 2**15, size=count).astype(np.int32)
    assert WalshVector(2, 15, mixed).sq_total() == sum(int(v) * int(v) for v in mixed.tolist())


def test_sq_total_at_the_int64_bound():
    """|x| = 2^n squares to 2^(2n): exact on both sides of the int64 rule
    p^(2n+3) < 2^62, which moves p = 2 vectors to Python ints at n = 30."""
    for n in range(33):
        vec = WalshVector(2, n, np.array([1 << n, -(1 << n)] * 3, dtype=np.int64))
        assert vec._fits_int64() == (n < 30)
        assert vec.sq_total() == 6 << (2 * n)
    # the largest magnitude whose square fits int64
    top = 3037000499
    assert top * top < 1 << 63 < (top + 1) ** 2
    data = np.array([top, -top, top, 5], dtype=np.int64)
    assert WalshVector(2, 32, data).sq_total() == sum(int(v) ** 2 for v in data.tolist())
    assert WalshVector(2, 0, np.array([], dtype=np.int64)).sq_total() == 0
    assert WalshVector(3, 2, np.zeros((0, 3), dtype=np.int64)).sq_total() == 0


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
    assert got.dtype == signed_dtype(2**10)
    assert np.array_equal(got, want)

"""Tables are stored in value_dtype(p^m), the narrowest unsigned dtype that
holds p^m - 1, and a binary payload is read as a zero-copy view.  These tests
check that every kernel doing arithmetic on the values widens at its own
bound (narrow operands give what int64 ones give), that the narrow form
changes no report byte, and how much memory parsing and counting take."""

import dataclasses
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles as o
from plateau.constructions import linear_compose
from plateau.differential import ddt_rows
from plateau.distribution import preimage_distribution
from plateau.domain import (
    DomainParams,
    FuncTable,
    matrix_apply,
    value_dtype,
    vec_sub_arrays,
)
from plateau.fileio import format_binary, parse_function_bytes
from plateau.report import AnalysisOptions, run_analysis
from plateau.walsh import signed_dtype, walsh_row, zero_column


def random_table(p, n, m, seed):
    rng = np.random.default_rng(seed)
    pr = DomainParams(p, n, m)
    return FuncTable(pr, rng.integers(pr.codomain_size, size=pr.domain_size))


def int64_form(tbl):
    """The same table with int64 storage, built past __init__'s dtype rule:
    the operands every kernel saw before tables were narrowed."""
    wide = object.__new__(FuncTable)
    object.__setattr__(wide, "params", tbl.params)
    object.__setattr__(wide, "values", tbl.values.astype(np.int64))
    object.__setattr__(wide, "_planes", None)
    return wide


def test_value_dtype_rule():
    edges = {2: np.uint8, 256: np.uint8, 257: np.uint16, 1 << 16: np.uint16,
             (1 << 16) + 1: np.uint32, 1 << 32: np.uint32, (1 << 32) + 1: np.uint64}
    for size, dt in edges.items():
        assert value_dtype(size) == dt, size
    assert random_table(3, 2, 5, 1).values.dtype == np.uint8  # 3^5 = 243
    assert random_table(17, 1, 2, 2).values.dtype == np.uint16
    assert FuncTable(DomainParams(2, 3, 40), [1 << 39] * 8).values.dtype == np.uint64


def test_functable_keeps_read_only_narrow_arrays():
    pr = DomainParams(2, 4, 4)
    ro = np.arange(16, dtype=np.uint8)
    ro.setflags(write=False)
    assert FuncTable(pr, ro).values is ro
    # writable, or in another dtype: copied into a read-only uint8 array
    for dt in (np.uint8, np.int64, np.uint16):
        arr = np.arange(16, dtype=dt)
        vals = FuncTable(pr, arr).values
        assert vals.dtype == np.uint8 and not vals.flags.writeable
        assert not np.shares_memory(vals, arr)
    # unsigned input is checked by its maximum, with the usual message
    bad = np.arange(16, dtype=np.uint8)
    bad[5] = 16
    bad.setflags(write=False)
    with pytest.raises(ValueError, match=r"value 16 at input 5 is outside \[0, 16\)"):
        FuncTable(pr, bad)
    with pytest.raises(ValueError, match=r"value -1 at input 3"):
        FuncTable(pr, np.array([0, 1, 2, -1] + [0] * 12, dtype=np.int8))


def test_binary_parse_is_a_view_of_the_payload():
    for p, n, m in ((2, 6, 4), (2, 5, 10), (3, 2, 11)):
        tbl = random_table(p, n, m, 3)
        data = format_binary(tbl)
        again = parse_function_bytes(data)
        assert again == tbl
        assert again.values.dtype == tbl.values.dtype == value_dtype(p**m)
        assert np.shares_memory(again.values, np.frombuffer(data, dtype=np.uint8))
        # a writable buffer is copied, so the table cannot change under it
        copied = parse_function_bytes(bytearray(data)).values
        assert not copied.flags.writeable and copied.base is None


def test_parse_and_counts_stay_within_a_multiple_of_the_payload():
    """A (2, 20, 20) binary table, a 4 MiB u4 payload: the parse allocates
    nothing of its size, and the traced peak of the preimage counts stays
    near one count array, int32 counts of the payload's size.  Widening the
    values to int64 at parse took 6.9 payloads, an np.bincount of the narrow
    values 4, int64 counts 2, and an np.bincount of int32 counts for the
    fiber histogram 3."""
    rng = np.random.default_rng(4)
    pr = DomainParams(2, 20, 20)
    data = format_binary(FuncTable(pr, rng.integers(1 << 20, size=1 << 20)))
    payload = 4 << 20
    tracemalloc.start()
    try:
        tbl = parse_function_bytes(data)
        parse_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        dist = preimage_distribution(tbl)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parse_peak < payload // 16
    assert dist.counts.nbytes == payload
    assert peak < 1.1 * payload
    assert dist.image_size == int(np.count_nonzero(dist.counts))


@pytest.mark.parametrize("p, n", [(2, 14), (2, 15), (3, 9), (3, 10), (5, 6), (5, 7)])
def test_counts_dtype_holds_p_to_the_n(p, n):
    """Counts are held in the narrowest signed dtype that holds p^n, the
    largest a count can be, which a constant table reaches: int16 up to
    2^14, 3^9 and 5^6, int32 one step past; at p = 2 it is the zero column's
    signed_dtype(2^n), so the transform needs no cast."""
    dist = preimage_distribution(FuncTable(DomainParams(p, n, 1), np.zeros(p**n, dtype=np.uint8)))
    want = np.int16 if p**n < 1 << 15 else np.int32
    assert dist.counts.dtype == want
    assert dist.count_of(0) == p**n and dist.histogram == ((p**n, 1),)
    if p == 2:
        assert dist.counts.dtype == signed_dtype(2**n) == zero_column(dist).data.dtype


def int64_bincount_histogram(tbl):
    """The fiber histogram by np.bincount of int64 values and counts."""
    counts = np.bincount(tbl.values.astype(np.int64), minlength=tbl.params.codomain_size)
    mults = np.bincount(counts)
    return tuple((s, int(mults[s])) for s in range(1, mults.size) if mults[s])


@pytest.mark.parametrize(
    "kind, p, n, m",
    [
        # largest count below p^m: the counts are counted
        ("random", 2, 4, 4), ("random", 3, 4, 3), ("constant", 3, 3, 4),
        ("permutation", 2, 10, 10), ("permutation", 5, 3, 3),
        # largest count at least p^m: the nonzero counts are sorted
        ("random", 2, 10, 3), ("constant", 2, 6, 2), ("constant", 5, 2, 1),
    ],
)
def test_histogram_matches_int64_bincount(kind, p, n, m):
    pr = DomainParams(p, n, m)
    rng = np.random.default_rng(7)
    if kind == "random":
        vals = rng.integers(pr.codomain_size, size=pr.domain_size)
    elif kind == "constant":
        vals = np.full(pr.domain_size, pr.codomain_size - 1)
    else:
        vals = rng.permutation(pr.domain_size)
    tbl = FuncTable(pr, vals)
    dist = preimage_distribution(tbl)
    assert dist.histogram == int64_bincount_histogram(tbl)
    assert dist.image_size == sum(c for _, c in dist.histogram)


@pytest.mark.parametrize("p, n, m", [(2, 3, 1), (2, 4, 4), (3, 3, 2), (5, 2, 3), (2, 8, 2)])
def test_histogram_matches_counted_counts(p, n, m):
    """Counting the counts (largest count below p^m) and sorting them (the
    rest: (2, 3, 1), (2, 8, 2)) give the sorted multiset of nonzero sizes."""
    tbl = random_table(p, n, m, 5)
    dist = preimage_distribution(tbl)
    sizes = Counter(Counter(list(tbl)).values())
    assert dist.histogram == tuple(sorted(sizes.items()))
    assert dist.image_size == sum(sizes.values())


# ---------------------------------------------------------------------------
# narrow operands against int64 ones

@pytest.mark.parametrize("p, n, k", [(17, 2, 1), (17, 2, 2), (257, 1, 1), (3, 4, 5)])
def test_components_widen_narrow_operands(p, n, k):
    """At p = 17 the uint8 digit planes hold 16, whose square wraps uint8,
    and at p = 257 the uint16 planes hold 256, whose square wraps uint16;
    the mask with all digits p - 1 and the value p^k - 1 are included.  The
    narrow table and its int64 form give the same values."""
    rng = np.random.default_rng(p + k)
    vals = rng.integers(p**k, size=p**n)
    vals[0] = p**k - 1
    tbl = FuncTable(DomainParams(p, n, k), vals)
    bs = [p**k - 1, int(rng.integers(p**k)), 1]
    got = tbl.components(bs)
    assert got.dtype == value_dtype(p)
    assert got.tolist() == int64_form(tbl).components(bs).tolist()
    assert got.tolist() == [[o.dot(b, int(v), p, k) for v in vals] for b in bs]


@pytest.mark.parametrize(
    "p, n, rows", [(17, 2, [[16]]), (17, 1, [[16, 3], [5, 16]]), (2, 5, [[1] * 8, [1, 0] * 4])]
)
def test_linear_compose_widens_narrow_operands(p, n, rows):
    """matrix_apply, reached through linear_compose, on uint8 and uint16
    values: the same images as on int64 values and as the digit sums."""
    m = len(rows[0])
    tbl = random_table(p, n, m, 6)
    got = linear_compose(tbl, rows)
    assert got.values.tolist() == matrix_apply(rows, tbl.values.astype(np.int64), p, m).tolist()
    for x, v in enumerate(tbl):
        vd = o.digits(v, p, m)
        want = [sum(c * d for c, d in zip(row, vd)) % p for row in rows]
        assert got.value(x) == o.undigits(want, p)


@pytest.mark.parametrize("p, k", [(2, 9), (3, 5), (3, 11), (17, 2), (257, 1)])
def test_vec_sub_arrays_narrow_operands(p, k):
    rng = np.random.default_rng(7 * p + k)
    us = np.concatenate([rng.integers(p**k, size=40), [0, p**k - 1]])
    vs = np.concatenate([rng.integers(p**k, size=40), [p**k - 1, 0]])
    dt = value_dtype(p**k)
    want = vec_sub_arrays(us, vs, p, k).tolist()
    assert want == [o.vsub(int(u), int(v), p, k) for u, v in zip(us, vs)]
    assert vec_sub_arrays(us.astype(dt), vs.astype(dt), p, k).tolist() == want
    v = int(vs[0])
    assert vec_sub_arrays(us.astype(dt), v, p, k).tolist() == vec_sub_arrays(us, v, p, k).tolist()


@pytest.mark.parametrize("m", [1, 2])
def test_walsh_row_and_ddt_rows_on_a_p17_table(m):
    """A (17, 2, m) table in uint8 (m = 1) or uint16 (m = 2) against its int64
    form: every spectrum row for masks with digit 16, and every DDT row."""
    p = 17
    tbl = random_table(p, 2, m, 8)
    wide = int64_form(tbl)
    for b in (p - 1, p**m - 1):
        got = walsh_row(tbl, b)
        assert np.array_equal(got.data, walsh_row(wide, b).data)
        coords = got.basis_coords().tolist()
        for a in (0, 1, 100, 288):
            counts = o.walsh_counts(p, 2, m, list(tbl), b, a)
            assert tuple(coords[a]) == o.counts_canonical(counts, p)
    pairs = zip(ddt_rows(tbl), ddt_rows(wide))
    assert all(c == d and np.array_equal(r, s) for (c, r), (d, s) in pairs)


# ---------------------------------------------------------------------------

ALL = AnalysisOptions(with_profile=True, with_differential=True, with_checks=True)


def report_bytes(tbl):
    report, code = run_analysis(tbl, ALL)
    return json.dumps(report, sort_keys=True, indent=2).encode(), code


@st.composite
def shapes(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 17]))
    n = draw(st.integers(1, {2: 6, 3: 3, 5: 2, 7: 2, 17: 1}[p]))
    m = draw(st.integers(1, {2: 9, 3: 4, 5: 2, 7: 2, 17: 2}[p]))
    return p, n, m


@settings(max_examples=25, deadline=None)
@given(shapes(), st.integers(0, 2**32 - 1))
def test_narrow_form_changes_no_report_byte(shape, seed):
    """The analyze --all report of a table built from a list of Python ints,
    of the same table after a binary round trip (a read-only view of the
    payload), and of its int64 form are byte-identical."""
    p, n, m = shape
    pr = DomainParams(p, n, m)
    vals = np.random.default_rng(seed).integers(pr.codomain_size, size=pr.domain_size).tolist()
    tbl = FuncTable(pr, vals)
    want = report_bytes(tbl)
    assert report_bytes(parse_function_bytes(format_binary(tbl))) == want
    assert report_bytes(int64_form(tbl)) == want


@pytest.mark.parametrize("p, n, m", [(2, 6, 6), (3, 3, 3)])
def test_digit_planes_only_for_odd_p_rows(p, n, m):
    """The zero-column-only analysis never builds a table's digit planes, nor
    does any analysis at p = 2; the odd-p spectrum rows of analyze --all
    build them once, (m, p^n) in value_dtype(p) and read-only."""
    tbl = random_table(p, n, m, 9)
    run_analysis(tbl, dataclasses.replace(ALL, zero_column_only=True))
    assert tbl._planes is None
    run_analysis(tbl, ALL)
    if p == 2:
        assert tbl._planes is None
    else:
        assert tbl._planes.shape == (m, p**n)
        assert tbl._planes.dtype == value_dtype(p)
        assert not tbl._planes.flags.writeable

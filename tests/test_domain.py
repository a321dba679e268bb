import numpy as np
import pytest

import oracles as o
from plateau import domain
from plateau.domain import (
    DomainParams,
    FuncTable,
    digits,
    from_planes,
    is_prime,
    matrix_apply,
    matrix_rank,
    to_planes,
    vec_sub_arrays,
)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for k in range(2, 50):
        assert is_prime(k) == (k in primes), k
    assert not is_prime(1)
    assert not is_prime(0)


def test_digits_round_trip():
    """digits and the digit planes against the oracle, and back to indices."""
    for p in (2, 3, 5):
        xs = np.arange(p**4)
        planes = to_planes(xs, p, 4, np.uint8)
        for x in range(p**4):
            ds = digits(x, p, 4)
            assert ds == o.digits(x, p, 4) == tuple(planes[:, x].tolist())
        assert from_planes(planes, p, np.uint16).tolist() == xs.tolist()


def test_vec_ops_match_digit_arithmetic():
    """vec_sub_arrays on scalar operands: the oracle's difference, x - x = 0,
    and (x + y) - y = x."""
    rng = np.random.default_rng(7)
    for p, k in ((2, 5), (3, 4), (7, 3)):
        size = p**k
        for _ in range(60):
            x = int(rng.integers(size))
            y = int(rng.integers(size))
            assert int(vec_sub_arrays(x, y, p, k)) == o.vsub(x, y, p, k)
            assert int(vec_sub_arrays(x, x, p, k)) == 0
            assert int(vec_sub_arrays(o.vadd(x, y, p, k), y, p, k)) == x


def test_dot_matches_oracle_and_is_bilinear():
    """<b, x> as FuncTable.components of the identity map computes it, the
    package's one scalar-product rule: the oracle's value, and additive in
    the mask and in the point."""
    rng = np.random.default_rng(8)
    for p, k in ((2, 6), (3, 3), (5, 3)):
        size = p**k
        ident = FuncTable(DomainParams(p, k, k), np.arange(size))
        for _ in range(20):
            b, c, x, y = (int(v) for v in rng.integers(size, size=4))
            rb, rc, rbc = ident.components([b, c, o.vadd(b, c, p, k)]).astype(np.int64)
            assert rb.tolist() == [o.dot(b, z, p, k) for z in range(size)]
            assert np.array_equal(rbc, (rb + rc) % p)
            assert rb[o.vadd(x, y, p, k)] == (rb[x] + rb[y]) % p


def test_array_ops_match_scalar_loops():
    """Lengths of one digit-group table (3, 3), of two groups ((3, 6), (5, 4),
    (7, 3), (11, 4)) or three (the top group of (5, 7) times 5^6 overflows
    int16), and p = 257, which has no table."""
    rng = np.random.default_rng(9)
    cases = ((2, 4), (3, 3), (3, 6), (5, 4), (7, 3), (3, 11), (5, 7), (7, 5), (11, 4), (257, 2))
    groups = {(p, k): -(-k // domain._group_digits(p, k)) for p, k in cases if p < 257}
    assert [pk for pk, g in groups.items() if g == 2] == [(3, 6), (5, 4), (7, 3), (11, 4)]
    for p, k in cases:
        size = p**k
        us = rng.integers(size, size=40).astype(np.int64)
        vs = rng.integers(size, size=40).astype(np.int64)
        a = int(rng.integers(size))
        got = vec_sub_arrays(us, a, p, k)
        assert got.dtype == us.dtype
        assert got.tolist() == [o.vsub(int(u), a, p, k) for u in us]
        got = vec_sub_arrays(us, vs, p, k)
        assert got.tolist() == [o.vsub(int(u), int(v), p, k) for u, v in zip(us, vs)]
        got = vec_sub_arrays(us[:8, None], vs[None, :8], p, k)
        assert got.tolist() == [[o.vsub(int(u), int(v), p, k) for v in vs[:8]] for u in us[:8]]


def test_matrix_apply_matches_digit_arithmetic():
    rng = np.random.default_rng(10)
    for p, n, m in ((2, 4, 3), (3, 3, 2), (5, 2, 2)):
        matrix = tuple(
            tuple(int(rng.integers(p)) for _ in range(n)) for _ in range(m)
        )
        xs = np.arange(p**n, dtype=np.int64)
        got = matrix_apply(matrix, xs, p, n)
        for x in range(p**n):
            xd = o.digits(x, p, n)
            out = [sum(matrix[i][j] * xd[j] for j in range(n)) % p for i in range(m)]
            assert int(got[x]) == o.undigits(out, p)


def test_matrix_apply_refuses_ragged_rows():
    with pytest.raises(ValueError, match="3 entries"):
        matrix_apply([[1, 0, 1], [1, 0]], np.arange(8), 2, 3)


def test_matrix_rank_known_cases():
    assert matrix_rank([[1, 0], [0, 1]], 2) == 2
    assert matrix_rank([[0, 0], [0, 0]], 3) == 0
    assert matrix_rank([[1, 1], [1, 1]], 2) == 1
    # second row is twice the first mod 5
    assert matrix_rank([[1, 2], [2, 4]], 5) == 1
    # determinant 1 - 4 = -3 vanishes mod 3
    assert matrix_rank([[1, 2], [2, 1]], 3) == 1
    assert matrix_rank([[1, 2], [2, 1]], 5) == 2
    assert matrix_rank([[1, 2, 3]], 5) == 1


def test_params_validation():
    with pytest.raises(ValueError):
        DomainParams(4, 2, 2)
    with pytest.raises(ValueError):
        DomainParams(1, 2, 2)
    with pytest.raises(ValueError):
        DomainParams(2, 0, 1)
    with pytest.raises(ValueError):
        DomainParams(2, 63, 1)
    pr = DomainParams(3, 4, 2)
    assert pr.domain_size == 81 and pr.codomain_size == 9


def test_functable_validation_and_immutability():
    pr = DomainParams(2, 3, 2)
    with pytest.raises(ValueError):
        FuncTable(pr, [0] * 7)
    with pytest.raises(ValueError):
        FuncTable(pr, [0] * 7 + [4])
    with pytest.raises(ValueError):
        FuncTable(pr, [0] * 7 + [-1])
    tbl = FuncTable(pr, [0, 1, 2, 3, 3, 2, 1, 0])
    with pytest.raises(AttributeError):
        tbl.values = None
    with pytest.raises(ValueError):
        tbl.values[0] = 1
    assert tbl.value(4) == 3
    assert list(tbl) == [0, 1, 2, 3, 3, 2, 1, 0]
    assert len(tbl) == 8


def test_functable_refuses_non_integer_values():
    """Floats are refused, not truncated ([0.5, 1.7, ...] would build
    [0, 1, ...]), even integral ones; a Python int past 64 bits is a
    ValueError, not numpy's OverflowError."""
    pr = DomainParams(2, 2, 2)
    for values in ([0.5, 1.7, 2.2, 3.9], np.zeros(4), [0, 1, 2, 1 << 64], [0, 1, 2, -(1 << 63) - 1]):
        with pytest.raises(ValueError, match="64-bit integers"):
            FuncTable(pr, values)


def test_functable_equality_and_hash():
    pr = DomainParams(2, 2, 2)
    a = FuncTable(pr, [0, 1, 2, 3])
    b = FuncTable(pr, [0, 1, 2, 3])
    c = FuncTable(pr, [0, 1, 3, 2])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a != [0, 1, 2, 3]

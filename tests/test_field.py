import numpy as np
import pytest

import oracles as o
from plateau.errors import InternalCheckError
from plateau.field import FieldCtx, default_modulus, is_irreducible


def test_default_modulus_known_values():
    # classic minimal irreducibles in little-endian coefficient order
    assert default_modulus(2, 1) == (0, 1)
    assert default_modulus(2, 2) == (1, 1, 1)
    assert default_modulus(2, 3) == (1, 1, 0, 1)
    assert default_modulus(2, 4) == (1, 1, 0, 0, 1)
    assert default_modulus(3, 2) == (1, 0, 1)


def test_is_irreducible_rejects_products():
    # (x+1)^2 = x^2 + 2x + 1 over F_3
    assert not is_irreducible((1, 2, 1), 3)
    assert not is_irreducible((0, 0, 0, 1), 2)
    assert is_irreducible((1, 1, 1), 2)
    assert is_irreducible((1, 0, 1), 3)


def test_field_axioms_exhaustive_small():
    for p, deg in ((2, 3), (3, 2)):
        ctx = FieldCtx(p, deg)
        q = p**deg
        for a in range(q):
            assert ctx.mul(a, 1) == a
            assert ctx.mul(a, 0) == 0
            assert ctx.add(a, 0) == a
            for b in range(q):
                assert ctx.mul(a, b) == ctx.mul(b, a)
                assert ctx.add(o.vsub(a, b, p, deg), b) == a
                for c in range(q):
                    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(
                        ctx.mul(a, b), ctx.mul(a, c)
                    )
        for a in range(1, q):
            assert ctx.mul(a, ctx.inv(a)) == 1


def test_mul_associative_sampled():
    import random

    rng = random.Random(3)
    for p, deg in ((2, 6), (5, 2)):
        ctx = FieldCtx(p, deg)
        q = p**deg
        for _ in range(200):
            a, b, c = rng.randrange(q), rng.randrange(q), rng.randrange(q)
            assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))


def test_pow_and_order():
    ctx = FieldCtx(2, 4)
    for a in range(1, 16):
        assert ctx.pow(a, 15) == 1
        assert ctx.pow(a, 16) == a
    assert ctx.pow(0, 0) == 1
    assert ctx.pow(0, 5) == 0
    with pytest.raises(ValueError):
        ctx.pow(1, -1)
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)


def test_frobenius_is_additive():
    for p, deg in ((2, 5), (3, 3)):
        ctx = FieldCtx(p, deg)
        q = p**deg
        import random

        rng = random.Random(11)
        for _ in range(100):
            a, b = rng.randrange(q), rng.randrange(q)
            left = ctx.pow(ctx.add(a, b), p)
            assert left == ctx.add(ctx.pow(a, p), ctx.pow(b, p))


def test_absolute_trace_properties():
    """Tr to the prime field is additive, onto, and fixed by Frobenius."""
    for p, deg in ((2, 4), (3, 3)):
        ctx = FieldCtx(p, deg)
        q = p**deg
        values = [ctx.rel_trace(a, 1) for a in range(q)]
        assert all(0 <= v < p for v in values)
        counts = [values.count(v) for v in range(p)]
        assert counts == [q // p] * p
        for a in range(q):
            assert ctx.rel_trace(ctx.pow(a, p), 1) == values[a]
            for b in range(q):
                s = ctx.add(a, b)
                assert values[s] == (values[a] + values[b]) % p


def test_relative_trace_composes_with_subfield_trace():
    """Tr^n_1 = Tr^m_1 of Tr^n_m, with the middle field its own context."""
    for p, deg, m in ((2, 6, 3), (2, 6, 2), (3, 4, 2)):
        big = FieldCtx(p, deg)
        small = FieldCtx(p, m)
        for a in range(p**deg):
            via = small.rel_trace(big.rel_trace(a, m), 1)
            assert via == big.rel_trace(a, 1), (p, deg, m, a)


def test_relative_trace_is_onto_subfield():
    big = FieldCtx(2, 6)
    seen = {big.rel_trace(a, 3) for a in range(64)}
    assert seen == set(range(8))
    counts = {}
    for a in range(64):
        t = big.rel_trace(a, 3)
        counts[t] = counts.get(t, 0) + 1
    assert set(counts.values()) == {8}


@pytest.mark.parametrize("p, deg, m", [(2, 6, 3), (3, 4, 2)])
def test_subfield_encode_rejects_elements_outside_the_subfield(p, deg, m):
    """The copy of F_{p^m} is the set fixed by a -> a^(p^m); its elements get
    every m-digit index once, and any other element is an internal error."""
    ctx = FieldCtx(p, deg)
    q = p**m
    inside = [a for a in range(p**deg) if ctx.pow(a, q) == a]
    assert sorted(ctx._subfield_encode(a, m) for a in inside) == list(range(q))
    outside = [a for a in range(p**deg) if ctx.pow(a, q) != a]
    for a in outside[:5]:
        with pytest.raises(InternalCheckError, match="outside the subfield"):
            ctx._subfield_encode(a, m)


def test_rel_trace_validates_divisor():
    ctx = FieldCtx(2, 6)
    with pytest.raises(ValueError):
        ctx.rel_trace(1, 4)
    with pytest.raises(ValueError):
        ctx.rel_trace(64, 3)


def test_modulus_override():
    # x^4 + x^3 + 1 instead of the default x^4 + x + 1
    ctx = FieldCtx(2, 4, modulus=(1, 0, 0, 1, 1))
    assert ctx.modulus == (1, 0, 0, 1, 1)
    for a in range(1, 16):
        assert ctx.mul(a, ctx.inv(a)) == 1
    with pytest.raises(ValueError):
        FieldCtx(2, 4, modulus=(1, 1, 0, 0, 1, 1))
    with pytest.raises(ValueError):
        FieldCtx(2, 4, modulus=(0, 0, 0, 0, 1))
    with pytest.raises(ValueError):
        FieldCtx(2, 4, modulus=(1, 1, 0, 0, 2))


def test_trace_encoding_consistent_across_moduli():
    """Both F_16 presentations hand the same multiset of traces to F_4."""
    a16 = FieldCtx(2, 4)
    b16 = FieldCtx(2, 4, modulus=(1, 0, 0, 1, 1))
    ta = sorted(a16.rel_trace(x, 2) for x in range(16))
    tb = sorted(b16.rel_trace(x, 2) for x in range(16))
    assert ta == tb
    assert sorted(set(ta)) == [0, 1, 2, 3]


def test_ctx_immutable_and_checked():
    ctx = FieldCtx(3, 2)
    with pytest.raises(AttributeError):
        ctx.p = 5
    with pytest.raises(ValueError):
        ctx.mul(9, 1)
    with pytest.raises(ValueError):
        FieldCtx(4, 2)
    with pytest.raises(ValueError):
        FieldCtx(2, 0)


@pytest.mark.parametrize(
    "p, deg, modulus",
    [
        (2, 8, None),
        (2, 4, (1, 0, 0, 1, 1)),
        (2, 6, None),
        (3, 4, None),
        (3, 2, (2, 1, 1)),
        (5, 2, None),
        (5, 3, None),
        (7, 2, None),
        (7, 2, (1, 0, 1)),
    ],
)
def test_arithmetic_matches_schoolbook_oracle(p, deg, modulus):
    """mul, pow and rel_trace on ints and on index arrays against the
    schoolbook oracle, at sampled points plus 0, 1 and q - 1."""
    import random

    rng = random.Random(p * 100 + deg)
    ctx = FieldCtx(p, deg, modulus)
    mod = ctx.modulus if modulus is None else modulus
    assert mod == (default_modulus(p, deg) if modulus is None else modulus)
    q = p**deg
    xs = [0, 1, q - 1] + [rng.randrange(q) for _ in range(9)]
    ys = [rng.randrange(q) for _ in xs]
    want = [o.field_mul(x, y, p, mod) for x, y in zip(xs, ys)]
    assert [ctx.mul(x, y) for x, y in zip(xs, ys)] == want
    assert ctx.mul(np.array(xs), np.array(ys)).tolist() == want
    for e in (0, 1, 2, p, p + 1, q - 2, q - 1, q, q + 1, rng.randrange(2 * q)):
        want = [o.field_pow(x, e, p, mod) for x in xs]
        assert [ctx.pow(x, e) for x in xs] == want, e
        assert ctx.pow(np.array(xs), e).tolist() == want, e
    for m in range(1, deg + 1):
        if deg % m == 0:
            want = [o.field_rel_trace(x, m, p, mod, default_modulus(p, m)) for x in xs]
            assert [ctx.rel_trace(x, m) for x in xs] == want, m
            assert ctx.rel_trace(np.array(xs), m).tolist() == want, m


def test_oracle_sees_the_default_f256_modulus_as_non_primitive():
    """x has order 51 under F_2^8's default modulus x^8 + x^4 + x^3 + x + 1,
    so no test may take x for a generator; 0^0 = 1 on ints and arrays."""
    mod = default_modulus(2, 8)
    assert mod == (1, 1, 0, 1, 1, 0, 0, 0, 1)
    orders = [e for e in range(1, 256) if o.field_pow(2, e, 2, mod) == 1]
    assert orders[0] == 51
    ctx = FieldCtx(2, 8)
    assert ctx.pow(2, 51) == 1 and ctx.pow(0, 0) == 1
    assert ctx.pow(np.array([0, 2, 0]), 0).tolist() == [1, 1, 1]
    assert ctx.pow(np.array([0, 2]), 51).tolist() == [0, 1]


def test_array_calls_keep_shape_and_range_check():
    ctx = FieldCtx(3, 3)
    a = np.arange(27).reshape(3, 9)
    assert ctx.mul(a, 2).shape == (3, 9)
    assert ctx.add(a, a).tolist() == [[ctx.add(int(x), int(x)) for x in row] for row in a]
    assert ctx.inv(np.array([1, 2])).tolist() == [ctx.inv(1), ctx.inv(2)]
    with pytest.raises(ValueError, match="element 27 is not an integer in"):
        ctx.mul(np.array([1, 27]), 1)
    with pytest.raises(ValueError, match="element -1 is not an integer in"):
        ctx.rel_trace(np.array([-1]), 1)
    with pytest.raises(ZeroDivisionError):
        ctx.inv(np.array([1, 0]))

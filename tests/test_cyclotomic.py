"""The Z[zeta_p] arithmetic of tests/oracles.py, which the Walsh tests take as
ground truth: an element is a list of exponent counts, sum_k c_k zeta^k, and
counts_canonical gives its coordinates on the basis 1, zeta, ...,
zeta^(p-2), the coordinates WalshVector.basis_coords returns."""

import random

import oracles as o


def complex_value(counts, p):
    z = o.cmath.exp(2j * o.cmath.pi / p)
    return sum(c * z**k for k, c in enumerate(counts))


def root_power(k, p):
    """Exponent counts of zeta^k."""
    counts = [0] * p
    counts[k % p] = 1
    return counts


def test_from_exponent_coeffs_kills_all_ones():
    # 1 + z + ... + z^{p-1} = 0
    for p in (3, 5, 7):
        for k in (1, 4):
            assert o.counts_canonical([k] * p, p) == (0,) * (p - 1)
            assert o.cyclotomic_canonical_sympy(p, [k] * p) == (0,) * (p - 1)
            assert o.rational_value([k] * p, p) == 0


def test_canonical_form_matches_polynomial_reduction():
    rng = random.Random(5)
    for p in (3, 5, 7):
        for _ in range(40):
            counts = [rng.randrange(-9, 10) for _ in range(p)]
            assert o.counts_canonical(counts, p) == o.cyclotomic_canonical_sympy(p, counts)
    # p = 2 works on the basis {1}, where zeta = -1
    assert o.counts_canonical([3, 5], 2) == (-2,)


def test_ring_ops_match_sympy():
    """sq_modulus_counts, the oracle's product z * conj(z), agrees with the
    product of the polynomials reduced mod the cyclotomic polynomial, where
    conjugation sends y^k to y^(p-k)."""
    from sympy import Poly, cyclotomic_poly, symbols

    y = symbols("y")
    rng = random.Random(6)
    for p in (3, 5, 7):
        phi = Poly(cyclotomic_poly(p, y), y)
        for _ in range(30):
            counts = [rng.randrange(-6, 7) for _ in range(p)]
            conj = [counts[-k % p] for k in range(p)]
            prod = (Poly(list(reversed(counts)), y) * Poly(list(reversed(conj)), y)).rem(phi)
            want = [int(c) for c in reversed(prod.all_coeffs())]
            want += [0] * (p - 1 - len(want))
            assert o.counts_canonical(o.sq_modulus_counts(counts, p), p) == tuple(want)


def test_root_power_cycle():
    """Every root power has squared modulus 1, and the p of them sum to 0."""
    p = 5
    for k in range(p):
        assert o.rational_value(o.sq_modulus_counts(root_power(k, p), p), p) == 1
    total = [sum(col) for col in zip(*(root_power(k, p) for k in range(p)))]
    assert o.counts_canonical(total, p) == (0,) * (p - 1)


def test_conj_and_sq_modulus():
    """|z|^2 is fixed by conjugation, and rational_value reads an integer
    exactly when every canonical coordinate past the first is zero."""
    rng = random.Random(7)
    for p in (3, 5, 7):
        for _ in range(30):
            counts = [rng.randrange(8) for _ in range(p)]
            sq = o.sq_modulus_counts(counts, p)
            assert sq == [sq[-k % p] for k in range(p)]
            coords = o.counts_canonical(sq, p)
            rational = o.rational_value(sq, p)
            assert (rational is not None) == (not any(coords[1:]))
            if rational is not None:
                assert rational == coords[0]
            if p == 3:
                # the real subfield of Q(zeta_3) is Q
                assert rational is not None


def test_sq_modulus_against_complex_float():
    """sq_modulus_counts and rational_value against complex floating-point
    values of the same elements."""
    rng = random.Random(8)
    for p in (3, 5, 7):
        for _ in range(20):
            counts = [rng.randrange(6) for _ in range(p)]
            approx = abs(complex_value(counts, p)) ** 2
            sq = o.sq_modulus_counts(counts, p)
            assert abs(complex_value(sq, p) - approx) < 1e-6
            rational = o.rational_value(sq, p)
            if rational is not None:
                assert abs(rational - approx) < 1e-6
            value = o.rational_value(counts, p)
            if value is not None:
                assert abs(complex_value(counts, p) - value) < 1e-6


def test_as_integer_rejects_irrational():
    """rational_value refuses zeta itself, and reads an integer from counts
    that are not canonical: 3 + (zeta + ... + zeta^4) = 3 - 1."""
    assert o.rational_value(root_power(1, 5), 5) is None
    assert o.rational_value([3, 1, 1, 1, 1], 5) == 2
    assert o.rational_value([3, 1, 1, 1, 2], 5) is None

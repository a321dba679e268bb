"""Slow reference implementations used to cross-check the fast code paths.

Everything here is deliberately naive: digit loops, dict counting, direct
summation over the whole domain. Keep it that way. These functions are the
ground truth the package is tested against, so they must not share any code
with the package beyond plain integers.  The quadratic oracle alone works on
numpy arrays, one entry per input, because its sizes are out of reach of
loops; it still shares no code with the package.
"""

import cmath
import functools

import numpy as np


def digits(x, p, k):
    out = []
    for _ in range(k):
        out.append(x % p)
        x //= p
    return tuple(out)


def undigits(ds, p):
    x = 0
    for d in reversed(ds):
        x = x * p + d
    return x


def vadd(x, y, p, k):
    return undigits([(a + b) % p for a, b in zip(digits(x, p, k), digits(y, p, k))], p)


def vsub(x, y, p, k):
    return undigits([(a - b) % p for a, b in zip(digits(x, p, k), digits(y, p, k))], p)


def dot(x, y, p, k):
    return sum(a * b for a, b in zip(digits(x, p, k), digits(y, p, k))) % p


def field_mul(x, y, p, modulus):
    """x * y in F_p[t] / (modulus), elements as index-encoded coefficient
    lists (little-endian, monic modulus of degree k = len(modulus) - 1): the
    schoolbook product of the two digit lists, then long division."""
    k = len(modulus) - 1
    xd, yd = digits(x, p, k), digits(y, p, k)
    prod = [0] * (2 * k - 1)
    for i, a in enumerate(xd):
        for j, b in enumerate(yd):
            prod[i + j] += a * b
    for top in range(2 * k - 2, k - 1, -1):
        c = prod[top] % p
        for t in range(k + 1):
            prod[top - k + t] -= c * modulus[t]
    return undigits([c % p for c in prod[:k]], p)


def field_pow(x, e, p, modulus):
    """x^e by binary square-and-multiply on schoolbook products (0^0 = 1)."""
    out = 1
    for bit in bin(e)[2:]:
        out = field_mul(out, out, p, modulus)
        if bit == "1":
            out = field_mul(out, x, p, modulus)
    return out


@functools.lru_cache(maxsize=None)
def _subfield_basis(p, modulus, sub_modulus):
    """theta^0, ..., theta^(m-1) for theta the smallest-index root of
    sub_modulus (degree m) in F_p[t] / (modulus)."""
    k = len(modulus) - 1

    def value(z):
        acc = 0
        for c in reversed(sub_modulus):
            acc = vadd(field_mul(acc, z, p, modulus), c, p, k)
        return acc

    theta = min(z for z in range(p**k) if value(z) == 0)
    return [field_pow(theta, j, p, modulus) for j in range(len(sub_modulus) - 1)]


def field_rel_trace(x, m, p, modulus, sub_modulus):
    """Trace of x onto the degree-m subfield, sum_i x^(p^(m i)), written on
    the basis 1, theta, ..., theta^(m-1), theta the smallest-index root of
    sub_modulus; returned as the index of its m coordinates."""
    k = len(modulus) - 1
    q = p**m
    tr, y = 0, x
    for _ in range(k // m):
        tr = vadd(tr, y, p, k)
        y = field_pow(y, q, p, modulus)

    powers = _subfield_basis(p, tuple(modulus), tuple(sub_modulus))
    for c in range(q):
        s = 0
        for cj, tj in zip(digits(c, p, m), powers):
            s = vadd(s, field_mul(cj, tj, p, modulus), p, k)
        if s == tr:
            return c
    raise AssertionError("the trace left the subfield")


def walsh_counts(p, n, m, vals, b, a):
    """Exponent counts of W(b, a): counts[e] = #{x : <b,F(x)> - <a,x> = e mod p}."""
    counts = [0] * p
    for x in range(p**n):
        e = (dot(b, vals[x], p, m) - dot(a, x, p, n)) % p
        counts[e] += 1
    return counts


def walsh_int_p2(n, m, vals, b, a):
    c = walsh_counts(2, n, m, vals, b, a)
    return c[0] - c[1]


def walsh_complex(p, n, m, vals, b, a):
    z = cmath.exp(2j * cmath.pi / p)
    c = walsh_counts(p, n, m, vals, b, a)
    return sum(ck * z**k for k, ck in enumerate(c))


def counts_canonical(counts, p):
    """Coefficients on the basis 1, z, ..., z^{p-2} after killing 1+z+...+z^{p-1}."""
    return tuple(counts[k] - counts[p - 1] for k in range(p - 1))


def sq_modulus_counts(counts, p):
    """Exponent counts of |z|^2 for z with the given exponent counts."""
    out = [0] * p
    for j in range(p):
        for k in range(p):
            out[(j - k) % p] += counts[j] * counts[k]
    return out


def rational_value(counts, p):
    """The element with these exponent counts as a plain integer, else None."""
    if any(counts[d] != counts[1] for d in range(1, p)):
        return None
    return counts[0] - counts[1]


def rational_sq_modulus(counts, p):
    """|z|^2 as a plain integer when it is rational, else None."""
    return rational_value(sq_modulus_counts(counts, p), p)


def preimage_counts(p, n, m, vals):
    counts = [0] * (p**m)
    for v in vals:
        counts[v] += 1
    return counts


def imbalance(p, n, m, vals):
    sizes = preimage_counts(p, n, m, vals)
    return sum(s * s for s in sizes) - p ** (2 * n - m)


def ddt_table(p, n, m, vals):
    """Full (p^n, p^m) difference table, loops only."""
    rows = []
    for c in range(p**n):
        row = [0] * (p**m)
        for x in range(p**n):
            xc = vadd(x, c, p, n)
            row[vsub(vals[xc], vals[x], p, m)] += 1
        rows.append(row)
    return rows


def _linear_images(cols, n):
    """The image of every x < 2^n under the F_2-linear map whose column i is
    the bit mask cols[i]: the XOR of cols[i] over the set bits i of x."""
    out = np.zeros(1 << n, dtype=np.int64)
    for i, col in enumerate(cols):
        out[1 << i : 2 << i] = out[: 1 << i] ^ col
    return out


def quadratic_p2(n, m, seed):
    """A random quadratic F: F_2^n -> F_2^m and the rank behind each of its
    difference rows.

    F_j(x) = x^T Q_j x + L_j . x with Q_j strictly upper triangular.  Then
    F_j(x + c) + F_j(x) = ((Q_j + Q_j^T) c) . x + F_j(c), so the difference
    map of c is affine in x with the m x n matrix M_c whose row j is
    (Q_j + Q_j^T) c, and row c of the difference table has 2^rank(M_c)
    nonzero entries, each 2^(n - rank(M_c)).  The rank over F_2 comes from
    the 2^(m - rank) XOR combinations of M_c's rows that vanish, counted in
    Gray-code order for every c at once.  Returns (values, ranks), int64
    arrays indexed by x and by c."""
    rng = np.random.default_rng(seed)
    xs = np.arange(1 << n, dtype=np.int64)
    weights = 1 << np.arange(n)
    vals = np.zeros(1 << n, dtype=np.int64)
    sym_rows = []
    for j in range(m):
        q = np.triu(rng.integers(0, 2, size=(n, n)), 1)
        lin = int(rng.integers(0, 1 << n))
        q_cols = [int(col @ weights) for col in q.T]
        # x^T Q x is the parity of x AND Q x; bitwise_count gives uint8,
        # which is widened before the shift by j
        ones = np.bitwise_count(xs & _linear_images(q_cols, n)) + np.bitwise_count(xs & lin)
        vals |= (ones & 1).astype(np.int64) << j
        sym_cols = [int(col @ weights) for col in (q + q.T).T]
        sym_rows.append(_linear_images(sym_cols, n))
    vanishing = np.ones(1 << n, dtype=np.int64)  # the empty combination
    acc = np.zeros(1 << n, dtype=np.int64)
    for k in range(1, 1 << m):
        # Gray code: step k flips row j, the lowest set bit of k
        acc ^= sym_rows[(k & -k).bit_length() - 1]
        vanishing += acc == 0
    return vals, m - np.bitwise_count(vanishing - 1).astype(np.int64)


def fourth_power_sum(p, counts_seq):
    """Sum of |w|^4 over Walsh values given by their exponent counts.

    Terms, and even the sum over one spectrum row, can be irrational for
    p >= 5, so the sum is accumulated in Z[zeta_p] as exponent counts and
    only the total is converted to an integer.
    """
    total = [0] * p
    for c in counts_seq:
        sq = sq_modulus_counts(c, p)
        # |W|^2 is real, so its squared modulus is |W|^4
        q4 = sq_modulus_counts(sq, p)
        total = [t + u for t, u in zip(total, q4)]
    val = rational_value(total, p)
    if val is None:
        raise AssertionError("sum of |W|^4 must be rational")
    return val


def fourth_moment_restricted(p, n, m, vals):
    """Sum over b != 0, all a, of |W(b, a)|^4 via direct summation."""
    return fourth_power_sum(
        p,
        (walsh_counts(p, n, m, vals, b, a) for b in range(1, p**m) for a in range(p**n)),
    )


def cyclotomic_canonical_sympy(p, coeffs):
    """Canonical coefficients of sum coeffs[k] y^k modulo the p-th cyclotomic polynomial."""
    from sympy import Poly, cyclotomic_poly, symbols

    y = symbols("y")
    phi = Poly(cyclotomic_poly(p, y), y)
    poly = Poly(list(reversed([int(c) for c in coeffs])), y)
    rem = poly.rem(phi)
    out = [0] * (p - 1)
    for k, c in enumerate(reversed(rem.all_coeffs())):
        out[k] = int(c)
    return tuple(out)

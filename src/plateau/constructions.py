"""Builders for the explicit function families the checks are exercised on.

Each builder validates its hypotheses at construction time and raises
ConstructionError with a precise message on violation; passing force=True
skips the gate so that deliberately broken instances can be built for
negative tests.  Every closed-form claim about a construction is re-derived
from the emitted table by the analysis modules, never trusted.

Product domains F_{2^m} x F_{2^m} are flattened to the index x * 2^m + y
(x in the high digits); output pairs follow the same convention.

The field builders have no per-element loop: each is a few whole-array
FieldCtx calls (digit planes, multiplication by x as a shift and fold,
Frobenius powers as one linear map; see field), run on blocks of at most
_util.SCRATCH inputs and written straight into the table's value_dtype(p^m),
so a build holds the table plus O(deg * SCRATCH) bytes.
"""

from __future__ import annotations

from math import gcd
from typing import Callable, Optional, Sequence

import numpy as np

from . import _util
from .distribution import ab_walsh_consequences
from .domain import DomainParams, FuncTable, matrix_apply, matrix_rank, value_dtype
from .errors import ConstructionError
from .field import FieldCtx
from .report import Analysis, AnalysisOptions, Withheld, require_budget
from .verdict import CheckResult, render


def _tabulate(pr: DomainParams, block: Callable[[np.ndarray], np.ndarray]) -> FuncTable:
    """The table of block(xs) over blocks xs of _util.SCRATCH inputs, in value_dtype(p^m)."""
    vals = np.empty(pr.domain_size, dtype=value_dtype(pr.codomain_size))
    for lo in range(0, vals.size, _util.SCRATCH):
        vals[lo : lo + _util.SCRATCH] = block(np.arange(lo, min(lo + _util.SCRATCH, vals.size)))
    vals.setflags(write=False)
    return FuncTable(pr, vals)


def monomial(
    p: int, n: int, d: int, modulus: Optional[Sequence[int]] = None
) -> FuncTable:
    """x -> x^d on F_{p^n}; fiber sizes over nonzero values are gcd(d, p^n - 1)."""
    if d < 0:
        raise ConstructionError(f"exponent must be nonnegative, got {d}")
    ctx = FieldCtx(p, n, modulus)
    return _tabulate(DomainParams(p, n, n), lambda xs: ctx.pow(xs, d))


def gold_trace(
    n: int,
    r: int,
    modulus: Optional[Sequence[int]] = None,
    force: bool = False,
) -> FuncTable:
    """F(x) = Tr from F_{2^n} to F_{2^(n/2)} of x^(2^r + 1).

    Requires n/gcd(r, n) even (which forces n even).  With d = gcd(r, n) and
    k = n/2, each component is Tr_n(lambda x^(2^r+1)) for a nonzero lambda in
    F_{2^k}: it has squared amplitude 2^(n + 2d) when lambda is a
    (2^d+1)-th power in F_{2^n}, which holds for
    gcd(2^k - 1, (2^n - 1)/(2^d + 1)) of the 2^k - 1 values, and is bent
    otherwise.  The single amplitude 2^(n + 2d) on every component therefore
    needs n/(2d) odd; at (n, r) = (8, 2) only 3 of the 15 components have it.
    """
    if n < 2 or n % 2:
        raise ConstructionError(f"n must be even and >= 2, got {n}")
    if r < 1:
        raise ConstructionError(f"r must be >= 1, got {r}")
    d = gcd(r, n)
    if (n // d) % 2 and not force:
        raise ConstructionError(
            f"n/gcd(r, n) = {n}/{d} is odd; the construction needs it even"
        )
    ctx = FieldCtx(2, n, modulus)
    # x^(2^n) = x on F_{2^n}, so r mod n gives the same map without a 2^r
    e = (1 << (r % n)) + 1
    half = n // 2
    return _tabulate(DomainParams(2, n, half), lambda xs: ctx.rel_trace(ctx.pow(xs, e), half))


def _as_table(vals: Sequence[int], m: Optional[int], name: str) -> tuple[list[int], int]:
    """vals as a list of 2^m entries below 2^m, and m (by default from the length)."""
    out = [int(v) for v in vals]
    if m is None:
        m = len(out).bit_length() - 1
        if len(out) != 1 << m:
            raise ConstructionError(f"{name} length {len(out)} is not a power of 2")
    size = 1 << m
    if len(out) != size:
        raise ConstructionError(f"{name} must have {size} entries, got {len(out)}")
    for idx, v in enumerate(out):
        if not 0 <= v < size:
            raise ConstructionError(f"{name}[{idx}] = {v} outside [0, {size})")
    return out, m


def mm_pi_phi(
    pi: Sequence[int],
    phi: Sequence[int],
    m: Optional[int] = None,
    modulus: Optional[Sequence[int]] = None,
    force: bool = False,
) -> FuncTable:
    """F(x, y) = x * pi(y) + phi(y) on F_{2^m} x F_{2^m} -> F_{2^m}.

    pi must be 2-to-1 (every value hit 0 or 2 times); phi is arbitrary.
    """
    pi, m = _as_table(pi, m, "pi")
    phi, _ = _as_table(phi, m, "phi")
    if not force:
        counts = np.bincount(np.asarray(pi), minlength=1 << m)
        if not bool(np.all((counts == 0) | (counts == 2))):
            bad = int(np.argmax((counts != 0) & (counts != 2)))
            raise ConstructionError(
                f"pi is not 2-to-1: value {bad} has {int(counts[bad])} preimages"
            )
    ctx = FieldCtx(2, m, modulus)
    pi, phi = np.array(pi), np.array(phi)

    def block(xy: np.ndarray) -> np.ndarray:
        x, y = np.divmod(xy, 1 << m)  # xy = x * 2^m + y
        return ctx.add(ctx.mul(x, pi[y]), phi[y])

    return _tabulate(DomainParams(2, 2 * m, m), block)


def mm1_case(pi: Sequence[int], phi: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Case split for mm_pi_phi: (1, ()) when 0 is not a value of pi;
    (2, (beta,)) when phi agrees on the two preimages of 0; (3, (b1, b2))
    when it does not."""
    pi, m = _as_table(pi, len(pi).bit_length() - 1, "pi")
    phi, _ = _as_table(phi, m, "phi")
    fiber0 = [y for y, v in enumerate(pi) if v == 0]
    if len(fiber0) not in (0, 2):
        raise ConstructionError(f"pi is not 2-to-1: value 0 has {len(fiber0)} preimages")
    betas = tuple(sorted({phi[y] for y in fiber0}))
    return 1 + len(betas), betas


def mm1_expected_histogram(m: int, case: int) -> tuple[tuple[int, int], ...]:
    """Fiber-size histogram forced by the case; zero sizes dropped."""
    size = 1 << m
    if case == 1:
        return ((size, size),)
    if case == 2:
        rest = ((size - 2, size - 1),) if size > 2 else ()
        return rest + ((3 * size - 2, 1),)
    if case == 3:
        rest = ((size - 2, size - 2),) if size > 2 else ()
        return rest + ((2 * size - 2, 2),)
    raise ValueError(f"case must be 1, 2, or 3, got {case}")


def mm_pair(
    pi: Sequence[int],
    i: int,
    m: Optional[int] = None,
    modulus: Optional[Sequence[int]] = None,
    force: bool = False,
) -> FuncTable:
    """F(x, y) = (x * pi(y), x * pi(y)^(2^i)) on F_{2^m} x F_{2^m}.

    pi must be a permutation and gcd(i, m) = 1; the expected distribution is
    one fiber of size 2^(m+1) - 1 at (0, 0) and singletons elsewhere.
    """
    pi, m = _as_table(pi, m, "pi")
    if i < 1:
        raise ConstructionError(f"i must be >= 1, got {i}")
    if not force:
        if sorted(pi) != list(range(1 << m)):
            raise ConstructionError("pi is not a permutation")
        if gcd(i, m) != 1:
            raise ConstructionError(f"gcd(i, m) = gcd({i}, {m}) != 1")
    ctx = FieldCtx(2, m, modulus)
    pi = np.array(pi)
    pi_q = ctx.pow(pi, 1 << (i % m))  # Frobenius has order m: no 2^i is built

    def block(xy: np.ndarray) -> np.ndarray:
        x, y = np.divmod(xy, 1 << m)
        return ctx.mul(x, pi[y]).astype(np.int64) << m | ctx.mul(x, pi_q[y])

    return _tabulate(DomainParams(2, 2 * m, 2 * m), block)


def linear_compose(table: FuncTable, rows: Sequence[Sequence[int]]) -> FuncTable:
    """L o F for a full-rank k x m matrix L over F_p, output dimension k."""
    pr = table.params
    k = len(rows)
    if not 1 <= k <= pr.m:
        raise ConstructionError(f"matrix must have between 1 and {pr.m} rows, got {k}")
    mat = [[int(c) % pr.p for c in row] for row in rows]
    if any(len(row) != pr.m for row in mat):
        raise ConstructionError(f"matrix rows must have {pr.m} entries")
    if matrix_rank(mat, pr.p) != k:
        raise ConstructionError(f"matrix does not have full rank {k}")
    out = matrix_apply(mat, table.values, pr.p, pr.m)
    return FuncTable(DomainParams(pr.p, pr.n, k), out)


# ---------------------------------------------------------------------------
# construction-specific checks (CLI theorem tags gold / mm1 / mm2)

def _profile_dict(an: Analysis) -> Optional[dict]:
    """The component profile as a dict, or None when the budget withholds it."""
    try:
        return render(an.profile())
    except Withheld:
        return None


def check_gold(
    n: int,
    r: int,
    modulus: Optional[Sequence[int]] = None,
    opts: AnalysisOptions = AnalysisOptions(),
) -> CheckResult:
    """Build the trace construction and verify its advertised structure.

    The structure needs n/(2d) odd, d = gcd(r, n) (see gold_trace); when
    n/(2d) is even the construction is still built and the check fails with
    the measured structure.

    Always: every component plateaued with the single parameter 2d.  When
    d != n/2 additionally: surjective, one fiber of size
    2^(n/2) + (2^(n/2) - 1) * 2^d at value 0, all others 2^(n/2) - 2^d, the
    classifier reports the larger-fiber type with witness 0, and the collapsed
    zero column passes its consequence check.  The profile budget in `opts`
    is decided on the shape (2, n, n/2) before the table is built.
    """
    tag = "gold"
    try:
        if n >= 2:  # gold_trace rejects smaller n
            require_budget(DomainParams(2, n, n // 2), opts, "profile")
        table = gold_trace(n, r, modulus=modulus)
    except (Withheld, ConstructionError) as e:
        return CheckResult.skipped(tag, str(e))
    an = Analysis(table, opts)
    d = gcd(r, n)
    half = n // 2
    profile = an.profile()
    problems = []
    if not profile.all_plateaued:
        problems.append(f"{profile.not_plateaued_count} components are not plateaued")
    elif profile.single_t != 2 * d:
        problems.append(
            f"expected single plateau parameter {2 * d}, got histogram "
            f"{profile.t_histogram()}"
        )
    details: dict = {
        "n": n,
        "r": r,
        "d": d,
        "profile": render(profile),
    }
    if d != half:
        dist = an.dist
        big = (1 << half) + ((1 << half) - 1) * (1 << d)
        small = (1 << half) - (1 << d)
        expected = ((small, (1 << half) - 1), (big, 1))
        if dist.image_size != 1 << half:
            problems.append(f"not surjective: image size {dist.image_size}")
        if dist.histogram != expected:
            problems.append(
                f"fiber histogram {dist.histogram}, expected {expected}"
            )
        if dist.count_of(0) != big:
            problems.append(f"fiber at 0 has size {dist.count_of(0)}, expected {big}")
        n_f = an.n_f
        ab = an.ab
        if ab.kind != "type_plus" or ab.witness != 0:
            problems.append(
                f"classifier gave kind {ab.kind} with witness {ab.witness}, "
                "expected the larger-fiber type at 0"
            )
        rider = ab_walsh_consequences(an)
        if not rider.ok:
            problems.append(f"zero-column consequence check: {rider.reason}")
        details.update(
            {
                "imbalance": n_f,
                "histogram": [list(x) for x in dist.histogram],
                "ab": render(ab),
            }
        )
    return CheckResult.judged(tag, problems, **details)


def check_mm1(
    pi: Sequence[int],
    phi: Sequence[int],
    opts: AnalysisOptions = AnalysisOptions(),
) -> CheckResult:
    """Verify the exact value distribution of x * pi(y) + phi(y) per case;
    details carry the component profile when `opts` allows it."""
    tag = "mm1"
    try:
        table = mm_pi_phi(pi, phi)
        case, betas = mm1_case(pi, phi)
    except ConstructionError as e:
        return CheckResult.skipped(tag, str(e))
    an = Analysis(table, opts)
    m = table.params.m
    expected = mm1_expected_histogram(m, case)
    dist = an.dist
    problems = []
    if dist.histogram != expected:
        problems.append(f"fiber histogram {dist.histogram}, expected {expected}")
    want_beta = (3 * (1 << m) - 2) if case == 2 else (2 * (1 << m) - 2)
    for beta in betas:
        got = dist.count_of(beta)
        if got != want_beta:
            problems.append(f"fiber at {beta} has size {got}, expected {want_beta}")
    return CheckResult.judged(
        tag,
        problems,
        case=case,
        betas=list(betas),
        histogram=[list(x) for x in dist.histogram],
        imbalance=an.n_f,
        profile=_profile_dict(an),
    )


def check_mm2(
    pi: Sequence[int],
    i: int,
    opts: AnalysisOptions = AnalysisOptions(),
) -> CheckResult:
    """Verify the one-big-fiber distribution of (x pi(y), x pi(y)^(2^i));
    details carry the component profile when `opts` allows it."""
    tag = "mm2"
    try:
        table = mm_pair(pi, i)
    except ConstructionError as e:
        return CheckResult.skipped(tag, str(e))
    m = table.params.m // 2
    size = 1 << m
    big = 2 * size - 1
    expected = ((1, size * size - big), (big, 1))
    an = Analysis(table, opts)
    dist = an.dist
    problems = []
    if dist.histogram != expected:
        problems.append(f"fiber histogram {dist.histogram}, expected {expected}")
    if dist.count_of(0) != big:
        problems.append(
            f"fiber at (0,0) has size {dist.count_of(0)}, expected {big}"
        )
    return CheckResult.judged(
        tag,
        problems,
        i=i,
        histogram=[list(x) for x in dist.histogram],
        image_size=dist.image_size,
        profile=_profile_dict(an),
    )

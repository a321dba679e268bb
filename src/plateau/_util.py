"""Shared helpers: the resource rules of every exact kernel, exact integer
reductions over numpy arrays, worker pools.

A kernel touches SCRATCH entries at once (ROWS_SCRATCH for a batch of
spectrum rows), read as a module attribute at call time, and keeps a value in
int64 only while fits_int64 holds for its bound; past it the kernel refuses
(BudgetError) or switches to Python ints."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .errors import BudgetError

T = TypeVar("T")
R = TypeVar("R")

# entries one kernel step holds at once: a block of difference rows, one DFT
# gather and its index, one slice of squared moduli, one digit-group table,
# one operand of a p = 2 transform butterfly (whose cache block is 4 * SCRATCH
# entries); 2^16 keeps a step's temporaries inside a core's L2 cache
SCRATCH = 1 << 16

# entries of one batch of spectrum rows (profile, fourth moment, the p = 2
# spectral difference rows): at most
# max(1, ROWS_SCRATCH // p^n) rows.  Larger than SCRATCH for fixed per-batch
# costs: 2^16-entry batches took the p = 2 profile of x^3/F_2^12 from 137 to 230 ms
ROWS_SCRATCH = 1 << 22


def fits_int64(bound: int) -> bool:
    """The one int64 rule: a value bounded in magnitude by `bound` is kept in
    int64 only while bound < 2^62."""
    return bound < 1 << 62


def require_counts(codomain_size: int, domain_size: int) -> None:
    """Refuse a count array indexed by the codomain (the preimage counts) past
    max(p^n, 2^28) entries, before anything is allocated."""
    if codomain_size > max(domain_size, 1 << 28):
        raise BudgetError(f"a count array of p^m = {codomain_size} entries exceeds max(p^n, 2^28)")


def ceil_div(a: int, b: int) -> int:
    """Ceiling of a/b for integers, b > 0, without floats."""
    return -((-a) // b)


def exact_sum(arr: np.ndarray, bound_bits: int) -> int:
    """Sum an integer array exactly, returning a Python int.

    ``bound_bits`` bounds the bit length of any entry's magnitude.  Chunks are
    sized so each numpy partial sum provably fits in int64, after entries of
    more than 50 bits are split as hi * 2^31 + lo, 0 <= lo < 2^31, so that no
    chunk has fewer than 2^12 entries; partial sums are combined through
    arbitrary-precision Python ints.
    """
    flat = np.ascontiguousarray(arr).reshape(-1)
    room = 62 - bound_bits
    if room <= 0:
        return sum(int(v) for v in flat.tolist())
    if room < 12:
        wide = flat.astype(np.int64, copy=False)
        return (exact_sum(wide >> 31, bound_bits - 30) << 31) + exact_sum(wide & 0x7FFFFFFF, 31)
    chunk = 1 << min(room, 40)
    total = 0
    for lo in range(0, flat.size, chunk):
        total += int(flat[lo : lo + chunk].sum(dtype=np.int64))
    return total


def thread_count() -> int:
    """Worker count: PLATEAU_THREADS if set, else cpu count (capped at 8)."""
    env = os.environ.get("PLATEAU_THREADS")
    if env is not None and env.strip():
        try:
            k = int(env)
        except ValueError:
            raise ValueError(f"PLATEAU_THREADS must be an integer, got {env!r}") from None
        if k < 1:
            raise ValueError(f"PLATEAU_THREADS must be >= 1, got {k}")
        return k
    return min(os.cpu_count() or 1, 8)


def run_ordered(fn: Callable[[T], R], items: Sequence[T], threads: int) -> list[R]:
    """Apply fn to each item, results in input order regardless of worker count.

    The partition of work into items is the caller's responsibility and must
    not depend on the thread count, so outputs are bit-identical for any
    number of workers.
    """
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))

"""Shared helpers: exact integer reductions over numpy arrays, worker pools."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")
R = TypeVar("R")


def ceil_div(a: int, b: int) -> int:
    """Ceiling of a/b for integers, b > 0, without floats."""
    return -((-a) // b)


def exact_sum(arr: np.ndarray, bound_bits: int) -> int:
    """Sum an integer array exactly, returning a Python int.

    ``bound_bits`` bounds the bit length of any entry's magnitude.  Chunks are
    sized so each numpy partial sum provably fits in int64; partial sums are
    combined through arbitrary-precision Python ints.
    """
    flat = np.ascontiguousarray(arr).reshape(-1)
    if flat.size == 0:
        return 0
    room = 62 - bound_bits
    if room <= 0:
        return sum(int(v) for v in flat.tolist())
    chunk = 1 << min(room, 40)
    if flat.size <= chunk:
        return int(flat.sum(dtype=np.int64))
    total = 0
    for lo in range(0, flat.size, chunk):
        total += int(flat[lo : lo + chunk].sum(dtype=np.int64))
    return total


_SQ_CHUNK = 1 << 20  # entries widened to int64 and squared at a time


def exact_square_sum(arr: np.ndarray, bound_bits: int) -> int:
    """Sum of the squares of an integer array, exactly, as a Python int.

    ``bound_bits`` bounds the bit length of any square; at most 63, so every
    square fits int64.  Entries are widened to int64 and squared 2^20 at a
    time, so the temporaries stay at 8 MiB whatever the array's size.
    """
    if bound_bits > 63:
        raise ValueError(f"squares of up to {bound_bits} bits do not fit int64")
    flat = np.ravel(arr)
    total = 0
    for lo in range(0, flat.size, _SQ_CHUNK):
        seg = flat[lo : lo + _SQ_CHUNK].astype(np.int64)
        np.multiply(seg, seg, out=seg)
        total += exact_sum(seg, bound_bits)
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

import json

import numpy as np
import pytest

from plateau._util import ceil_div, exact_square_sum, exact_sum, run_ordered, thread_count
from plateau.verdict import CheckResult, combine


def test_ceil_div():
    assert ceil_div(0, 4) == 0
    assert ceil_div(1, 4) == 1
    assert ceil_div(4, 4) == 1
    assert ceil_div(5, 4) == 2
    assert ceil_div(-1, 4) == 0
    assert ceil_div(256, 46) == 6


def test_exact_sum_matches_python_sum():
    rng = np.random.default_rng(91)
    arr = rng.integers(-(2**30), 2**30, size=10_000)
    assert exact_sum(arr, 31) == sum(int(v) for v in arr)
    assert exact_sum(arr.reshape(100, 100), 31) == sum(int(v) for v in arr)
    assert exact_sum(np.array([], dtype=np.int64), 10) == 0


def test_exact_sum_near_int64_limit():
    """Entries at 2^61 would overflow any pairwise int64 total."""
    arr = np.full(64, 1 << 61, dtype=np.int64)
    assert exact_sum(arr, 62) == 64 << 61
    arr = np.full(8, -(1 << 61), dtype=np.int64)
    assert exact_sum(arr, 62) == -(8 << 61)


def test_exact_sum_chunked_path():
    # room = 62 - 50 = 12, so chunks of 2^12 force multiple partials
    arr = np.full(20_000, (1 << 49) + 7, dtype=np.int64)
    assert exact_sum(arr, 50) == 20_000 * ((1 << 49) + 7)


def test_thread_count_env(monkeypatch):
    monkeypatch.setenv("PLATEAU_THREADS", "3")
    assert thread_count() == 3
    monkeypatch.setenv("PLATEAU_THREADS", "0")
    with pytest.raises(ValueError):
        thread_count()
    monkeypatch.delenv("PLATEAU_THREADS")
    assert 1 <= thread_count() <= 8


def test_run_ordered_preserves_order():
    items = list(range(57))
    for threads in (1, 4):
        out = run_ordered(lambda x: x * x, items, threads)
        assert out == [x * x for x in items]


def test_run_ordered_propagates_errors():
    def boom(x):
        if x == 3:
            raise RuntimeError("boom")
        return x

    with pytest.raises(RuntimeError):
        run_ordered(boom, [1, 2, 3, 4], 4)


def test_check_result_constructors():
    ok = CheckResult.passed("x", value=3)
    assert ok.status == "pass" and ok.ok and ok.details["value"] == 3
    bad = CheckResult.failed("x", "nope", value=4)
    assert bad.status == "fail" and not bad.ok and bad.reason == "nope"
    skip = CheckResult.skipped("x", "later")
    assert skip.status == "skipped" and skip.ok


def test_combine_folding():
    a = CheckResult.passed("a")
    b = CheckResult.failed("b", "bad thing")
    c = CheckResult.skipped("c", "not applicable")
    folded = combine("all", [a, b, c])
    assert folded.status == "fail"
    assert "b: bad thing" in folded.reason
    assert [x["tag"] for x in folded.details["checks"]] == ["a", "b", "c"]
    assert combine("all", [a, c]).status == "pass"
    assert combine("all", [c, c]).status == "skipped"
    assert combine("all", []).status == "pass"


def test_as_dict_is_json_ready():
    res = CheckResult.passed(
        "x",
        count=np.int64(5),
        arr=np.array([1, 2]),
        nested={"flag": np.bool_(True)},
        pair=(1, "two"),
    )
    d = res.as_dict()
    text = json.dumps(d)
    back = json.loads(text)
    assert back["details"]["count"] == 5
    assert back["details"]["arr"] == [1, 2]
    assert back["details"]["nested"]["flag"] is True
    assert back["details"]["pair"] == [1, "two"]


def test_exact_square_sum_at_the_bit_bounds():
    # |x| = 2^k has square 2^(2k), bound 2k + 1 bits, up to 2^62 (63 bits)
    for k in range(32):
        arr = np.array([1 << k, -(1 << k)] * 3, dtype=np.int64)
        want = sum(int(v) * int(v) for v in arr.tolist())
        assert exact_square_sum(arr, 2 * k + 1) == want == 6 << (2 * k)
    # the largest magnitude whose square fits int64
    top = 3037000499
    assert top * top < 1 << 63 < (top + 1) ** 2
    arr = np.array([top, -top, top, 5], dtype=np.int64)
    assert exact_square_sum(arr, 63) == sum(int(v) ** 2 for v in arr.tolist())
    assert exact_square_sum(np.array([], dtype=np.int64), 10) == 0
    with pytest.raises(ValueError):
        exact_square_sum(arr, 64)


def test_exact_square_sum_widens_narrow_dtypes_across_chunks():
    # int16 -2^15 squares to 2^30, which int16 and int32 products overflow;
    # 2^20 + 5 entries span two 2^20-entry chunks
    count = (1 << 20) + 5
    arr = np.full(count, -(1 << 15), dtype=np.int16)
    assert exact_square_sum(arr, 31) == count << 30
    rng = np.random.default_rng(92)
    mixed = rng.integers(-(2**15), 2**15, size=count).astype(np.int32)
    want = sum(int(v) * int(v) for v in mixed.tolist())
    assert exact_square_sum(mixed, 31) == want
    assert exact_square_sum(mixed.reshape(3, -1), 31) == want

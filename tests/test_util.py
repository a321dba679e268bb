import json

import numpy as np
import pytest

from plateau._util import ceil_div, exact_sum, fits_int64, require_counts, run_ordered, thread_count
from plateau.errors import BudgetError
from plateau.verdict import CheckResult, combine, render


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
    monkeypatch.setenv("PLATEAU_THREADS", "abc")
    with pytest.raises(ValueError, match="PLATEAU_THREADS must be an integer, got 'abc'"):
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


def test_render_is_json_ready():
    res = CheckResult.passed(
        "x",
        count=np.int64(5),
        arr=np.array([1, 2]),
        nested={"flag": np.bool_(True)},
        pair=(1, "two"),
    )
    d = render(res)
    assert list(d) == ["tag", "status", "reason", "details"]
    text = json.dumps(d)
    back = json.loads(text)
    assert back["details"]["count"] == 5
    assert back["details"]["arr"] == [1, 2]
    assert back["details"]["nested"]["flag"] is True
    assert back["details"]["pair"] == [1, "two"]


@pytest.mark.parametrize("bad", [object(), 0.5, np.float64(0.5), {1}, CheckResult])
def test_render_refuses_what_it_cannot_render(bad):
    """No repr() fallback: an object address or a float never reaches a
    report, however deep it sits."""
    with pytest.raises(TypeError):
        render(bad)
    with pytest.raises(TypeError):
        render(CheckResult.passed("x", nested=[{"v": bad}]))


@pytest.mark.parametrize("bits", [40, 50, 51, 55, 61, 62])
def test_exact_sum_split_entries(bits):
    """Past 50 bits each entry is summed as hi * 2^31 + lo; negative entries,
    narrow and object arrays included, match Python-int sums."""
    rng = np.random.default_rng(bits)
    top = (1 << (bits - 1)) - 1
    arr = rng.integers(-top, top, size=70_000, dtype=np.int64)
    arr[:5] = [top, -top, -1, 0, 1]
    want = sum(arr.tolist())
    assert exact_sum(arr, bits) == want
    assert exact_sum(arr.astype(object), bits) == want
    assert exact_sum(arr[:0], bits) == 0
    assert exact_sum(np.array([-3, 7], dtype=np.int16), bits) == 4


def test_fits_int64_is_below_2_to_62():
    assert fits_int64(0) and fits_int64((1 << 62) - 1)
    assert not fits_int64(1 << 62)
    assert not fits_int64(3**40)


def test_count_array_rule():
    """A codomain-indexed count array may have max(p^n, 2^28) entries."""
    require_counts(1 << 28, 16)
    require_counts(1 << 30, 1 << 30)
    with pytest.raises(BudgetError, match="exceeds max"):
        require_counts((1 << 28) + 1, 16)
    with pytest.raises(BudgetError):
        require_counts(1 << 31, 1 << 30)

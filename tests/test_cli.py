import ast
import contextlib
import importlib.metadata
import io
import json
import re
import shutil
import struct
import subprocess
import sys
import sysconfig
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plateau
from plateau import cli, distribution
from plateau.cli import main
from plateau.constructions import monomial
from plateau.domain import DomainParams, FuncTable
from plateau.fileio import MAGIC, format_text, parse_function_file, write_function_file
from plateau.walsh import zero_column


@pytest.fixture()
def cube_file(tmp_path):
    path = tmp_path / "cube.txt"
    write_function_file(monomial(2, 4, 3), path)
    return str(path)


@pytest.fixture()
def wide_file(tmp_path):
    """A binary (1664543, 1, 1) table: 1664543 is the least prime with
    p^3 >= 2^62, so its odd-p transforms cannot run in int64."""
    p = 1664543
    path = tmp_path / "wide.bin"
    write_function_file(FuncTable(DomainParams(p, 1, 1), np.zeros(p, dtype=np.int64)), path, binary=True)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_all_passes(cube_file, capsys):
    code, out, err = run(capsys, "analyze", cube_file, "--all")
    assert code == 0, err
    report = json.loads(out)
    assert report["distribution"]["imbalance"] == 30
    assert report["distribution"]["ab_type"] == "-"
    assert report["profile"]["linearity"] == 8
    assert report["differential"]["delta"] == 2
    assert {c["tag"] for c in report["checks"]} == {
        "platdto1",
        "integrality",
        "ab-walsh",
        "apn-structure",
        "diff-two-valued",
    }


def test_analyze_default_is_distribution_only(cube_file, capsys):
    code, out, _ = run(capsys, "analyze", cube_file)
    assert code == 0
    report = json.loads(out)
    assert "profile" not in report and "differential" not in report


def test_analyze_output_file(cube_file, tmp_path, capsys):
    dest = tmp_path / "report.json"
    code, out, _ = run(capsys, "analyze", cube_file, "-o", str(dest))
    assert code == 0 and out == ""
    assert json.loads(dest.read_text())["params"] == {"p": 2, "n": 4, "m": 4}


def test_analyze_reports_are_byte_identical(cube_file, capsys):
    _, first, _ = run(capsys, "analyze", cube_file, "--all")
    _, second, _ = run(capsys, "analyze", cube_file, "--all")
    assert first == second


def test_analyze_thread_env_invariant(cube_file, capsys, monkeypatch):
    monkeypatch.setenv("PLATEAU_THREADS", "1")
    _, one, _ = run(capsys, "analyze", cube_file, "--all")
    monkeypatch.setenv("PLATEAU_THREADS", "4")
    _, four, _ = run(capsys, "analyze", cube_file, "--all")
    assert one == four


def test_analyze_bad_thread_env_exit(cube_file, capsys, monkeypatch):
    monkeypatch.setenv("PLATEAU_THREADS", "abc")
    code, _, err = run(capsys, "analyze", cube_file, "--all")
    assert code == 2
    assert err == "error: PLATEAU_THREADS must be an integer, got 'abc'\n"


def test_analyze_timings_flag(cube_file, capsys):
    _, out, _ = run(capsys, "analyze", cube_file, "--timings")
    assert "timing" in json.loads(out)


def test_analyze_failure_exit(tmp_path, capsys):
    vals = list(monomial(2, 4, 3))
    vals[1], vals[2] = vals[2], vals[1]
    path = tmp_path / "bad.txt"
    write_function_file(FuncTable(DomainParams(2, 4, 4), vals), path)
    code, out, _ = run(capsys, "analyze", str(path), "--all")
    assert code == 1
    report = json.loads(out)
    by_tag = {c["tag"]: c["status"] for c in report["checks"]}
    assert by_tag["platdto1"] == "fail"


def test_analyze_budget_exit(cube_file, capsys):
    code, out, _ = run(capsys, "analyze", cube_file, "--all", "--max-profile-log", "4")
    assert code == 3
    report = json.loads(out)
    assert report["profile"] is None
    assert "profile" in report["skipped"]


def test_analyze_out_of_memory_exit(cube_file, capsys, monkeypatch):
    """Work that runs out of memory is over budget: exit 3 and one line."""
    def exhausted(table, opts):
        raise MemoryError("Unable to allocate 8.00 TiB for an array")

    monkeypatch.setattr(cli, "run_analysis", exhausted)
    code, out, err = run(capsys, "analyze", cube_file, "--all")
    assert code == 3
    assert out == ""
    assert err == "error: out of memory: Unable to allocate 8.00 TiB for an array\n"
    assert "Traceback" not in err


def test_analyze_past_int64_bound_exit(wide_file, capsys):
    """Integer work past a kernel's int64 bound is over budget, not bad usage."""
    code, out, err = run(capsys, "analyze", wide_file)
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "exceed the int64 budget" in err and "Traceback" not in err


@pytest.mark.parametrize("m", [30, 40])
def test_analyze_count_array_over_budget_exit(tmp_path, capsys, m):
    """A 16-entry table whose p^m-entry preimage count array would be 8 GiB
    (m = 30) or 8 TiB (m = 40) is refused before anything is allocated."""
    rng = np.random.default_rng(m)
    path = tmp_path / "wide_m.txt"
    write_function_file(FuncTable(DomainParams(2, 4, m), rng.integers(1 << m, size=16)), path)
    start = time.perf_counter()
    code, out, err = run(capsys, "analyze", str(path), "--all")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "count array" in err and "out of memory" not in err


def test_huge_budget_log_builds_no_huge_integer(cube_file, capsys):
    """K = 10^9 once built a 2^K integer (125 MB) and K = 10^11 ran out of
    memory; now both give the default report without a large allocation."""
    code, want, _ = run(capsys, "analyze", cube_file, "--all")
    assert code == 0
    for k in ("1000000000", "100000000000"):
        tracemalloc.start()
        try:
            code, out, err = run(
                capsys, "analyze", cube_file, "--all", "--max-profile-log", k, "--max-table-log", k
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out, err) == (0, want, "")
        assert peak < 16 << 20


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "{f}", "--max-profile-log", "-1"),
        ("analyze", "{f}", "--max-table-log", "-1"),
        ("spectrum", "{f}", "--max-profile-log", "-1"),
        ("check-theorem", "--paper-ref", "platdto1", "{f}", "--max-table-log", "-1"),
        ("check-theorem", "--paper-ref", "platdto1", "{f}", "--max-profile-log", "-1"),
    ],
)
def test_negative_budget_log_is_usage_error(cube_file, capsys, argv):
    code, out, err = run(capsys, *(a.format(f=cube_file) for a in argv))
    assert code == 2 and out == ""
    assert "must be >= 0" in err and "negative shift count" not in err


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "/tmp/no-such-table.txt")
    assert code == 2
    assert err.startswith("error:")


def test_analyze_ddt_full(cube_file, tmp_path, capsys):
    dest = tmp_path / "ddt.csv"
    code, _, _ = run(capsys, "analyze", cube_file, "--ddt", "--ddt-full", str(dest))
    assert code == 0
    lines = dest.read_text().splitlines()
    assert lines[0] == "a,b,count"
    assert len(lines) == 1 + 15 * 16
    assert lines[1] == "1,0,2"
    total = sum(int(line.split(",")[2]) for line in lines[1:])
    assert total == 15 * 16


def test_withheld_ddt_csv_is_listed_when_a_check_fails(tmp_path, capsys):
    """x^5 over F_3^4 fails a check, so the exit code stays 1, and the CSV the
    table budget withholds is still named under `skipped`.  A withheld CSV is
    never opened, so its path is not checked: here its directory is missing."""
    path = tmp_path / "x5.txt"
    write_function_file(monomial(3, 4, 5), path)
    dest = tmp_path / "no-such-dir" / "d.csv"
    code, out, _ = run(capsys, "analyze", str(path), "--all", "--ddt-full", str(dest),
                       "--max-table-log", "6")
    assert code == 1
    report = json.loads(out)
    assert report["skipped"] == ["ddt_csv", "differential"]
    assert "ddt_csv" not in report
    assert not dest.exists()


@pytest.mark.parametrize("command", ["-o", "--ddt-full", "check-theorem", "construct", "spectrum"])
@pytest.mark.parametrize("where", ["missing", "under-a-file", "directory"])
def test_unwritable_output_fails_before_the_analysis(cube_file, tmp_path, capsys, monkeypatch,
                                                     command, where):
    """An analyze report or CSV path, or the -o of check-theorem, construct
    or spectrum, in a missing directory, under a file, or naming a directory
    exits 2 with one error line before any work is called, and creates no
    file."""
    calls = []
    for name in ("run_analysis", "run_check", "monomial", "spectrum_rows"):
        monkeypatch.setattr(cli, name, lambda *args, **kw: calls.append(args))
    dest = {
        "missing": tmp_path / "no-such-dir" / "out",
        "under-a-file": Path(cube_file) / "out",
        "directory": tmp_path,
    }[where]
    argv = {
        "check-theorem": ["check-theorem", "--paper-ref", "platdto1", cube_file, "-o"],
        "construct": ["construct", "monomial", "p=2", "n=4", "d=3", "-o"],
        "spectrum": ["spectrum", cube_file, "-o"],
    }.get(command, ["analyze", cube_file, "--all", command])
    before = sorted(tmp_path.rglob("*"))
    code, out, err = run(capsys, *argv, str(dest))
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno") and err.count("\n") == 1
    assert calls == []
    assert sorted(tmp_path.rglob("*")) == before


def test_analyze_rejects_header_larger_than_file(tmp_path, capsys):
    # 2^40 entries cannot fit in a 4-byte body; refused before any allocation
    path = tmp_path / "huge.txt"
    path.write_text("2 40 1\n0 1\n")
    for argv in (("analyze", str(path), "--all"),
                 ("check-theorem", "--paper-ref", "platdto1", str(path))):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "header promises 1099511627776 entries" in err


@pytest.mark.parametrize(
    "blob",
    [
        MAGIC + struct.pack("<III", 3, 10**8, 1),
        MAGIC + struct.pack("<III", 3, 2**32 - 1, 1),
        b"10000000000000061 1 1\n0\n",
        # 2^89 - 1 is prime, far above 2^62
        b"618970019642690137449562111 1 1\n0\n",
        MAGIC + struct.pack("<III", 2, 1, 33) + bytes(16),
    ],
    ids=["binary-n-10^8", "binary-n-2^32-1", "text-p-10^16+61", "text-p-2^89-1", "binary-past-u32"],
)
def test_bad_headers_exit_at_once(tmp_path, capsys, blob):
    """Sizes are refused before any power is taken and primality is a
    Miller-Rabin test, so no header takes bigint or trial-division time."""
    path = tmp_path / "head"
    path.write_bytes(blob)
    start = time.perf_counter()
    code, out, err = run(capsys, "analyze", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.fixture(scope="module")
def exit_files(tmp_path_factory):
    """Paths, by name, for the exit-code property: a good (2, 4, 4) table and
    a 4 x 4 matrix, and files that each break one rule of the readers."""
    d = tmp_path_factory.mktemp("exit-codes")
    wide_m = FuncTable(DomainParams(2, 4, 40), [1 << 39] * 16)
    blobs = {
        "good": format_text(monomial(2, 4, 3)).encode(),
        "matrix": b"1 0 0 0\n0 1 0 0\n",
        "two-fields": b"2 4\n" + b"0 " * 16,
        "not-int": b"2 x 4\n0\n",
        "composite": b"4 2 2\n" + b"0 " * 16,
        "zero-n": b"2 0 1\n0\n",
        "past-2^62": b"2 62 1\n0 1\n",
        "big-prime": b"618970019642690137449562111 1 1\n0\n",
        "short-body": b"2 3 1\n0 1 0\n",
        "outside": b"2 2 1\n0 1 2 0\n",
        "huge-entry": b"2 2 1\n0 1 0 99999999999999999999\n",
        "not-ascii": b"2 2 1\xff\n0 1 0 1\n",
        "binary-p9": MAGIC + struct.pack("<III", 9, 2, 2) + bytes(81),
        "binary-truncated": MAGIC + b"\x02\x00",
        "binary-n-2^32-1": MAGIC + struct.pack("<III", 3, 2**32 - 1, 1),
        "binary-past-u32": MAGIC + struct.pack("<III", 2, 1, 33) + bytes(16),
        "empty": b"",
        "bad-matrix": b"1 x\n",
        "blank-matrix": b"\n\n",
        "count-budget": format_text(wide_m).encode(),
    }
    paths = {"missing": d / "missing", "dir": d}
    for name, blob in blobs.items():
        paths[name] = d / name
        paths[name].write_bytes(blob)
    return {name: str(path) for name, path in paths.items()}


_BAD_TABLES = ("two-fields", "not-int", "composite", "zero-n", "past-2^62", "big-prime",
               "short-body", "outside", "huge-entry", "not-ascii", "binary-p9", "binary-truncated",
               "binary-n-2^32-1", "binary-past-u32", "empty", "matrix", "missing", "dir")


def _usage_flag(draw, f):
    base = draw(st.sampled_from([
        ["analyze", f["good"]], ["analyze", f["good"], "--all"], ["spectrum", f["good"]],
        ["check-theorem", "--paper-ref", "platdto1", f["good"]],
        ["construct", "monomial", "p=2", "n=3", "d=3"],
    ]))
    bad = draw(st.sampled_from([
        ["--bogus"], ["--max-profile-log", "-1"], ["--max-profile-log", "x"],
        ["--max-table-log", ""], ["--max-table-log", "-3"], ["--max-profile-log"], ["--binary"],
    ]))
    if draw(st.booleans()):
        base = [draw(st.sampled_from(["analyse", "check", "--all", ""]))] + base[1:]
    pos = draw(st.integers(0, len(base)))
    return base[:pos] + bad + base[pos:]


def _huge_degree(draw, f):
    """A field degree far past desk scale, refused before any power of it."""
    n = f"n={draw(st.integers(10**6, 10**9))}"
    return draw(st.sampled_from([["construct", "monomial", "p=2", n, "d=3"],
                                 ["construct", "gold-trace", n, "r=1", "--force"]]))


def _bad_file_argument(draw, f):
    bad_ref = st.sampled_from(
        [f["good"], "@" + f["missing"], "@" + f["dir"], "@", ""]
        + ["@" + f[name] for name in _BAD_TABLES]
    )
    good_ref = st.just("@" + f["good"])
    keys = draw(st.sampled_from([("pi", "phi"), ("F", "L")]))
    bad_at = draw(st.sampled_from(keys))
    refs = {k: draw(bad_ref if k == bad_at else good_ref) for k in keys}
    if keys == ("F", "L") and bad_at == "F":
        refs["L"] = "@" + f["matrix"]
    if keys == ("F", "L") and bad_at == "L":
        bad_matrices = ("bad-matrix", "blank-matrix", "missing", "dir")
        refs["L"] = draw(st.sampled_from(["@" + f[k] for k in bad_matrices] + [f["matrix"]]))
    args = [f"{k}={v}" for k, v in refs.items()]
    if keys == ("F", "L"):
        head = ["construct", "compose"]
    else:
        tag = draw(st.sampled_from(["mm1", "mm2"]))
        head = draw(st.sampled_from([["construct", tag], ["check-theorem", "--paper-ref", tag]]))
        # mm2 reads pi alone, so it is given the bad reference as pi
        args = args if tag == "mm1" else ["i=0", f"pi={refs[bad_at]}"]
    extra = draw(st.sampled_from([[], ["=x"], ["zz=1"], [args[-1]]]))
    return head + args + extra


def _bad_header(draw, f):
    t = f[draw(st.sampled_from(_BAD_TABLES))]
    return draw(st.sampled_from([
        ["analyze", t], ["analyze", t, "--all"], ["spectrum", t],
        ["check-theorem", "--paper-ref", draw(st.sampled_from(list(cli.CHECKS))), t],
        ["construct", "compose", f"F=@{t}", "L=@" + f["matrix"]],
    ]))


def _unwritable_output(draw, f):
    """A command that writes a file, told to write it in a missing directory
    or onto an existing directory."""
    g, out = f["good"], draw(st.sampled_from([f["missing"] + "/out", f["dir"]]))
    return draw(st.sampled_from([
        ["analyze", g, "-o", out], ["analyze", g, "--ddt-full", out], ["spectrum", g, "-o", out],
        ["construct", "monomial", "p=2", "n=3", "d=3", "-o", out],
        ["construct", "monomial", "p=2", "n=3", "d=3", "--binary", "-o", out],
        ["check-theorem", "--paper-ref", "gold", "n=6", "r=1", "-o", out],
    ]))


def _over_budget(draw, f):
    g = f["good"]
    k = st.integers(0, 7).map(str)
    return draw(st.sampled_from([
        ["analyze", g, "--all", "--max-profile-log", draw(k)],
        ["analyze", g, "--all", "--max-table-log", draw(k), "--max-profile-log", "100000000000"],
        ["analyze", g, "--ddt", "--max-table-log", draw(k)],
        ["spectrum", g, "--max-profile-log", draw(k)],
        ["check-theorem", "--paper-ref", draw(st.sampled_from(list(cli.CHECKS))), g,
         "--max-profile-log", draw(k), "--max-table-log", draw(k)],
        ["analyze", f["count-budget"], draw(st.sampled_from(["--all", "--zero-column-only"]))],
    ]))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_every_error_path_exits_2_or_3(exit_files, data):
    """Generated argument vectors, each with one error: a bad flag or
    subcommand, a huge field degree, a bad key=@FILE argument, a bad table
    header or body, an output path that cannot be written, or work over a
    budget (the (2, 4, 4) table needs K >= 8 for both).  Usage errors
    exit 2 and over-budget work exits 3, in-process; none exits 1 (a failed
    check) or raises."""
    kind, want = data.draw(st.sampled_from([
        (_usage_flag, 2), (_huge_degree, 2), (_bad_file_argument, 2), (_bad_header, 2),
        (_unwritable_output, 2), (_over_budget, 3),
    ]))
    argv = kind(data.draw, exit_files)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == want, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_construct_monomial_round_trip(tmp_path, capsys):
    dest = tmp_path / "t.txt"
    code, _, _ = run(capsys, "construct", "monomial", "p=3", "n=2", "d=2", "-o", str(dest))
    assert code == 0
    assert parse_function_file(dest) == monomial(3, 2, 2)


def test_construct_binary_output(tmp_path, capsys):
    dest = tmp_path / "t.bin"
    code, _, _ = run(capsys, "construct", "monomial", "p=2", "n=4", "d=3", "--binary", "-o", str(dest))
    assert code == 0
    assert dest.read_bytes().startswith(b"PLTB1")
    assert parse_function_file(dest) == monomial(2, 4, 3)


def test_construct_stdout_text(capsys):
    code, out, _ = run(capsys, "construct", "monomial", "p=2", "n=2", "d=1")
    assert code == 0
    assert out.splitlines()[0] == "2 2 2"


def test_construct_gold_gate_and_force(tmp_path, capsys):
    code, _, err = run(capsys, "construct", "gold-trace", "n=6", "r=2")
    assert code == 2 and "odd" in err
    dest = tmp_path / "g.txt"
    code, _, _ = run(capsys, "construct", "gold-trace", "n=6", "r=2", "--force", "-o", str(dest))
    assert code == 0


def test_construct_modulus_override(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    run(capsys, "construct", "monomial", "p=2", "n=4", "d=3", "-o", str(a))
    code, _, _ = run(capsys, "construct", "monomial", "p=2", "n=4", "d=3", "mod=1,0,0,1,1", "-o", str(b))
    assert code == 0
    assert parse_function_file(a) != parse_function_file(b)


def test_construct_mm_and_compose(tmp_path, capsys):
    pi = tmp_path / "pi.txt"
    phi = tmp_path / "phi.txt"
    pi.write_text("2 2 2\n0 0 3 3\n")
    phi.write_text("2 2 2\n1 1 2 3\n")
    dest = tmp_path / "mm1.txt"
    code, _, _ = run(capsys, "construct", "mm1", f"pi=@{pi}", f"phi=@{phi}", "-o", str(dest))
    assert code == 0
    assert parse_function_file(dest).params == DomainParams(2, 4, 2)

    perm = tmp_path / "perm.txt"
    perm.write_text("2 2 2\n0 2 3 1\n")
    dest2 = tmp_path / "mm2.txt"
    code, _, _ = run(capsys, "construct", "mm2", f"pi=@{perm}", "i=1", "-o", str(dest2))
    assert code == 0
    assert parse_function_file(dest2).params == DomainParams(2, 4, 4)

    mat = tmp_path / "L.txt"
    mat.write_text("1 0 0 0\n0 1 0 0\n")
    cube = tmp_path / "cube.txt"
    write_function_file(monomial(2, 4, 3), cube)
    dest3 = tmp_path / "comp.txt"
    code, _, _ = run(capsys, "construct", "compose", f"F=@{cube}", f"L=@{mat}", "-o", str(dest3))
    assert code == 0
    assert parse_function_file(dest3).params == DomainParams(2, 4, 2)


def test_construct_argument_errors(capsys):
    code, _, err = run(capsys, "construct", "monomial", "p=2", "n=4")
    assert code == 2 and "missing required argument d" in err
    code, _, err = run(capsys, "construct", "monomial", "p=2", "n=4", "d=3", "x=1")
    assert code == 2 and "unknown arguments: x" in err
    code, _, err = run(capsys, "construct", "monomial", "p=2", "n=4", "d=3", "d=5")
    assert code == 2 and "duplicate" in err
    code, _, err = run(capsys, "construct", "wat", "p=2")
    assert code == 2 and "unknown construction" in err


def test_construct_file_argument_errors(cube_file, capsys):
    """Table and matrix arguments share one key=@FILE reader."""
    code, _, err = run(capsys, "construct", "compose", f"L=@{cube_file}")
    assert code == 2 and "missing required argument F=@FILE" in err
    code, _, err = run(capsys, "construct", "compose", f"F={cube_file}", f"L=@{cube_file}")
    assert code == 2 and "argument F must reference a file: F=@FILE" in err
    code, _, err = run(capsys, "construct", "compose", f"F=@{cube_file}")
    assert code == 2 and "missing required argument L=@FILE" in err
    code, _, err = run(capsys, "construct", "compose", f"F=@{cube_file}", f"L={cube_file}")
    assert code == 2 and "argument L must reference a file: L=@FILE" in err
    code, _, err = run(capsys, "construct", "compose", f"F=@{cube_file}", "L=@/nonexistent/L")
    assert code == 2 and "/nonexistent/L" in err


def test_spectrum_csv_p2(cube_file, capsys):
    code, out, _ = run(capsys, "spectrum", cube_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "b,a,w"
    assert lines[1] == "0,0,16"
    assert len(lines) == 1 + 16 * 16
    # Parseval on the rows b != 0: each contributes 2^(2n)
    total = sum(int(line.split(",")[2]) ** 2 for line in lines[1:])
    assert total == 16 * 256


def test_spectrum_csv_odd_p(tmp_path, capsys):
    path = tmp_path / "sq.txt"
    write_function_file(monomial(3, 2, 2), path)
    code, out, _ = run(capsys, "spectrum", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "b,a,c0,c1"
    assert lines[1] == "0,0,9,0"
    assert len(lines) == 1 + 9 * 9


def test_spectrum_budget(cube_file, capsys):
    code, _, err = run(capsys, "spectrum", cube_file, "--max-profile-log", "4")
    assert code == 3
    assert "raise --max-profile-log" in err


def test_spectrum_refused_by_kernel_writes_no_file(wide_file, tmp_path, capsys):
    """A spectrum refused on its first row opens no output."""
    dest = tmp_path / "spectrum.csv"
    code, out, err = run(capsys, "spectrum", wide_file, "--max-profile-log", "50", "-o", str(dest))
    assert code == 3
    assert out == "" and "exceed the int64 budget" in err
    assert not dest.exists()


def test_check_theorem_file_tags(cube_file, capsys):
    code, out, _ = run(capsys, "check-theorem", "--paper-ref", "platdto1", cube_file)
    assert code == 0
    verdict = json.loads(out)
    assert verdict["tag"] == "platdto1" and verdict["status"] == "pass"
    code, out, _ = run(capsys, "check-theorem", "--paper-ref", "integrality", cube_file)
    assert code == 3
    code, out, _ = run(capsys, "check-theorem", "--paper-ref", "apn-structure", cube_file)
    assert code == 0


def test_check_theorem_gold(capsys):
    code, out, _ = run(capsys, "check-theorem", "--paper-ref", "gold", "n=6", "r=1")
    assert code == 0
    assert json.loads(out)["details"]["imbalance"] == 224
    code, _, _ = run(capsys, "check-theorem", "--paper-ref", "gold", "n=6", "r=2")
    assert code == 3
    code, out, _ = run(capsys, "check-theorem", "--paper-ref", "gold", "n=8", "r=2")
    assert code == 1
    assert "expected single plateau parameter" in json.loads(out)["reason"]


def test_one_zero_column_transform_per_analysis(tmp_path, capsys, monkeypatch):
    """The imbalance, ab-walsh and integrality share one zero column."""
    calls = []

    def spy(dist):
        calls.append(dist.params)
        return zero_column(dist)

    monkeypatch.setattr(distribution, "zero_column", spy)
    path = tmp_path / "x4.txt"
    write_function_file(monomial(3, 4, 4), path)
    code, _, _ = run(capsys, "analyze", "--all", str(path))
    assert code == 0
    assert calls == [DomainParams(3, 4, 4)]
    calls.clear()
    code, _, _ = run(capsys, "check-theorem", "--paper-ref", "gold", "n=6", "r=1")
    assert code == 0
    assert calls == [DomainParams(2, 6, 3)]


def test_check_theorem_mm_tags(tmp_path, capsys):
    pi = tmp_path / "pi.txt"
    phi = tmp_path / "phi.txt"
    pi.write_text("2 2 2\n0 0 3 3\n")
    phi.write_text("2 2 2\n1 1 2 3\n")
    code, out, _ = run(capsys, "check-theorem", "--paper-ref", "mm1", f"pi=@{pi}", f"phi=@{phi}")
    assert code == 0
    assert json.loads(out)["details"]["case"] == 2
    perm = tmp_path / "perm.txt"
    perm.write_text("2 2 2\n0 2 3 1\n")
    code, out, _ = run(capsys, "check-theorem", "--paper-ref", "mm2", f"pi=@{perm}", "i=1")
    assert code == 0


def test_check_theorem_mm1_profile_follows_budget(tmp_path, capsys):
    # m = 6: p^(n+m) = 2^18, within the default budget, over 2^10
    pi = tmp_path / "pi.txt"
    phi = tmp_path / "phi.txt"
    write_function_file(FuncTable(DomainParams(2, 6, 6), [y // 2 for y in range(64)]), pi)
    write_function_file(FuncTable(DomainParams(2, 6, 6), list(range(64))), phi)
    argv = ("check-theorem", "--paper-ref", "mm1", f"pi=@{pi}", f"phi=@{phi}")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["details"]["profile"]["all_plateaued"] is True
    code, out, _ = run(capsys, *argv, "--max-profile-log", "10")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["details"]["profile"] is None
    assert verdict["details"]["case"] == 3


def test_check_theorem_hypotheses_before_budget(tmp_path, capsys):
    """Over budget, check-theorem skips for the hypothesis that fails first,
    as the same check inside analyze --all does."""
    path = tmp_path / "sq.txt"
    write_function_file(monomial(3, 4, 2), path)
    code, out, _ = run(capsys, "check-theorem", "--paper-ref", "apn-structure", str(path),
                       "--max-profile-log", "4")
    assert code == 3
    assert json.loads(out)["reason"] == "requires p = 2 and n = m"
    _, out, _ = run(capsys, "analyze", str(path), "--all", "--max-profile-log", "4")
    by_tag = {c["tag"]: c for c in json.loads(out)["checks"]}
    assert by_tag["apn-structure"]["reason"] == "requires p = 2 and n = m"
    # platdto1 rests on the profile, so its budget is decided first
    code, out, _ = run(capsys, "check-theorem", "--paper-ref", "platdto1", str(path),
                       "--max-profile-log", "4")
    assert code == 3
    assert json.loads(out)["reason"] == "component profile over budget"


def test_check_theorem_usage_errors(cube_file, capsys):
    code, _, _ = run(capsys, "check-theorem", "--paper-ref", "nope", cube_file)
    assert code == 2
    code, _, err = run(capsys, "check-theorem", "--paper-ref", "platdto1")
    assert code == 2 and "error:" in err
    code, _, _ = run(capsys, "check-theorem", "--paper-ref", "gold", "n=6")
    assert code == 2


def test_usage_exit_codes(capsys):
    assert main([]) == 2
    assert main(["analyze"]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()


def _distribution_installed(name):
    try:
        importlib.metadata.distribution(name)
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def test_console_script_declared():
    """The entry point an install would create is plateau.cli:main."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["plateau"] == "plateau.cli:main"
    module, attr = scripts["plateau"].split(":")
    assert getattr(importlib.import_module(module), attr) is main


def test_package_exports_resolve():
    """Every name in plateau.__all__ is defined on the package, once."""
    assert len(set(plateau.__all__)) == len(plateau.__all__)
    missing = [name for name in plateau.__all__ if not hasattr(plateau, name)]
    assert missing == []


def test_p2_fork_count_does_not_grow():
    """The p = 2 / odd-p split lives in a few kernels; a new fork elsewhere
    must replace an old one."""
    src = Path(plateau.__file__).parent
    forks = [
        line
        for path in sorted(src.glob("*.py"))
        for line in path.read_text().splitlines()
        if re.search(r"p == 2|p != 2", line)
    ]
    assert len(forks) <= 16


def test_difference_rows_have_one_counted_kernel():
    """In differential.py only _counted_rows subtracts with vec_sub_arrays,
    and only it and the direct recount, _recount, count with np.bincount."""
    path = Path(plateau.__file__).parent / "differential.py"
    callers = {"bincount": set(), "vec_sub_arrays": set()}
    for fn in ast.parse(path.read_text()).body:
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "attr", getattr(node.func, "id", None))
                    if name in callers:
                        callers[name].add(fn.name)
    assert callers == {"bincount": {"_counted_rows", "_recount"},
                       "vec_sub_arrays": {"_counted_rows"}}


def test_as_dict_only_on_amplitude_profile():
    """Results render through verdict.render from their dataclass fields; the
    only hand-written view is AmplitudeProfile's, whose entries are derived."""
    src = Path(plateau.__file__).parent
    defs = [
        path.name
        for path in sorted(src.glob("*.py"))
        for line in path.read_text().splitlines()
        if "def as_dict" in line
    ]
    assert defs == ["plateaued.py"]
    assert "as_dict" in vars(plateau.AmplitudeProfile)


def test_resource_rules_live_in_util():
    """The scratch sizes and the 2^62 int64 rule are stated once, in _util:
    no other module spells 1 << 62 or assigns a module-level *SCRATCH* or
    *_CHUNK name."""
    src = Path(plateau.__file__).parent
    offenders = [
        (path.name, line)
        for path in sorted(src.glob("*.py"))
        if path.name != "_util.py"
        for line in path.read_text().splitlines()
        if "1 << 62" in line or re.match(r"\w*(SCRATCH\w*|_CHUNK)\s*(:[^=]*)?=", line)
    ]
    assert offenders == []


def test_test_extra_lists_test_dependencies():
    """pip install .[test] brings every package the tests import."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        extra = tomllib.load(fh)["project"]["optional-dependencies"]["test"]
    names = {req.split(">")[0].split("=")[0].strip() for req in extra}
    assert {"pytest", "sympy", "hypothesis"} <= names


@pytest.mark.skipif(
    not _distribution_installed("artifact"),
    reason="the 'artifact' distribution is not installed, so there is no "
    "plateau console script (pip install -e . provides it)",
)
def test_console_script_installed():
    scripts_dir = sysconfig.get_path("scripts")
    script = shutil.which("plateau", path=scripts_dir) or shutil.which("plateau")
    assert script is not None, "artifact is installed but no plateau script was found"
    proc = subprocess.run(
        [script, "--help"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert "analyze" in proc.stdout

import importlib.metadata
import json
import re
import shutil
import struct
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

import numpy as np
import pytest

import plateau
from plateau import cli, distribution
from plateau.cli import main
from plateau.constructions import monomial
from plateau.domain import DomainParams, FuncTable
from plateau.fileio import MAGIC, parse_function_file, write_function_file
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
    write_function_file(FuncTable(DomainParams(p, 1, 1), np.zeros(p)), path, binary=True)
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
    table budget withholds is still named under `skipped`."""
    path = tmp_path / "x5.txt"
    write_function_file(monomial(3, 4, 5), path)
    dest = tmp_path / "d.csv"
    code, out, _ = run(capsys, "analyze", str(path), "--all", "--ddt-full", str(dest),
                       "--max-table-log", "6")
    assert code == 1
    report = json.loads(out)
    assert report["skipped"] == ["ddt_csv", "differential"]
    assert "ddt_csv" not in report
    assert not dest.exists()


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
    ],
    ids=["binary-n-10^8", "binary-n-2^32-1", "text-p-10^16+61", "text-p-2^89-1"],
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
    assert len(forks) <= 28


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

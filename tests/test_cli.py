import importlib.metadata
import json
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from plateau.cli import main
from plateau.constructions import monomial
from plateau.domain import DomainParams, FuncTable
from plateau.fileio import parse_function_file, write_function_file


@pytest.fixture()
def cube_file(tmp_path):
    path = tmp_path / "cube.txt"
    write_function_file(monomial(2, 4, 3), path)
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


def test_analyze_rejects_header_larger_than_file(tmp_path, capsys):
    # 2^40 entries cannot fit in a 4-byte body; refused before any allocation
    path = tmp_path / "huge.txt"
    path.write_text("2 40 1\n0 1\n")
    for argv in (("analyze", str(path), "--all"),
                 ("check-theorem", "--paper-ref", "platdto1", str(path))):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "header promises 1099511627776 entries" in err


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


def test_bench_csv_shape(capsys):
    code, out, _ = run(capsys, "bench", "wht", "8", "--runs", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kind,size,runs,median_seconds,min_seconds,max_seconds"
    kind, size, runs, med, mn, mx = lines[1].split(",")
    assert (kind, size, runs) == ("wht", "8", "2")
    assert float(mn) <= float(med) <= float(mx)
    for k in ("zero-column", "profile", "ddt"):
        code, out, _ = run(capsys, "bench", k, "6", "--runs", "1")
        assert code == 0, k
    code, _, _ = run(capsys, "bench", "nope", "6")
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

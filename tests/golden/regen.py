"""Golden report corpus: CLI cases on a fixed set of tables, each pinned by
its exit code and the sha256 of the file it writes.

    PYTHONPATH=src python tests/golden/regen.py            # rewrite reports.json
    PYTHONPATH=src python tests/golden/regen.py --check    # list cases that differ
    PYTHONPATH=src python tests/golden/regen.py --show ID  # print one case's output

The tables are `plateau construct` outputs for p in {2, 3, 5} (monomials,
gold-trace, mm1, mm2, compose) and seeded pseudo-random tables, one of them
with m > 2n.  Every case runs `plateau.cli.main` in-process with the working
directory set to the scratch directory, so reports name files by relative
path and do not depend on where the corpus is built.  A case that writes no
file (a usage error, or a spectrum refused by its budget) pins sha256 null.

Regenerate only on a commit whose reports are known good; a change that
alters a pinned report has to say which cases moved and why.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Iterator, Optional

from plateau.cli import main as cli_main
from plateau.domain import DomainParams, FuncTable
from plateau.fileio import write_function_file

REPORTS_PATH = Path(__file__).resolve().parent / "reports.json"

FILE_TAGS = ("platdto1", "integrality", "ab-walsh", "apn-structure", "diff-two-valued")
LOW_PROFILE = ("--max-profile-log", "6")
LOW_TABLE = ("--max-table-log", "6")
BUDGETS = {"default": (), "low-profile": LOW_PROFILE, "low-table": LOW_TABLE}

# helper files: name -> text.  pi tables are 2-to-1 (mm1) or permutations (mm2)
_AUX = {
    "pi2.txt": "2 2 2\n0 0 3 3\n",
    "phi2.txt": "2 2 2\n1 2 0 0\n",
    "pi3.txt": "2 3 3\n1 1 2 2 5 5 6 6\n",
    "phi3.txt": "2 3 3\n0 3 1 4 2 7 5 6\n",
    "perm2.txt": "2 2 2\n0 2 3 1\n",
    "perm3.txt": "2 3 3\n0 3 5 6 1 2 4 7\n",
    "L2.txt": "1 0 1 0\n0 1 1 1\n",
    "L3.txt": "1 2 0\n0 1 1\n",
    "L5.txt": "2 3\n",
}

# construct recipes: table name -> `plateau construct` arguments
RECIPES = {
    "x3_f2_4": ("monomial", "p=2", "n=4", "d=3"),
    "x3_f2_5": ("monomial", "p=2", "n=5", "d=3"),
    "x3_f2_6": ("monomial", "p=2", "n=6", "d=3"),
    "x7_f2_4": ("monomial", "p=2", "n=4", "d=7"),
    "gold_6_1": ("gold-trace", "n=6", "r=1"),
    "gold_8_2": ("gold-trace", "n=8", "r=2"),
    "mm1_m2": ("mm1", "pi=@pi2.txt", "phi=@phi2.txt"),
    "mm1_m3": ("mm1", "pi=@pi3.txt", "phi=@phi3.txt"),
    "mm2_m2": ("mm2", "pi=@perm2.txt", "i=1"),
    "compose_f2": ("compose", "F=@x3_f2_4.txt", "L=@L2.txt"),
    "x2_f3_3": ("monomial", "p=3", "n=3", "d=2"),
    "x2_f3_4": ("monomial", "p=3", "n=4", "d=2"),
    "x4_f3_4": ("monomial", "p=3", "n=4", "d=4"),
    "x5_f3_4": ("monomial", "p=3", "n=4", "d=5"),
    "compose_f3": ("compose", "F=@x2_f3_3.txt", "L=@L3.txt"),
    "x2_f5_2": ("monomial", "p=5", "n=2", "d=2"),
    "x6_f5_2": ("monomial", "p=5", "n=2", "d=6"),
    "compose_f5": ("compose", "F=@x6_f5_2.txt", "L=@L5.txt"),
}

# seeded pseudo-random tables: name -> (p, n, m, seed)
RANDOM = {
    "rand_2_5_5": (2, 5, 5, 1),
    "rand_2_6_3": (2, 6, 3, 2),
    "rand_3_3_2": (3, 3, 2, 3),
    "rand_5_2_2": (5, 2, 2, 4),
    "rand_2_2_5": (2, 2, 5, 5),  # m > 2n: no imbalance
}

TABLES = tuple(RECIPES) + tuple(RANDOM)

# construction checks: case suffix -> check-theorem arguments
CONSTRUCTION_CHECKS = {
    "gold n=6 r=1": ("gold", "n=6", "r=1"),
    "gold n=8 r=2": ("gold", "n=8", "r=2"),
    "gold n=10 r=1": ("gold", "n=10", "r=1"),
    "gold n=6 r=2": ("gold", "n=6", "r=2"),
    "gold n=7 r=1": ("gold", "n=7", "r=1"),
    "mm1 m=2": ("mm1", "pi=@pi2.txt", "phi=@phi2.txt"),
    "mm1 m=3": ("mm1", "pi=@pi3.txt", "phi=@phi3.txt"),
    "mm1 bad pi": ("mm1", "pi=@perm2.txt", "phi=@phi2.txt"),
    "mm2 m=2": ("mm2", "pi=@perm2.txt", "i=1"),
    "mm2 m=3": ("mm2", "pi=@perm3.txt", "i=2"),
    "mm2 bad i": ("mm2", "pi=@perm2.txt", "i=2"),
}


def _pseudo_random_values(p: int, n: int, m: int, seed: int) -> list[int]:
    """Entries from sha256, so the tables never depend on an RNG's version."""
    q = p ** m
    return [
        int.from_bytes(hashlib.sha256(f"{seed}:{i}".encode()).digest()[:8], "little") % q
        for i in range(p ** n)
    ]


def cases() -> dict[str, tuple[str, ...]]:
    """Case id -> argv (without the trailing `-o OUT`)."""
    out: dict[str, tuple[str, ...]] = {}
    for table in TABLES:
        path = f"{table}.txt"
        for budget, flags in BUDGETS.items():
            out[f"{table} analyze --all [{budget}]"] = ("analyze", path, "--all", *flags)
            for tag in FILE_TAGS:
                out[f"{table} check-theorem {tag} [{budget}]"] = (
                    "check-theorem", "--paper-ref", tag, path, *flags,
                )
        out[f"{table} analyze --ddt [default]"] = ("analyze", path, "--ddt")
        out[f"{table} analyze --all --zero-column-only [default]"] = (
            "analyze", path, "--all", "--zero-column-only",
        )
        out[f"{table} spectrum [default]"] = ("spectrum", path)
        out[f"{table} spectrum [low-profile]"] = ("spectrum", path, *LOW_PROFILE)
        out[f"{table} analyze --ddt-full [default]"] = (
            "analyze", path, "--ddt", "--ddt-full", "ddt.csv",
        )
        out[f"{table} analyze --ddt-full [low-table]"] = (
            "analyze", path, "--ddt", "--ddt-full", "ddt.csv", *LOW_TABLE,
        )
    for label, args in CONSTRUCTION_CHECKS.items():
        for budget in ("default", "low-profile"):
            out[f"check-theorem {label} [{budget}]"] = (
                "check-theorem", "--paper-ref", *args, *BUDGETS[budget],
            )
    return out


@contextlib.contextmanager
def corpus_dir() -> Iterator[Path]:
    """A scratch directory holding every table and helper file, as the cwd."""
    old = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="plateau-golden-") as tmp:
        os.chdir(tmp)
        try:
            for name, text in _AUX.items():
                Path(name).write_text(text, encoding="ascii")
            for name, recipe in RECIPES.items():
                code = run_cli(("construct", *recipe, "-o", f"{name}.txt"))
                if code != 0:
                    raise RuntimeError(f"construct {name} exited {code}")
            for name, (p, n, m, seed) in RANDOM.items():
                table = FuncTable(DomainParams(p, n, m), _pseudo_random_values(p, n, m, seed))
                write_function_file(table, f"{name}.txt")
            yield Path(tmp)
        finally:
            os.chdir(old)


def run_cli(argv: tuple[str, ...]) -> int:
    """Exit code of one in-process CLI call; its error messages are dropped."""
    with contextlib.redirect_stderr(io.StringIO()):
        return cli_main(list(argv))


def run_case(argv: tuple[str, ...]) -> tuple[int, Optional[bytes]]:
    """Exit code and written bytes (None if nothing was written) of one case."""
    out = Path("case.out")
    if out.exists():
        out.unlink()
    code = run_cli((*argv, "-o", str(out)))
    return code, out.read_bytes() if out.exists() else None


def run_all() -> dict[str, tuple[int, Optional[bytes]]]:
    with corpus_dir():
        return {cid: run_case(argv) for cid, argv in cases().items()}


def digest(data: Optional[bytes]) -> Optional[str]:
    return None if data is None else hashlib.sha256(data).hexdigest()


def pins_of(results: dict[str, tuple[int, Optional[bytes]]]) -> dict[str, dict]:
    return {cid: {"exit": code, "sha256": digest(data)} for cid, (code, data) in results.items()}


def load_pins() -> dict[str, dict]:
    return json.loads(REPORTS_PATH.read_text(encoding="ascii"))


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description="Regenerate or check the golden corpus.")
    ap.add_argument("--check", action="store_true", help="compare against reports.json")
    ap.add_argument("--show", metavar="ID", help="print the output of one case")
    args = ap.parse_args(argv)
    if args.show:
        argv_of = cases()
        if args.show not in argv_of:
            sys.exit(f"unknown case {args.show!r}")
        with corpus_dir():
            code, data = run_case(argv_of[args.show])
        sys.stdout.write(f"exit {code}\n")
        sys.stdout.write(data.decode("ascii") if data is not None else "(no output)\n")
        return 0
    pins = pins_of(run_all())
    if args.check:
        want = load_pins()
        bad = sorted(set(pins) ^ set(want)) + sorted(
            cid for cid in set(pins) & set(want) if pins[cid] != want[cid]
        )
        for cid in bad:
            sys.stdout.write(f"{cid}: pinned {want.get(cid)}, got {pins.get(cid)}\n")
        sys.stdout.write(f"{len(pins)} cases, {len(bad)} differ\n")
        return 1 if bad else 0
    REPORTS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="ascii")
    sys.stdout.write(f"wrote {len(pins)} cases to {REPORTS_PATH.name}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

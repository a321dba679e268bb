"""Command-line harness.

Subcommands: analyze (report JSON), construct (build tables from a small
key=value DSL), spectrum (full Walsh dump as CSV), check-theorem (run one
named structure check).  Kernel and end-to-end timings live outside the
package, in perfbench/run.py and perfbench/summary.py.

Exit codes: 0 all requested checks pass, 1 at least one check failed,
2 usage or input parse error, 3 a requested section was skipped (resource
budget or inapplicable check) or the work ran out of memory, with failures
taking priority over skips.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from itertools import chain
from pathlib import Path
from typing import Optional, Sequence

from .constructions import (
    check_gold,
    check_mm1,
    check_mm2,
    gold_trace,
    linear_compose,
    mm_pair,
    mm_pi_phi,
    monomial,
)
from .differential import ddt_rows
from .domain import FuncTable
from .errors import BudgetError, ConstructionError, FileFormatError
from .fileio import format_text, parse_function_file, write_function_file
from .report import (
    CHECKS,
    EXIT_FAIL,
    EXIT_PARTIAL,
    EXIT_PASS,
    EXIT_USAGE,
    Analysis,
    AnalysisOptions,
    Withheld,
    require_budget,
    run_analysis,
    run_check,
)
from .walsh import spectrum_rows

_FILE_TAGS = tuple(CHECKS)
_ARG_TAGS = ("gold", "mm1", "mm2")


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text, encoding="ascii")
    else:
        sys.stdout.write(text)


def _emit_json(obj: dict, out: Optional[str]) -> None:
    _emit(json.dumps(obj, sort_keys=True, indent=2) + "\n", out)


def _status_exit(status: str) -> int:
    return {"pass": EXIT_PASS, "fail": EXIT_FAIL, "skipped": EXIT_PARTIAL}[status]


# ---------------------------------------------------------------------------
# key=value DSL helpers

def _split_kv(args: Sequence[str]) -> tuple[dict[str, str], list[str]]:
    kv: dict[str, str] = {}
    rest: list[str] = []
    for tok in args:
        if "=" in tok:
            key, _, val = tok.partition("=")
            if not key or not val:
                raise FileFormatError(f"malformed key=value argument {tok!r}")
            if key in kv:
                raise FileFormatError(f"duplicate argument {key!r}")
            kv[key] = val
        else:
            rest.append(tok)
    return kv, rest


def _kv_int(kv: dict[str, str], key: str) -> int:
    if key not in kv:
        raise FileFormatError(f"missing required argument {key}=<int>")
    try:
        return int(kv.pop(key))
    except ValueError:
        raise FileFormatError(f"argument {key} must be an integer") from None


def _kv_modulus(kv: dict[str, str]) -> Optional[list[int]]:
    if "mod" not in kv:
        return None
    raw = kv.pop("mod")
    try:
        return [int(tok) for tok in raw.split(",")]
    except ValueError:
        raise FileFormatError(
            "mod must be comma-separated little-endian coefficients"
        ) from None


def _kv_file(kv: dict[str, str], key: str) -> Path:
    """The path named by a key=@FILE argument."""
    if key not in kv:
        raise FileFormatError(f"missing required argument {key}=@FILE")
    raw = kv.pop(key)
    if not raw.startswith("@"):
        raise FileFormatError(f"argument {key} must reference a file: {key}=@FILE")
    return Path(raw[1:])


def _kv_lookup(kv: dict[str, str], key: str, m: Optional[int]) -> list[int]:
    """A component map pi/phi given as an ordinary table file with p=2, n=m."""
    table = parse_function_file(_kv_file(kv, key))
    pr = table.params
    if pr.p != 2 or pr.n != pr.m:
        raise FileFormatError(
            f"{key} table must have header '2 m m', got p={pr.p} n={pr.n} m={pr.m}"
        )
    if m is not None and pr.n != m:
        raise FileFormatError(f"{key} table is on 2^{pr.n} points, expected 2^{m}")
    return [int(v) for v in table.values.tolist()]


def _kv_matrix(kv: dict[str, str], key: str) -> list[list[int]]:
    path = _kv_file(kv, key)
    try:
        lines = path.read_text(encoding="ascii").splitlines()
    except OSError as e:
        raise FileFormatError(f"{path}: {e.strerror or e}") from None
    rows = []
    for lineno, line in enumerate(lines, start=1):
        toks = line.split()
        if not toks:
            continue
        try:
            rows.append([int(t) for t in toks])
        except ValueError:
            raise FileFormatError(f"{path}:{lineno}: non-integer matrix entry") from None
    if not rows:
        raise FileFormatError(f"{path}: empty matrix")
    return rows


def _kv_done(kv: dict[str, str]) -> None:
    if kv:
        raise FileFormatError(f"unknown arguments: {', '.join(sorted(kv))}")


def _recipe_args(tag: str, kv: dict[str, str]) -> tuple[dict, Optional[int]]:
    """Keyword arguments shared by the gold/mm1/mm2 builder and check, and m.

    m is the optional m= argument of mm1 and mm2 (None for gold), which the
    builders take and the checks do not.
    """
    m = None
    if tag == "gold":
        kw = {"n": _kv_int(kv, "n"), "r": _kv_int(kv, "r"), "modulus": _kv_modulus(kv)}
    else:
        m = _kv_int(kv, "m") if "m" in kv else None
        if tag == "mm1":
            kw = {"pi": _kv_lookup(kv, "pi", m), "phi": _kv_lookup(kv, "phi", m)}
        else:
            kw = {"i": _kv_int(kv, "i"), "pi": _kv_lookup(kv, "pi", m)}
    _kv_done(kv)
    return kw, m


# ---------------------------------------------------------------------------
# construct

def _build_from_dsl(kind: str, kv: dict[str, str], force: bool) -> FuncTable:
    if kind == "monomial":
        p = _kv_int(kv, "p")
        n = _kv_int(kv, "n")
        d = _kv_int(kv, "d")
        mod = _kv_modulus(kv)
        _kv_done(kv)
        return monomial(p, n, d, modulus=mod)
    if kind == "gold-trace":
        kw, _ = _recipe_args("gold", kv)
        return gold_trace(**kw, force=force)
    if kind == "mm1":
        kw, m = _recipe_args("mm1", kv)
        return mm_pi_phi(**kw, m=m, force=force)
    if kind == "mm2":
        kw, m = _recipe_args("mm2", kv)
        return mm_pair(**kw, m=m, force=force)
    if kind == "compose":
        table = parse_function_file(_kv_file(kv, "F"))
        rows = _kv_matrix(kv, "L")
        _kv_done(kv)
        return linear_compose(table, rows)
    raise FileFormatError(
        f"unknown construction {kind!r}; "
        "expected monomial, gold-trace, mm1, mm2, or compose"
    )


def _cmd_construct(args: argparse.Namespace) -> int:
    kv, rest = _split_kv(args.args)
    if rest:
        raise FileFormatError(f"unexpected arguments: {' '.join(rest)}")
    table = _build_from_dsl(args.kind, kv, args.force)
    if args.binary:
        if not args.output:
            raise FileFormatError("--binary needs -o FILE")
        write_function_file(table, args.output, binary=True)
    else:
        _emit(format_text(table), args.output)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# analyze

def _cmd_analyze(args: argparse.Namespace) -> int:
    table = parse_function_file(args.file)
    opts = AnalysisOptions(
        with_profile=args.all,
        with_differential=args.all or args.ddt or bool(args.ddt_full),
        with_checks=args.all,
        zero_column_only=args.zero_column_only,
        max_profile_log=args.max_profile_log,
        max_table_log=args.max_table_log,
        timings=args.timings,
    )
    report, code = run_analysis(table, opts)
    if args.ddt_full:
        try:
            require_budget(table.params, opts, "diff")
        except Withheld:
            if code != EXIT_FAIL:
                code = EXIT_PARTIAL
            report["skipped"] = sorted({*report.get("skipped", ()), "ddt_csv"})
        else:
            _write_ddt_csv(table, args.ddt_full)
            report["ddt_csv"] = args.ddt_full
    _emit_json(report, args.output)
    return code


def _write_ddt_csv(table: FuncTable, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("a,b,count\n")
        for c, row in ddt_rows(table):
            fh.writelines(
                f"{c},{b},{int(v)}\n" for b, v in enumerate(row.tolist())
            )


# ---------------------------------------------------------------------------
# spectrum

def _cmd_spectrum(args: argparse.Namespace) -> int:
    table = parse_function_file(args.file)
    pr = table.params
    try:
        require_budget(pr, AnalysisOptions(max_profile_log=args.max_profile_log), "profile")
    except Withheld:
        sys.stderr.write(
            f"spectrum needs p^(n+m) <= 2^{args.max_profile_log}; "
            f"raise --max-profile-log to proceed\n"
        )
        return EXIT_PARTIAL
    header = "w" if pr.p == 2 else ",".join(f"c{k}" for k in range(pr.p - 1))
    rows = spectrum_rows(table)
    # a kernel that refuses the table does so on the first row, before any
    # output is opened; the rest is written one row at a time
    first = next(rows)
    out = open(args.output, "w", encoding="ascii") if args.output else nullcontext(sys.stdout)
    with out as fh:
        fh.write(f"b,a,{header}\n")
        for b, row in enumerate(chain([first], rows)):
            coords = row.basis_coords().tolist()
            fh.write("".join(f"{b},{a},{','.join(map(str, cs))}\n" for a, cs in enumerate(coords)))
    return EXIT_PASS


# ---------------------------------------------------------------------------
# check-theorem

def _cmd_check_theorem(args: argparse.Namespace) -> int:
    tag = args.paper_ref
    kv, rest = _split_kv(args.args)
    opts = AnalysisOptions(
        max_profile_log=args.max_profile_log, max_table_log=args.max_table_log
    )
    if tag in CHECKS:
        _kv_done(kv)
        if len(rest) != 1:
            raise FileFormatError(f"check {tag} takes exactly one table file")
        cr = run_check(Analysis(parse_function_file(rest[0]), opts), tag, [])
    elif tag in _ARG_TAGS:
        if rest:
            raise FileFormatError(f"unexpected arguments: {' '.join(rest)}")
        kw, _ = _recipe_args(tag, kv)
        check = {"gold": check_gold, "mm1": check_mm1, "mm2": check_mm2}[tag]
        cr = check(**kw, opts=opts)
    else:
        raise FileFormatError(
            f"unknown check {tag!r}; expected one of "
            f"{', '.join(_FILE_TAGS + _ARG_TAGS)}"
        )
    _emit_json(cr.as_dict(), args.output)
    return _status_exit(cr.status)


# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="plateau",
        description="Exact spectral and distribution analysis of functions F_p^n -> F_p^m.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def budgets(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--max-profile-log",
            type=int,
            default=28,
            help="allow per-component spectra only while p^(n+m) <= 2^K (default 28)",
        )
        p.add_argument(
            "--max-table-log",
            type=int,
            default=28,
            help="allow difference-table work only while p^(2n) <= 2^K (default 28)",
        )

    pa = sub.add_parser("analyze", help="report distribution, spectra, and checks")
    pa.add_argument("file", help="function table (text or binary)")
    pa.add_argument("--all", action="store_true", help="profile + differential + checks")
    pa.add_argument(
        "--zero-column-only",
        action="store_true",
        help="restrict to the value-distribution block",
    )
    pa.add_argument("--ddt", action="store_true", help="add the differential block")
    pa.add_argument("--ddt-full", metavar="CSV", help="dump the full difference table")
    pa.add_argument("--timings", action="store_true", help="include wall-clock timings")
    budgets(pa)
    pa.add_argument("-o", "--output", help="write the report here instead of stdout")
    pa.set_defaults(fn=_cmd_analyze)

    pc = sub.add_parser("construct", help="build a function table from a recipe")
    pc.add_argument(
        "kind", help="monomial | gold-trace | mm1 | mm2 | compose"
    )
    pc.add_argument("args", nargs="*", help="key=value arguments; @FILE for tables")
    pc.add_argument("--force", action="store_true", help="skip hypothesis gates")
    pc.add_argument("--binary", action="store_true", help="write binary format")
    pc.add_argument("-o", "--output", help="output file (default stdout, text)")
    pc.set_defaults(fn=_cmd_construct)

    ps = sub.add_parser("spectrum", help="dump all Walsh values as CSV")
    ps.add_argument("file", help="function table")
    ps.add_argument(
        "--max-profile-log",
        type=int,
        default=28,
        help="refuse dumps with p^(n+m) > 2^K (default 28)",
    )
    ps.add_argument("-o", "--output", help="output file (default stdout)")
    ps.set_defaults(fn=_cmd_spectrum)

    pt = sub.add_parser("check-theorem", help="run one named structure check")
    pt.add_argument(
        "--paper-ref",
        required=True,
        metavar="TAG",
        help=f"one of {', '.join(_FILE_TAGS + _ARG_TAGS)}",
    )
    pt.add_argument(
        "args",
        nargs="*",
        help="table file for file checks, key=value for construction checks",
    )
    budgets(pt)
    pt.add_argument("-o", "--output", help="write the verdict JSON here")
    pt.set_defaults(fn=_cmd_check_theorem)

    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (FileFormatError, ConstructionError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE
    except BudgetError as e:
        # integer work past a kernel's int64 bound: over budget, not bad usage
        sys.stderr.write(f"error: {e}\n")
        return EXIT_PARTIAL
    except MemoryError as e:
        # over-budget work that no budget flag caught, not a failed check
        detail = " ".join(str(e).split())
        sys.stderr.write(f"error: out of memory{': ' + detail if detail else ''}\n")
        return EXIT_PARTIAL


if __name__ == "__main__":
    sys.exit(main())

"""Command-line harness.

Subcommands: analyze (report JSON), construct (build tables from a small
key=value DSL), spectrum (full Walsh dump as CSV), check-theorem (run one
named structure check), bench (median-of-N kernel timings as CSV).

Exit codes: 0 all requested checks pass, 1 at least one check failed,
2 usage or input parse error, 3 a requested section was skipped (resource
budget or inapplicable check), with failures taking priority over skips.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

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
from .differential import ddt_rows, diff_summary
from .domain import DomainParams, FuncTable
from .errors import BudgetError, ConstructionError, FileFormatError
from .fileio import format_text, parse_function_file, write_function_file
from .plateaued import component_profile
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
from .walsh import _p2_dtype, fwht_last_axis, spectrum_rows, zero_column

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


def _kv_table(kv: dict[str, str], key: str) -> FuncTable:
    if key not in kv:
        raise FileFormatError(f"missing required argument {key}=@FILE")
    raw = kv.pop(key)
    if not raw.startswith("@"):
        raise FileFormatError(f"argument {key} must reference a file: {key}=@FILE")
    return parse_function_file(raw[1:])


def _kv_lookup(kv: dict[str, str], key: str, m: Optional[int]) -> list[int]:
    """A component map pi/phi given as an ordinary table file with p=2, n=m."""
    table = _kv_table(kv, key)
    pr = table.params
    if pr.p != 2 or pr.n != pr.m:
        raise FileFormatError(
            f"{key} table must have header '2 m m', got p={pr.p} n={pr.n} m={pr.m}"
        )
    if m is not None and pr.n != m:
        raise FileFormatError(f"{key} table is on 2^{pr.n} points, expected 2^{m}")
    return [int(v) for v in table.values.tolist()]


def _kv_matrix(kv: dict[str, str], key: str) -> list[list[int]]:
    if key not in kv:
        raise FileFormatError(f"missing required argument {key}=@FILE")
    raw = kv.pop(key)
    if not raw.startswith("@"):
        raise FileFormatError(f"argument {key} must reference a file: {key}=@FILE")
    path = Path(raw[1:])
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
        n = _kv_int(kv, "n")
        r = _kv_int(kv, "r")
        mod = _kv_modulus(kv)
        _kv_done(kv)
        return gold_trace(n, r, modulus=mod, force=force)
    if kind == "mm1":
        m = _kv_int(kv, "m") if "m" in kv else None
        pi = _kv_lookup(kv, "pi", m)
        phi = _kv_lookup(kv, "phi", m)
        _kv_done(kv)
        return mm_pi_phi(pi, phi, m=m, force=force)
    if kind == "mm2":
        m = _kv_int(kv, "m") if "m" in kv else None
        i = _kv_int(kv, "i")
        pi = _kv_lookup(kv, "pi", m)
        _kv_done(kv)
        return mm_pair(pi, i, m=m, force=force)
    if kind == "compose":
        table = _kv_table(kv, "F")
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
    lines: list[str] = []
    if pr.p == 2:
        lines.append("b,a,w\n")
        for row in spectrum_rows(table):
            lines.extend(
                f"{row.b},{a},{int(v)}\n" for a, v in enumerate(row.data.tolist())
            )
    else:
        header = ",".join(f"c{k}" for k in range(pr.p - 1))
        lines.append(f"b,a,{header}\n")
        for row in spectrum_rows(table):
            canon = row.data[:, : pr.p - 1] - row.data[:, pr.p - 1 :]
            for a, cs in enumerate(canon.tolist()):
                lines.append(f"{row.b},{a}," + ",".join(map(str, cs)) + "\n")
    _emit("".join(lines), args.output)
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
        if tag == "gold":
            n = _kv_int(kv, "n")
            r = _kv_int(kv, "r")
            mod = _kv_modulus(kv)
            _kv_done(kv)
            cr = check_gold(n, r, modulus=mod, opts=opts)
        elif tag == "mm1":
            m = _kv_int(kv, "m") if "m" in kv else None
            pi = _kv_lookup(kv, "pi", m)
            phi = _kv_lookup(kv, "phi", m)
            _kv_done(kv)
            cr = check_mm1(pi, phi, opts=opts)
        else:
            m = _kv_int(kv, "m") if "m" in kv else None
            i = _kv_int(kv, "i")
            pi = _kv_lookup(kv, "pi", m)
            _kv_done(kv)
            cr = check_mm2(pi, i, opts=opts)
    else:
        raise FileFormatError(
            f"unknown check {tag!r}; expected one of "
            f"{', '.join(_FILE_TAGS + _ARG_TAGS)}"
        )
    _emit_json(cr.as_dict(), args.output)
    return _status_exit(cr.status)


# ---------------------------------------------------------------------------
# bench

def _bench_once(kind: str, size: int, rng: np.random.Generator) -> float:
    if kind == "wht":
        # the dtype every p = 2 transform of a size-`size` table runs in
        arr = (1 - 2 * rng.integers(0, 2, size=1 << size)).astype(_p2_dtype(size))
        t0 = time.perf_counter()
        fwht_last_axis(arr)
        return time.perf_counter() - t0
    vals = rng.integers(0, 1 << size, size=1 << size).astype(np.int64)
    table = FuncTable(DomainParams(2, size, size), vals)
    if kind == "zero-column":
        t0 = time.perf_counter()
        zc = zero_column(table)
        zc.sq_sum_nonzero()
        return time.perf_counter() - t0
    if kind == "profile":
        t0 = time.perf_counter()
        component_profile(table)
        return time.perf_counter() - t0
    if kind == "ddt":
        t0 = time.perf_counter()
        diff_summary(table)
        return time.perf_counter() - t0
    raise FileFormatError(f"unknown bench kind {kind!r}")


def _cmd_bench(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    times = [_bench_once(args.kind, args.size, rng) for _ in range(args.runs)]
    line = "kind,size,runs,median_seconds,min_seconds,max_seconds\n" + (
        f"{args.kind},{args.size},{args.runs},"
        f"{statistics.median(times):.6f},{min(times):.6f},{max(times):.6f}\n"
    )
    _emit(line, args.output)
    return EXIT_PASS


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

    pb = sub.add_parser("bench", help="time a kernel, CSV to stdout")
    pb.add_argument("kind", help="wht | zero-column | profile | ddt")
    pb.add_argument("size", type=int, help="log2 of the domain size (p = 2)")
    pb.add_argument("--runs", type=int, default=5, help="timed repetitions (default 5)")
    pb.add_argument("--seed", type=int, default=0, help="RNG seed for the input table")
    pb.add_argument("-o", "--output", help="output file (default stdout)")
    pb.set_defaults(fn=_cmd_bench)

    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (FileFormatError, ConstructionError, BudgetError, ValueError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""The three benchmark workloads: their inputs, their operations and the
correctness gate every operation passes through.

Every operation goes through `plateau.cli.main` in-process, exactly as a user
would type it.  An operation fails when it raises, when its exit code differs
from the one pinned for its input, or when its report bytes differ from the
sha256 pinned for that input and seed (pins.json, written by pin.py).  For a
seed with no pinned digest the report must instead be byte-identical on every
pass over that input.

Why each workload:

* large_p2 -- the binary p = 2 path at both sizes users wait on.  Five
  `analyze --all` calls on tables at n = 11, 12 (full_p2 below), where batched
  sign-row transforms (component profile) and DDT streaming do nearly all the
  work, and one `analyze --zero-column-only` call on a random 64 MiB
  (2, 24, 24) table (zero_column_24 below), the largest shape the acceptance
  suite uses, where binary parse, preimage counts and one 2^24 transform
  dominate and peak RSS reaches about 0.7 GB.
* full_odd -- `analyze --all` on odd-p tables.  This is the slow odd-p path:
  per-row size-p DFTs, with every spectrum row computed twice (profile and
  fourth-moment cross-check).  The p = 2 kernels never run.
* screen_small -- many short sessions: `construct` a small table (or write a
  random text table) and `analyze --all` it.  Fixed per-call costs dominate
  (CLI, text parse, construction, rendering).  The only workload that runs
  `constructions`/`field` and the text parser; it catches a change that
  speeds up large tables but costs small ones.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from plateau import DomainParams, FuncTable, gold_trace, monomial, write_function_file
from plateau.cli import main as cli_main

PINS_PATH = Path(__file__).resolve().parent / "pins.json"


@dataclass
class Input:
    """One operation's input.  Exactly one of path, recipe, table is used."""

    name: str
    params: tuple[int, int, int]
    flags: tuple[str, ...]
    seeded: bool = False
    path: Optional[Path] = None  # prebuilt table file
    recipe: tuple[str, ...] = ()  # `construct` arguments, run inside the op
    table: Optional[FuncTable] = None  # written as text inside the op

    def pin_key(self, seed: int) -> str:
        return f"{self.name}@{seed}" if self.seeded else self.name


def _random(rng: np.random.Generator, p: int, n: int, m: int) -> FuncTable:
    vals = rng.integers(0, p ** m, size=p ** n, dtype=np.int64)
    return FuncTable(DomainParams(p, n, m), vals)


def _file_inputs(specs, seed: int, workdir: Path, flags: tuple[str, ...]) -> list[Input]:
    """Build each table through plateau's constructors and write it binary.

    specs are (name, seeded, make) with make(rng) -> FuncTable.
    """
    rng = np.random.default_rng(seed)
    out = []
    for name, seeded, make in specs:
        table = make(rng)
        path = workdir / f"{name}.bin"
        write_function_file(table, path, binary=True)
        pr = table.params
        out.append(Input(name, (pr.p, pr.n, pr.m), flags, seeded=seeded, path=path))
    return out


def full_p2(seed: int, workdir: Path) -> list[Input]:
    specs = [
        ("x3_f2_12", False, lambda rng: monomial(2, 12, 3)),
        ("x3_f2_11", False, lambda rng: monomial(2, 11, 3)),
        ("gold_12_1", False, lambda rng: gold_trace(12, 1)),
        ("rand_2_12_12", True, lambda rng: _random(rng, 2, 12, 12)),
        ("rand_2_12_6", True, lambda rng: _random(rng, 2, 12, 6)),
    ]
    return _file_inputs(specs, seed, workdir, ("--all",))


def full_odd(seed: int, workdir: Path) -> list[Input]:
    specs = [
        ("x2_f3_6", False, lambda rng: monomial(3, 6, 2)),
        ("x2_f5_4", False, lambda rng: monomial(5, 4, 2)),
        ("x2_f7_3", False, lambda rng: monomial(7, 3, 2)),
        ("x4_f3_5", False, lambda rng: monomial(3, 5, 4)),
        ("rand_3_6_4", True, lambda rng: _random(rng, 3, 6, 4)),
    ]
    return _file_inputs(specs, seed, workdir, ("--all",))


def zero_column_24(seed: int, workdir: Path) -> list[Input]:
    specs = [("rand_2_24_24", True, lambda rng: _random(rng, 2, 24, 24))]
    return _file_inputs(specs, seed, workdir, ("--zero-column-only",))


# construct recipes: (name, construct arguments, (p, n, m)).  x^5 over F_3^4
# fails the platdto1 check by design, so its pinned exit code is 1.
_RECIPES = (
    ("x3_f2_6", ("monomial", "p=2", "n=6", "d=3"), (2, 6, 6)),
    ("x3_f2_7", ("monomial", "p=2", "n=7", "d=3"), (2, 7, 7)),
    ("x3_f2_8", ("monomial", "p=2", "n=8", "d=3"), (2, 8, 8)),
    ("x5_f2_8", ("monomial", "p=2", "n=8", "d=5"), (2, 8, 8)),
    ("x7_f2_8", ("monomial", "p=2", "n=8", "d=7"), (2, 8, 8)),
    ("inv_f2_8", ("monomial", "p=2", "n=8", "d=254"), (2, 8, 8)),
    ("gold_8_1", ("gold-trace", "n=8", "r=1"), (2, 8, 4)),
    ("gold_8_2", ("gold-trace", "n=8", "r=2"), (2, 8, 4)),
    ("x2_f3_4", ("monomial", "p=3", "n=4", "d=2"), (3, 4, 4)),
    ("x4_f3_4", ("monomial", "p=3", "n=4", "d=4"), (3, 4, 4)),
    ("x5_f3_4", ("monomial", "p=3", "n=4", "d=5"), (3, 4, 4)),
    ("x10_f3_4", ("monomial", "p=3", "n=4", "d=10"), (3, 4, 4)),
)
_SMALL_RANDOM_SHAPES = ((2, 8, 8), (2, 8, 4), (3, 4, 2))
_SMALL_RANDOM_EACH = 4


def screen_small(seed: int, workdir: Path) -> list[Input]:
    out = [Input(name, params, ("--all",), recipe=recipe) for name, recipe, params in _RECIPES]
    rng = np.random.default_rng(seed)
    for k in range(_SMALL_RANDOM_EACH):
        for p, n, m in _SMALL_RANDOM_SHAPES:
            out.append(
                Input(f"rand_{p}_{n}_{m}_{k}", (p, n, m), ("--all",), seeded=True,
                      table=_random(rng, p, n, m))
            )
    return out


def large_p2(seed: int, workdir: Path) -> list[Input]:
    return full_p2(seed, workdir) + zero_column_24(seed, workdir)


WORKLOADS = {
    "large_p2": large_p2,
    "full_odd": full_odd,
    "screen_small": screen_small,
}


def run_op(item: Input, workdir: Path, tracer=None) -> tuple[int, bytes]:
    """One operation: (exit code of the analyze call, report bytes).

    With a tracer, each CLI call is a span.
    """

    def call(name, fn, *args):
        return fn(*args) if tracer is None else tracer.call(name, fn, *args)

    report = workdir / "report.json"
    report.unlink(missing_ok=True)
    path = item.path
    if item.recipe:
        path = workdir / "t.txt"
        code = call("cli", cli_main, ["construct", *item.recipe, "-o", str(path)])
        if code != 0:
            return code, b""
    elif item.table is not None:
        path = workdir / "t.txt"
        write_function_file(item.table, path)
    code = call("cli", cli_main, ["analyze", str(path), *item.flags, "-o", str(report)])
    return code, report.read_bytes() if report.exists() else b""


def load_pins() -> dict:
    with open(PINS_PATH, encoding="ascii") as fh:
        return json.load(fh)


@dataclass
class Gate:
    """Checks each operation's result against the pins for one seed."""

    seed: int
    pins: dict
    seen: dict[str, str] = field(default_factory=dict)

    def problem(self, item: Input, code: int, report: bytes) -> Optional[str]:
        """None when the result is correct, else what is wrong with it."""
        want_code = self.pins["exit"].get(item.name)
        if want_code is None:
            return f"{item.name}: no pinned exit code"
        if code != want_code:
            return f"{item.name}: exit {code}, pinned {want_code}"
        digest = hashlib.sha256(report).hexdigest()
        key = item.pin_key(self.seed)
        want = self.pins["sha256"].get(key) or self.seen.setdefault(key, digest)
        if digest != want:
            return f"{key}: report sha256 {digest[:12]}, expected {want[:12]}"
        return None


class Runner:
    """Runs passes over one workload's inputs and tallies the outcomes."""

    def __init__(self, inputs, gate, workdir):
        self.inputs = inputs
        self.gate = gate
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0

    def passes(self, seconds: float) -> tuple[list[float], float]:
        """Whole passes, stopping at the pass boundary nearest to `seconds`.

        Returns (op durations, wall seconds of all the passes).
        """
        durations: list[float] = []
        passes = 0
        t0 = time.perf_counter()
        while True:
            durations.extend(self.one_pass())
            passes += 1
            elapsed = time.perf_counter() - t0
            if elapsed + elapsed / passes / 2 >= seconds:
                return durations, elapsed

    def one_pass(self, tracer=None) -> list[float]:
        durations = []
        for item in self.inputs:
            self.attempted += 1
            if tracer is not None:
                tracer.op += 1
            t = time.perf_counter()
            try:
                code, report = run_op(item, self.workdir, tracer)
            except Exception:  # an op that raises fails; the run goes on
                durations.append(time.perf_counter() - t)
                self.failed += 1
                traceback.print_exc(file=sys.stderr)
                continue
            durations.append(time.perf_counter() - t)
            problem = self.gate.problem(item, code, report)
            if problem is not None:
                self.failed += 1
                sys.stderr.write(f"perfbench: failed: {problem}\n")
            elif tracer is not None:
                tracer.count("cli.report_bytes", len(report))
                if "--all" in item.flags:
                    p, n, m = item.params
                    tracer.count("walsh.rows_needed", p ** m - 1)
                    tracer.count("differential.ddt_rows_needed", p ** n - 1)
        return durations

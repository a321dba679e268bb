"""In-memory span tracer attached to plateau from the outside.

`Tracer.install()` replaces layer-boundary functions in the plateau module
namespaces with timing wrappers and `uninstall()` puts the originals back.
A function is wrapped under the name its caller looks up at run time: code in
`plateau.plateaued` calls `walsh_row` through its own module global, so the
wrapper goes on `plateau.plateaued.walsh_row`, not on `plateau.walsh`.
Nothing under src/ is edited.

A span is a name, a parent span, a start, an end and the operation it belongs
to.  Spans opened on `run_ordered` worker threads take the submitting span as
parent.  The `ddt_rows` generator is timed per `next()`, so only the time the
generator itself is busy counts as DDT time.  Self time is a span's duration
minus the union of its children's intervals.  Spans stay in memory until
`write_jsonl` is called at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable, Optional

# (module, attribute, span name).  Each row wraps one public function under
# the name one plateau module calls it by.
LAYER_FUNCTIONS = (
    ("cli", "parse_function_file", "fileio.parse"),
    # fileio.write times formatting a table as text, both when `construct`
    # writes it and when write_function_file does; the disk write is in neither
    ("cli", "format_text", "fileio.write"),
    ("fileio", "format_text", "fileio.write"),
    ("cli", "monomial", "constructions.build"),
    ("cli", "gold_trace", "constructions.build"),
    ("cli", "run_analysis", "report"),
    ("report", "preimage_distribution", "distribution.preimage"),
    ("plateaued", "preimage_distribution", "distribution.preimage"),
    ("distribution", "preimage_distribution", "distribution.preimage"),
    ("report", "imbalance", "distribution.imbalance"),
    ("report", "imbalance_defect", "distribution.bounds"),
    ("report", "preimage_bounds", "distribution.bounds"),
    ("report", "classify_almost_balanced", "distribution.bounds"),
    ("report", "surjectivity_certificate", "distribution.bounds"),
    ("report", "image_lower_bound", "distribution.bounds"),
    ("report", "component_profile", "plateaued.profile"),
    ("plateaued", "component_profile", "plateaued.profile"),
    ("report", "dto1_check", "plateaued.check"),
    ("report", "walsh_integrality_check", "plateaued.check"),
    ("report", "ab_walsh_consequences", "plateaued.check"),
    ("report", "apn_structure", "plateaued.check"),
    ("report", "check_diff_two_valued", "plateaued.check"),
    ("report", "diff_summary", "differential.summary"),
    ("plateaued", "diff_summary", "differential.summary"),
    ("report", "fourth_moment", "differential.fourth_moment"),
    ("distribution", "zero_column", "walsh.zero_column"),
    ("plateaued", "zero_column", "walsh.zero_column"),
    ("plateaued", "walsh_row", "walsh.row"),
    ("plateaued", "walsh_rows_signs_p2", "walsh.row"),
    ("differential", "walsh_row", "walsh.row"),
    ("differential", "walsh_rows_signs_p2", "walsh.row"),
    ("walsh", "fwht_last_axis", "walsh.fwht"),
    ("walsh", "dft_p_axes", "walsh.dft"),
)


def _counts_for(module: str, attr: str) -> Optional[Callable[[tuple, object], dict]]:
    """What a wrapped call adds to the counters, from its arguments and result."""
    if attr == "parse_function_file":
        return lambda args, res: {"fileio.parse_bytes": os.path.getsize(args[0])}
    if attr in ("monomial", "gold_trace"):
        return lambda args, res: {"constructions.entries": int(res.values.size)}
    if attr == "zero_column":
        return lambda args, res: {"walsh.zero_column_calls": 1}
    if attr == "fwht_last_axis":
        # every radix-2 stage reads and writes the whole array once
        return lambda args, res: {
            "walsh.fwht_bytes_computed": args[0].nbytes * (args[0].shape[-1].bit_length() - 1)
        }
    if attr in ("walsh_row", "walsh_rows_signs_p2"):
        # walsh_row(table, b) computes one row; walsh_rows_signs_p2(table, bs)
        # computes len(bs)
        rows = (lambda args: 1) if attr == "walsh_row" else (lambda args: len(args[1]))
        keys = ["walsh.rows"]
        if module == "differential":  # only the fourth-moment cross-check
            keys.append("differential.fourth_moment.walsh_rows")
        return lambda args, res: dict.fromkeys(keys, rows(args))
    return None


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """Collects spans and counters for one traced phase of a run."""

    def __init__(self) -> None:
        # each span is [name, parent index or -1, start, end, op, thread id]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, parent: Optional[int] = None) -> int:
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else -1
        rec = [name, parent, 0.0, 0.0, self.op, threading.get_ident()]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(rec)
        stack.append(idx)
        rec[2] = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] += amount

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    # -- wrappers ------------------------------------------------------------

    def _wrap_function(self, orig: Callable, name: str, counts) -> Callable:
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                res = orig(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counts is not None:
                for key, val in counts(args, res).items():
                    tracer.count(key, val)
            return res

        return wrapper

    def _wrap_ddt_rows(self, orig: Callable) -> Callable:
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            gen = orig(*args, **kwargs)
            rows = 0
            try:
                while True:
                    idx = tracer.open("differential.ddt_rows")
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(idx)
                    rows += 1
                    yield item
            finally:
                gen.close()
                tracer.count("differential.ddt_rows", rows)

        return wrapper

    def _wrap_run_ordered(self, orig: Callable) -> Callable:
        tracer = self

        @functools.wraps(orig)
        def wrapper(fn, items, threads):
            parent = tracer.open("util.run_ordered")

            def item_fn(item):
                idx = tracer.open("util.run_ordered.item", parent=parent)
                try:
                    return fn(item)
                finally:
                    tracer.close(idx)

            try:
                return orig(item_fn, items, threads)
            finally:
                tracer.close(parent)
                # run_ordered runs serially for one thread or one item
                workers = 1 if threads <= 1 or len(items) <= 1 else min(threads, len(items))
                start, end = tracer.spans[parent][2:4]
                tracer.count("util.run_ordered.capacity_s", (end - start) * workers)

        return wrapper

    def install(self) -> None:
        def mod(short: str):
            return importlib.import_module(f"plateau.{short}")

        targets = [
            (mod(m), attr, self._wrap_function(getattr(mod(m), attr), name, _counts_for(m, attr)))
            for m, attr, name in LAYER_FUNCTIONS
        ]
        targets.append(
            (mod("differential"), "ddt_rows", self._wrap_ddt_rows(mod("differential").ddt_rows))
        )
        targets.append(
            (mod("plateaued"), "run_ordered", self._wrap_run_ordered(mod("plateaued").run_ordered))
        )
        for module, attr, wrapper in targets:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    # -- results -------------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """(duration, self time) summed per span name."""
        children: dict[int, list[int]] = defaultdict(list)
        for idx, rec in enumerate(self.spans):
            if rec[1] >= 0:
                children[rec[1]].append(idx)
        dur: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for idx, (name, _, start, end, _, _) in enumerate(self.spans):
            covered = union_length(
                (max(self.spans[c][2], start), min(self.spans[c][3], end))
                for c in children.get(idx, ())
            )
            dur[name] += end - start
            own[name] += end - start - covered
        return dur, own

    def write_jsonl(self, path: "str | os.PathLike") -> None:
        with open(path, "w", encoding="ascii") as fh:
            for idx, (name, parent, start, end, op, tid) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": idx, "name": name, "parent": parent, "op": op,
                         "thread": tid, "start": start, "end": end}
                    )
                    + "\n"
                )

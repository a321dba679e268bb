"""plateau benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload large_p2 --seed 1 --seconds 36 --trace 0

A closed loop with one client and no think time drives `plateau.cli.main`
in-process over whole passes of the workload's inputs, stopping at the pass
boundary nearest to --seconds, so every run measures the same mix of inputs.  Every operation's output goes through the correctness gate in
workloads.py.  PLATEAU_THREADS is removed from the environment, so plateau
uses its default thread count.

--trace 0 reports the end-to-end metrics, measured with no tracing:
ops_per_s (operations completed per second over all the timed passes),
op_s.p50 (median over every operation), setup_s (median of several
set-ups, each a fresh-interpreter `import plateau` plus building and writing
the inputs) and peak_rss_mb.  --trace 1 runs one warm-up pass, then
alternates untraced and traced passes for --seconds, and reports the
per-layer metrics of the traced passes, per operation, plus the tracing
overhead.  On large_p2 it adds one pass with PLATEAU_THREADS=1, whose reports
must be byte-identical to the default-thread ones.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it records the run's machine and versions.  Spans, that record
and the metrics also go under .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import bootstrap

SETUP_REPEATS = 9
OUT_DIR = bootstrap.ROOT / ".perfbench_out"
WORK_DIR = bootstrap.ROOT / ".perfbench_work"

_IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import plateau; "
    "print(time.perf_counter() - t)"
)


def _import_seconds() -> float:
    """Time `import plateau` (numpy included) in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(bootstrap.SRC))
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_TIMER],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip())


def end_to_end_metrics(durations, elapsed, setup_samples, peak_rss_mb) -> dict:
    # No tail percentile: full_odd and large_p2 run about 20 operations in a
    # run, too few for any percentile above the median to have ten samples
    # beyond it.
    return {
        "ops_per_s": {"value": len(durations) / elapsed, "unit": "1/s"},
        "op_s.p50": {"value": statistics.median(durations), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def layer_metrics(tracer, ops: int) -> dict:
    """Per-operation layer numbers from one traced phase."""
    dur, own = tracer.totals()
    cnt = tracer.counts

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    per_op = {
        "walsh.fwht_s": (dur["walsh.fwht"], "s/op"),
        "walsh.fwht_bytes_computed": (cnt["walsh.fwht_bytes_computed"], "B/op"),
        "walsh.dft_s": (dur["walsh.dft"], "s/op"),
        "walsh.row.self_s": (own["walsh.row"], "s/op"),
        "walsh.rows": (cnt["walsh.rows"], "rows/op"),
        "walsh.zero_column_s": (dur["walsh.zero_column"], "s/op"),
        "walsh.zero_column_calls": (cnt["walsh.zero_column_calls"], "calls/op"),
        "differential.ddt_s": (dur["differential.ddt_rows"], "s/op"),
        "differential.ddt_rows": (cnt["differential.ddt_rows"], "rows/op"),
        "differential.summary.self_s": (own["differential.summary"], "s/op"),
        "differential.fourth_moment.self_s": (own["differential.fourth_moment"], "s/op"),
        "differential.fourth_moment.walsh_rows": (
            cnt["differential.fourth_moment.walsh_rows"], "rows/op"),
        "plateaued.profile_s": (dur["plateaued.profile"], "s/op"),
        "plateaued.profile.worker_busy_s": (dur["util.run_ordered.item"], "s/op"),
        "plateaued.checks_s": (dur["plateaued.check"], "s/op"),
        "distribution.preimage_s": (dur["distribution.preimage"], "s/op"),
        "distribution.imbalance.self_s": (own["distribution.imbalance"], "s/op"),
        "distribution.bounds_s": (dur["distribution.bounds"], "s/op"),
        "fileio.parse_s": (dur["fileio.parse"], "s/op"),
        "fileio.parse_bytes": (cnt["fileio.parse_bytes"], "B/op"),
        "fileio.write_s": (dur["fileio.write"], "s/op"),
        "constructions.build_s": (dur["constructions.build"], "s/op"),
        "constructions.entries": (cnt["constructions.entries"], "entries/op"),
        "cli.self_s": (own["cli"], "s/op"),
        "cli.report_bytes": (cnt["cli.report_bytes"], "B/op"),
        "report.self_s": (own["report"], "s/op"),
    }
    out = {name: {"value": total / ops, "unit": unit} for name, (total, unit) in per_op.items()}
    out["walsh.rows_per_needed"] = {
        "value": ratio(cnt["walsh.rows"], cnt["walsh.rows_needed"]), "unit": "ratio"}
    out["differential.ddt_passes"] = {
        "value": ratio(cnt["differential.ddt_rows"], cnt["differential.ddt_rows_needed"]),
        "unit": "ratio"}
    out["plateaued.profile.parallel_eff"] = {
        "value": ratio(dur["util.run_ordered.item"], cnt["util.run_ordered.capacity_s"]),
        "unit": "ratio"}
    return out


def _git_sha() -> "str | None":
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=bootstrap.ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _llc() -> "str | None":
    """The last-level cache size as lscpu prints it."""
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    caches = {}
    for line in out.splitlines():
        key, _, val = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            caches[key.strip()] = val.strip()
    return caches.get("L3 cache") or caches.get("L2 cache")


def run_meta(args, threads: int) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "array_2_24_int64_bytes": 8 << 24,
        "llc": _llc(),
    }


def traced_metrics(runner, seconds: float, single_thread_pass: bool):
    """Per-layer metrics and the tracer that produced them.

    After one warm-up pass, untraced and traced passes alternate, stopping at
    the pair boundary nearest to `seconds`, so both sides of
    trace.overhead_frac see the same machine state.
    """
    from tracer import Tracer

    runner.one_pass()
    tracer = Tracer()
    plain = traced = 0
    plain_wall = traced_wall = 0.0
    pairs = 0
    t0 = time.perf_counter()
    while True:
        t = time.perf_counter()
        plain += len(runner.one_pass())
        plain_wall += time.perf_counter() - t
        tracer.install()
        try:
            t = time.perf_counter()
            traced += len(runner.one_pass(tracer))
            traced_wall += time.perf_counter() - t
        finally:
            tracer.uninstall()
        pairs += 1
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / pairs / 2 >= seconds:
            break
    metrics = layer_metrics(tracer, traced)
    metrics["trace.overhead_frac"] = {
        "value": 1 - (traced / traced_wall) / (plain / plain_wall), "unit": "ratio"}
    profile_1t = 0.0
    if single_thread_pass:
        one = Tracer()
        one.install()
        os.environ["PLATEAU_THREADS"] = "1"
        try:
            ops = len(runner.one_pass(one))
        finally:
            del os.environ["PLATEAU_THREADS"]
            one.uninstall()
        profile_1t = one.totals()[0]["plateaued.profile"] / ops
    metrics["plateaued.profile_1t_s"] = {"value": profile_1t, "unit": "s/op"}
    return metrics, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    os.environ.pop("PLATEAU_THREADS", None)
    bootstrap.use_checkout_src()
    import resource

    from plateau._util import thread_count
    from workloads import WORKLOADS, Gate, Runner, load_pins

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    gate = Gate(args.seed, load_pins())
    workdir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_samples = []
        for _ in range(SETUP_REPEATS):
            imp = _import_seconds()
            t = time.perf_counter()
            inputs = WORKLOADS[args.workload](args.seed, workdir)
            setup_samples.append(imp + time.perf_counter() - t)
        runner = Runner(inputs, gate, workdir)
        tracer = None
        if args.trace == 0:
            durations, elapsed = runner.passes(args.seconds)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = end_to_end_metrics(durations, elapsed, setup_samples, peak)
        else:
            metrics, tracer = traced_metrics(runner, args.seconds, args.workload == "large_p2")
        meta = run_meta(args, thread_count())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="ascii") as fh:
        json.dump({"meta": meta, "result": result}, fh, indent=2, sort_keys=True)
    if tracer is not None:
        tracer.write_jsonl(f"{stem}-spans.jsonl")
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Print every metric of every workload, by name and unit, in one table.

    python3 perfbench/summary.py --seed 1            # end to end
    python3 perfbench/summary.py --seed 1 --trace 1  # per layer

Runs run.py once per workload, one after another, for BENCHMARK.json's
run_seconds (the run length its bounds were set for), and also prints each
run's failed fraction (failed / attempted operations).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import bootstrap

HERE = Path(__file__).resolve().parent


def _run_seconds() -> float:
    with open(bootstrap.ROOT / "BENCHMARK.json", encoding="ascii") as fh:
        return json.load(fh)["run_seconds"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bootstrap.use_checkout_src()
    from workloads import WORKLOADS

    seconds = str(_run_seconds())
    status = 0
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", seconds,
             "--trace", str(args.trace)],
            cwd=bootstrap.ROOT, capture_output=True, text=True, timeout=900,
        )
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            print(f"{name}: run.py exited {out.returncode}")
            status = 1
            continue
        result = json.loads(out.stdout.splitlines()[-1])
        attempted, failed = result["attempted"], result["failed"]
        print(f"{name}: correct={result['correct']} attempted={attempted} "
              f"failed={failed} failed_frac={failed / attempted:.4f}")
        for metric, m in sorted(result["metrics"].items()):
            print(f"  {metric:<40} {m['value']:>14.6g} {m['unit']}")
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate pins.json: the exit code and report sha256 of every input.

    python3 perfbench/pin.py

Pins the code in the current checkout, so run it only on a commit whose
reports are known good.  Inputs that do not depend on the seed are pinned
once; seeded random inputs are pinned for seeds 0 .. PIN_SEEDS - 1.  An input
whose exit code differs between seeds is an error, because the gate checks
exit codes for every seed, pinned or not.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

import bootstrap

PIN_SEEDS = 64


def main() -> int:
    bootstrap.use_checkout_src()
    from workloads import PINS_PATH, WORKLOADS, run_op

    exits: dict[str, int] = {}
    digests: dict[str, str] = {}
    workdir = bootstrap.ROOT / ".perfbench_work" / "pin"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for seed in range(PIN_SEEDS):
            for build in WORKLOADS.values():
                for item in build(seed, workdir):
                    key = item.pin_key(seed)
                    if key in digests:
                        continue
                    code, report = run_op(item, workdir)
                    if exits.setdefault(item.name, code) != code:
                        sys.exit(f"{key}: exit {code}, but {exits[item.name]} at another seed")
                    digests[key] = hashlib.sha256(report).hexdigest()
            sys.stderr.write(f"pinned seed {seed}\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(PINS_PATH, "w", encoding="ascii") as fh:
        json.dump({"exit": exits, "sha256": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the two-user values of the default seed's job pool.

    python3 perfbench/record_golden.py

Writes ``golden_two_user.json`` next to this file.  The benchmark checks
that later runs on the default seed stay within 1e-3 of these values, so
record them only from a commit whose output is trusted.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads

NAME = "two-user-sweep"


def main() -> int:
    seed = workloads.DEFAULT_SEED
    workdir = os.path.join(run.WORK, f"golden-{os.getpid()}")
    os.makedirs(run.WORK, exist_ok=True)
    try:
        jobs, argvs, _ = run.setup(NAME, seed, workdir)
        values = {}
        for k, argv in enumerate(argvs):
            status, out, _ = run.call_cli(argv)
            if status != 0:
                print(f"job {k} failed: {status}", file=sys.stderr)
                return 1
            values[str(k)] = [float(line.split(",")[1]) for line in out.strip().split("\n")[1:]]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"workload": NAME, "seed": seed, "values": values}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

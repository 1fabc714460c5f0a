"""Run every benchmark workload, each in its own process, one after another.

    python3 perfbench/all.py --seed N [--seconds 20] [--trace 0|1]

Prints each workload's report (checks, attempted and failed operations, and
every metric by name and unit) as ``run.py`` prints it, and exits non-zero
if any workload fails to run or reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    status = 0
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        print(done.stdout, end="")
        print(done.stderr, end="", file=sys.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            print(f"all.py: workload {workload} failed", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

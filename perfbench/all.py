"""Run every workload untraced and traced with one seed.

    python3 perfbench/all.py --seed 7 [--seconds 30]

Each run prints its summary (sample counts, fail_frac, loss_final), every
metric with its unit, and its JSON result line. --seconds defaults to the
run_seconds of BENCHMARK.json. Exits non-zero if any run failed or reported
an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import HERE, ROOT


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True)
            print(done.stdout, end="", flush=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode or not lines or not json.loads(lines[-1])["correct"]:
                print(done.stderr, end="", file=sys.stderr)
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

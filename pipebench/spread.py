"""Run-to-run spread of the end-to-end metrics.

    python3 pipebench/spread.py [--runs 10] [--first-seed 1] [WORKLOAD ...]

Runs ``run.py`` once per seed on each workload (default: every workload in
BENCHMARK.json) with ``--trace 0`` and the file's ``run_seconds``, then
prints, per metric, the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workloads or [w["name"] for w in bench["workloads"]]:
        values: dict = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed", file=sys.stderr)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload} ({args.runs} runs)")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            if name != "setup_s":
                worst = max(worst, share / bounds[name])
            print(f"  {name:<16} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {share:6.2%}  bound {bounds[name]:.0%}  "
                  f"[{' '.join(f'{v:.4g}' for v in vals)}]")
    print(f"largest spread / bound, setup_s aside: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Check that the benchmark prints every metric BENCHMARK.json names.

    python3 pipebench/smoke.py          # the README's 110-user recipe
    python3 pipebench/smoke.py --all    # every workload in BENCHMARK.json

Runs ``run.py`` with ``--trace 0`` and ``--trace 1`` on each workload and
fails (exit 1) unless every end-to-end and per-layer metric is printed with
its unit, both as a line and in the final JSON object, and no operation
failed. A renamed or dropped metric therefore fails here quickly.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def problems(stdout: str, expected: dict) -> list:
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    found = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        found.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed"):
        found.append(f"{result.get('failed')} of {result.get('attempted')} operations failed")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        found.append(f"metrics differ: missing {sorted(set(expected) - set(metrics))}, "
                     f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            found.append(f"{name}: {got} in the JSON, expected unit {unit}")
        if not any(re.fullmatch(rf"{re.escape(name)} = \S+ {re.escape(unit)}", line)
                   for line in lines):
            found.append(f"{name}: no '{name} = <value> {unit}' line")
    return found


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--all", action="store_true", help="every workload in BENCHMARK.json")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    workloads = [w["name"] for w in bench["workloads"]] if args.all else ["smoke"]
    failures = 0
    for workload in workloads:
        for trace in (0, 1):
            cmd = [*bench["command"], "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(bench["run_seconds"]),
                   "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(done.stdout)
            found = ([f"exit code {done.returncode}: {done.stderr[-2000:]}"]
                     if done.returncode else problems(done.stdout, expected[trace]))
            for p in found:
                print(f"SMOKE FAIL {workload} trace {trace}: {p}")
            failures += len(found)
    print("smoke: ok" if not failures else f"smoke: {failures} problem(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

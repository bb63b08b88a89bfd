"""Wall time and peak RSS of one CLI step on two source trees, alternating.

    python tests/step_rss.py [--runs N] [--out DIR] SRC_A SRC_B CONFIG STEP [ARGS...]

SRC_A and SRC_B are checkout roots; each side runs ``python -m
multicoord.cli STEP --config CONFIG [ARGS...]`` with ``PYTHONPATH`` set to
its ``src/`` and ``PYTHONDONTWRITEBYTECODE=1``, as the benchmark runs the
CLI. Run k takes A then B when k is even and B then A when it is odd, after
one untimed ``--help`` start per side. A run's wall time is taken around
the child and its peak RSS is ``ru_maxrss`` from ``os.wait4`` on that
child. The script prints every run, then each side's median and quartiles
of both, and in how many runs B read below A.

With ``--out DIR``, side A writes to DIR/a and side B to DIR/b (the step's
``--out``), so ``python tests/same_bodies.py DIR/a DIR/b`` can compare
them; a step after ``build`` needs its inputs there first. Without it,
both sides write to the config's ``out``.

A child's peak RSS starts from the peak of the process that spawned it,
so this script imports no numpy and no multicoord. It exits 1 when a run
fails, after printing the end of that run's standard error.
"""

import argparse
import os
import statistics
import subprocess
import sys
import time


def spawn(root: str, argv: list) -> tuple[float, float, int, bytes]:
    """(wall s, peak RSS MB, exit code, stderr) of one CLI child on root's src/."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONDONTWRITEBYTECODE="1")
    t0 = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "multicoord.cli", *argv], env=env,
                             stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    err = child.stderr.read()
    child.stderr.close()
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, child.returncode, err


def summary(values: list) -> str:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return f"median {median:.4g} (quartiles {q1:.4g}-{q3:.4g}, range {min(values):.4g}-{max(values):.4g})"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=6, help="runs per side (default 6)")
    ap.add_argument("--out", help="write side A to OUT/a and side B to OUT/b")
    ap.add_argument("src_a")
    ap.add_argument("src_b")
    ap.add_argument("config")
    ap.add_argument("step")
    ap.add_argument("args", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    sides = {"A": args.src_a, "B": args.src_b}
    step = [args.step, "--config", os.path.abspath(args.config), *args.args]
    for root in sides.values():
        spawn(root, ["--help"])
    found = {side: {"wall": [], "rss": []} for side in sides}
    for k in range(args.runs):
        for side in ("A", "B") if k % 2 == 0 else ("B", "A"):
            out = ["--out", os.path.join(args.out, side.lower())] if args.out else []
            wall, rss, code, err = spawn(sides[side], step + out)
            print(f"run {k} {side}: wall {wall:.3f} s, peak RSS {rss:.2f} MB, exit {code}",
                  flush=True)
            if code != 0:
                sys.stderr.write(err.decode(errors="replace")[-2000:])
                return 1
            found[side]["wall"].append(wall)
            found[side]["rss"].append(rss)
    for side, root in sides.items():
        print(f"{side} {root}: wall s {summary(found[side]['wall'])}; "
              f"peak RSS MB {summary(found[side]['rss'])}")
    for key in ("wall", "rss"):
        lower = sum(b < a for a, b in zip(found["A"][key], found["B"][key]))
        print(f"B below A in {lower} of {args.runs} runs on {key}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

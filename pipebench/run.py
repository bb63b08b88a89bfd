"""Pipeline benchmark for multicoord.

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. A run measures several input
instances (workloads.py says how many ``--seconds`` holds). For each, it
generates the inputs from ``--seed`` and the instance number (gen.py),
then runs the ``multicoord`` CLI subcommands one after another, each in its
own subprocess (``python -m multicoord.cli`` with ``PYTHONPATH=src``): a
closed loop with one client and no concurrency. Each subcommand's wall time
is taken around the child and its peak RSS from ``os.wait4`` on that child
(``RUSAGE_CHILDREN`` would keep the maximum over every earlier child). Its
artifacts are checked (checks.py) outside the timed part. One untimed
``--help`` start warms the page and byte-code caches before the first
instance. Each end-to-end metric is the median over the instances.

A child's peak RSS starts from the peak of the process that spawned it, so
this process only orchestrates: it imports neither numpy nor multicoord,
and the generator and the in-process runs are children of their own.

With ``--trace 1`` the run reports per-layer metrics of one instance
instead: the median start cost of the CLI; an untraced and then a traced
in-process run of the same steps through ``pipeline.run_*`` (inproc.py),
each in a fresh process, the traced one with spans around the public
functions the steps call (spans.py); then the timed CLI sequence once more,
for the walls and peak RSS of single subcommands.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric with its unit. One operation is one subcommand (or
in-process step) plus the check of its output. Files go to
``.pipebench_work/`` in the checkout. Without a ``src/multicoord`` package,
the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import spans
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".pipebench_work")
STARTUP_REPEATS = 5

E2E_UNITS = {"pipeline_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "recovery_nmi": "1"}


class Run:
    """One benchmark invocation: its files, children and operation counts."""

    def __init__(self, workload: str):
        self.workload = workload
        self.w = WORKLOADS[workload]
        self.dir = os.path.join(WORK, workload)
        self.out = os.path.join(self.dir, "out")
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.attempted = 0
        self.failed = 0

    def spawn(self, cmd: list, log: str) -> tuple[float, float, int]:
        """Run one child to completion; returns (wall s, peak RSS MB, exit
        code). Its output goes to ``logs/<log>.out`` and ``.err``.
        """
        log = os.path.join(self.dir, "logs", log)
        os.makedirs(os.path.dirname(log), exist_ok=True)
        with open(log + ".out", "wb") as out, open(log + ".err", "wb") as err:
            t0 = time.perf_counter()
            child = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.dir)
            _, status, usage = os.wait4(child.pid, 0)
            wall = time.perf_counter() - t0
        child.returncode = os.waitstatus_to_exitcode(status)
        if child.returncode != 0:
            with open(log + ".err", encoding="utf-8", errors="replace") as fh:
                sys.stderr.write(fh.read()[-2000:])
        return wall, usage.ru_maxrss / 1024.0, child.returncode

    def output(self, log: str) -> dict:
        """The JSON object a child printed last."""
        with open(os.path.join(self.dir, "logs", log + ".out"), encoding="utf-8") as fh:
            return json.loads(fh.read().strip().splitlines()[-1])

    def cli(self, argv: tuple) -> tuple[float, float, int]:
        cmd = [sys.executable, "-m", "multicoord.cli", argv[0]]
        if argv[0] != "--help":
            cmd += ["--config", os.path.join(self.dir, "run.json"), *argv[1:]]
        return self.spawn(cmd, "_".join(argv).lstrip("-").replace(":", "-"))

    def operation(self, argv: tuple, exit_code: int) -> None:
        """Count one operation: a subcommand plus the check of its output."""
        self.attempted += 1
        problems = [f"exit code {exit_code}"] if exit_code != 0 else []
        if not problems:
            try:
                problems = checks.check(self.out, argv)
                if argv == ("detect", "--mode", "unfl-sum"):
                    found = self.recovery()
                    if found < self.w.recovery_floor:
                        problems.append(f"recovery_nmi {found:.4f} below "
                                        f"{self.w.recovery_floor}")
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        if problems:
            self.failed += 1
            print(f"FAILED {' '.join(argv)}: {'; '.join(problems)}", file=sys.stderr)

    def recovery(self) -> float:
        """NMI of the unfl-sum partition against the planted truth."""
        try:
            found = checks.partition(self.out, "unfl-sum")
        except OSError:
            return 0.0
        return checks.nmi(found, checks.read_truth(os.path.join(self.dir, "truth.tsv")))

    # -------------------------------------------------------------- set-up

    def setup(self, seed: int, instance: int) -> tuple[float, float | None, float | None]:
        """Generate one instance's inputs and, where the workload says so,
        build it. Returns (setup s, build s, build peak RSS MB); the build
        values are None without a set-up build.
        """
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        log = f"gen{instance}"
        wall, _, code = self.spawn([sys.executable, os.path.join(HERE, "gen.py"), self.workload,
                                    str(seed), str(instance), self.dir], log)
        if code != 0:
            raise RuntimeError("input generation failed")
        for path, digest in sorted(self.output(log).items()):
            print(f"instance {instance} input {path} sha256 {digest}")
        if not self.w.build_in_setup:
            return wall, None, None
        build, rss, code = self.cli(("build",))
        self.operation(("build",), code)
        return wall + build, build, rss

    # -------------------------------------------------------------- timed CLI run

    def sequence(self) -> dict:
        """Run the timed CLI sequence once; returns the walls and peak RSS
        per stage (the RSS of the first subcommand of each kind).
        """
        m = {"pipeline_s": 0.0, "detect_s": 0.0, "analyze_s": 0.0, "peak_rss_mb": 0.0,
             "rss": {}}
        for argv in self.w.timed():
            wall, rss, code = self.cli(argv)
            self.operation(argv, code)
            m["pipeline_s"] += wall
            m["peak_rss_mb"] = max(m["peak_rss_mb"], rss)
            kind = "detect_multi" if argv == ("detect", "--mode", "multi") else argv[0]
            m["rss"].setdefault(kind, rss)
            if kind in ("build", "detect_multi"):
                m[f"{kind}_s"] = wall
            if argv[0] == "detect":
                m["detect_s"] += wall
            elif argv[0] != "build":
                m["analyze_s"] += wall
        return m

    def run_instance(self, seed: int, instance: int) -> dict:
        """Set up one instance and run the timed sequence on it."""
        m = {"setup_s": self.setup(seed, instance)[0], **self.sequence()}
        m["recovery_nmi"] = self.recovery()
        return m

    def measure(self, seed: int, seconds: float) -> dict:
        """Each metric is the median over the instances ``seconds`` holds."""
        os.makedirs(self.dir, exist_ok=True)
        self.cli(("--help",))
        found = [self.run_instance(seed, i) for i in range(self.w.instances(seconds))]
        print(f"instances {len(found)}, {len(self.w.timed())} timed subcommands each")
        return {name: (statistics.median(m[name] for m in found), unit)
                for name, unit in E2E_UNITS.items()}

    # -------------------------------------------------------------- traced run

    def in_process(self, traced: bool) -> dict:
        log = f"inproc{int(traced)}"
        _, _, code = self.spawn([sys.executable, os.path.join(HERE, "inproc.py"),
                                 self.workload, self.dir, str(int(traced))], log)
        result = self.output(log) if code == 0 else {"seconds": 0.0, "failed": None}
        for i, argv in enumerate(self.w.timed()):
            self.operation(argv, 1 if result["failed"] is None or i in result["failed"] else 0)
        return result

    def measure_layers(self, seed: int) -> tuple[dict, list]:
        _, setup_build_s, build_rss = self.setup(seed, 0)
        startup = statistics.median(self.cli(("--help",))[0] for _ in range(STARTUP_REPEATS))
        untraced = self.in_process(traced=False)
        traced = self.in_process(traced=True)
        if "metrics" not in traced:  # the traced process died; its steps count as failed
            traced["metrics"], traced["absent"] = spans.layer_metrics(spans.Tracer())
        metrics = {name: tuple(v) for name, v in traced["metrics"].items()}
        walls = self.sequence()
        rss = {"build": build_rss, **walls["rss"]}
        metrics.update({
            "cli.startup_s": (startup, "s"),
            "cli.invocations": (len(self.w.timed()), "count"),
            "cli.build_s": (walls.get("build_s", setup_build_s), "s"),
            "cli.detect_s": (walls["detect_s"], "s"),
            "cli.detect_multi_s": (walls["detect_multi_s"], "s"),
            "cli.analyze_s": (walls["analyze_s"], "s"),
            "cli.build_rss_mb": (rss["build"], "MB"),
            "cli.detect_multi_rss_mb": (rss["detect_multi"], "MB"),
            "cli.characterize_rss_mb": (rss["characterize"], "MB"),
            "trace.overhead_s": (traced["seconds"] - untraced["seconds"], "s"),
        })
        return metrics, traced["absent"]


def report_attribution(metrics: dict) -> None:
    """Rank where the traced run spent its time, CLI start cost included."""
    shares = {m.split(".")[0]: v for m, (v, _) in metrics.items() if m.endswith(".self_s")}
    shares["cli (startup x invocations)"] = (metrics["cli.startup_s"][0]
                                             * metrics["cli.invocations"][0])
    total = sum(shares.values())
    print("attribution (self seconds of the traced run, plus the CLI start cost):")
    for name, secs in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<28} {secs:9.3f} s  {secs / total:6.1%}")
    kept, raw = metrics["filternet.edges_kept"][0], metrics["netbuild.edges_raw"][0]
    print(f"filternet.kept_ratio base: {kept} kept of {raw} raw edges")
    print("characterize.edges_scanned is computed, not measured: the graph's edge count "
          "summed over community_metrics calls")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    run = Run(args.workload)
    if not os.path.isfile(os.path.join(SRC, "multicoord", "cli.py")):
        print(f"no multicoord package under {SRC}", file=sys.stderr)
        return 2

    seed = args.seed & 0xFFFF_FFFF_FFFF_FFFF
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    if args.trace:
        metrics, absent = run.measure_layers(seed)
        report_attribution(metrics)
        for name in absent:
            print(f"absent: {name} (not found in this version; reported as 0)")
    else:
        metrics = run.measure(seed, args.seconds)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_ratio = {run.failed / run.attempted:.6g} 1 "
          f"({run.failed} failed of {run.attempted} operations)")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

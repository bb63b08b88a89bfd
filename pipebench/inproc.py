"""A workload's timed steps in one process, through ``pipeline.run_*``.

    python3 pipebench/inproc.py WORKLOAD DIR TRACE

Reads ``DIR/run.json`` (written by gen.py) and calls the stage function of
each step the CLI run would start a subprocess for. With TRACE 1, spans
wrap the public functions those steps call (spans.py). Prints one JSON
object: ``seconds`` (the steps' summed wall time), ``failed`` (indices of
steps that raised), and, when traced, ``metrics`` and ``absent``.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback

from workloads import WORKLOADS

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))
from multicoord import pipeline  # noqa: E402

import spans  # noqa: E402

STAGES = {
    "build": lambda cfg, a: pipeline.run_build(cfg),
    "detect": lambda cfg, a: pipeline.run_detect(cfg, a[2]),
    "compare": lambda cfg, a: pipeline.run_compare(cfg, a[2], a[4]),
    "characterize": lambda cfg, a: pipeline.run_characterize(cfg, a[2], a[4]),
}


def main(name: str, run_dir: str, traced: bool) -> dict:
    tracer = spans.Tracer()
    if traced:
        spans.install(tracer)
    seconds, failed = 0.0, []
    for i, argv in enumerate(WORKLOADS[name].timed()):
        t0 = time.perf_counter()
        try:
            cfg = pipeline.RunConfig.from_file(os.path.join(run_dir, "run.json"))
            tracer.span(f"pipeline.run_{argv[0]}", STAGES[argv[0]], cfg, argv)
        except Exception:  # the step counts as failed; the run goes on
            traceback.print_exc()
            failed.append(i)
        seconds += time.perf_counter() - t0
    result = {"seconds": seconds, "failed": failed}
    if traced:
        metrics, result["absent"] = spans.layer_metrics(tracer)
        result["metrics"] = {k: list(v) for k, v in metrics.items()}
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], sys.argv[2], sys.argv[3] == "1")))

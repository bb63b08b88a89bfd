"""Peak RSS of the build's stages, in process.

    python tests/stage_rss.py SRC CONFIG

Runs ``pipeline.run_build`` of the checkout root SRC, with SRC's ``src/``
first on ``sys.path``, on the run config CONFIG, into a temporary ``out``
that is removed afterwards. It wraps ``pipeline.parse_events`` and
``pipeline.build_multiplex``, the module-level names that
``pipebench/spans.py`` wraps for those stages, and prints ``ru_maxrss``, the
process's peak RSS so far, when each call returns: once after the parse,
and once per ``build_multiplex`` call with the layers that call built. The
last line is the peak of the whole step, writes included.

``ru_maxrss`` never falls, so a stage that reads the same as the one before
did not raise the peak. Compare two trees in two processes, one per tree;
``tests/step_rss.py`` times the CLI process itself.
"""

import argparse
import os
import resource
import sys
import tempfile


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reporting(fn, label):
    """fn, printing the peak RSS under label(kwargs) when a call returns."""
    def wrapped(*args, **kwargs):
        result = fn(*args, **kwargs)
        print(f"{label(kwargs)}: {peak_mb():.2f} MB", flush=True)
        return result
    return wrapped


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", help="checkout root whose src/ is imported")
    ap.add_argument("config", help="run config of the build")
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True  # leave SRC as it is
    sys.path.insert(0, os.path.join(os.path.abspath(args.src), "src"))
    from multicoord import pipeline

    pipeline.parse_events = reporting(pipeline.parse_events, lambda kw: "parse_events")
    pipeline.build_multiplex = reporting(
        pipeline.build_multiplex,
        lambda kw: "build_multiplex " + ",".join(kw.get("layers") or ["all"]))
    cfg = pipeline.RunConfig.from_file(args.config)
    print(f"start: {peak_mb():.2f} MB", flush=True)
    with tempfile.TemporaryDirectory() as out:
        cfg.out = out
        pipeline.run_build(cfg)
    print(f"run_build: {peak_mb():.2f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())

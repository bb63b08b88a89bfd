"""Peak RSS of a step's stages, in process.

    python tests/stage_rss.py SRC CONFIG
    python tests/stage_rss.py SRC CONFIG detect --mode M
    python tests/stage_rss.py SRC CONFIG characterize --ref B --other A

Runs one step of the checkout root SRC, with SRC's ``src/`` first on
``sys.path``, on the run config CONFIG, and prints ``ru_maxrss``, the
process's peak RSS so far, when each wrapped call returns. The last line is
the peak of the whole step, writes included.

- ``build`` (the default) runs ``pipeline.run_build`` into a temporary
  ``out`` that is removed afterwards. It reports after the parse
  (``pipeline.parse_events``), after the stoplist pass
  (``pipeline.apply_stoplists``, which runs only when the config names a
  stoplist), after actor selection (``pipeline.select_users``) and after
  each ``pipeline.build_multiplex`` call, with the layers that call built.
- ``detect`` and ``characterize`` run ``pipeline.run_detect`` and
  ``pipeline.run_characterize`` on the config's ``out``, as the CLI steps
  do, so the build (and for characterize, the two detects) must have run
  there. They report after each edge list read (``reports.read_edges_tsv``,
  with its file name), after ``pipeline.flatten_union``,
  ``pipeline.flatten_intersection`` and ``community._supra_graph``, after
  Louvain (``pipeline.louvain`` and ``pipeline.generalized_louvain``),
  after each edge list write (``reports.write_edges_tsv``, with its file
  name) and after ``pipeline.node_metrics``. Inside each node profile they
  also report after ``characterize._local_clustering`` on the whole graph,
  after ``netbuild._component_labels`` as ``GraphCSR.eigen`` calls it on
  the whole graph, after ``GraphCSR.eigen`` (its ``_lanczos`` solves, one
  per component) and after ``characterize._pagerank``; the per-community
  calls of ``community_metrics`` print nothing, except for a community of
  every node, whose subgraph is the whole graph.

These are the module-level names that ``pipebench/spans.py`` wraps for
those stages, ``community._supra_graph``, which ``generalized_louvain``
calls, and the node profile kernels. ``ru_maxrss`` never falls, so a
stage that reads the same as the one before did not raise the peak.
Compare two trees in two processes, one per tree; ``tests/step_rss.py``
times the CLI process itself.
"""

import argparse
import os
import resource
import sys
import tempfile
from functools import cached_property


def peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reporting(fn, label):
    """fn, printing the peak RSS under label(args, kwargs) when a call
    returns, unless the label is None."""
    def wrapped(*args, **kwargs):
        result = fn(*args, **kwargs)
        if (text := label(args, kwargs)) is not None:
            print(f"{text}: {peak_mb():.2f} MB", flush=True)
        return result
    return wrapped


def wrap(module, name, label=None):
    """Replace module.name by its reporting wrapper, labelled with the name
    unless label(args, kwargs) gives another."""
    setattr(module, name, reporting(getattr(module, name), label or (lambda a, kw: name)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", help="checkout root whose src/ is imported")
    ap.add_argument("config", help="run config of the step")
    ap.add_argument("step", nargs="?", default="build", choices=("build", "detect", "characterize"))
    ap.add_argument("--mode", help="detect mode")
    ap.add_argument("--layer", help="layer of detect --mode mono")
    ap.add_argument("--ref", help="characterize reference approach (side B)")
    ap.add_argument("--other", help="characterize baseline approach (side A)")
    args = ap.parse_args(argv)
    if args.step == "detect" and not args.mode:
        ap.error("detect needs --mode")
    if args.step == "characterize" and not (args.ref and args.other):
        ap.error("characterize needs --ref and --other")
    sys.dont_write_bytecode = True  # leave SRC as it is
    sys.path.insert(0, os.path.join(os.path.abspath(args.src), "src"))
    from multicoord import characterize, community, pipeline, reports

    cfg = pipeline.RunConfig.from_file(args.config)
    if args.step == "build":
        for name in ("parse_events", "apply_stoplists", "select_users"):
            wrap(pipeline, name)
        wrap(pipeline, "build_multiplex",
             lambda a, kw: "build_multiplex " + ",".join(kw.get("layers") or ["all"]))
    else:
        for name in ("read_edges_tsv", "write_edges_tsv"):  # _write writes <name>.tmp
            wrap(reports, name, lambda a, kw, name=name:
                 f"{name} {os.path.basename(a[0]).removesuffix('.tmp')}")
        for module, name in ((pipeline, "flatten_union"), (pipeline, "flatten_intersection"),
                             (community, "_supra_graph"), (pipeline, "louvain"),
                             (pipeline, "generalized_louvain"), (pipeline, "node_metrics"),
                             (characterize, "_component_labels"), (characterize, "_pagerank")):
            wrap(module, name)
        # a whole graph's profile, not a community's induced subgraph
        whole = characterize.GraphCSR
        wrap(characterize, "_local_clustering",
             lambda a, kw: "_local_clustering" if isinstance(a[0], whole) else None)
        eigen = cached_property(reporting(characterize.GraphCSR.eigen.func, lambda a, kw: "eigen"))
        eigen.__set_name__(characterize.GraphCSR, "eigen")
        characterize.GraphCSR.eigen = eigen
    print(f"start: {peak_mb():.2f} MB", flush=True)
    if args.step == "build":
        with tempfile.TemporaryDirectory() as out:
            cfg.out = out
            pipeline.run_build(cfg)
    elif args.step == "detect":
        pipeline.run_detect(cfg, args.mode, layer=args.layer)
    else:
        pipeline.run_characterize(cfg, args.ref, args.other)
    print(f"run_{args.step}: {peak_mb():.2f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())

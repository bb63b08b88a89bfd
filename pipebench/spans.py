"""Spans around the public functions each pipeline stage calls.

Wrappers are installed in the namespace where each caller looks a name up:
``pipeline`` for the stage functions it imported, ``reports`` for the
readers and writers (``pipeline`` reaches them as ``reports.<name>`` and
``ReportContext`` calls them as module globals), ``community`` for the
modularity functions its ``quality()`` closures call once per pass, and
``netbuild`` for the window grid. A target that a later version no longer
has is reported as absent, not as an error. Spans are kept in memory and
summarized once the traced run ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict


def _n_edges(g) -> int:
    n = getattr(g, "n_edges", None)
    return int(n) if n is not None else len(g.edges)


def _net_edges(net) -> int:
    return sum(_n_edges(g) for g in net.layers.values())


class Tracer:
    """Spans as (name, start, end, parent index) plus counters."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self.absent: list = []
        self._stack: list = []

    def span(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, module: str, attr: str, name: str, count=None) -> None:
        try:
            ns = importlib.import_module(f"multicoord.{module}")
        except ImportError:
            ns = None
        orig = getattr(ns, attr, None)
        if orig is None:
            self.absent.append(f"{module}.{attr}")
            return

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            result = self.span(name, orig, *args, **kwargs)
            if count is not None:
                try:
                    count(self.counts, args, result)
                except (AttributeError, TypeError, KeyError, IndexError):
                    self.absent.append(f"counts of {module}.{attr}")
            return result

        setattr(ns, attr, traced)

    # -------------------------------------------------------------- summary

    def totals(self) -> tuple[dict, dict, dict]:
        """Inclusive seconds and call count per span name, and self
        seconds per module (span duration minus its children's).
        """
        incl: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        child: list = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            incl[name] += t1 - t0
            calls[name] += 1
            if parent is not None:
                child[parent] += t1 - t0
        module_self: dict = defaultdict(float)
        for (name, t0, t1, _), kids in zip(self.spans, child):
            module_self[name.split(".", 1)[0]] += (t1 - t0) - kids
        return incl, calls, module_self


# ------------------------------------------------------------------ counters

def _on_parse(c, args, log):
    c["ingest.events"] += len(log.events)
    c["ingest.rejects"] += len(log.rejects)


def _on_select(c, args, actors):
    c["ingest.actors"] += len(actors.actors)


def _on_windows(c, args, windows):
    c["netbuild.windows"] += len(windows)


def _on_build(c, args, net):
    c["netbuild.edges_raw"] += _net_edges(net)


def _on_filter(c, args, result):
    c["filternet.edges_in"] += _net_edges(args[0])
    c["filternet.edges_kept"] += _net_edges(result[0])


def _on_louvain(c, args, p):
    if p.scope == "unfl-sum":
        c["community.passes_unfl_sum"] += len(p.trace)


def _on_multi(c, args, p):
    c["community.passes_multi"] += len(p.trace)
    c["community.supra_nodes"] += len(p.assignment)
    c["community.n_communities_multi"] += p.n_communities()


def _on_overlap(c, args, O):
    c["compare.k_max"] = max(c["compare.k_max"], O.k_a, O.k_b)


def _on_community_metrics(c, args, m):
    c["characterize.edges_scanned"] += _n_edges(args[0])


def _on_write(c, args, _):
    c["reports.bytes_written"] += os.path.getsize(args[0])


# (namespace, attribute, span name, counter)
TARGETS = (
    ("pipeline", "parse_events", "ingest.parse", _on_parse),
    ("pipeline", "load_stoplist", "ingest.stoplist", None),
    ("pipeline", "apply_stoplists", "ingest.stoplist", None),
    ("pipeline", "select_users", "ingest.select", _on_select),
    ("netbuild", "window_slices", "netbuild.windows", _on_windows),
    ("pipeline", "build_multiplex", "netbuild.build", _on_build),
    ("pipeline", "filter_multiplex", "filternet.filter", _on_filter),
    ("pipeline", "louvain", "community.louvain", _on_louvain),
    ("pipeline", "generalized_louvain", "community.generalized_louvain", _on_multi),
    ("pipeline", "flatten_union", "community.flatten", None),
    ("pipeline", "flatten_intersection", "community.flatten", None),
    ("pipeline", "restrict_to_layer", "community.restrict", None),
    ("pipeline", "modularity", "community.quality", None),
    ("pipeline", "multislice_modularity", "community.quality", None),
    ("community", "modularity", "community.quality", None),
    ("community", "multislice_modularity", "community.quality", None),
    ("pipeline", "overlap_matrix", "compare.overlap", _on_overlap),
    ("pipeline", "hungarian_match", "compare.match", None),
    ("pipeline", "label_communities", "compare.labels", None),
    ("pipeline", "label_nodes", "compare.labels", None),
    ("pipeline", "nmi", "compare.nmi", None),
    ("pipeline", "actor_coverage", "compare.coverage", None),
    ("pipeline", "edge_coverage", "compare.coverage", None),
    ("pipeline", "pearson_degree_correlation", "compare.coverage", None),
    ("pipeline", "community_metrics", "characterize.community_metrics",
     _on_community_metrics),
    ("pipeline", "node_metrics", "characterize.node_metrics", None),
    ("pipeline", "metric_cosine", "characterize.cosine", None),
    ("pipeline", "pca_project", "characterize.pca", None),
    ("pipeline", "brunner_munzel", "characterize.bm", None),
    ("reports", "read_edges_tsv", "reports.read", None),
    ("reports", "read_partition_tsv", "reports.read", None),
    ("reports", "read_multiplex_partition_tsv", "reports.read", None),
    ("reports", "read_records", "reports.read", None),
    ("reports", "write_edges_tsv", "reports.write", _on_write),
    ("reports", "write_partition_tsv", "reports.write", _on_write),
    ("reports", "write_multiplex_partition_tsv", "reports.write", _on_write),
    ("reports", "write_overlap_tsv", "reports.write", _on_write),
    ("reports", "write_records", "reports.write", _on_write),
    ("reports", "layer_stats", "reports.stats", None),
    ("reports", "_n_components", "reports.components", None),
)

# per-layer metric -> span name whose inclusive seconds it reports
SECONDS = {
    "ingest.parse_s": "ingest.parse",
    "ingest.stoplist_s": "ingest.stoplist",
    "ingest.select_s": "ingest.select",
    "netbuild.build_s": "netbuild.build",
    "filternet.filter_s": "filternet.filter",
    "community.louvain_s": "community.louvain",
    "community.generalized_louvain_s": "community.generalized_louvain",
    "community.flatten_s": "community.flatten",
    "community.quality_s": "community.quality",
    "compare.overlap_s": "compare.overlap",
    "compare.match_s": "compare.match",
    "compare.labels_s": "compare.labels",
    "compare.nmi_s": "compare.nmi",
    "compare.coverage_s": "compare.coverage",
    "characterize.community_metrics_s": "characterize.community_metrics",
    "characterize.node_metrics_s": "characterize.node_metrics",
    "characterize.pca_s": "characterize.pca",
    "characterize.bm_s": "characterize.bm",
    "reports.read_s": "reports.read",
    "reports.write_s": "reports.write",
}
CALLS = {
    "community.louvain_calls": "community.louvain",
    "community.quality_calls": "community.quality",
}
COUNTS = {"ingest.events": "count", "ingest.rejects": "count", "ingest.actors": "count",
          "netbuild.windows": "count", "netbuild.edges_raw": "count",
          "filternet.edges_kept": "count", "community.passes_multi": "count",
          "community.passes_unfl_sum": "count", "community.supra_nodes": "count",
          "community.n_communities_multi": "count", "compare.k_max": "count",
          # computed, not measured: edges of the graph summed over community_metrics calls
          "characterize.edges_scanned": "count",
          "reports.bytes_written": "B"}
MODULES = ("pipeline", "ingest", "netbuild", "filternet", "community", "compare",
           "characterize", "reports")


def install(tracer: Tracer) -> None:
    for module, attr, name, count in TARGETS:
        tracer.wrap(module, attr, name, count)


def layer_metrics(tracer: Tracer) -> tuple[dict, list]:
    """Per-layer values from a finished traced run, plus what was absent:
    the metrics whose every wrap target is missing, and the functions whose
    results no longer have the attributes a counter reads.
    """
    incl, calls, module_self = tracer.totals()
    present = {name for module, attr, name, _ in TARGETS
               if f"{module}.{attr}" not in tracer.absent}
    out, absent = {}, []
    for metric, span in SECONDS.items():
        out[metric] = (incl[span], "s")
        if span not in present:
            absent.append(metric)
    for metric, span in CALLS.items():
        out[metric] = (calls[span], "count")
        if span not in present:
            absent.append(metric)
    for metric, unit in COUNTS.items():
        out[metric] = (int(tracer.counts[metric]), unit)
    edges_in = tracer.counts["filternet.edges_in"]
    kept = tracer.counts["filternet.edges_kept"]
    out["filternet.kept_ratio"] = (kept / edges_in if edges_in else 0.0, "1")
    for module in MODULES:
        out[f"{module}.self_s"] = (module_self[module], "s")
    absent += sorted({a for a in tracer.absent if a.startswith("counts of ")})
    return out, absent

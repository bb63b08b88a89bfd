"""Two-stage edge filtering for co-action layers.

Stage one keeps edges backed by at least th_a shared distinct items
(co_actions), where th_a is either fixed or auto-selected as the smallest
integer whose surviving node count fits a node budget. Stage two keeps
edges with weight at or above a threshold, by default the median weight of
the stage-one graph. filter_layer runs both stages, each a boolean mask
over the graph's edge rows; nodes left without an edge are pruned after
each stage. FilterConfig is the one place that checks th_a and the weight
rule.

The median is the lower median: element (n - 1) // 2 of the sorted
weights, so it is always an actual edge weight and the kept set is never
empty when the input has edges.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import InvariantError
from .netbuild import LayerGraph, MultiplexNetwork

logger = logging.getLogger(__name__)

WEIGHT_RULES = ("median", "fixed")


@dataclass(frozen=True)
class FilterConfig:
    """Filtering knobs for one pass over a multiplex network."""

    th_a: int | None = None        # None selects auto_threshold
    max_nodes: int = 20000         # node budget for the auto rule
    weight_rule: str = "median"
    weight_value: float | None = None  # required when weight_rule == "fixed"

    def __post_init__(self):
        if self.th_a is not None and self.th_a < 1:
            raise ValueError(f"th_a must be >= 1, got {self.th_a}")
        if self.max_nodes < 1:
            raise ValueError(f"max_nodes must be >= 1, got {self.max_nodes}")
        if self.weight_rule not in WEIGHT_RULES:
            raise ValueError(f"weight_rule must be one of {WEIGHT_RULES}, got {self.weight_rule!r}")
        if self.weight_rule == "fixed" and self.weight_value is None:
            raise ValueError("weight_rule 'fixed' needs weight_value")


@dataclass
class FilterReport:
    """Before/after sizes for one layer, one row of the filtering table."""

    layer: str
    th_a: int
    th_a_auto: bool
    weight_rule: str
    weight_threshold: float | None
    nodes_raw: int = 0
    edges_raw: int = 0
    nodes_actions: int = 0
    edges_actions: int = 0
    nodes_final: int = 0
    edges_final: int = 0


def auto_threshold(g: LayerGraph, max_nodes: int) -> int:
    """Smallest th_a whose filtered graph has at most max_nodes nodes.

    A node survives th_a when its largest co_actions reaches th_a, so with
    those per-node maxima sorted in descending order, the answer is one
    above the (max_nodes + 1)-th of them, or 1 when every node fits.
    """
    if max_nodes < 1:
        raise ValueError(f"max_nodes must be >= 1, got {max_nodes}")
    best = np.zeros(g.n_nodes, dtype=np.int64)
    np.maximum.at(best, g.u, g.co_actions)
    np.maximum.at(best, g.v, g.co_actions)
    best = np.sort(best[best > 0])[::-1]
    if len(best) <= max_nodes:
        return 1
    if best[max_nodes] == best[0]:
        logger.warning("layer %s: no threshold keeps any edge within %d nodes; "
                       "using %d", g.layer, max_nodes, best[0] + 1)
    return int(best[max_nodes]) + 1


def filter_layer(g: LayerGraph, cfg: FilterConfig) -> tuple[LayerGraph, FilterReport]:
    """Run both stages on one layer and report before/after sizes.

    cfg has checked th_a and the weight rule. Stage two runs only when
    stage one kept an edge; otherwise the threshold is None and the empty
    stage-one graph is the result.
    """
    auto = cfg.th_a is None
    th_a = auto_threshold(g, cfg.max_nodes) if auto else cfg.th_a
    stage1 = stage2 = g.edge_subgraph(g.co_actions >= th_a)
    threshold = None
    if stage1.n_edges:
        if cfg.weight_rule == "median":
            threshold = float(np.sort(stage1.weight)[(stage1.n_edges - 1) // 2])
        else:
            threshold = float(cfg.weight_value)
        stage2 = stage1.edge_subgraph(stage1.weight >= threshold)
    report = FilterReport(layer=g.layer, th_a=th_a, th_a_auto=auto,
                          weight_rule=cfg.weight_rule, weight_threshold=threshold,
                          nodes_raw=g.n_nodes, edges_raw=g.n_edges,
                          nodes_actions=stage1.n_nodes, edges_actions=stage1.n_edges,
                          nodes_final=stage2.n_nodes, edges_final=stage2.n_edges)
    if stage2.n_nodes > g.n_nodes or stage2.n_edges > g.n_edges:
        raise InvariantError(f"layer {g.layer}: filtering grew the graph")
    logger.info("layer %s: %d/%d -> th_a=%d -> %d/%d -> w>=%s -> %d/%d",
                g.layer, g.n_nodes, g.n_edges, th_a,
                stage1.n_nodes, stage1.n_edges,
                "-" if threshold is None else f"{threshold:g}",
                stage2.n_nodes, stage2.n_edges)
    return stage2, report


def filter_multiplex(net: MultiplexNetwork,
                     cfg: FilterConfig) -> tuple[MultiplexNetwork, list[FilterReport]]:
    """Filter every layer independently with the same config."""
    layers: dict = {}
    reports: list[FilterReport] = []
    for name, g in net.layers.items():
        layers[name], report = filter_layer(g, cfg)
        reports.append(report)
    return MultiplexNetwork(layers), reports

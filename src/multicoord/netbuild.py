"""Coordination-network construction.

For every action layer and sliding time window, active users get a TF-IDF
weighted vector over the items they acted on; cosine similarity between
vectors yields a weighted co-action graph for that window, and the windows
of a layer are merged (mean weight, summed co-action counts) into one
LayerGraph per action type. The five LayerGraphs over a shared actor
universe form the MultiplexNetwork that all downstream detection and
comparison operates on.

IDF is computed within each layer-window (idf = ln(N_w / df)), so items
used by every active user in a window are nulled: window-local virality
carries no coordination signal.
"""

from __future__ import annotations

import logging
import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from .errors import InvariantError
from .ingest import ACTIONS, ActorSet, EventLog

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Window:
    """Half-open time slice [start, start + width)."""

    start: float
    width: float
    index: int

    @property
    def end(self) -> float:
        return self.start + self.width

    def contains(self, ts: float) -> bool:
        return self.start <= ts < self.end


class EdgeData(NamedTuple):
    weight: float
    co_actions: int
    window_count: int


def _ekey(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u <= v else (v, u)


@dataclass
class LayerGraph:
    """Undirected weighted co-action graph for one layer.

    ``layer`` is one of the five action names for real layers; flattened
    graphs reuse the structure with a synthetic scope name. Edge keys are
    sorted (u, v) pairs; no self-loops. Nodes are edge endpoints (users
    participating in at least one co-action).
    """

    layer: str
    nodes: set[str] = field(default_factory=set)
    edges: dict[tuple[str, str], EdgeData] = field(default_factory=dict)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> dict[str, int]:
        """Unweighted degree per node."""
        deg = dict.fromkeys(self.nodes, 0)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def total_weight(self) -> float:
        return math.fsum(d.weight for d in self.edges.values())

    @classmethod
    def from_pairs(cls, layer: str, pairs: Iterable[tuple]) -> "LayerGraph":
        """Build a graph from (u, v, weight[, co_actions[, window_count]])
        tuples; convenience for fixtures and demos.
        """
        g = cls(layer)
        for p in pairs:
            u, v, w = p[0], p[1], float(p[2])
            if u == v:
                raise ValueError(f"self-loop {u!r}")
            co = int(p[3]) if len(p) > 3 else 1
            wc = int(p[4]) if len(p) > 4 else 1
            g.edges[_ekey(u, v)] = EdgeData(w, co, wc)
            g.nodes.add(u)
            g.nodes.add(v)
        return g


@dataclass
class MultiplexNetwork:
    """One LayerGraph per action type over a shared actor universe."""

    actors: ActorSet | None
    layers: dict[str, LayerGraph]

    def __post_init__(self):
        if self.actors is not None:
            for name, g in self.layers.items():
                if not g.nodes <= self.actors.actors:
                    raise InvariantError(f"layer {name} has nodes outside the actor set")

    @classmethod
    def from_layers(cls, layers: dict[str, LayerGraph]) -> "MultiplexNetwork":
        """Wrap pre-built layer graphs; the actor set is their node union."""
        union = frozenset().union(*(frozenset(g.nodes) for g in layers.values())) \
            if layers else frozenset()
        actors = ActorSet(actors=union,
                          per_action_top={name: frozenset(g.nodes) for name, g in layers.items()})
        return cls(actors=actors, layers=dict(layers))

    def layer_names(self) -> tuple[str, ...]:
        return tuple(a for a in ACTIONS if a in self.layers) + tuple(
            sorted(set(self.layers) - set(ACTIONS)))


@dataclass(frozen=True)
class UserVector:
    """Sparse TF-IDF vector of one user's activity in one layer-window."""

    user_id: str
    layer: str
    window_index: int
    entries: dict[str, float]  # item -> tf*idf, zero entries omitted


def window_slices(span: tuple[float, float], width: float, shift: float) -> list[Window]:
    """Sliding windows over [t_min, t_max].

    Starts are t_min, t_min+shift, ...; the count is
    floor((span_len - width) / shift) + 1 when span_len >= width, else 1.
    Windows may end short of (or past) t_max; events in the uncovered tail
    fall into no window.
    """
    if width <= 0 or shift <= 0:
        raise ValueError(f"width and shift must be positive, got {width}, {shift}")
    t_min, t_max = span
    if t_max < t_min:
        raise ValueError(f"bad span {span}")
    span_len = t_max - t_min
    n = int(math.floor((span_len - width) / shift)) + 1 if span_len >= width else 1
    return [Window(t_min + k * shift, width, k) for k in range(n)]


def _window_index_range(ts: float, t_min: float, width: float, shift: float,
                        n_windows: int) -> range:
    """Indices of the windows whose half-open interval contains ts."""
    hi = int(math.floor((ts - t_min) / shift))
    lo = int(math.floor((ts - t_min - width) / shift)) + 1
    lo = max(lo, 0)
    hi = min(hi, n_windows - 1)
    # float-boundary guard: trust the windows, not the arithmetic
    while lo <= hi and not (t_min + lo * shift <= ts < t_min + lo * shift + width):
        lo += 1
    while lo <= hi and not (t_min + hi * shift <= ts < t_min + hi * shift + width):
        hi -= 1
    return range(lo, hi + 1)


def _vectors_from_counts(counts: dict[str, dict[str, int]], layer: str,
                         window_index: int) -> list[UserVector]:
    """TF-IDF vectors from per-user item counts of one layer-window.

    counts: user -> {item -> tf}. N_w is the number of active users; items
    with df = N_w get idf 0 and are dropped from the sparse entries. Users
    whose every item is nulled emit no vector.
    """
    n_active = len(counts)
    if n_active == 0:
        return []
    df: dict[str, int] = defaultdict(int)
    for items in counts.values():
        for item in items:
            df[item] += 1
    idf = {item: math.log(n_active / d) for item, d in df.items()}
    vectors = []
    for user in sorted(counts):
        entries = {}
        for item, tf in counts[user].items():
            w = tf * idf[item]
            if w > 0.0:
                entries[item] = w
        if entries:
            vectors.append(UserVector(user, layer, window_index, entries))
    return vectors


def build_user_vectors(log: EventLog, actors: ActorSet, layer: str,
                       window: Window) -> list[UserVector]:
    """TF-IDF vectors for the actors active in ``layer`` within ``window``.

    tf(u, i) counts u's events on item i inside the window; idf(i) =
    ln(N_w / df(i)) over the window's active actors.
    """
    counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for e in log.events:
        if e.action == layer and e.user_id in actors.actors and window.contains(e.timestamp):
            counts[e.user_id][e.item_id] += 1
    return _vectors_from_counts(counts, layer, window.index)


def _window_pairs(vectors: list[UserVector]):
    """Cosine pairs of one layer-window as arrays.

    Returns (users, i, j, weight, co_actions): ``users`` sorted, and for
    every pair sharing at least one item, local indices i < j into
    ``users`` in row-major order, weight = cosine similarity (capped at 1)
    and co_actions = number of shared items. Zero-similarity pairs are
    omitted.
    """
    layer = vectors[0].layer
    widx = vectors[0].window_index
    for v in vectors:
        if v.layer != layer or v.window_index != widx:
            raise ValueError("vectors must come from a single layer-window")
        if not v.entries:
            raise ValueError(f"empty vector for user {v.user_id}")
    by_user = {v.user_id: v for v in vectors}
    if len(by_user) != len(vectors):
        raise ValueError("duplicate user in vector list")
    import scipy.sparse as sp  # imported where used, to keep CLI start-up cheap

    users = sorted(by_user)
    items = sorted({i for v in vectors for i in v.entries})
    item_col = {i: c for c, i in enumerate(items)}

    rows, cols, data = [], [], []
    for r, u in enumerate(users):
        for item, w in sorted(by_user[u].entries.items()):
            rows.append(r)
            cols.append(item_col[item])
            data.append(w)
    X = sp.csr_matrix((data, (rows, cols)), shape=(len(users), len(items)))
    norms = np.sqrt(X.multiply(X).sum(axis=1)).A1
    inv = sp.diags(1.0 / norms)
    Xn = inv @ X
    S = sp.triu(Xn @ Xn.T, k=1).tocsr()
    S.sort_indices()
    B = X.copy()
    B.data = np.ones_like(B.data)
    C = sp.triu(B @ B.T, k=1).tocsr()
    C.sort_indices()
    if not (np.array_equal(S.indptr, C.indptr) and np.array_equal(S.indices, C.indices)):
        # shared support iff positive cosine (all weights are positive)
        raise InvariantError("similarity and co-action supports diverge")

    Scoo = S.tocoo()
    keep = Scoo.data > 0.0
    return (users, Scoo.row[keep], Scoo.col[keep], np.minimum(Scoo.data[keep], 1.0),
            C.data[keep].astype(np.int64))


def _graph_pairs(g: LayerGraph):
    """A LayerGraph's edges in the (users, i, j, weight, co_actions,
    window_count) form that _merged_layer takes.
    """
    users = sorted(g.nodes.union(*g.edges))
    index = {u: k for k, u in enumerate(users)}
    data = list(g.edges.values())
    return (users,
            np.array([index[u] for u, _ in g.edges], dtype=np.int64),
            np.array([index[v] for _, v in g.edges], dtype=np.int64),
            np.array([d.weight for d in data], dtype=np.float64),
            np.array([d.co_actions for d in data], dtype=np.int64),
            np.array([d.window_count for d in data], dtype=np.int64))


def _merged_layer(layer: str, parts: list, nodes: set[str] | None = None) -> LayerGraph:
    """Merge per-window pair arrays into one LayerGraph.

    Each part is (users, i, j, weight, co_actions, window_count) with i < j
    local indices into its sorted ``users``; window_count is an array or a
    scalar for the whole part. Parts are merged in list order: the weight is
    sum(weight * window_count) / sum(window_count) per pair, co_actions and
    window_count are sums. ``nodes`` defaults to the edge endpoints.
    """
    if not any(len(p[1]) for p in parts):
        return LayerGraph(layer=layer, nodes=set(nodes or ()))
    users = sorted(set().union(*(p[0] for p in parts)))
    index = {u: k for k, u in enumerate(users)}
    to_global = [np.array([index[u] for u in p[0]], dtype=np.int64) for p in parts]
    n = len(users)
    key = np.concatenate([g[p[1]] * n + g[p[2]] for g, p in zip(to_global, parts)])
    weight = np.concatenate([p[3] for p in parts])
    co = np.concatenate([p[4] for p in parts])
    wc = np.concatenate([np.broadcast_to(p[5], p[1].shape) for p in parts])

    # a stable sort keeps each pair's windows in list order, and bincount
    # adds strictly left to right: the sums equal sequential float addition
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.r_[True, key[1:] != key[:-1]]
    starts = np.flatnonzero(first)
    weight_sum = np.bincount(np.cumsum(first) - 1, weights=(weight * wc)[order])
    co_sum = np.add.reduceat(co[order], starts)
    wc_sum = np.add.reduceat(wc[order], starts)

    names = np.array(users, dtype=object)
    i, j = np.divmod(key[starts], n)
    us, vs = names[i].tolist(), names[j].tolist()
    edges = dict(zip(zip(us, vs), map(EdgeData._make, zip(
        (weight_sum / wc_sum).tolist(), co_sum.tolist(), wc_sum.tolist()))))
    return LayerGraph(layer=layer, nodes=set(us).union(vs) if nodes is None else set(nodes),
                      edges=edges)


def layer_window_graph(vectors: list[UserVector]) -> LayerGraph:
    """Cosine-similarity graph over one layer-window's user vectors.

    Every user pair sharing at least one non-zero item gets an edge with
    weight = cosine similarity and co_actions = number of shared items;
    zero-similarity pairs are omitted. Permuting the input list does not
    change the result (users are sorted internally).
    """
    if not vectors:
        return LayerGraph(layer="", nodes=set(), edges={})
    return _merged_layer(vectors[0].layer, [(*_window_pairs(vectors), 1)])


def merge_windows(graphs: list[LayerGraph], layer: str | None = None) -> LayerGraph:
    """Merge per-window graphs of one layer.

    Edge weight is the mean over the windows where the edge appears,
    co_actions the sum, window_count the number of appearing windows;
    nodes are the union.
    """
    layers = {g.layer for g in graphs}
    if len(layers) > 1:
        raise ValueError(f"cannot merge graphs from different layers: {sorted(layers)}")
    if layer is None:
        layer = layers.pop() if layers else ""
    return _merged_layer(layer, [_graph_pairs(g) for g in graphs],
                         nodes=set().union(*(g.nodes for g in graphs)))


def build_multiplex(log: EventLog, actors: ActorSet, width: float,
                    shift: float) -> MultiplexNetwork:
    """Full network construction: window slicing, per-window TF-IDF graphs,
    and window merging for each of the five layers.
    """
    layers: dict[str, LayerGraph] = {}
    if log.time_span is None:
        for a in ACTIONS:
            layers[a] = LayerGraph(layer=a)
        return MultiplexNetwork(actors=actors, layers=layers)
    t_min, _ = log.time_span
    windows = window_slices(log.time_span, width, shift)
    # bucket events once: (layer, window) -> user -> item -> tf
    buckets: dict[tuple[str, int], dict[str, dict[str, int]]] = defaultdict(
        lambda: defaultdict(lambda: defaultdict(int)))
    for e in log.events:
        if e.user_id not in actors.actors:
            continue
        for k in _window_index_range(e.timestamp, t_min, width, shift, len(windows)):
            buckets[(e.action, k)][e.user_id][e.item_id] += 1
    for a in ACTIONS:
        parts = []
        for w in windows:
            counts = buckets.get((a, w.index))
            if not counts:
                continue
            vectors = _vectors_from_counts(counts, a, w.index)
            if vectors:
                pairs = _window_pairs(vectors)
                if len(pairs[1]):
                    parts.append((*pairs, 1))
        layers[a] = _merged_layer(a, parts)
        logger.info("build_multiplex: layer %s -> %d nodes, %d edges from %d window graphs",
                    a, layers[a].n_nodes, layers[a].n_edges, len(parts))
    return MultiplexNetwork(actors=actors, layers=layers)

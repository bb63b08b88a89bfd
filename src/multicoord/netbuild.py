"""Coordination-network construction.

For every action layer and sliding time window, active users get a TF-IDF
weighted vector over the items they acted on; cosine similarity between
vectors yields a weighted co-action graph for that window, and the windows
of a layer are merged (mean weight, summed co-action counts) into one
LayerGraph per action type. The five LayerGraphs over a shared actor
universe form the MultiplexNetwork that all downstream detection and
comparison operates on.

A LayerGraph is a sorted node tuple plus COO edge arrays sorted by
(u, v), which every later stage reads. _group_pairs re-keys graphs onto
their node union and groups equal pairs with one stable sort, for the
window merge, the flattenings and edge coverage.

IDF is computed within each layer-window (idf = ln(N_w / df)), so items
used by every active user in a window are nulled: window-local virality
carries no coordination signal.
"""

from __future__ import annotations

import logging
import math
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import compress
from typing import Iterable

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


class EdgeRowError(ValueError):
    """Edge row ``row`` (0-based, in input order) that no LayerGraph holds."""

    def __init__(self, row: int, reason: str):
        super().__init__(f"edge row {row}: {reason}")
        self.row, self.reason = row, reason


def _ints(values=()) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


@dataclass(eq=False)
class LayerGraph:
    """Undirected weighted co-action graph for one layer, as sorted COO arrays.

    ``layer`` is one of the five action names for real layers; flattened
    graphs use their scope name. ``nodes`` is the sorted tuple of node ids,
    isolated nodes included. Row k is the edge between nodes[u[k]] and
    nodes[v[k]] with u[k] < v[k]; rows are sorted by (u, v), so no pair
    repeats and there are no self-loops. ``weight``, ``co_actions`` and
    ``window_count`` are row-aligned with u and v.
    """

    layer: str
    nodes: tuple = ()
    u: np.ndarray = field(default_factory=_ints)
    v: np.ndarray = field(default_factory=_ints)
    weight: np.ndarray = field(default_factory=lambda: np.zeros(0))
    co_actions: np.ndarray = field(default_factory=_ints)
    window_count: np.ndarray = field(default_factory=_ints)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.u)

    def total_weight(self) -> float:
        return math.fsum(self.weight.tolist())

    def edge_subgraph(self, keep=None) -> "LayerGraph":
        """The rows where the boolean mask ``keep`` is true (all rows by
        default), over their endpoints only: nodes left without an edge go.
        """
        cols = [self.u, self.v, self.weight, self.co_actions, self.window_count]
        if keep is not None:
            cols = [c[keep] for c in cols]
        used = np.zeros(self.n_nodes, dtype=bool)
        used[cols[0]] = True
        used[cols[1]] = True
        new_index = np.cumsum(used) - 1  # increasing, so rows stay sorted
        return LayerGraph(self.layer, tuple(compress(self.nodes, used.tolist())),
                          new_index[cols[0]], new_index[cols[1]], *cols[2:])

    @classmethod
    def from_pairs(cls, layer: str, pairs: Iterable, nodes: Iterable[str] = ()) -> "LayerGraph":
        """Build a graph from (u, v, weight[, co_actions[, window_count]])
        rows in any order, numbers possibly as text; the counts default to 1
        and ``nodes`` adds isolated nodes. Raises EdgeRowError for the first
        row that is not numeric, is a self-loop or a pair already seen, or
        has a non-finite or non-positive weight or a count below 1.
        """
        rows = [tuple(p) + (1,) * (5 - len(p)) for p in pairs]
        a, b, w, co, wc = zip(*rows) if rows else ((),) * 5
        try:
            weight = np.array(list(map(float, w)), dtype=float)
            co, wc = _ints(list(map(int, co))), _ints(list(map(int, wc)))
        except ValueError:
            for k, r in enumerate(rows):
                try:
                    float(r[2]), int(r[3]), int(r[4])
                except ValueError:
                    raise EdgeRowError(k, f"not a number in {r[2:]!r}") from None
            raise
        names = tuple(sorted(set(a).union(b, nodes)))
        index = {x: k for k, x in enumerate(names)}
        ia, ib = _ints(list(map(index.__getitem__, a))), _ints(list(map(index.__getitem__, b)))
        u, v = np.minimum(ia, ib), np.maximum(ia, ib)
        order = np.lexsort((v, u))
        repeat = np.zeros(len(rows), dtype=bool)
        repeat[order[1:]] = (u[order[1:]] == u[order[:-1]]) & (v[order[1:]] == v[order[:-1]])
        problems = (("self-loop", ia == ib), ("pair already seen", repeat),
                    ("weight not finite and positive", ~(np.isfinite(weight) & (weight > 0))),
                    ("co_actions or window_count below 1", (co < 1) | (wc < 1)))
        bad = [(int(np.argmax(mask)), reason) for reason, mask in problems if mask.any()]
        if bad:
            raise EdgeRowError(*min(bad, key=lambda kr: kr[0]))
        return cls(layer, names, u[order], v[order], weight[order], co[order], wc[order])


def _group_pairs(graphs: list[LayerGraph]):
    """Stack the graphs' rows, re-keyed onto the sorted union of their
    nodes, and group equal pairs with one stable sort. Returns (nodes, u, v,
    order, bounds): the union, the distinct pairs in (u, v) order, the
    permutation sorting the stacked rows (a pair's rows keep list order)
    and the bounds: sorted rows bounds[k]:bounds[k + 1] are pair k.
    """
    nodes = tuple(sorted(set().union(*(g.nodes for g in graphs))))
    index = {x: k for k, x in enumerate(nodes)}
    n = len(nodes)
    keys = []
    for g in graphs:
        to_union = _ints(list(map(index.__getitem__, g.nodes)))  # increasing
        keys.append(to_union[g.u] * n + to_union[g.v])
    key = np.concatenate([_ints(), *keys])
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))  # keys are >= 0
    u, v = np.divmod(key[starts], n)
    return nodes, u, v, order, np.append(starts, len(key))


def _stacked(columns: list[np.ndarray], order: np.ndarray, dtype) -> np.ndarray:
    """Per-graph columns stacked, in the sorted order of _group_pairs."""
    return np.concatenate([np.zeros(0, dtype), *columns])[order]


def _group_sums(graphs: list[LayerGraph], column: str, order: np.ndarray,
                bounds: np.ndarray) -> np.ndarray:
    """Per-pair sums of an integer column over the groups of _group_pairs."""
    return np.add.reduceat(_stacked([getattr(g, column) for g in graphs], order, np.int64),
                           bounds[:-1])


@dataclass
class MultiplexNetwork:
    """One LayerGraph per action type over a shared actor universe."""

    actors: ActorSet | None
    layers: dict[str, LayerGraph]

    def __post_init__(self):
        if self.actors is not None:
            for name, g in self.layers.items():
                if not self.actors.actors.issuperset(g.nodes):
                    raise InvariantError(f"layer {name} has nodes outside the actor set")

    @classmethod
    def from_layers(cls, layers: dict[str, LayerGraph]) -> "MultiplexNetwork":
        """Wrap pre-built layer graphs; the actor set is their node union."""
        union = frozenset().union(*(g.nodes for g in layers.values()))
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


def _window_graph(vectors: list[UserVector]) -> LayerGraph:
    """Cosine graph of one layer-window over all its users.

    Every pair sharing at least one item is a row with weight = cosine
    similarity (capped at 1), co_actions = number of shared items and
    window_count 1; zero-similarity pairs are omitted. Users without a
    pair stay as isolated nodes.
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

    Scoo = S.tocoo()  # row-major with sorted columns: rows sorted by (u, v)
    keep = Scoo.data > 0.0
    return LayerGraph(layer, tuple(users), _ints(Scoo.row[keep]), _ints(Scoo.col[keep]),
                      np.minimum(Scoo.data[keep], 1.0), _ints(C.data[keep]),
                      np.ones(int(keep.sum()), dtype=np.int64))


def layer_window_graph(vectors: list[UserVector]) -> LayerGraph:
    """Cosine-similarity graph over one layer-window's user vectors.

    Every user pair sharing at least one non-zero item gets an edge with
    weight = cosine similarity and co_actions = number of shared items;
    zero-similarity pairs are omitted, and so are users without an edge.
    Permuting the input list does not change the result (users are sorted
    internally).
    """
    if not vectors:
        return LayerGraph(layer="")
    return _window_graph(vectors).edge_subgraph()


def merge_windows(graphs: list[LayerGraph], layer: str | None = None) -> LayerGraph:
    """Merge per-window graphs of one layer, in list order.

    Edge weight is sum(weight * window_count) / sum(window_count) over the
    windows where the edge appears (the mean for single windows),
    co_actions and window_count are sums; nodes are the union.
    """
    layers = {g.layer for g in graphs}
    if len(layers) > 1:
        raise ValueError(f"cannot merge graphs from different layers: {sorted(layers)}")
    if layer is None:
        layer = layers.pop() if layers else ""
    nodes, u, v, order, bounds = _group_pairs(graphs)
    # the stable sort keeps each pair's windows in list order, and bincount
    # adds strictly left to right: the sums equal sequential float addition
    weighted = _stacked([g.weight * g.window_count for g in graphs], order, float)
    group = np.repeat(np.arange(len(u)), np.diff(bounds))
    weight_sum = np.bincount(group, weights=weighted, minlength=len(u))
    co_sum = _group_sums(graphs, "co_actions", order, bounds)
    wc_sum = _group_sums(graphs, "window_count", order, bounds)
    return LayerGraph(layer, nodes, u, v, weight_sum / wc_sum, co_sum, wc_sum)


def build_multiplex(log: EventLog, actors: ActorSet, width: float,
                    shift: float) -> MultiplexNetwork:
    """Full network construction: window slicing, per-window TF-IDF graphs,
    and window merging for each of the five layers.
    """
    if log.time_span is None:
        return MultiplexNetwork(actors=actors, layers={a: LayerGraph(a) for a in ACTIONS})
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
    layers: dict[str, LayerGraph] = {}
    for a in ACTIONS:
        parts = []
        for w in windows:
            counts = buckets.get((a, w.index))
            if not counts:
                continue
            vectors = _vectors_from_counts(counts, a, w.index)
            if vectors:
                parts.append(_window_graph(vectors))
        layers[a] = merge_windows(parts, a).edge_subgraph()
        logger.info("build_multiplex: layer %s -> %d nodes, %d edges from %d window graphs",
                    a, layers[a].n_nodes, layers[a].n_edges, len(parts))
    return MultiplexNetwork(actors=actors, layers=layers)

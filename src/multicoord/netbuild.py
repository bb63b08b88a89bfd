"""Coordination-network construction.

The build runs on the user, action and item codes of the EventLog (ingest
encodes every id) and turns codes into names once per layer. A few array
sorts bucket the actor events into the TF-IDF entries of each action layer
and sliding time window, as CSR-ordered (row, col, weight) arrays: a row
per active user, a column per item, with the users' and items' log codes
alongside. Each window pairs the users of each item (its wedges, which
characterize's triangle count enumerates with the same helper) and groups
the pairs with one sort: their product sums are the cosine similarities
and their sizes the co-action counts, keyed on the pair's user codes.
_merged_layer sorts the keys of all windows of a layer once, stably, and
sums each pair's windows in window order: mean weight, summed co-action
counts, and the window count as the group size. Only then are the names
of the used codes attached, in one LayerGraph per action type.
build_multiplex marks the actor rows of the log once, then takes these
steps one layer at a time on the rows of that layer's action, so only that
layer's entries and pair keys are alive. tfidf_windows and
layer_window_graph are the same steps for one window, over names. The five
LayerGraphs form the MultiplexNetwork that all downstream detection and
comparison operates on: the layers in ACTIONS order and nothing else, so a
network that build makes and one that detect loads from edge lists are the
same object. The actor universe is the ActorSet of ingest, stored once
there. All of it runs on numpy alone.

A LayerGraph is a sorted node tuple plus COO edge arrays sorted by
(u, v), which every later stage reads. _group_pairs re-keys graphs onto
their node union and groups equal pairs with one stable sort, for the
flattenings and edge coverage. The CSR arrays of Louvain and characterize
and every component labelling come from here too.

IDF is computed within each layer-window (idf = ln(N_w / df)), so items
used by every active user in a window are nulled: window-local virality
carries no coordination signal.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from itertools import compress
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError
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
        return LayerGraph(self.layer, *_endpoints(self.nodes, cols[0], cols[1]), *cols[2:])

    @classmethod
    def from_pairs(cls, layer: str, pairs: Iterable, nodes: Iterable[str] = ()) -> "LayerGraph":
        """from_columns over (u, v, weight[, co_actions[, window_count]])
        rows; the counts default to 1."""
        rows = [tuple(p) + (1,) * (5 - len(p)) for p in pairs]
        return cls.from_columns(layer, *(zip(*rows) if rows else ((),) * 5), nodes=nodes)

    @classmethod
    def from_columns(cls, layer: str, a: Sequence, b: Sequence, weight: Sequence,
                     co_actions: Sequence, window_count: Sequence,
                     nodes: Iterable[str] = ()) -> "LayerGraph":
        """Build a graph from row-aligned columns of edges in any order:
        endpoint names, then weights and counts, as numbers or as text that
        float and int take. ``nodes`` adds isolated nodes. Raises
        EdgeRowError for the first row that is not numeric or has a count
        outside int64, and then for the first that is a self-loop or a pair
        already seen, or has a non-finite or non-positive weight or a count
        below 1.
        """
        n = len(weight)
        try:
            w = np.fromiter(map(float, weight), float, n)
            co = np.fromiter(map(int, co_actions), np.int64, n)
            wc = np.fromiter(map(int, window_count), np.int64, n)
        except (ValueError, OverflowError):
            for k, r in enumerate(zip(weight, co_actions, window_count)):
                try:
                    counts = float(r[0]), int(r[1]), int(r[2])
                except ValueError:
                    raise EdgeRowError(k, f"not a number in {r!r}") from None
                if not all(-2**63 <= c < 2**63 for c in counts[1:]):
                    raise EdgeRowError(k, f"count outside int64 in {r!r}")
            raise
        names = tuple(sorted(set(a).union(b, nodes)))
        index = {x: k for k, x in enumerate(names)}
        ia = np.fromiter(map(index.__getitem__, a), np.int64, n)
        ib = np.fromiter(map(index.__getitem__, b), np.int64, n)
        u, v = np.minimum(ia, ib), np.maximum(ia, ib)
        order = np.lexsort((v, u))
        repeat = np.zeros(n, dtype=bool)
        repeat[order[1:]] = (u[order[1:]] == u[order[:-1]]) & (v[order[1:]] == v[order[:-1]])
        problems = (("self-loop", ia == ib), ("pair already seen", repeat),
                    ("weight not finite and positive", ~(np.isfinite(w) & (w > 0))),
                    ("co_actions or window_count below 1", (co < 1) | (wc < 1)))
        bad = [(int(np.argmax(mask)), reason) for reason, mask in problems if mask.any()]
        if bad:
            raise EdgeRowError(*min(bad, key=lambda kr: kr[0]))
        return cls(layer, names, u[order], v[order], w[order], co[order], wc[order])


def _endpoints(nodes: Sequence, u: np.ndarray, v: np.ndarray) -> tuple:
    """(used nodes, u, v): the nodes that the rows (u, v) use, in node
    order, and the rows re-indexed onto them."""
    used = np.zeros(len(nodes), dtype=bool)
    used[u] = True
    used[v] = True
    new_index = np.cumsum(used) - 1  # increasing, so rows stay sorted
    return tuple(compress(nodes, used.tolist())), new_index[u], new_index[v]


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


def _row_pointer(rows: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointer over n rows for entries with row indices ``rows``."""
    return np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))


def _symmetric_csr(n: int, u: np.ndarray, v: np.ndarray,
                   w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """indptr, indices, weight of the rows (u, v, w) and (v, u, w) over n
    nodes, sorted by (row, neighbour) with one lexsort."""
    rows, cols = np.concatenate((u, v)), np.concatenate((v, u))
    order = np.lexsort((cols, rows))
    return _row_pointer(rows, n), cols[order], np.concatenate((w, w))[order]


def _component_labels(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Connected component of each of n nodes joined by the rows (u, v),
    numbered in order of its smallest node. Each round hooks the larger
    root of every row that joins two roots to the smallest such root, then
    jumps pointers until each node points at its root; a root is the
    smallest node of its tree, so the rounds stop when no row joins two
    roots (Shiloach & Vishkin 1982)."""
    root = np.arange(n)
    while True:
        a, b = root[u], root[v]
        hi, lo = np.maximum(a, b), np.minimum(a, b)
        join = hi != lo
        if not join.any():
            return np.unique(root, return_inverse=True)[1]
        np.minimum.at(root, hi[join], lo[join])
        while not np.array_equal(up := root[root], root):
            root = up


@dataclass
class MultiplexNetwork:
    """One LayerGraph per action type, keyed by layer name. The constructor
    orders ``layers`` once: the ACTIONS layers present, in ACTIONS order,
    then any other names sorted. Every stage iterates the layers in that
    order.
    """

    layers: dict[str, LayerGraph]

    def __post_init__(self):
        order = [a for a in ACTIONS if a in self.layers] + sorted(set(self.layers) - set(ACTIONS))
        self.layers = {name: self.layers[name] for name in order}


MAX_WINDOWS = 100_000  # 57 years of 5 h shifts


def window_slices(span: tuple[float, float], width: float, shift: float) -> list[Window]:
    """Sliding windows over [t_min, t_max].

    Starts are t_min, t_min+shift, ...; the count is
    floor((span_len - width) / shift) + 1 when span_len >= width, else 1.
    Windows may end short of (or past) t_max; events in the uncovered tail
    fall into no window. A grid of more than MAX_WINDOWS windows is a
    DataError: it almost always means timestamps in mixed units.
    """
    if not (0 < width < math.inf and 0 < shift < math.inf):
        raise ValueError(f"width and shift must be positive and finite, got {width}, {shift}")
    t_min, t_max = span
    if t_max < t_min:
        raise ValueError(f"bad span {span}")
    span_len = t_max - t_min
    n = int(math.floor((span_len - width) / shift)) + 1 if span_len >= width else 1
    if n > MAX_WINDOWS:
        raise DataError(f"{n:,} windows of {width:g} s every {shift:g} s over a {span_len:g} s "
                        f"span exceed {MAX_WINDOWS:,}; check that every timestamp is in seconds")
    return [Window(t_min + k * shift, width, k) for k in range(n)]


def _window_ranges(ts: np.ndarray, t_min: float, width: float, shift: float,
                   n_windows: int) -> tuple[np.ndarray, np.ndarray]:
    """Per timestamp, the first and last index of the windows whose half-open
    interval contains it (lo > hi: none), as Window.contains decides.
    """
    rel = ts - t_min
    # one window wider than the arithmetic on each side, then shrink until
    # the end windows contain ts: start = t_min + k*shift rounds either way
    lo = np.maximum(np.floor((rel - width) / shift).astype(np.int64), 0)
    hi = np.minimum(np.floor(rel / shift).astype(np.int64) + 1, n_windows - 1)
    for end, step in ((lo, 1), (hi, -1)):
        off = lo <= hi
        while off.any():
            start = t_min + end * shift
            off &= (lo <= hi) & ~((start <= ts) & (ts < start + width))
            end[off] += step
    return lo, hi


def _run_starts(*cols: np.ndarray) -> np.ndarray:
    """True at the first row of each run of equal rows of the sorted columns."""
    first = np.arange(len(cols[0])) == 0
    for c in cols:
        first[1:] |= c[1:] != c[:-1]
    return first


@dataclass(frozen=True, eq=False)
class WindowTfidf:
    """TF-IDF entries of one layer-window: entry k is weight[k] = tf * idf of
    users[row[k]] on items[col[k]], where tf counts the user's events on the
    item inside the window and idf = ln(N_w / df) over the window's N_w
    active users, df of them on the item. users and items are sorted: tuples
    of ids from tfidf_windows, arrays of the log's codes within the build.
    The entries are positive and in CSR order, sorted by (row, col), and
    every row and column holds one.
    """

    layer: str
    index: int
    users: Sequence
    items: Sequence
    row: np.ndarray
    col: np.ndarray
    weight: np.ndarray


def tfidf_windows(log: EventLog, actors: ActorSet, width: float,
                  shift: float) -> list[WindowTfidf]:
    """One WindowTfidf per layer-window with a positive entry, in ACTIONS
    order and then window order. Only actor events count.
    """
    if log.time_span is None:
        return []
    windows = _tfidf_windows(log, _actor_rows(log, actors), width, shift,
                             len(window_slices(log.time_span, width, shift)))
    return [replace(m, users=tuple(map(log.users.__getitem__, m.users.tolist())),
                    items=tuple(map(log.items.__getitem__, m.items.tolist())))
            for m in windows]


def _actor_rows(log: EventLog, actors: ActorSet) -> np.ndarray:
    """True at the rows of the log whose user is an actor."""
    members = actors.actors
    return np.array([u in members for u in log.users], dtype=bool)[log.user]


def _tfidf_windows(log: EventLog, keep: np.ndarray, width: float, shift: float,
                   n_windows: int) -> list[WindowTfidf]:
    """tfidf_windows of the rows where ``keep`` is true, over the grid of
    n_windows windows that starts at the non-empty log's t_min, with the
    users and items of each window as the log's codes."""
    user, item, layer = log.user[keep], log.item[keep], log.action[keep]
    lo, hi = _window_ranges(log.ts[keep], log.time_span[0], width, shift, n_windows)
    # one row per (event, window); lw numbers layer-windows in ACTIONS order
    count = np.maximum(hi - lo + 1, 0)
    ev = np.repeat(np.arange(len(count)), count)
    lw = (layer[ev] * n_windows + lo[ev] + np.arange(len(ev))
          - np.repeat(np.cumsum(count) - count, count))
    user, item = user[ev], item[ev]
    # one group per (layer-window, user, item), tf its size
    order = np.lexsort((item, user, lw))
    first = _run_starts(lw[order], user[order], item[order])
    tf = np.diff(np.append(np.flatnonzero(first), len(order)))
    lw, user, item = lw[order][first], user[order][first], item[order][first]
    # N_w: distinct users per layer-window; df: groups per (layer-window, item)
    window_id = np.cumsum(_run_starts(lw)) - 1
    n_active = np.bincount(window_id[_run_starts(lw, user)])[window_id]
    by_item = np.lexsort((item, lw))
    pair_id = np.cumsum(_run_starts(lw[by_item], item[by_item])) - 1
    df = np.empty_like(tf)
    df[by_item] = np.bincount(pair_id)[pair_id]
    # math.log, not np.log: the two differ in the last bit for some ratios
    key, pair = np.unique(n_active * (len(log.users) + 1) + df, return_inverse=True)
    n_w, df_w = np.divmod(key, len(log.users) + 1)
    idf = np.array([math.log(n / d) for n, d in zip(n_w.tolist(), df_w.tolist())], dtype=float)
    weight = tf * idf[pair]
    keep = weight > 0.0
    lw, user, item, weight = lw[keep], user[keep], item[keep], weight[keep]
    # local rows and columns: ranks of the users and items within the window;
    # rows sorted by (lw, user, item) are in each window's CSR order
    new_user = _run_starts(lw, user)
    row = np.cumsum(new_user) - 1
    by_item = np.lexsort((item, lw))
    new_item = _run_starts(lw[by_item], item[by_item])
    col = np.empty_like(row)
    col[by_item] = np.cumsum(new_item) - 1
    bounds = np.append(np.flatnonzero(_run_starts(lw)), len(lw))
    records = []
    for s, e in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        a, k = divmod(int(lw[s]), n_windows)
        records.append(WindowTfidf(ACTIONS[a], k, user[s:e][new_user[s:e]],
                                   item[by_item[s:e]][new_item[s:e]], row[s:e] - row[s],
                                   col[s:e] - col[by_item[s]], weight[s:e]))
    return records


def _wedge_opens(group: np.ndarray, n: int) -> np.ndarray:
    """Per entry of a list sorted by group (integers in [0, n)), the wedges
    it opens: the number of later entries in its group. Their sum is the
    number of wedges, sum df (df - 1) / 2 over groups of df entries."""
    return _row_pointer(group, n)[group + 1] - np.arange(group.size) - 1


def _wedges(opens: np.ndarray, start: int = 0,
            stop: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The wedges that entries start:stop open, as (first, second) entry
    indices: entry e pairs with each of the opens[e] entries after it, in
    entry order."""
    c = opens[start:stop]
    first = np.repeat(np.arange(start, start + c.size), c)
    second = first + 1 + np.arange(first.size) - np.repeat(np.cumsum(c) - c, c)
    return first, second


def _sum_by_key(key: np.ndarray, weight: np.ndarray):
    """Group equal integer keys with one stable sort. Returns the distinct
    keys in increasing order, each group's weight sum, added strictly left
    to right in input order (bincount), each group's size, and the sort
    permutation and group starts, to sum other columns alike."""
    order = np.argsort(key, kind="stable")
    key = key[order]
    new = _run_starts(key)
    starts = np.flatnonzero(new)
    sums = np.bincount(np.cumsum(new) - 1, weights=weight[order])
    return key[starts], sums, np.diff(np.append(starts, key.size)), order, starts


def _cosine_pairs(m: WindowTfidf, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cosine-similarity edges of one layer-window whose users are codes
    below n, in key order: per user pair that shares an item and has a
    positive similarity, the key code_u * n + code_v with code_u < code_v,
    the cosine capped at 1, and the number of shared items.

    Each wedge is two users of one item. A pair's wedges are grouped by
    one stable sort, so a weight is the sum of its pair's products in
    decreasing item order: the order of the sparse product Xn Xn^T with
    Xn = diag(1 / norm) X, whose every float it reproduces.
    """
    norms = np.sqrt(np.add.reduceat(m.weight * m.weight, np.flatnonzero(_run_starts(m.row))))
    x = (1.0 / norms)[m.row] * m.weight
    rank = len(m.items) - 1 - m.col  # decreasing item order
    order = np.lexsort((m.row, rank))
    # int64 codes: the log's int32 codes would overflow in the keys
    user, x = np.asarray(m.users, dtype=np.int64)[m.row[order]], x[order]
    first, second = _wedges(_wedge_opens(rank[order], len(m.items)))
    key = user[first] * n + user[second]  # an item's users are in code order
    product = x[first] * x[second]
    del first, second
    key, dot, co, _, _ = _sum_by_key(key, product)
    keep = dot > 0.0
    return key[keep], np.minimum(dot[keep], 1.0), co[keep]


def _merged_layer(layer: str, users: Sequence, windows: list[WindowTfidf]) -> LayerGraph:
    """The LayerGraph of one layer from its windows in window order, whose
    users are codes into ``users``. An edge's weight is the mean of its
    window cosines, co_actions their summed shared items and window_count
    the number of windows that hold it; the nodes are the edges' endpoints.
    """
    n = len(users)
    pairs = [_cosine_pairs(m, n) for m in windows]
    key, cosine, co = (np.concatenate([np.zeros(0, dtype), *(p[k] for p in pairs)])
                       for k, dtype in enumerate((np.int64, float, np.int64)))
    del pairs
    # the stable sort keeps a pair's windows in window order, so each weight
    # sum is sequential float addition over them
    key, weight_sum, window_count, order, starts = _sum_by_key(key, cosine)
    u, v = np.divmod(key, n)
    return LayerGraph(layer, *_endpoints(users, u, v), weight_sum / window_count,
                      np.add.reduceat(co[order], starts), window_count)


def layer_window_graph(m: WindowTfidf) -> LayerGraph:
    """Cosine-similarity graph of one layer-window of tfidf_windows.

    Every user pair sharing at least one item gets an edge with weight =
    cosine similarity (capped at 1), co_actions = number of shared items
    and window_count 1; zero-similarity pairs are omitted, and so are users
    without an edge. It is the build's layer merge over this one window.
    """
    return _merged_layer(m.layer, m.users, [replace(m, users=np.arange(len(m.users)))])


def build_multiplex(log: EventLog, actors: ActorSet, width: float,
                    shift: float) -> MultiplexNetwork:
    """Full network construction: per-window TF-IDF matrices, their cosine
    similarities, and window merging for each of the five layers, one layer
    at a time, so that only its TF-IDF entries and pair keys are alive.
    Every layer shares the log's window grid and one mask of the actor rows,
    and stays on the log's user codes until it is merged.
    """
    layers = {a: LayerGraph(a) for a in ACTIONS}
    if not len(log):
        return MultiplexNetwork(layers)
    n_windows = len(window_slices(log.time_span, width, shift))
    actor_rows = _actor_rows(log, actors)
    for k, a in enumerate(ACTIONS):
        in_layer = actor_rows & (log.action == k)
        if not in_layer.any():
            continue
        windows = _tfidf_windows(log, in_layer, width, shift, n_windows)
        layers[a] = _merged_layer(a, log.users, windows)
        logger.info("build_multiplex: layer %s -> %d nodes, %d edges from %d windows",
                    a, layers[a].n_nodes, layers[a].n_edges, len(windows))
    return MultiplexNetwork(layers)

"""Coordination-network construction.

The build runs on the user, action and item codes of the EventLog (ingest
encodes every id) and turns codes into names once per layer. The actor
events of one action layer, in time order as every EventLog is, are
sliced into its sliding time windows: window k is the rows between two
binary searches, for its start and for its end (_window_bounds), on the
starts that window_slices returns, so the half-open rule
start <= ts < start + width needs no arithmetic of its own. A few sorts of a window's rows give its TF-IDF
entries, as CSR-ordered (row, col, weight) arrays: a row per active user,
a column per item, with the users' and items' log codes alongside. Each
window pairs the users of each item (its wedges, which characterize's
triangle count enumerates with the same helper) and groups the pairs with
one sort: their product sums are the cosine similarities and their sizes
the co-action counts, keyed on the pair's user codes.
_merged_layer folds each window's pairs, as they are made, into running
sums kept in key order: a binary search finds the pairs seen before, which
gain one addition each, and the rows of new pairs are summed and inserted
in batches. So a pair's windows add up in window order, and the merge
holds about the layer's edges and one window's pairs, never every window's
rows. The mean weight is the weight sum over the window count. Only then
are the names of the used codes attached, in one LayerGraph per action
type.
build_multiplex marks the actor rows of the log once per call, then takes
these steps one layer at a time on the rows of that layer's action, and
the merge takes the layer's windows one at a time as they are made: only
that layer's rows, one window's entries and pairs, and the running
sums are alive. It builds the layers it is given, so a caller that builds
one layer per call can drop each layer before it builds the next.
window_coverage counts, once per build, the actor events of each layer
that fall outside every window of the same grid.
tfidf_windows and layer_window_graph are the same steps for one window,
over names. The five LayerGraphs form the MultiplexNetwork that all
downstream detection and comparison operates on: the layers in ACTIONS
order and nothing else, so a network that build makes and one that detect
loads from edge lists are the same object. The actor universe is the
ActorSet of ingest, stored once there. All of it runs on numpy alone.

A LayerGraph is a sorted node tuple plus COO edge arrays sorted by
(u, v), which every later stage reads. One stable key grouping
(_group_keys, and _sum_by_key on it) groups each window's pairs and each
batch of a layer's new pairs, sums each Louvain level into the next, and
serves _group_pairs, which re-keys graphs onto their node union for the
flattenings and edge coverage. CSR is the one symmetric adjacency type, of
every Louvain level and every characterized graph. A level-0 CSR is
stacked from parts whose entries are already in row order, each written
in place (CSR.stacked): a LayerGraph's (u, v) rows are one half as they
are, and one stable sort by row makes its (v, u) rows the other, so no
lexsort runs. Every component labelling comes from here too.

IDF is computed within each layer-window (idf = ln(N_w / df)), so items
used by every active user in a window are nulled: window-local virality
carries no coordination signal.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from itertools import compress
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DataError, RowError
from .ingest import ACTIONS, ActorSet, EventLog

logger = logging.getLogger(__name__)

# The largest edge weight a LayerGraph takes. Squares of weight sums appear
# in the multislice null term (community strengths squared), the Lanczos
# norms and metric_cosine; under this cap a sum of up to 1e50 weights still
# squares to a finite float. Build writes weights <= 1 per layer and <= 5
# flattened, so only an edited edge list comes near it; detect refuses a
# flattened sum of such weights above it rather than write it.
MAX_WEIGHT = 1e100


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
        return math.fsum(self.weight)

    def edge_subgraph(self, keep=None) -> "LayerGraph":
        """The rows where the boolean mask ``keep`` is true (all rows by
        default), over their endpoints only: nodes left without an edge go.
        """
        cols = [self.u, self.v, self.weight, self.co_actions, self.window_count]
        if keep is not None:
            cols = [c[keep] for c in cols]
        return LayerGraph(self.layer, *_endpoints(self.nodes, cols[0], cols[1]), *cols[2:])

    @classmethod
    def from_codes(cls, layer: str, nodes: tuple, a: np.ndarray, b: np.ndarray,
                   w: np.ndarray, co: np.ndarray, wc: np.ndarray) -> "LayerGraph":
        """Build a graph from row-aligned arrays of edges in any order: the
        endpoints as int64 positions in the sorted tuple ``nodes``, float
        weights, and int64 co_actions and window counts. Raises RowError
        for the first row that is a self-loop or a pair already seen, or has
        a non-finite or non-positive weight, a weight above MAX_WEIGHT or a
        count below 1.
        """
        u, v = np.minimum(a, b), np.maximum(a, b)
        loop, repeat = u == v, np.zeros(len(u), dtype=bool)
        # rows in (u, v) order, as every written edge list's are, stay in place
        if ((u[1:] > u[:-1]) | (u[1:] == u[:-1]) & (v[1:] > v[:-1])).all():
            order = slice(None)
        else:
            order = np.lexsort((v, u))
            u, v = u[order], v[order]
            repeat[order[1:]] = (u[1:] == u[:-1]) & (v[1:] == v[:-1])
        problems = (("self-loop", loop), ("pair already seen", repeat),
                    ("weight not finite and positive", ~(np.isfinite(w) & (w > 0))),
                    (f"weight above {MAX_WEIGHT:g}", w > MAX_WEIGHT),
                    ("co_actions or window_count below 1", (co < 1) | (wc < 1)))
        bad = [(int(np.argmax(mask)), reason) for reason, mask in problems if mask.any()]
        if bad:
            raise RowError(*min(bad, key=lambda kr: kr[0]))
        return cls(layer, nodes, u, v, w[order], co[order], wc[order])


def _edge_numbers(weight: Sequence, co_actions: Sequence,
                  window_count: Sequence) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-aligned weights as floats and counts as int64, from numbers or
    from text that float and int take. Raises RowError for the first
    row that is not numeric, holds a number beyond float or int, or has a
    count outside int64."""
    n = len(weight)
    try:
        return (np.fromiter(map(float, weight), float, n),
                np.fromiter(map(int, co_actions), np.int64, n),
                np.fromiter(map(int, window_count), np.int64, n))
    except (ValueError, OverflowError):
        for k, r in enumerate(zip(weight, co_actions, window_count)):
            try:
                counts = float(r[0]), int(r[1]), int(r[2])
            except ValueError:
                raise RowError(k, f"not a number in {r!r}") from None
            except OverflowError:  # an int weight beyond float, an infinite count
                raise RowError(k, f"number out of range in {r!r}") from None
            if not all(-2**63 <= c < 2**63 for c in counts[1:]):
                raise RowError(k, f"count outside int64 in {r!r}")
        raise


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
    nodes, and group equal pairs with _group_keys. Returns (nodes, u, v,
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
    key, order, bounds = _group_keys(np.concatenate([_ints(), *keys]))
    u, v = np.divmod(key, n)
    return nodes, u, v, order, bounds


def _row_pointer(rows: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointer over n rows for entries with row indices ``rows``."""
    return np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))


@dataclass(frozen=True, eq=False)
class CSR:
    """A symmetric weighted adjacency: row u lists u's neighbours
    indices[indptr[u]:indptr[u + 1]] in increasing id order, their weights
    alongside, and no self entry. So every reduction over it sees a fixed
    array. Each Louvain level is one, and so is each characterized graph.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weight: np.ndarray

    @staticmethod
    def symmetric(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> "CSR":
        """The rows (u, v, w) and (v, u, w) over n nodes, where the (u, v)
        are sorted with u < v, as a LayerGraph's rows are. So row r lists
        its (r, v) rows' neighbours after its (u, r) rows' neighbours, each
        in row order: one stable sort by row puts the (v, u) half in order,
        and the (u, v) half is in order as it is (CSR.stacked)."""
        order = np.argsort(v, kind="stable")
        lower = u[order], w[order]  # the (v, u) half in row order
        del order  # before the CSR's arrays are allocated
        counts = np.column_stack((np.bincount(v, minlength=n), np.bincount(u, minlength=n)))
        return CSR.stacked(counts, (lower, (v, w)))

    @staticmethod
    def stacked(counts: np.ndarray, parts: Iterable) -> "CSR":
        """The CSR whose row r lists counts[r, k] entries of part k, for
        each part k in turn: a stable sort by row of the parts stacked.
        Part k is a (neighbours, weights) pair of entries sorted by row, a
        row's in increasing neighbour order, and its weights may be one
        number for all. In every row, a part's neighbours must be below
        those of the parts after it. Each part is written into the arrays
        in place before the next is taken, so an iterator of parts can make
        each one as it is needed.
        """
        n, n_parts = counts.shape
        part = np.repeat(np.tile(np.arange(n_parts, dtype=np.min_scalar_type(n_parts)), n),
                         counts.ravel())
        indices, weight = np.empty(part.size, dtype=np.int64), np.empty(part.size)
        for k, (cols, w) in enumerate(parts):
            at = part == k
            indices[at] = cols
            weight[at] = w
            del cols, w
        return CSR(np.concatenate(([0], np.cumsum(counts.sum(axis=1)))), indices, weight)

    @property
    def degree(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def n_edges(self) -> int:
        return self.indices.size // 2

    def rows(self) -> np.ndarray:
        """Row index of every stored entry."""
        return np.repeat(np.arange(self.degree.size), self.degree)

    def induced(self, idx: np.ndarray) -> "CSR":
        """Subgraph on the increasing node positions ``idx``, renumbered in
        that order; rows and columns stay sorted. Every node's subgraph is
        this CSR itself, not a copy."""
        if idx.size == self.degree.size:
            return self
        pos = np.full(self.degree.size, -1)
        pos[idx] = np.arange(idx.size)
        deg = self.degree[idx]
        at = np.repeat(self.indptr[idx] - np.cumsum(deg) + deg, deg) + np.arange(deg.sum())
        cols = pos[self.indices[at]]
        keep = cols >= 0
        rows = np.repeat(np.arange(idx.size), deg)[keep]
        return CSR(_row_pointer(rows, idx.size), cols[keep], self.weight[at[keep]])


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


def window_slices(span: tuple[float, float], width: float, shift: float) -> list[float]:
    """The starts of the sliding windows over [t_min, t_max]: t_min + k *
    shift for k = 0, 1, ...; window k holds the stamps in the half-open
    [start, start + width).

    The count is floor((span_len - width) / shift) + 1 when span_len >=
    width, else 1. Windows may end short of (or past) t_max; events in the
    uncovered tail fall into no window. A grid of more than MAX_WINDOWS
    windows is a DataError: it almost always means timestamps in mixed units.
    """
    if not (0 < width < math.inf and 0 < shift < math.inf):
        raise ValueError(f"width and shift must be positive and finite, got {width}, {shift}")
    t_min, t_max = span
    if t_max < t_min:
        raise ValueError(f"bad span {span}")
    span_len = t_max - t_min
    last = (span_len - width) / shift if span_len >= width else 0.0
    # the span between two huge stamps overflows to inf, which no int takes
    n = math.floor(last) + 1 if math.isfinite(last) else math.inf
    if n > MAX_WINDOWS:
        raise DataError(f"{n:,} windows of {width:g} s every {shift:g} s over a {span_len:g} s "
                        f"span exceed {MAX_WINDOWS:,}; check that every timestamp is in seconds")
    return [t_min + k * shift for k in range(n)]


# window_coverage takes the grid under a second name: the benchmark trace
# wraps window_slices to count the grids that build_multiplex makes
_window_starts = window_slices


def _window_bounds(ts: np.ndarray, starts: Sequence[float],
                   width: float) -> tuple[np.ndarray, np.ndarray]:
    """Per window start, the rows lo:hi of the sorted stamps ``ts`` that the
    half-open window [start, start + width) holds."""
    starts = np.asarray(starts, dtype=float)
    return np.searchsorted(ts, starts), np.searchsorted(ts, starts + width)


def _run_starts(*cols: np.ndarray) -> np.ndarray:
    """True at the first row of each run of equal rows of the sorted columns."""
    first = np.zeros(len(cols[0]), dtype=bool)
    first[:1] = True
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
    starts = window_slices(log.time_span, width, shift)
    actor_rows = _actor_rows(log, actors)
    return [replace(m, users=tuple(map(log.users.__getitem__, m.users.tolist())),
                    items=tuple(map(log.items.__getitem__, m.items.tolist())))
            for a, layer in enumerate(ACTIONS)
            for m in _tfidf_windows(log, actor_rows & (log.action == a), layer, starts, width)]


def window_coverage(log: EventLog, actors: ActorSet, width: float,
                    shift: float) -> tuple[int, dict]:
    """(n, outside): the n windows of build_multiplex's grid over the log,
    and per layer, in ACTIONS order, the actor events that no window holds,
    such as those after the last whole window. One mask of the actor rows,
    a byte per event, is cleared window by window. An empty log has no
    grid, as build_multiplex makes none for it."""
    starts = _window_starts(log.time_span, width, shift) if len(log) else []
    outside = _actor_rows(log, actors)
    for lo, hi in zip(*(b.tolist() for b in _window_bounds(log.ts, starts, width))):
        outside[lo:hi] = False
    counts = np.bincount(log.action[outside], minlength=len(ACTIONS)).tolist()
    return len(starts), dict(zip(ACTIONS, counts))


def _actor_rows(log: EventLog, actors: ActorSet) -> np.ndarray:
    """True at the rows of the log whose user is an actor."""
    members = actors.actors
    return np.array([u in members for u in log.users], dtype=bool)[log.user]


def _tfidf_windows(log: EventLog, keep: np.ndarray, layer: str, starts: Sequence[float],
                   width: float) -> Iterator[WindowTfidf]:
    """The WindowTfidf of each window of ``layer`` that holds a positive
    entry, in window order: the rows where ``keep`` is true, all of that
    action, over the windows that begin at ``starts``, with the users and
    items of each window as the log's codes. Window k is a slice of these
    rows, which are in time order as the log's are."""
    ts, user, item = (c[keep] for c in (log.ts, log.user, log.item))
    for k, (lo, hi) in enumerate(zip(*(b.tolist() for b in _window_bounds(ts, starts, width)))):
        if lo == hi:
            continue
        # one group per (user, item), tf its size, in CSR order
        by_pair = np.lexsort((item[lo:hi], user[lo:hi]))
        u, i = user[lo:hi][by_pair], item[lo:hi][by_pair]
        first = _run_starts(u, i)
        tf = np.diff(np.append(np.flatnonzero(first), hi - lo))
        u, i = u[first], i[first]
        # N_w: the window's distinct users; df: each item's users
        n_active = int(_run_starts(u).sum())
        _, of_item, df = np.unique(i, return_inverse=True, return_counts=True)
        df, of_df = np.unique(df[of_item], return_inverse=True)
        # math.log, not np.log: the two differ in the last bit for some ratios
        weight = tf * np.array([math.log(n_active / d) for d in df.tolist()])[of_df]
        positive = weight > 0.0
        if not positive.any():
            continue
        u, i, weight = u[positive], i[positive], weight[positive]
        users, row = np.unique(u, return_inverse=True)
        items, col = np.unique(i, return_inverse=True)
        yield WindowTfidf(layer, k, users, items, row, col, weight)


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


def _group_keys(key: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group equal integer keys with one stable sort. Returns the distinct
    keys in increasing order, the sort permutation (equal keys keep input
    order) and the bounds: sorted entries bounds[k]:bounds[k + 1] hold key k.
    """
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(_run_starts(key))
    return key[starts], order, np.append(starts, key.size)


def _sum_by_key(key: np.ndarray, weight: np.ndarray):
    """_group_keys with each group's weight sum, added strictly left to
    right in input order (bincount), and size. Returns (keys, sums, sizes,
    order, bounds); order and bounds sum other columns alike."""
    key, order, bounds = _group_keys(key)
    size = np.diff(bounds)
    sums = np.bincount(np.repeat(np.arange(size.size), size), weights=weight[order])
    return key, sums, size, order, bounds


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


def _insert_pending(merged: list, pending: list) -> None:
    """Sum the pending rows of the pairs that ``merged`` lacks, per pair in
    row order, and insert them into its columns in key order; empties
    ``pending``."""
    key, cosine, co = (np.concatenate([np.zeros(0, dtype), *(p[k] for p in pending)])
                       for k, dtype in enumerate((np.int64, float, np.int64)))
    pending.clear()
    key, weight_sum, count, order, bounds = _sum_by_key(key, cosine)
    co = np.add.reduceat(co[order], bounds[:-1])
    at = np.searchsorted(merged[0], key)
    # one column at a time, so only one old column is alive beside its copy
    for k, x in enumerate((key, weight_sum, co, count)):
        merged[k] = np.insert(merged[k], at, x)


def _merged_layer(layer: str, users: Sequence, windows: Iterable[WindowTfidf]) -> LayerGraph:
    """The LayerGraph of one layer from its windows in window order, whose
    users are codes into ``users``. An edge's weight is the mean of its
    window cosines, co_actions their summed shared items and window_count
    the number of windows that hold it; the nodes are the edges' endpoints.

    Each window's pairs are folded in as they are made. A pair already in
    the running sums gains its cosine in place. The rows of the other pairs
    wait until they reach a quarter of the merged pairs, and are then summed
    per pair and inserted in key order. So the merge holds the layer's
    edges, a quarter as many pending rows and one window's pairs, and each
    weight sum is its window cosines added one at a time, in window order.
    """
    n = len(users)
    # running sums in key order: key, weight sum, co_actions, window count;
    # and the rows of pairs they lack, in window order
    merged = [_ints(), np.zeros(0), _ints(), _ints()]
    pending, n_pending = [], 0
    for m in windows:
        key, cosine, co = _cosine_pairs(m, n)
        at = np.searchsorted(merged[0], key)
        seen = at < merged[0].size
        seen[seen] = merged[0][at[seen]] == key[seen]
        # a window's keys are distinct, so a pair's sum gains one addition
        # per window, in window order: sequential float addition
        at = at[seen]
        merged[1][at] += cosine[seen]
        merged[2][at] += co[seen]
        merged[3][at] += 1
        pending.append((key[~seen], cosine[~seen], co[~seen]))
        n_pending += pending[-1][0].size
        # each insert copies the columns: pairs inserted window by window
        # would take time quadratic in the windows, and all at the end would
        # keep every window's rows alive
        if 4 * n_pending >= merged[0].size:
            _insert_pending(merged, pending)
            n_pending = 0
    _insert_pending(merged, pending)
    key, weight_sum, co, window_count = merged
    u, v = np.divmod(key, n)
    return LayerGraph(layer, *_endpoints(users, u, v), weight_sum / window_count,
                      co, window_count)


def layer_window_graph(m: WindowTfidf) -> LayerGraph:
    """Cosine-similarity graph of one layer-window of tfidf_windows.

    Every user pair sharing at least one item gets an edge with weight =
    cosine similarity (capped at 1), co_actions = number of shared items
    and window_count 1; zero-similarity pairs are omitted, and so are users
    without an edge. It is the build's layer merge over this one window.
    """
    return _merged_layer(m.layer, m.users, [replace(m, users=np.arange(len(m.users)))])


def build_multiplex(log: EventLog, actors: ActorSet, width: float, shift: float,
                    layers: Sequence[str] = ACTIONS) -> MultiplexNetwork:
    """Full network construction of the named layers (all five by default):
    per-window TF-IDF matrices, their cosine similarities, and window
    merging, one layer at a time and, within it, one window at a time, so
    that only one window's TF-IDF entries and pair keys are alive. Every
    layer shares the log's window grid and the mask of the actor rows, both
    made once per call, and stays on the log's user codes until it is
    merged. A name outside ACTIONS is a ValueError.
    """
    unknown = [a for a in layers if a not in ACTIONS]
    if unknown:
        raise ValueError(f"unknown layers {unknown}; expected names from {ACTIONS}")
    net = {a: LayerGraph(a) for a in layers}
    if not len(log):
        return MultiplexNetwork(net)
    starts = window_slices(log.time_span, width, shift)
    actor_rows = _actor_rows(log, actors)
    for a in net:
        in_layer = actor_rows & (log.action == ACTIONS.index(a))
        if not in_layer.any():
            continue
        net[a] = _merged_layer(a, log.users, _tfidf_windows(log, in_layer, a, starts, width))
        logger.info("build_multiplex: layer %s -> %d nodes, %d edges",
                    a, net[a].n_nodes, net[a].n_edges)
    return MultiplexNetwork(net)

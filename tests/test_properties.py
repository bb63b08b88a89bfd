"""Property tests against brute-force pure-Python references."""

import dataclasses
import json
import math
import os
import random
import tempfile
from collections import Counter, defaultdict, deque, namedtuple
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from conftest import edge_dict, from_pairs, read_ground_truth, tfidf_entries

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from multicoord import characterize, ingest, reports  # noqa: E402
from multicoord.characterize import (CommunityMetrics, GraphCSR,  # noqa: E402
                                     _pagerank, _t_tail, _triangles,
                                     community_metrics, node_metrics)
from multicoord.community import (GAIN_TOLERANCE, Partition,  # noqa: E402
                                  _aggregate, _local_moving, _supra_graph,
                                  flatten_intersection,
                                  flatten_union, generalized_louvain, louvain,
                                  modularity, multislice_modularity)
from multicoord.compare import (hungarian_match, label_nodes, nmi,  # noqa: E402
                                overlap_matrix)
from multicoord.filternet import FilterConfig, filter_layer  # noqa: E402
from multicoord.errors import DataError, InvariantError  # noqa: E402
from multicoord.ingest import (_CONTROL_CHARS, ACTIONS, HST, MEN, URL,  # noqa: E402
                               ActionEvent, ActorSet, EventLog, RecordError,
                               StopLists, _parse_timestamp, apply_stoplists,
                               extract_domain, parse_events, select_users)
from multicoord.errors import reading  # noqa: E402
from multicoord.netbuild import (CSR, MAX_WEIGHT, EdgeRowError, LayerGraph,  # noqa: E402
                                 MultiplexNetwork, WindowTfidf, _component_labels, _group_pairs,
                                 _wedge_opens, _wedges, _window_bounds, build_multiplex,
                                 layer_window_graph, tfidf_windows, window_slices)
from multicoord.reports import (EDGE_HEADER, MULTIPLEX_HEADER,  # noqa: E402
                                PARTITION_HEADER, _n_components, read_edges_tsv,
                                read_multiplex_partition_tsv, read_partition_tsv,
                                write_edges_tsv, write_multiplex_partition_tsv,
                                write_partition_tsv)

# ---------------------------------------------------------------------------
# network construction against the dict code it replaced: a Window.contains
# scan of every event per layer-window (the oracle of _window_bounds, which
# slices the sorted stamps by the same half-open rule on window_slices'
# starts), dict TF-IDF vectors, and a CSR built from them

Vector = namedtuple("Vector", "user_id layer window_index entries")


class Window(namedtuple("Window", "start width index")):
    """Half-open time slice [start, start + width) of the window grid."""

    def contains(self, ts):
        return self.start <= ts < self.start + self.width


def oracle_windows(span, width, shift):
    """One Window per start that window_slices returns, in grid order."""
    return [Window(start, width, k) for k, start in enumerate(window_slices(span, width, shift))]


def user_vectors_oracle(log, actors, layer, window):
    """TF-IDF vectors of the actors active in ``layer`` within ``window``;
    users whose every item is nulled (df = N_w) get none."""
    counts = defaultdict(lambda: defaultdict(int))
    for e in log.events:
        if e.action == layer and e.user_id in actors.actors and window.contains(e.timestamp):
            counts[e.user_id][e.item_id] += 1
    n_active = len(counts)
    df = defaultdict(int)
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
            vectors.append(Vector(user, layer, window.index, entries))
    return vectors


def window_oracle(vectors):
    """WindowTfidf of one layer-window's vectors: sorted users and items, and
    the entries in CSR order."""
    by_user = {v.user_id: v for v in vectors}
    users = sorted(by_user)
    items = sorted({i for v in vectors for i in v.entries})
    item_col = {i: c for c, i in enumerate(items)}
    row, col, weight = zip(*[(r, item_col[item], w) for r, u in enumerate(users)
                             for item, w in sorted(by_user[u].entries.items())])
    return WindowTfidf(vectors[0].layer, vectors[0].window_index, tuple(users), tuple(items),
                       np.array(row, dtype=np.int64), np.array(col, dtype=np.int64),
                       np.array(weight, dtype=float))


def scipy_matrix(m):
    """The CSR matrix that tfidf_windows built per layer-window before the
    window kept its entry arrays."""
    import scipy.sparse as sp

    return sp.csr_matrix((m.weight, (m.row, m.col)), shape=(len(m.users), len(m.items)))


def scipy_window_graph(m):
    """Cosine graph of one layer-window over all its users, isolated ones
    kept, from the two sparse products layer_window_graph ran before it
    enumerated wedges: one for the cosines and one for the shared items."""
    import scipy.sparse as sp

    X = scipy_matrix(m)
    norms = np.sqrt(X.multiply(X).sum(axis=1)).A1
    Xn = sp.diags(1.0 / norms) @ X
    S = sp.triu(Xn @ Xn.T, k=1).tocsr()
    S.sort_indices()
    B = X.copy()
    B.data = np.ones_like(B.data)
    C = sp.triu(B @ B.T, k=1).tocsr()
    C.sort_indices()
    if not (np.array_equal(S.indptr, C.indptr) and np.array_equal(S.indices, C.indices)):
        raise InvariantError("similarity and co-action supports diverge")
    Scoo = S.tocoo()
    keep = Scoo.data > 0.0
    return LayerGraph(m.layer, m.users, Scoo.row[keep].astype(np.int64),
                      Scoo.col[keep].astype(np.int64), np.minimum(Scoo.data[keep], 1.0),
                      C.data[keep].astype(np.int64), np.ones(int(keep.sum()), dtype=np.int64))


def window_graph_oracle(vectors):
    """Cosine graph of one layer-window over all its users, isolated ones kept."""
    return scipy_window_graph(window_oracle(vectors))


def assert_same_graph(got, want):
    """Equal node tuples, and equal arrays of equal dtype in every column."""
    assert got.nodes == want.nodes
    for column in ("u", "v", "weight", "co_actions", "window_count"):
        a, b = getattr(got, column), getattr(want, column)
        assert a.dtype == b.dtype and np.array_equal(a, b), column


def _stacked(columns: list[np.ndarray], order: np.ndarray, dtype) -> np.ndarray:
    """Per-graph columns stacked, in the sorted order of _group_pairs."""
    return np.concatenate([np.zeros(0, dtype), *columns])[order]


def _group_sums(graphs: list[LayerGraph], column: str, order: np.ndarray,
                bounds: np.ndarray) -> np.ndarray:
    """Per-pair sums of an integer column over the groups of _group_pairs."""
    return np.add.reduceat(_stacked([getattr(g, column) for g in graphs], order, np.int64),
                           bounds[:-1])


def merge_windows(graphs: list[LayerGraph], layer: str | None = None) -> LayerGraph:
    """Merge per-window graphs of one layer, in list order: the window merge
    that the build ran on per-window name graphs before it kept user codes.

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


def build_multiplex_oracle(log, actors, width, shift):
    """{layer: LayerGraph} from the oracle graphs of every layer-window."""
    windows = oracle_windows(log.time_span, width, shift)
    layers = {}
    for layer in ACTIONS:
        parts = [window_graph_oracle(vecs) for w in windows
                 if (vecs := user_vectors_oracle(log, actors, layer, w))]
        layers[layer] = merge_windows(parts, layer).edge_subgraph()
    return layers


# small id alphabets, so that random vectors share items and ids collide
# with each other's prefixes
vector_sets = st.dictionaries(
    keys=st.text(alphabet="ab#é", min_size=1, max_size=3),
    values=st.dictionaries(st.sampled_from([f"i{k}" for k in range(6)]),
                           st.floats(min_value=1e-3, max_value=1e3), min_size=1),
    min_size=1, max_size=8)


def _norm(entries):
    return math.sqrt(math.fsum(w * w for w in entries.values()))


@settings(max_examples=200, deadline=None)
@given(vector_sets)
def test_layer_window_graph_matches_brute_force(entries_by_user):
    vectors = [Vector(u, "rtw", 0, e) for u, e in entries_by_user.items()]
    g = layer_window_graph(window_oracle(vectors))

    expected = {}
    for a in entries_by_user:
        for b in entries_by_user:
            shared = entries_by_user[a].keys() & entries_by_user[b].keys()
            if a < b and shared:
                dot = math.fsum(entries_by_user[a][i] * entries_by_user[b][i] for i in shared)
                cos = dot / (_norm(entries_by_user[a]) * _norm(entries_by_user[b]))
                expected[(a, b)] = (min(cos, 1.0), len(shared))

    edges = edge_dict(g)
    assert list(edges) == sorted(expected)
    for key, (cos, n_shared) in expected.items():
        d = edges[key]
        assert d.weight == pytest.approx(cos, rel=1e-12)
        assert 0.0 < d.weight <= 1.0
        assert (d.co_actions, d.window_count) == (n_shared, 1)
    assert g.nodes == tuple(sorted({u for key in expected for u in key}))


@st.composite
def one_window_logs(draw):
    """(log, actors) of one window [0, 10): up to 8 users on 6 shared items
    with repeated events, so that pairs share several items, plus items that
    only one user touches."""
    users = [f"u{k}" for k in range(draw(st.integers(2, 8)))]
    events = draw(st.lists(st.builds(ActionEvent, st.sampled_from(users), st.just("rtw"),
                                     st.sampled_from([f"i{k}" for k in range(6)]),
                                     st.floats(0.0, 9.5)), min_size=2, max_size=60))
    events += draw(st.lists(st.sampled_from(events), max_size=10))
    events += [ActionEvent(u, "rtw", f"solo.{u}", 1.0)
               for u in draw(st.lists(st.sampled_from(users), unique=True))]
    log = EventLog.from_events(sorted(events, key=lambda e: e.timestamp), time_span=(0.0, 10.0))
    return log, ActorSet({"rtw": frozenset(users)})


@settings(max_examples=300, deadline=None)
@given(one_window_logs())
def test_layer_window_graph_equals_scipy_products(case):
    log, actors = case
    for m in tfidf_windows(log, actors, 10.0, 10.0):
        assert_same_graph(layer_window_graph(m), scipy_window_graph(m).edge_subgraph())


@settings(max_examples=300, deadline=None)
@given(vector_sets)
# summed in increasing item order, this cosine moves in the last bit
@example({"a": {"i0": 1.0, "i1": 1.0, "i2": 3.0}, "aa": {"i0": 1.0, "i1": 1.0, "i2": 1.0}})
def test_layer_window_graph_equals_scipy_products_on_any_weights(entries_by_user):
    # arbitrary positive floats: a pair's cosine sums its shared-item
    # products in the order the sparse product did, or the last bits move
    m = window_oracle([Vector(u, "rtw", 0, e) for u, e in entries_by_user.items()])
    assert_same_graph(layer_window_graph(m), scipy_window_graph(m).edge_subgraph())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 5), max_size=30), st.integers(0, 30), st.integers(0, 30))
def test_wedges_are_the_pairs_within_each_group(groups, start, stop):
    group = np.sort(np.array(groups, dtype=np.int64))
    opens = _wedge_opens(group, 6)
    assert int(opens.sum()) == sum(d * (d - 1) // 2 for d in Counter(groups).values())
    first, second = _wedges(opens, start, stop)
    want = [(a, b) for a in range(len(groups))[start:stop] for b in range(a + 1, len(groups))
            if group[a] == group[b]]
    assert list(zip(first.tolist(), second.tolist())) == want


H = 3600.0
GRIDS = [(6 * H, 5 * H), (0.3, 0.1), (10.0, 4.0), (10.0, 10.0)]


@st.composite
def grids(draw):
    """(t_min, t_max, width, shift) and times on and next to window edges."""
    width, shift = draw(st.sampled_from(GRIDS))
    t_min = draw(st.sampled_from([0.0, 0.05, 12.5, 1.7e9]))
    n = draw(st.integers(1, 8))
    t_max = t_min + width + (n - 1) * shift + draw(st.sampled_from([0.0, shift / 3]))
    edges = [t_min + k * shift + d for k in range(n + 1) for d in (0.0, width)]
    near = edges + [np.nextafter(t, s) for t in edges for s in (-np.inf, np.inf)]
    times = st.sampled_from([float(t) for t in near if t_min <= t <= t_max])
    return t_min, t_max, width, shift, times | st.floats(t_min, t_max)


@settings(max_examples=300, deadline=None)
@given(grids(), st.data())
def test_window_bounds_match_contains_scan(grid, data):
    t_min, t_max, width, shift, times = grid
    windows = oracle_windows((t_min, t_max), width, shift)
    ts = sorted(data.draw(st.lists(times, min_size=1, max_size=20)))
    lo, hi = _window_bounds(np.array(ts), [w.start for w in windows], width)
    for w, a, b in zip(windows, lo.tolist(), hi.tolist()):
        assert ts[a:b] == [t for t in ts if w.contains(t)]


@st.composite
def event_logs(draw):
    """(log, actors, width, shift): 1-5 layers, repeated events, items that
    every active user of a window shares, users outside the actor set,
    events on window edges, and rows given in time order or not, which
    EventLog sorts."""
    t_min, t_max, width, shift, times = draw(grids())
    layers = draw(st.lists(st.sampled_from(ACTIONS), min_size=1, max_size=5, unique=True))
    users = [f"u{k}" for k in range(draw(st.integers(2, 7)))]
    events = draw(st.lists(st.builds(ActionEvent, st.sampled_from(users),
                                     st.sampled_from(layers),
                                     st.sampled_from(["i0", "i1", "i2", "i3"]), times),
                           min_size=1, max_size=40))
    events += events[:draw(st.integers(0, 5))]
    for layer, t in draw(st.lists(st.tuples(st.sampled_from(layers), times), max_size=2)):
        events += [ActionEvent(u, layer, "viral", t) for u in users]
    actors = frozenset(draw(st.lists(st.sampled_from(users), min_size=1, unique=True)))
    if draw(st.booleans()):
        events.sort(key=lambda e: e.timestamp)
    log = EventLog.from_events(events, time_span=(t_min, t_max))
    return log, ActorSet({"rtw": actors}), width, shift


def _pinned_log(rows, n_windows):
    """(log, actors, 10, 10) of (user, layer, item, t) rows over a grid of
    n_windows windows of 10 s, with every user but u9 an actor."""
    log = EventLog.from_events([ActionEvent(*r) for r in sorted(rows, key=lambda r: r[3])],
                               time_span=(0.0, 10.0 * n_windows))
    actors = frozenset(r[0] for r in rows) - {"u9"}
    return log, ActorSet({"rtw": actors}), 10.0, 10.0


# every rtw window holds one actor (u9 is none) and every rpl window two
# actors on items of their own: windows without a pair, so the merge sees
# empty arrays only
LONE_ACTORS = _pinned_log([("u0", "rtw", "i0", 1.0), ("u9", "rtw", "i0", 2.0),
                           ("u1", "rtw", "i1", 12.0), ("u0", "rpl", "i0", 3.0),
                           ("u1", "rpl", "i1", 3.0), ("u0", "rpl", "i2", 15.0),
                           ("u2", "rpl", "i3", 15.0)], 3)
# u0 and u1 co-act in all 9 windows that hold events, around an empty one;
# a merge that adds their 9 cosines in another order or with math.fsum
# moves the last bit of the mean
EVERY_WINDOW = _pinned_log(
    [row for k, counts in enumerate([(1, 4), (1, 2), (2, 2), (1, 4), None, (1, 3), (2, 3),
                                     (4, 2), (3, 1), (2, 4)]) if counts
     for row in [("u0", "rtw", "a", 10.0 * k + 1.0), ("u1", "rtw", "c", 10.0 * k + 1.0),
                 ("u2", "rtw", "b", 10.0 * k + 1.0)]
     + [("u0", "rtw", "c", 10.0 * k + 2.0)] * counts[0]
     + [("u1", "rtw", "a", 10.0 * k + 2.0)] * counts[1]], 10)


@settings(max_examples=200, deadline=None)
@given(event_logs(), st.lists(st.sampled_from(ACTIONS), unique=True))
@example(LONE_ACTORS, ["rpl", "rtw"])
@example(EVERY_WINDOW, ["rtw"])
def test_build_multiplex_matches_dict_oracle(case, subset):
    log, actors, width, shift = case
    windows = oracle_windows(log.time_span, width, shift)
    records = tfidf_windows(log, actors, width, shift)
    want = [(layer, w.index) for layer in ACTIONS for w in windows
            if user_vectors_oracle(log, actors, layer, w)]
    assert [(m.layer, m.index) for m in records] == want
    for m in records:
        vectors = user_vectors_oracle(log, actors, m.layer, windows[m.index])
        assert tfidf_entries(m) == {v.user_id: v.entries for v in vectors}
        want = window_oracle(vectors)
        assert (m.users, m.items) == (want.users, want.items)
        for column in ("row", "col", "weight"):
            a, b = getattr(m, column), getattr(want, column)
            assert a.dtype == b.dtype and np.array_equal(a, b), column

    net = build_multiplex(log, actors, width, shift)
    for layer, g in build_multiplex_oracle(log, actors, width, shift).items():
        assert_same_graph(net.layers[layer], g)
    # a build of some layers is the full build on those layers, in ACTIONS order
    part = build_multiplex(log, actors, width, shift, layers=subset)
    assert list(part.layers) == [layer for layer in ACTIONS if layer in subset]
    for layer, g in part.layers.items():
        assert_same_graph(g, net.layers[layer])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(ACTIONS + ("alpha", "zeta", "unfl-sum")), unique=True))
def test_multiplex_orders_layers_for_any_dict_order(names):
    # the constructor is the one place that orders layers: ACTIONS first,
    # then any other names sorted
    net = MultiplexNetwork({name: LayerGraph(name) for name in names})
    order = [*ACTIONS, "alpha", "unfl-sum", "zeta"]
    assert list(net.layers) == [name for name in order if name in names]


# ---------------------------------------------------------------------------
# Louvain: determinism, a monotone trace, and a trace that ends at Q

NODE_IDS = [f"n{k}" for k in range(12)]
LAYER_NAMES = ("rtw", "rpl", "men", "hst", "url")
weights = st.sampled_from([0.05, 0.3, 1.0, 2.5]) | st.floats(min_value=0.01, max_value=3.0)


@st.composite
def layers(draw, name="rtw", weights=weights):
    """A weighted layer over a small id pool shared by every layer plus ids
    of its own, possibly with isolated nodes."""
    pool = NODE_IDS + [f"{name}{k}" for k in range(4)]
    rows = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool), weights,
                                   st.integers(1, 4), st.integers(1, 3)), max_size=30))
    seen, pairs = set(), []
    for u, v, *data in rows:
        if u != v and frozenset((u, v)) not in seen:
            seen.add(frozenset((u, v)))
            pairs.append((u, v, *data))
    return from_pairs(name, pairs,
                                 nodes=draw(st.lists(st.sampled_from(pool), max_size=2)))


@st.composite
def multiplexes(draw, max_layers=3, weights=weights):
    names = draw(st.lists(st.sampled_from(LAYER_NAMES), min_size=1, max_size=max_layers,
                          unique=True))
    return MultiplexNetwork({name: draw(layers(name, weights)) for name in names})


def _check_trace(trace, q):
    assert len(trace) >= 1
    assert all(b - a >= -1e-12 for a, b in zip(trace, trace[1:]))
    assert trace[-1] == pytest.approx(q, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(layers(), st.integers(0, 2**16), st.sampled_from([0.5, 1.0, 2.0]))
def test_louvain_deterministic_with_exact_trace(g, seed, gamma):
    if not g.nodes:
        return
    p = louvain(g, gamma=gamma, seed=seed)
    assert louvain(g, gamma=gamma, seed=seed).assignment == p.assignment
    assert set(p.assignment) == set(g.nodes)
    _check_trace(p.trace, modularity(g, p, gamma))


@settings(max_examples=100, deadline=None)
@given(multiplexes(), st.integers(0, 2**16), st.sampled_from([0.0, 0.1]))
def test_generalized_louvain_deterministic_with_exact_trace(net, seed, omega):
    if not any(g.nodes for g in net.layers.values()):
        return
    p = generalized_louvain(net, omega=omega, seed=seed)
    assert generalized_louvain(net, omega=omega, seed=seed).assignment == p.assignment
    _check_trace(p.trace, multislice_modularity(net, p, omega=omega))


def _check_passes(p):
    """One (visits, moves) count per pass; the first pass visits every
    node, and the last moves none."""
    assert len(p.visits) == len(p.moves) == len(p.trace)
    assert p.visits[0] >= len(p.assignment) and p.moves[-1] == 0
    assert all(0 <= m <= v for v, m in zip(p.visits, p.moves))


def _ring(n):
    return from_pairs("rtw", [(f"r{i:04d}", f"r{(i + 1) % n:04d}", 1.0)
                                         for i in range(n)])


def _clique(k, w):
    return from_pairs("rtw", [(f"k{i:02d}", f"k{j:02d}", w)
                                         for i in range(k) for j in range(i + 1, k)])


@pytest.mark.parametrize("g", [_ring(2000), _clique(12, 0.1)], ids=["ring-2000", "k12-0.1"])
def test_louvain_queue_ends_at_q(g):
    # long chains of tiny equal gains: the queue must drain and the trace
    # must still end exactly at Q
    p = louvain(g, seed=5)
    _check_trace(p.trace, modularity(g, p))
    _check_passes(p)


@settings(max_examples=100, deadline=None)
@given(multiplexes(max_layers=5, weights=st.sampled_from([0.1, 0.2, 0.3])),
       st.integers(0, 2**16))
def test_louvain_tied_weights_end_at_q(net, seed):
    # weights from {0.1, 0.2, 0.3} make many gains tie up to float noise
    for g in net.layers.values():
        if g.nodes:
            p = louvain(g, seed=seed)
            _check_trace(p.trace, modularity(g, p))
            _check_passes(p)
    if any(g.nodes for g in net.layers.values()):
        p = generalized_louvain(net, omega=0.1, seed=seed)
        _check_trace(p.trace, multislice_modularity(net, p, omega=0.1))
        _check_passes(p)


# ---------------------------------------------------------------------------
# the Louvain levels against the dict code they replaced


def _supra_oracle(net, omega):
    """The old supra-graph set-up: per-edge adjacency dicts per layer, then
    the coupling of every pair of an actor's copies."""
    layer_order = list(net.layers)
    adj, strength, two_m, copies = [], [], [], defaultdict(list)
    for s, layer in enumerate(layer_order):
        g = net.layers[layer]
        off = len(adj)
        adj += [{off + v: w for v, w in d.items()} for d in _adjacency_oracle(g)]
        strength += [[0.0] * len(layer_order) for _ in g.nodes]
        for a, b, w in zip(g.u.tolist(), g.v.tolist(), g.weight.tolist()):
            strength[off + a][s] += w
            strength[off + b][s] += w
        two_m.append(float(np.cumsum(2.0 * g.weight)[-1]) if g.n_edges else 0.0)
        for i, actor in enumerate(g.nodes):
            copies[actor].append(off + i)
    sizes = []
    if omega != 0.0:
        for actor in sorted(copies):
            idxs = copies[actor]
            sizes.append(len(idxs) * (len(idxs) - 1))
            for a in range(len(idxs)):
                for b in range(a + 1, len(idxs)):
                    iu, iv = idxs[a], idxs[b]
                    adj[iu][iv] = adj[iu].get(iv, 0.0) + omega
                    adj[iv][iu] = adj[iv].get(iu, 0.0) + omega
    return adj, strength, two_m, omega * math.fsum(sizes)


def _aggregate_oracle(adj, strength, comm):
    """The old dict aggregation: communities become super-nodes numbered by
    increasing id; sums run in node order, then in row order. (It also kept
    each super-node's internal weight, which no gain ever read.)"""
    live = sorted(set(comm))
    remap = {c: i for i, c in enumerate(live)}
    agg_adj = [{} for _ in live]
    agg_strength = [[0.0] * len(strength[0]) for _ in live]
    for u in range(len(comm)):
        cu = remap[comm[u]]
        for s in range(len(strength[u])):
            agg_strength[cu][s] += strength[u][s]
        for v, w in adj[u].items():
            cv = remap[comm[v]]
            if cv != cu:
                agg_adj[cu][cv] = agg_adj[cu].get(cv, 0.0) + w
    return agg_adj, agg_strength, remap


def _csr_rows(indptr, indices, weight):
    bounds = indptr.tolist()
    return [list(zip(indices[a:b].tolist(), weight[a:b].tolist()))
            for a, b in zip(bounds, bounds[1:])]


@settings(max_examples=150, deadline=None)
@given(multiplexes(max_layers=5), st.sampled_from([0.0, 0.1]), st.data())
def test_aggregate_matches_dict_oracle(net, omega, data):
    if not any(g.nodes for g in net.layers.values()):
        return
    names, csr, strength, two_m, coupling_total = _supra_graph(net, omega)
    adj, want_strength, want_two_m, want_coupling = _supra_oracle(net, omega)
    rows = _csr_rows(csr.indptr, csr.indices, csr.weight)
    assert [dict(row) for row in rows] == adj
    assert all(row == sorted(row) for row in rows)
    assert strength.tolist() == want_strength
    assert (two_m, coupling_total) == (want_two_m, want_coupling)
    assert len(names) == len(adj)
    # two levels, so that the second one sums pair weights of merged rows
    for _ in range(2):
        comm = data.draw(st.lists(st.integers(0, 4), min_size=len(rows), max_size=len(rows)))
        csr, got_strength, new = _aggregate(csr, strength, np.array(comm))
        want_adj, want_strength, remap = _aggregate_oracle([dict(row) for row in rows],
                                                           strength.tolist(), comm)
        assert new.tolist() == [remap[c] for c in comm]
        assert got_strength.tolist() == want_strength
        rows = _csr_rows(csr.indptr, csr.indices, csr.weight)
        assert [dict(row) for row in rows] == want_adj
        assert all(row == sorted(row) for row in rows)
        strength = got_strength


def _local_moving_oracle(csr, strength, inv_two_m, gamma, threshold, rng):
    """The local moving that _local_moving replaced: each level's CSR copied
    into per-node lists of Python ints and floats, and the candidate
    communities visited in sorted order, so that on equal gains the node's
    own community, and else the smallest id, wins."""
    n = len(strength)
    indptr, indices, weight = csr.indptr.tolist(), csr.indices.tolist(), csr.weight.tolist()
    rows = [(indices[a:b], weight[a:b]) for a, b in zip(indptr, indptr[1:])]
    comm_k = strength.T.tolist()
    node, layer = np.nonzero(strength)
    k = strength[node, layer]
    terms = [[] for _ in range(n)]
    for u, s, ku, fu in zip(node.tolist(), layer.tolist(), k.tolist(),
                            (k * inv_two_m[layer]).tolist()):
        terms[u].append((ku, fu, comm_k[s]))
    comm = list(range(n))
    comm_size = [1] * n
    order = list(range(n))
    rng.shuffle(order)
    queue, queued = deque(order), [True] * n
    free_ids = []
    total_gain, visits, moves = 0.0, 0, 0
    while queue:
        u = queue.popleft()
        queued[u] = False
        visits += 1
        c_old = comm[u]
        nbrs, ws = rows[u]
        links = {}
        for v, w in zip(nbrs, ws):
            c = comm[v]
            if c in links:
                links[c] += w
            else:
                links[c] = w
        tu = terms[u]
        null = 0.0
        for k, f, kc in tu:
            kc[c_old] -= k
            null += f * kc[c_old]
        comm_size[c_old] -= 1
        gain_old = best_gain = links.get(c_old, 0.0) - gamma * null
        best_c = c_old
        for c in sorted(links):
            null = 0.0
            for _, f, kc in tu:
                null += f * kc[c]
            gain = links[c] - gamma * null
            if gain > best_gain:
                best_c, best_gain = c, gain
        if comm_size[c_old] > 0 and 0.0 > best_gain:
            best_c, best_gain = -1, 0.0
        if best_c != c_old and best_gain - gain_old > threshold:
            if best_c < 0:
                best_c = free_ids.pop()
            if comm_size[c_old] == 0:
                free_ids.append(c_old)
            comm[u] = best_c
            moves += 1
            total_gain += best_gain - gain_old
            for v in nbrs:
                if not queued[v] and comm[v] != best_c:
                    queued[v] = True
                    queue.append(v)
        else:
            best_c = c_old
        for k, _, kc in tu:
            kc[best_c] += k
        comm_size[best_c] += 1
    return comm, total_gain, visits, moves


@st.composite
def coupled_problems(draw):
    """(network, omega) of L = 1 or L = 3 layers with integer weights, so
    that many gains tie exactly, and isolated nodes."""
    n_layers = draw(st.sampled_from([1, 3]))
    names = draw(st.lists(st.sampled_from(LAYER_NAMES), min_size=n_layers,
                          max_size=n_layers, unique=True))
    integral = st.integers(1, 3).map(float)
    return (MultiplexNetwork({name: draw(layers(name, integral)) for name in names}),
            draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])))


@settings(max_examples=200, deadline=None)
@given(coupled_problems(), st.integers(0, 2**16), st.sampled_from([0.5, 1.0, 2.0]))
def test_local_moving_matches_the_sorted_loop(problem, seed, gamma):
    # every level of a whole optimization, so that aggregated levels with
    # strength in several layers are compared too
    net, omega = problem
    if not any(g.nodes for g in net.layers.values()):
        return
    _, csr, strength, two_m, coupling_total = _supra_graph(net, omega)
    two_mu = math.fsum(two_m) + coupling_total
    inv = np.array([1.0 / m if m > 0.0 else 0.0 for m in two_m])
    threshold = 0.5 * GAIN_TOLERANCE * two_mu
    got_rng, want_rng = random.Random(seed), random.Random(seed)
    while True:
        got = _local_moving(csr, strength, inv, gamma, threshold, got_rng)
        assert got == _local_moving_oracle(csr, strength, inv, gamma, threshold, want_rng)
        if not got[3]:
            return
        csr, strength, _ = _aggregate(csr, strength, np.array(got[0]))


# ---------------------------------------------------------------------------
# characterize against the dict-of-sets code it replaced


def _adjacency_sets(g):
    adj = {u: set() for u in g.nodes}
    for u, v in edge_dict(g):
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _clustering_oracle(adj, node):
    neigh = adj[node]
    d = len(neigh)
    if d < 2:
        return 0.0
    links = 0
    for w in neigh:
        links += len(adj[w] & neigh)
    # each triangle edge counted twice in the loop above
    return links / (d * (d - 1))


def _assortativity_oracle(adj):
    deg = {u: len(vs) for u, vs in adj.items()}
    xs, ys = [], []
    for u in sorted(adj):
        for v in sorted(adj[u]):
            xs.append(deg[u])
            ys.append(deg[v])
    if not xs:
        return 0.0, False
    x = np.array(xs, dtype=float)
    y = np.array(ys, dtype=float)
    vx, vy = x.var(), y.var()
    if vx == 0.0 or vy == 0.0:
        return 0.0, False
    return float(((x - x.mean()) * (y - y.mean())).mean() / math.sqrt(vx * vy)), True


def _community_oracle(g, members):
    """Brute force: one scan of all edges per community."""
    n = len(members)
    internal = [(u, v, d) for (u, v), d in edge_dict(g).items()
                if u in members and v in members]
    e_in = len(internal)
    sub_adj = {u: set() for u in members}
    for u, v, _ in internal:
        sub_adj[u].add(v)
        sub_adj[v].add(u)
    cut = vol_in = vol_total = 0
    for u, v in edge_dict(g):
        u_in, v_in = u in members, v in members
        vol_total += 2
        vol_in += int(u_in) + int(v_in)
        cut += u_in != v_in
    small = min(vol_in, vol_total - vol_in)
    assortativity, assortativity_defined = _assortativity_oracle(sub_adj)
    return CommunityMetrics(
        size=n, density=2.0 * e_in / (n * (n - 1)) if n >= 2 else 0.0,
        avg_degree=2.0 * e_in / n,
        avg_weight=math.fsum(d.weight for _, _, d in internal) / e_in if e_in else 0.0,
        avg_clustering=math.fsum(_clustering_oracle(sub_adj, u) for u in members) / n,
        conductance=cut / small if small else 0.0, assortativity=assortativity,
        conductance_defined=small > 0, assortativity_defined=assortativity_defined)


def _eigenvector_oracle(g, adj):
    """Dense eigh per component (components in order of their smallest id);
    the first component within 1e-12 of the largest eigenvalue wins."""
    best_lam, best = -np.inf, None
    seen = set()
    for root in sorted(g.nodes):
        if root in seen:
            continue
        comp, stack = [], [root]
        seen.add(root)
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in adj[u] - seen:
                seen.add(v)
                stack.append(v)
        comp.sort()
        M = np.zeros((len(comp), len(comp)))
        pos = {u: i for i, u in enumerate(comp)}
        for (u, v), d in edge_dict(g).items():
            if u in pos:
                M[pos[u], pos[v]] = M[pos[v], pos[u]] = d.weight
        lams, vecs = np.linalg.eigh(M)
        if best is None or lams[-1] > best_lam + 1e-12:
            best_lam, best = lams[-1], dict(zip(comp, np.abs(vecs[:, -1])))
    norm = math.sqrt(sum(x * x for x in best.values()))
    return {u: best.get(u, 0.0) / norm for u in g.nodes}


def _edgeless_subset(adj):
    chosen = set()
    for u in sorted(adj):
        if not adj[u] & chosen:
            chosen.add(u)
    return chosen


@settings(max_examples=200, deadline=None)
@given(layers(), st.data())
# equal lambda = 2: the bipartite 6-cycle (ids first) beats the triangle
@example(from_pairs("rtw", [(f"n{k}", f"n{(k + 1) % 6}", 1.0) for k in range(6)]
                               + [("x0", "x1", 1.0), ("x1", "x2", 1.0), ("x0", "x2", 1.0)]),
         None)
# two identical triangles: the first one wins
@example(from_pairs("rtw", [("a", "b", 0.5), ("b", "c", 0.5), ("a", "c", 0.5),
                                       ("x", "y", 0.5), ("y", "z", 0.5), ("x", "z", 0.5)]),
         None)
def test_characterize_matches_dict_of_sets_oracle(g, data):
    if not g.nodes:
        return
    adj = _adjacency_sets(g)
    nodes = sorted(g.nodes)
    picks = [{nodes[0]}, set(nodes), _edgeless_subset(adj)]
    if data is not None:
        picks.append(data.draw(st.sets(st.sampled_from(nodes), min_size=1)))
    csr = GraphCSR.of(g)
    for members in picks:
        assert community_metrics(csr, members) == _community_oracle(g, members)

    vals = node_metrics(csr)
    n = len(nodes)
    for u in nodes:
        assert vals[u].degree_centrality == (len(adj[u]) / (n - 1) if n > 1 else 0.0)
        assert vals[u].local_clustering == _clustering_oracle(adj, u)
    if g.n_edges:
        want = _eigenvector_oracle(g, adj)
        for u in nodes:
            assert vals[u].eigenvector_centrality == pytest.approx(want[u], abs=1e-10)


# ---------------------------------------------------------------------------
# characterize's numpy kernels against the scipy code they replaced


def _scipy_adjacency(csr):
    import scipy.sparse as sp

    n = csr.degree.size
    return sp.csr_matrix((csr.weight, csr.indices, csr.indptr), shape=(n, n))


def _pagerank_scipy(A, damping):
    """The scipy PageRank that characterize._pagerank replaced."""
    import scipy.sparse as sp

    n = A.shape[0]
    out_strength = np.asarray(A.sum(axis=1)).ravel()
    dangling = out_strength == 0.0
    inv = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, out_strength))
    PT = (sp.diags(inv) @ A).T
    x = np.full(n, 1.0 / n)
    teleport = (1.0 - damping) / n
    for _ in range(100000):
        x_new = damping * (PT @ x) + teleport
        x_new += damping * x[dangling].sum() / n
        err = np.abs(x_new - x).sum()
        x = x_new
        if err < 1e-12:
            break
    return x / x.sum()


def _eigenvector_eigsh(A):
    """The ARPACK eigenvector centrality that GraphCSR.eigen replaced."""
    from scipy.sparse.csgraph import connected_components
    from scipy.sparse.linalg import eigsh

    n_comp, labels = connected_components(A, directed=False)
    best_val, best_idx, best_vec = -np.inf, None, None
    for c in range(n_comp):
        idx = np.flatnonzero(labels == c)
        if idx.size == 1:
            lam, vec = 0.0, np.ones(1)
        else:
            vals, vecs = eigsh(A[idx][:, idx], k=1, which="LA", v0=np.ones(idx.size))
            lam, vec = float(vals[0]), vecs[:, 0]
        if lam > best_val + 1e-12 or best_vec is None:
            best_val, best_idx, best_vec = lam, idx, vec
    out = np.zeros(A.shape[0])
    out[best_idx] = np.abs(best_vec)
    return best_val, out / np.linalg.norm(out)


@st.composite
def random_graphs(draw):
    """Denser graphs than layers(): up to 60 nodes at edge probability up
    to 0.9, so that triangles and wedges are plentiful."""
    n = draw(st.integers(2, 60))
    p = draw(st.sampled_from([0.05, 0.2, 0.5, 0.9]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    iu, iv = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < p
    w = rng.uniform(0.01, 3.0, size=iu.size)
    return from_pairs("rtw", [(f"n{a:02d}", f"n{b:02d}", float(x))
                                         for a, b, x in zip(iu[keep], iv[keep], w[keep])],
                                 nodes=[f"n{k:02d}" for k in range(n)])


STAR = from_pairs("rtw", [("hub", f"leaf{k:04d}", 1.0) for k in range(2000)])
BIPARTITE = from_pairs("rtw", [(f"a{i}", f"b{j}", 0.5 + i + j)
                                          for i in range(5) for j in range(7)])
# a 37-node component on which Lanczos with a basis of 4 needs 424 steps:
# more than 100 restarts of that basis allow
SLOW_LANCZOS = from_pairs("rtw", [
    (f"n{a:02d}", f"n{b:02d}", w) for a, b, w in zip(
        [0, 0, 0, 0, 1, 2, 3, 4, 5, 5, 6, 6, 8, 8, 8, 9, 9, 10, 10, 10, 11, 11, 12,
         12, 13, 13, 13, 14, 14, 19, 20, 20, 20, 22, 22, 24, 24, 26, 27, 27, 28, 28,
         28, 31, 38, 40],
        [1, 19, 25, 26, 32, 38, 17, 18, 44, 45, 25, 36, 16, 24, 30, 25, 36, 12, 35,
         37, 29, 43, 35, 46, 27, 31, 45, 18, 34, 31, 39, 40, 44, 32, 41, 27, 46, 29,
         29, 42, 36, 42, 47, 41, 45, 45],
        [1.53322417, 1.85304112, 2.66948086, 1.5583767, 1.52941858, 1.24406535,
         0.71971772, 1.18784095, 1.00472581, 2.72725927, 2.57834816, 0.87177781,
         2.77789722, 1.37087016, 0.63076818, 0.81356127, 0.04029387, 2.83285607,
         1.34713069, 0.64892223, 1.45042525, 0.0325185, 2.25236303, 0.78985848,
         0.65937668, 2.94453174, 0.82298232, 2.70267516, 1.30110742, 0.87779529,
         1.34376909, 1.46123814, 2.72073338, 1.87734614, 0.09984187, 2.59105382,
         0.65508197, 1.56291725, 1.25108039, 2.29915293, 1.95838734, 2.17877238,
         0.11412386, 0.90988095, 1.89877114, 0.62350265])],
    nodes=[f"n{k:02d}" for k in range(48)])


@settings(max_examples=150, deadline=None)
@given(random_graphs() | layers())
@example(STAR)
@example(BIPARTITE)
def test_triangles_match_masked_product(g):
    csr = GraphCSR.of(g)
    B = _scipy_adjacency(csr)
    B.data[:] = 1
    B = B.astype(np.int64)
    want = np.asarray((B @ B).multiply(B).sum(axis=1)).ravel()
    assert (2 * _triangles(csr)).tolist() == want.tolist()
    with mock.patch.object(characterize, "_WEDGE_BUDGET", 3):  # many small blocks
        assert (2 * _triangles(csr)).tolist() == want.tolist()


@settings(max_examples=150, deadline=None)
@given(random_graphs() | layers())
def test_component_labels_match_csgraph(g):
    from scipy.sparse.csgraph import connected_components

    csr = GraphCSR.of(g)
    want = connected_components(_scipy_adjacency(csr), directed=False)[1]
    assert _component_labels(g.n_nodes, g.u, g.v).tolist() == want.tolist()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)),
                                    max_size=60))
def test_component_labels_of_raw_rows_match_csgraph(n, pairs):
    # one direction per row, in any order, with self-loops, repeats and
    # nodes that no row touches
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    u = np.array([a % n for a, _ in pairs], dtype=np.int64)
    v = np.array([b % n for _, b in pairs], dtype=np.int64)
    adj = coo_matrix((np.ones(u.size), (u, v)), shape=(n, n))
    want = connected_components(adj, directed=False)[1]
    assert _component_labels(n, u, v).tolist() == want.tolist()


@settings(max_examples=150, deadline=None)
@given(random_graphs() | layers(), st.sampled_from([0.5, 0.85, 0.99]))
@example(STAR, 0.85)
def test_pagerank_matches_scipy_bit_for_bit(g, damping):
    if not g.n_edges:
        return
    csr = GraphCSR.of(g)
    assert _pagerank(csr, damping).tolist() == _pagerank_scipy(_scipy_adjacency(csr),
                                                               damping).tolist()


@settings(max_examples=150, deadline=None)
@given(random_graphs() | layers())
@example(STAR)
@example(BIPARTITE)
@example(SLOW_LANCZOS)
def test_eigenvector_matches_eigsh(g):
    if not g.n_edges:
        return
    csr = GraphCSR.of(g)
    lam, want = _eigenvector_eigsh(_scipy_adjacency(csr))
    got = csr.eigen
    assert got.lambda1 == pytest.approx(lam, rel=1e-12)
    assert np.abs(got.vector - want).max() <= 1e-10
    assert 1 <= got.components <= g.n_nodes // 2
    assert got.steps >= got.components
    assert got.ritz2 is None or got.ritz2 <= got.lambda1
    with mock.patch.object(characterize, "_LANCZOS_MAX_STEPS", 4):  # restarts
        restarted = GraphCSR.of(g).eigen
    assert restarted.lambda1 == pytest.approx(lam, rel=1e-12)
    assert np.abs(restarted.vector - want).max() <= 1e-10


@settings(max_examples=400, deadline=None)
@given(st.floats(min_value=1.0, max_value=1e5), st.floats(min_value=-50.0, max_value=0.0))
@example(1283.0, -2.6e-5)     # a continued fraction in x alone is off by 1.8e-9 here
@example(1e5, -2.1)           # large df near the mean of Beta(df/2, 1/2)
@example(9e4, -1.9)           # 1 - x instead of t^2 / (df + t^2) is off by 2.6e-12 here
@example(1e5, -50.0)          # underflows to 0
@example(1.0, -1e-8)
@example(1.0, -50.0)
def test_t_tail_matches_stdtr(df, t):
    from scipy.special import stdtr

    # stdtr's df = 1 branch is off by up to 3e-9 near t = 0, so the Cauchy
    # closed form is the reference there; below 1e-300 doubles lose their
    # relative precision
    want = 0.5 + math.atan(t) / math.pi if df == 1.0 else float(stdtr(df, t))
    assert _t_tail(df, t) == pytest.approx(want, rel=1e-12, abs=1e-300)


# ---------------------------------------------------------------------------
# filtering, flattening and modularity against the dict code they replaced
#
# A graph in dict form is (layer, node set, {(u, v): (weight, co_actions,
# window_count)}) with u < v, in the graph's row order.


def _dict_form(g):
    return g.layer, set(g.nodes), edge_dict(g)


def _rows(g):
    """Everything a graph holds: layer, node tuple and the edge rows in order."""
    return g.layer, g.nodes, [(u, v, *d) for (u, v), d in edge_dict(g).items()]


def _oracle_rows(layer, nodes, edges):
    return layer, tuple(sorted(nodes)), [(u, v, *d) for (u, v), d in sorted(edges.items())]


def _prune_oracle(edges):
    return {x for key in edges for x in key}, dict(edges)


def _auto_threshold_oracle(edges, max_nodes):
    if not edges:
        return 1
    by_co = sorted(edges.items(), key=lambda kv: -kv[1][1])
    nodes = set()
    i = 0
    while i < len(by_co):
        co = by_co[i][1][1]
        while i < len(by_co) and by_co[i][1][1] == co:
            nodes.update(by_co[i][0])
            i += 1
        if len(nodes) > max_nodes:
            return co + 1
    return 1


def _filter_layer_oracle(layer, nodes, edges, cfg):
    auto = cfg.th_a is None
    th_a = _auto_threshold_oracle(edges, cfg.max_nodes) if auto else cfg.th_a
    report = dict(layer=layer, th_a=th_a, th_a_auto=auto, weight_rule=cfg.weight_rule,
                  weight_threshold=None, nodes_raw=len(nodes), edges_raw=len(edges))
    nodes1, edges1 = _prune_oracle({k: d for k, d in edges.items() if d[1] >= th_a})
    report.update(nodes_actions=len(nodes1), edges_actions=len(edges1))
    if not edges1:
        nodes2, edges2, threshold = set(), {}, 0.0
    else:
        if cfg.weight_rule == "median":
            ws = sorted(d[0] for d in edges1.values())
            threshold = ws[(len(ws) - 1) // 2]
        else:
            threshold = float(cfg.weight_value)
        nodes2, edges2 = _prune_oracle({k: d for k, d in edges1.items() if d[0] >= threshold})
    report.update(weight_threshold=threshold if edges1 else None,
                  nodes_final=len(nodes2), edges_final=len(edges2))
    return (layer, nodes2, edges2), report


def _flatten_union_oracle(forms, strategy):
    per_edge = defaultdict(list)
    nodes = set()
    for _, layer_nodes, edges in forms:
        nodes |= layer_nodes
        for key, d in edges.items():
            per_edge[key].append(d)
    out = {}
    for key in sorted(per_edge):
        ds = per_edge[key]
        if strategy == "nw":
            w = 1.0
        elif strategy == "ec":
            w = float(len(ds))
        else:
            w = math.fsum(d[0] for d in ds)
        out[key] = (w, sum(d[1] for d in ds), sum(d[2] for d in ds))
    return f"unfl-{strategy}", nodes, out


def _flatten_intersection_oracle(forms):
    counts = defaultdict(int)
    for _, _, edges in forms:
        for key in edges:
            counts[key] += 1
    out = {}
    for key in sorted(counts):
        if counts[key] == len(forms):
            ds = [edges[key] for _, _, edges in forms]
            out[key] = (math.fsum(d[0] for d in ds), sum(d[1] for d in ds),
                        sum(d[2] for d in ds))
    return "intfl", {x for key in out for x in key}, out


def _modularity_oracle(form, assignment, gamma):
    _, nodes, edges = form
    two_m = 2.0 * math.fsum(d[0] for d in edges.values())
    if two_m == 0.0:
        return 0.0
    strength = defaultdict(float)
    internal = defaultdict(float)
    for (u, v), d in edges.items():
        strength[u] += d[0]
        strength[v] += d[0]
        if assignment[u] == assignment[v]:
            internal[assignment[u]] += 2.0 * d[0]
    comm_strength = defaultdict(float)
    for n in sorted(nodes):
        comm_strength[assignment[n]] += strength[n]
    return math.fsum(internal.get(c, 0.0) / two_m - gamma * (k / two_m) ** 2
                     for c, k in sorted(comm_strength.items()))


def _multislice_oracle(forms, assignment, gamma, omega):
    copies = defaultdict(int)
    for layer, nodes, _ in forms:
        for node in nodes:
            copies[node] += 1
    coupling_total = omega * math.fsum(c * (c - 1) for c in copies.values())
    two_m = {layer: 2.0 * math.fsum(d[0] for d in edges.values())
             for layer, _, edges in forms}
    two_mu = math.fsum(two_m.values()) + coupling_total
    if two_mu == 0.0:
        return 0.0
    raw = 0.0
    for layer, nodes, edges in forms:
        if not edges:
            continue
        strength = defaultdict(float)
        internal = 0.0
        for (u, v), d in edges.items():
            strength[u] += d[0]
            strength[v] += d[0]
            if assignment[(u, layer)] == assignment[(v, layer)]:
                internal += 2.0 * d[0]
        comm_strength = defaultdict(float)
        for node in sorted(nodes):
            comm_strength[assignment[(node, layer)]] += strength[node]
        null = math.fsum(k * k for _, k in sorted(comm_strength.items())) / two_m[layer]
        raw += internal - gamma * null
    if omega != 0.0:
        coupled = 0.0
        for actor in sorted(copies):
            layers_of = [layer for layer, nodes, _ in forms if actor in nodes]
            for i in range(len(layers_of)):
                for j in range(i + 1, len(layers_of)):
                    if assignment[(actor, layers_of[i])] == assignment[(actor, layers_of[j])]:
                        coupled += 2.0 * omega
        raw += coupled
    return raw / two_mu


def _adjacency_oracle(g):
    """The per-edge insertion loop of the old Louvain set-up."""
    adj = [{} for _ in g.nodes]
    for a, b, w in zip(g.u.tolist(), g.v.tolist(), g.weight.tolist()):
        adj[a][b] = adj[a].get(b, 0.0) + w
        adj[b][a] = adj[b].get(a, 0.0) + w
    return adj


filter_configs = st.builds(
    FilterConfig, th_a=st.none() | st.integers(1, 4), max_nodes=st.integers(1, 15),
    weight_rule=st.just("median")) | st.builds(
    FilterConfig, th_a=st.none() | st.integers(1, 4), max_nodes=st.integers(1, 15),
    weight_rule=st.just("fixed"), weight_value=weights)


@settings(max_examples=200, deadline=None)
@given(multiplexes(max_layers=5), filter_configs)
def test_filter_matches_dict_oracle(net, cfg):
    for g in net.layers.values():
        got, report = filter_layer(g, cfg)
        want, want_report = _filter_layer_oracle(*_dict_form(g), cfg)
        assert _rows(got) == _oracle_rows(*want)
        assert dataclasses.asdict(report) == want_report


@settings(max_examples=200, deadline=None)
@given(multiplexes(max_layers=5))
def test_flatten_matches_dict_oracle(net):
    forms = [_dict_form(g) for g in net.layers.values()]
    for strategy in ("nw", "ec", "sum"):
        got = flatten_union(net, strategy)
        assert _rows(got) == _oracle_rows(*_flatten_union_oracle(forms, strategy))
    if len(forms) < 2:
        with pytest.raises(ValueError):
            flatten_intersection(net)
    else:
        got = flatten_intersection(net)
        assert _rows(got) == _oracle_rows(*_flatten_intersection_oracle(forms))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=60),
       st.lists(st.integers(0, 49), max_size=5))
def test_n_components_matches_csgraph(pairs, isolated):
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    seen, rows = set(), []
    for a, b in pairs:
        if a != b and frozenset((a, b)) not in seen:
            seen.add(frozenset((a, b)))
            rows.append((f"n{a:02d}", f"n{b:02d}", 1.0))
    g = from_pairs("rtw", rows, nodes=[f"n{k:02d}" for k in isolated])
    adj = coo_matrix((np.ones(g.n_edges), (g.u, g.v)), shape=(g.n_nodes, g.n_nodes))
    want = connected_components(adj, directed=False)[0] if g.nodes else 0
    assert _n_components(g) == want


@settings(max_examples=200, deadline=None)
@given(layers())
def test_louvain_adjacency_keeps_insertion_order(g):
    # neighbour order decides the order of Louvain's float sums
    csr = CSR.symmetric(g.n_nodes, g.u, g.v, g.weight)
    got = _csr_rows(csr.indptr, csr.indices, csr.weight)
    assert got == [list(d.items()) for d in _adjacency_oracle(g)]


class _ZeroLabels:
    """st.data() in a pinned example: every drawn label is 0."""

    def draw(self, strategy):
        return 0


@settings(max_examples=200, deadline=None)
@given(multiplexes(max_layers=5), st.data(), st.sampled_from([0.5, 1.0, 2.0]),
       st.sampled_from([0.0, 0.1, 1.0]))
# one actor in all five layers, in one community: the coupled term adds 0.2
# ten times, which gives 1.9999999999999998, and 10 * 0.2 gives 2.0
@example(MultiplexNetwork({name: from_pairs(name, [], nodes=["a"])
                           for name in LAYER_NAMES}), _ZeroLabels(), 1.0, 0.1)
def test_modularity_matches_dict_oracle(net, data, gamma, omega):
    forms = [_dict_form(g) for g in net.layers.values()]
    labels = st.integers(0, 3)
    for form in forms:
        assignment = {n: data.draw(labels) for n in sorted(form[1])}
        if assignment:
            p = Partition(form[0], assignment)
            assert modularity(net.layers[form[0]], p, gamma) == \
                _modularity_oracle(form, assignment, gamma)
    supra = {(n, layer): data.draw(labels) for layer, nodes, _ in forms for n in sorted(nodes)}
    p = Partition("multi", supra)
    assert multislice_modularity(net, p, gamma, omega) == \
        _multislice_oracle(forms, supra, gamma, omega)


# ---------------------------------------------------------------------------
# compare: overlap and NMI bounds and symmetry, and the OverlapMatrix
# registry against the dict code it replaced: a set intersection per pair
# of communities, node -> community dicts for the node labels and for NMI

node_pool = st.sampled_from([f"v{k}" for k in range(15)])
assignments = st.dictionaries(node_pool, st.integers(0, 4), min_size=1)


def _sets(assignment, min_size):
    """{community id: members} of the communities with more than min_size."""
    groups = defaultdict(set)
    for node, cid in assignment.items():
        groups[cid].add(node)
    return {cid: frozenset(m) for cid, m in groups.items() if len(m) > min_size}


def _sorted_sets(assignment, min_size):
    sets = _sets(assignment, min_size)
    ids = tuple(sorted(sets, key=lambda c: (type(c).__name__, c)))
    return ids, tuple(sets[i] for i in ids)


def _overlap_oracle(C_A, C_B, min_size):
    a_ids, a_members = _sorted_sets(C_A, min_size)
    b_ids, b_members = _sorted_sets(C_B, min_size)
    counts = np.zeros((len(b_ids), len(a_ids)), dtype=np.int64)
    values = np.zeros((len(b_ids), len(a_ids)))
    for bi, bm in enumerate(b_members):
        for aj, am in enumerate(a_members):
            # the harmonic mean of |A n B|/|A| and |A n B|/|B|, rounded once
            inter = counts[bi, aj] = len(am & bm)
            values[bi, aj] = float(Fraction(2 * inter, len(am) + len(bm)))
    return (a_ids, b_ids, a_members, b_members), counts, values


def _label_nodes_oracle(a_members, b_members, M):
    a_of = {node: idx for idx, m in enumerate(a_members) for node in m}
    b_of = {node: idx for idx, m in enumerate(b_members) for node in m}
    matched = set(M.pairs)
    labels = {}
    for node in set(a_of) | set(b_of):
        ai = a_of.get(node)
        bi = b_of.get(node)
        if ai is not None and bi is not None and (ai, bi) in matched:
            labels[node] = "common"
        elif ai is not None:
            labels[node] = "lost"
        else:
            labels[node] = "gained"
    return labels


def _nmi_oracle(p1, p2, min_size):
    of1 = {node: cid for cid, m in _sets(p1, min_size).items() for node in m}
    of2 = {node: cid for cid, m in _sets(p2, min_size).items() for node in m}
    universe = set(of1) & set(of2)
    if not universe:
        raise DataError("no common nodes")
    n = len(universe)
    joint, c1, c2 = defaultdict(int), defaultdict(int), defaultdict(int)
    for node in universe:
        a, b = of1[node], of2[node]
        joint[(a, b)] += 1
        c1[a] += 1
        c2[b] += 1
    h1 = -math.fsum((c / n) * math.log(c / n) for c in c1.values())
    h2 = -math.fsum((c / n) * math.log(c / n) for c in c2.values())
    if h1 + h2 == 0.0:
        return 0.0
    mi = math.fsum((cnt / n) * math.log(n * cnt / (c1[a] * c2[b]))
                   for (a, b), cnt in joint.items())
    return min(1.0, max(0.0, 2.0 * mi / (h1 + h2)))


def _outcome(f, *args):
    try:
        return f(*args)
    except DataError:
        return DataError


@settings(max_examples=300, deadline=None)
@given(assignments, assignments, st.integers(0, 2))
def test_overlap_labels_and_nmi_match_dict_oracles(a, b, min_size):
    O = overlap_matrix(a, b, min_size=min_size)
    registry, counts, values = _overlap_oracle(a, b, min_size)
    assert (O.a_ids, O.b_ids, O.a_members, O.b_members) == registry
    assert O.counts.tolist() == counts.tolist()
    assert O.values.tolist() == values.tolist()
    M = hungarian_match(O)
    assert label_nodes(O, M) == _label_nodes_oracle(O.a_members, O.b_members, M)
    assert _outcome(nmi, O) == _outcome(_nmi_oracle, a, b, min_size)


@settings(max_examples=300, deadline=None)
@given(assignments, assignments, st.integers(0, 2))
def test_overlap_matrix_bounds_and_swap(a, b, min_size):
    O = overlap_matrix(a, b, min_size=min_size)
    assert ((O.values >= 0.0) & (O.values <= 1.0)).all()
    swapped = overlap_matrix(b, a, min_size=min_size)
    assert (swapped.a_ids, swapped.b_ids) == (O.b_ids, O.a_ids)
    assert np.array_equal(swapped.values, O.values.T)


@settings(max_examples=300, deadline=None)
@given(assignments, assignments, st.permutations(range(5)))
def test_nmi_bounds_symmetry_and_relabeling(a, b, perm):
    if set(a) & set(b):
        value = nmi(overlap_matrix(a, b))
        assert 0.0 <= value <= 1.0
        assert nmi(overlap_matrix(b, a)) == value
    relabeled = {node: 10 + perm[c] for node, c in a.items()}
    if len(set(a.values())) >= 2:
        assert nmi(overlap_matrix(a, relabeled)) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# ingest against the per-event loop it replaced: one ActionEvent per line,
# a stable sort of the objects by timestamp, and object loops for the
# stoplists and the actor selection

_NOT_IDS = {type(None): "null", bool: "boolean", list: "array", dict: "object"}


def _build_event(user, action, item, ts):
    for name, value in (("user", user), ("action", action), ("item", item)):
        if type(value) in _NOT_IDS:
            raise ValueError(f"{name} is a JSON {_NOT_IDS[type(value)]}, "
                             "expected a string or a number")
    user = str(user).strip()
    if not user:
        raise ValueError("empty user id")
    if _CONTROL_CHARS.search(user):
        raise ValueError(f"control character in user id {user!r}")
    action = str(action).strip().lower()
    if action not in ACTIONS:
        raise ValueError(f"unknown action token {action!r}")
    item = str(item).strip()
    if action == HST:
        item = item.lstrip("#").lower()
    elif action == MEN:
        item = item.lstrip("@")
    elif action == URL:
        item = extract_domain(item)
    if not item:
        raise ValueError("empty item id")
    if _CONTROL_CHARS.search(item):
        raise ValueError(f"control character in item id {item!r}")
    return ActionEvent(user, action, item, _parse_timestamp(ts))


def parse_events_oracle(path, schema):
    """(time-sorted events, rejects) of an event file, one object per line."""
    events, rejects = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or (line.startswith("#")
                                    and (schema == "jsonl" or "\t" not in line)):
                continue
            try:
                if schema == "jsonl":
                    rec = json.loads(line)
                    if not isinstance(rec, dict):
                        raise ValueError(f"expected a JSON object, got {type(rec).__name__}")
                    ev = _build_event(rec["user"], rec["action"], rec["item"], rec["ts"])
                else:
                    cols = line.split("\t")
                    if len(cols) != 4:
                        raise ValueError(f"expected 4 columns, got {len(cols)}")
                    ev = _build_event(*cols)
            except (ValueError, KeyError, TypeError) as exc:
                rejects.append(RecordError(line_no, str(exc)))
                continue
            events.append(ev)
    events.sort(key=lambda e: e.timestamp)
    return events, rejects


def apply_stoplists_oracle(events, stop):
    return [e for e in events
            if not ((e.action == HST and e.item_id in stop.hashtags)
                    or (e.action == MEN and e.item_id in stop.mentions)
                    or (e.action == URL and e.item_id in stop.url_domains))]


def select_users_oracle(events, fraction):
    counts = {a: Counter() for a in ACTIONS}
    for e in events:
        counts[e.action][e.user_id] += 1
    top = {}
    for a, c in counts.items():
        ranked = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))
        top[a] = frozenset(u for u, _ in ranked[:math.ceil(Fraction(repr(fraction)) * len(c))])
    return top


def _exact(events):
    """Rows with the timestamp's bits, so 0.0 and -0.0 differ."""
    return [(e.user_id, e.action, e.item_id, float(e.timestamp).hex()) for e in events]


# Each field is mostly a good value and sometimes one of many bad or odd ones:
# ids with the characters ingest strips, lowercases or refuses, and JSON
# values that are no ids. Timestamps repeat, 0.0 and -0.0 included, to pin
# the stable order.
good_ids = st.sampled_from(["u1", "u2", "#u3", "@U4", " u5 ", "\u00e9", "12"])
id_text = st.text(st.sampled_from("aB#@ \t\x01\x7f\x85\u00e9\u2028.:/"), max_size=4)
good_urls = st.sampled_from(["https://www.Ex.COM/a?b=1", "ex.net/p", "//cdn.ex.io/x", " bbc.co.uk "])
bad_urls = st.sampled_from(["https://", "http://[::1", "", "www."])
good_actions = st.sampled_from(list(ACTIONS) + [" RTW", "Hst "])
bad_actions = st.sampled_from(["like", "", "r tw"])
repeated_times = st.sampled_from([0.0, -0.0, 1.5, 1e9])
good_times = st.one_of(repeated_times, st.integers(-10, 10**10), st.sampled_from(
    ["1970-01-01T00:00:10Z", "1970-01-01t00:00:10z", "1970-01-01T00:00:10",
     "1970-01-01T00:00:10+02:00", "12.5", " 7 ", "1e3", "-0.0", "0"]))
bad_times = st.one_of(st.floats(), st.sampled_from(
    ["NaN", "Infinity", "-inf", "not-a-time", "", "1970-13-01"]))
json_ids = st.one_of(st.integers(-5, 5), st.floats(allow_nan=False), st.none(),
                     st.booleans(), st.just(["a"]), st.just({"a": 1}))


def _mostly(draw, good, bad):
    return draw(bad if draw(st.integers(0, 5)) == 0 else good)


@st.composite
def jsonl_lines(draw):
    kind = draw(st.sampled_from(["row", "row", "row", "truncated", "not object",
                                 "comment", "blank"]))
    if kind == "comment":
        return "#" + draw(id_text)
    if kind == "blank":
        return draw(st.sampled_from(["", "  ", "\t"]))
    if kind == "not object":
        return draw(st.sampled_from(["[1,2,3]", "5", '"u1"', "null", "true", "{}"]))
    action = _mostly(draw, good_actions, st.one_of(bad_actions, json_ids))
    items = (good_urls, bad_urls) if action == "url" else (good_ids, id_text)
    rec = {"user": _mostly(draw, good_ids, st.one_of(id_text, json_ids)), "action": action,
           "item": _mostly(draw, items[0], st.one_of(items[1], json_ids)),
           "ts": _mostly(draw, good_times, st.one_of(bad_times, json_ids))}
    if draw(st.integers(0, 9)) == 0:
        del rec[draw(st.sampled_from(sorted(rec)))]  # a missing key
    line = json.dumps(rec, ensure_ascii=draw(st.booleans()))
    if kind == "truncated":
        line = line[:draw(st.integers(0, len(line) - 1))]
    return line


@st.composite
def tsv_lines(draw):
    kind = draw(st.sampled_from(["row", "row", "row", "columns", "comment", "blank"]))
    if kind == "comment":
        return "#" + draw(st.text(st.sampled_from("ab #"), max_size=4))
    if kind == "blank":
        return draw(st.sampled_from(["", "  "]))
    action = _mostly(draw, good_actions, bad_actions)
    ts = _mostly(draw, good_times, bad_times)
    items = (good_urls, bad_urls) if action == "url" else (good_ids, id_text)
    cols = [_mostly(draw, good_ids, id_text), action, _mostly(draw, *items),
            ts if isinstance(ts, str) else repr(ts)]
    if kind == "columns":
        cols = cols[:draw(st.integers(1, 3))] if draw(st.booleans()) else cols + ["x"]
    return "\t".join(cols)


@st.composite
def event_files(draw):
    schema = draw(st.sampled_from(["jsonl", "tsv"]))
    lines = draw(st.lists(jsonl_lines() if schema == "jsonl" else tsv_lines(), max_size=40))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no newline at the end
    if draw(st.booleans()):
        text = "\ufeff" + text  # a byte order mark on line 1
    return schema, text


@settings(max_examples=400, deadline=None)
@given(event_files())
@example(("tsv", "".join(f"u{k}\trtw\ti{k}\t{(0.0, -0.0, 1.0)[k % 3]!r}\n"
                         for k in range(40))))
def test_parse_events_matches_oracle(case):
    schema, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "events")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        log = parse_events(path, schema)
        events, rejects = parse_events_oracle(path, schema)
    assert _exact(log.events) == _exact(events)
    assert log.rejects == tuple(rejects)
    assert log.ts.dtype == np.float64 and not log.ts.flags.writeable
    stamps = [e.timestamp for e in events]
    want = (min(stamps), max(stamps)) if stamps else None
    assert [t.hex() for t in log.time_span or ()] == [t.hex() for t in want or ()]


@settings(max_examples=300, deadline=None)
@given(st.lists(repeated_times | st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=40))
@example([0.0, -0.0, 0.0])
@example([-0.0, 0.0, -0.0])
def test_time_span_is_the_first_min_and_max(stamps):
    # of equal stamps, -0.0 and 0.0, the span keeps the first, as Python's
    # min and max do
    codes = np.zeros(len(stamps), np.int32)
    log = EventLog(codes, codes, codes, stamps, ("u",), ("t",))
    want = min(log.ts.tolist()), max(log.ts.tolist())
    assert [(t, math.copysign(1.0, t)) for t in log.time_span] == \
        [(t, math.copysign(1.0, t)) for t in want]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["u1", "u2", "u3"]), st.sampled_from(ACTIONS),
                          st.sampled_from(["a", "b"]),
                          repeated_times | st.floats(allow_nan=False, allow_infinity=False)),
                max_size=40))
@example([("u1", "rtw", "a", 1.5), ("u2", "rtw", "a", 0.0), ("u3", "rtw", "a", -0.0),
          ("u1", "hst", "b", 0.0)])
def test_event_log_is_in_stable_time_order(rows):
    # built from rows or from code columns, a log holds the rows sorted
    # stably by stamp: equal stamps, -0.0 and 0.0 among them, keep the
    # given order
    want = _exact(ActionEvent(*r) for r in sorted(rows, key=lambda r: r[3]))
    assert _exact(EventLog.from_events(rows).events) == want
    users, items = sorted({r[0] for r in rows}), sorted({r[2] for r in rows})
    log = EventLog([users.index(r[0]) for r in rows], [ACTIONS.index(r[1]) for r in rows],
                   [items.index(r[2]) for r in rows], [r[3] for r in rows],
                   tuple(users), tuple(items))
    assert _exact(log.events) == want


@pytest.mark.parametrize("cache_size", [1, 2, 4096])
def test_parse_events_domain_cache_keeps_rejects(cache_size):
    # repeated good and bad URLs, with the cache emptied every few rows
    urls = ["http://a.com/x", "b.org", "http://[::1", "http://a.com/x", "www.c.net/p",
            "http://[::1", "b.org", "https://", "www.c.net/p", "B.ORG:80/q"]
    text = "".join(f"u{k % 3}\turl\t{u}\t{k}\n" for k, u in enumerate(urls * 3))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "events")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with mock.patch.object(ingest, "_DOMAIN_CACHE_SIZE", cache_size):
            log = parse_events(path, "tsv")
        events, rejects = parse_events_oracle(path, "tsv")
    assert _exact(log.events) == _exact(events)
    assert log.rejects == tuple(rejects) and len(rejects) == 9


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["u1", "u2", "u3", "u4"]), st.sampled_from(ACTIONS),
                          st.sampled_from(["a", "b", "spam"]), repeated_times), max_size=30),
       st.lists(st.sampled_from(["a", "b", "spam"]), max_size=2),
       st.lists(st.sampled_from(["a", "b", "spam"]), max_size=2),
       st.lists(st.sampled_from(["a", "b", "spam"]), max_size=2),
       st.floats(0.01, 1.0))
def test_stoplists_and_selection_match_object_loops(rows, tags, mentions, domains, fraction):
    events = [ActionEvent(*r) for r in rows]
    log = EventLog.from_events(events)
    stop = StopLists.from_sets(hashtags=tags, mentions=mentions, url_domains=domains)
    out = apply_stoplists(log, stop)
    kept = sorted(apply_stoplists_oracle(events, stop), key=lambda e: e.timestamp)
    assert _exact(out.events) == _exact(kept)
    assert out.time_span == (log.time_span if kept else None)
    assert out.rejects == log.rejects
    if kept:
        assert select_users(out, fraction).per_action_top == select_users_oracle(kept, fraction)


# ---------------------------------------------------------------------------
# TSV round trips over every id that ingest accepts


def _ingest_accepts(user_id):
    try:
        return _build_event(user_id, "rtw", "item", 0.0).user_id == user_id
    except ValueError:
        return False


ids = st.builds(str.__add__, st.sampled_from(["", "#", "#é", "ü", "用户"]),
                st.text(max_size=6)).filter(_ingest_accepts)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(ids, ids, st.floats(min_value=0.0, exclude_min=True,
                                              max_value=MAX_WEIGHT),
                          st.integers(1, 10**6), st.integers(1, 10**6)), max_size=20),
       st.dictionaries(ids, st.integers(0, 10**6), min_size=1),
       st.dictionaries(st.tuples(ids, st.sampled_from(LAYER_NAMES)), st.integers(0, 50),
                       min_size=1))
def test_tsv_round_trips(rows, assignment, supra):
    seen, pairs = set(), []
    for u, v, *data in rows:
        if u != v and frozenset((u, v)) not in seen:
            seen.add(frozenset((u, v)))
            pairs.append((u, v, *data))
    g = from_pairs("hst", pairs)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.tsv")
        write_edges_tsv(path, g)
        back = read_edges_tsv(path)
        assert _rows(back) == _rows(g)

        write_partition_tsv(path, Partition("hst", assignment))
        assert read_partition_tsv(path).assignment == assignment

        write_multiplex_partition_tsv(path, Partition("multi", supra))
        assert read_multiplex_partition_tsv(path).assignment == supra


# ---------------------------------------------------------------------------
# table readers against the row reader they replaced: a list of fields per
# row, and from_pairs (conftest) building a tuple per row


def _tsv_rows_oracle(path, what, n_cols):
    with reading(path, what) as fh:
        text = fh.read()
    lines = text.split("\n")
    kept = [k for k, line in enumerate(lines) if line.strip()]
    head = next((i for i, k in enumerate(kept) if not lines[k].startswith("#")), len(kept))
    directives = {}
    for k in kept[:head]:
        key, _, value = lines[k][1:].strip().partition(" ")
        directives[key] = (k + 1, value.strip())
    body = kept[head + 1:]
    rows = [lines[k].split("\t") for k in body]
    if set(map(len, rows)) - {n_cols}:
        k, parts = next((k, p) for k, p in zip(body, rows) if len(p) != n_cols)
        raise DataError(f"{path}:{k + 1}: expected {n_cols} columns, got {len(parts)}")
    return directives, [k + 1 for k in body], rows


def _from_pairs_oracle(layer, pairs):
    rows = [tuple(p) for p in pairs]
    a, b, w, co, wc = zip(*rows) if rows else ((),) * 5
    try:
        weight = np.array(list(map(float, w)), dtype=float)
        co, wc = (np.asarray(list(map(int, c)), dtype=np.int64) for c in (co, wc))
    except (ValueError, OverflowError):
        int64 = np.iinfo(np.int64)
        for k, r in enumerate(rows):
            try:
                float(r[2]), int(r[3]), int(r[4])
            except ValueError:
                raise EdgeRowError(k, f"not a number in {r[2:]!r}") from None
            if not all(int64.min <= int(c) <= int64.max for c in r[3:]):
                raise EdgeRowError(k, f"count outside int64 in {r[2:]!r}")
        raise
    names = tuple(sorted(set(a).union(b)))
    index = {x: k for k, x in enumerate(names)}
    ia = np.asarray(list(map(index.__getitem__, a)), dtype=np.int64)
    ib = np.asarray(list(map(index.__getitem__, b)), dtype=np.int64)
    u, v = np.minimum(ia, ib), np.maximum(ia, ib)
    order = np.lexsort((v, u))
    repeat = np.zeros(len(rows), dtype=bool)
    repeat[order[1:]] = (u[order[1:]] == u[order[:-1]]) & (v[order[1:]] == v[order[:-1]])
    problems = (("self-loop", ia == ib), ("pair already seen", repeat),
                ("weight not finite and positive", ~(np.isfinite(weight) & (weight > 0))),
                ("weight above 1e+100", weight > MAX_WEIGHT),
                ("co_actions or window_count below 1", (co < 1) | (wc < 1)))
    bad = [(int(np.argmax(mask)), reason) for reason, mask in problems if mask.any()]
    if bad:
        raise EdgeRowError(*min(bad, key=lambda kr: kr[0]))
    return LayerGraph(layer, names, u[order], v[order], weight[order], co[order], wc[order])


def _read_edges_oracle(path):
    directives, line_nos, rows = _tsv_rows_oracle(path, "edge list", 5)
    if "layer" not in directives:
        raise DataError(f"{path}: missing '# layer' line")
    try:
        return _from_pairs_oracle(directives["layer"][1], rows)
    except EdgeRowError as exc:
        raise DataError(f"{path}:{line_nos[exc.row]}: {exc.reason}") from exc


def _assignment_oracle(path, n_cols, what):
    directives, line_nos, rows = _tsv_rows_oracle(path, what, n_cols)
    out = {}
    for line, (*key, comm) in zip(line_nos, rows):
        key = key[0] if len(key) == 1 else tuple(key)
        if key in out:
            raise DataError(f"{path}:{line}: {what} {key!r} repeated")
        try:
            out[key] = int(comm)
        except ValueError:
            raise DataError(f"{path}:{line}: community id {comm!r} is not an integer") from None
    return directives, out


def _read_partition_oracle(path):
    directives, assignment = _assignment_oracle(path, 2, "user")
    if "scope" not in directives:
        raise DataError(f"{path}: missing '# scope' line")
    if not assignment:
        raise DataError(f"{path}: empty partition")
    return Partition(directives["scope"][1], assignment)


def _read_multiplex_oracle(path):
    _, assignment = _assignment_oracle(path, 3, "(user, layer)")
    if not assignment:
        raise DataError(f"{path}: empty multiplex partition")
    return Partition("multi", assignment)


def _read_outcome(read, path):
    """What a reader gives for a file: its value, or the DataError text."""
    try:
        return "value", read(path)
    except DataError as exc:
        return "error", str(exc)


# names that start with '#', hold U+2028 or U+0085, or carry spaces; numbers
# that Python's float and int take and numpy's parsers need not, and numbers
# no row may hold
table_ids = st.sampled_from(["u1", "u2", "u3", "#u4", "#", "a\u2028b", "c\x85", " d", "e ",
                             "é", "用户"]) | st.text("uvw#", min_size=1, max_size=3)
table_weights = (st.floats(min_value=1e-3, max_value=1e3).map(repr)
                 | st.sampled_from([" 2.0", "+1", "1_0", "٣", "1.5 "]))
bad_weights = st.sampled_from(["1e400", "1e101", "nan", "-inf", "0.0", "-0.5", "x", "", "0x1"])
table_counts = st.integers(1, 99).map(str) | st.sampled_from([" 2", "+1", "1_0", "٣", "3 "])
bad_counts = st.sampled_from(["0", "-1", "1.5", "x", "", "99999999999999999999",
                              "-99999999999999999999"])
blank_lines = st.sampled_from(["", " ", "\t", " \t ", "\t\t\t\t", "\u2028", "\x85"])


@st.composite
def table_texts(draw, header, rows, bad_rows, directives):
    """The text of a table: the directives (left out one time in ten) among
    comment and blank lines, the header, then rows with now and then a blank
    line, a row of bad values or a line with the wrong number of fields,
    each line ended by LF or CRLF."""
    n_cols = len(header)
    lines = draw(st.lists(st.sampled_from(["# multicoord 0 config x", "#", ""]), max_size=3))
    if draw(st.integers(0, 9)):
        lines += directives
    lines.append("\t".join(header))
    wrong = st.lists(table_ids, min_size=1, max_size=n_cols + 2).filter(
        lambda f: len(f) != n_cols).map("\t".join)
    for kind in draw(st.lists(st.integers(0, 19), max_size=12)):
        line = (wrong if kind == 0 else blank_lines if kind < 3 else
                bad_rows.map("\t".join) if kind == 3 else rows.map("\t".join))
        lines.append(draw(line))
    return "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)


def _table_file(text):
    fd, path = tempfile.mkstemp(suffix=".tsv")
    with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


@settings(max_examples=200, deadline=None)
@given(table_texts(EDGE_HEADER,
                   st.tuples(table_ids, table_ids, table_weights, table_counts, table_counts),
                   st.tuples(table_ids, table_ids, table_weights | bad_weights,
                             table_counts | bad_counts, table_counts | bad_counts),
                   ["# layer rtw"]), st.integers(1, 3))
@example("# layer rtw\nuser_a\tuser_b\tweight\tco_actions\twindow_count\r\n"
         "u1\tu2\t 2.0\t+1\t1_0\r\n\r\n \t \n#u4\ta\u2028b\t0.5\t1\t1\n", 2)
@example("# layer rtw\nuser_a\tuser_b\tweight\tco_actions\twindow_count\n"
         "u1\tu1\t1.0\t1\t1\nu1\t#u4\t1.0\t1\t1\n", 3)
def test_edge_reader_matches_row_oracle(text, block):
    # blocks of 1-3 lines, so errors, blank lines and first-seen names
    # fall on both sides of block boundaries
    path = _table_file(text)
    try:
        with mock.patch.object(reports, "_BLOCK_LINES", block):
            kind, got = _read_outcome(read_edges_tsv, path)
        want = _read_outcome(_read_edges_oracle, path)
    finally:
        os.unlink(path)
    assert kind == want[0], (got, want[1])
    if kind == "error":
        assert got == want[1]
    else:
        assert (got.layer, got.nodes) == (want[1].layer, want[1].nodes)
        for name in ("u", "v", "weight", "co_actions", "window_count"):
            a, b = getattr(got, name), getattr(want[1], name)
            assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True), name


# the `# gamma` and `# omega` lines of older partition files, numbers or
# not, are directives no reader takes, so they are ignored
@settings(max_examples=200, deadline=None)
@given(st.sampled_from([
    (read_partition_tsv, _read_partition_oracle, PARTITION_HEADER, 1,
     ["# scope rtw", "# gamma 1.5"]),
    (read_partition_tsv, _read_partition_oracle, PARTITION_HEADER, 1,
     ["# scope rtw", "# gamma high"]),
    (read_multiplex_partition_tsv, _read_multiplex_oracle, MULTIPLEX_HEADER, 2,
     ["# gamma 1.5", "# omega 0.25"]),
    (read_multiplex_partition_tsv, _read_multiplex_oracle, MULTIPLEX_HEADER, 2,
     ["# omega"]),
    (read_ground_truth, lambda path: _read_partition_oracle(path).assignment,
     PARTITION_HEADER, 1, ["# scope truth"]),
]), st.data())
def test_assignment_readers_match_row_oracle(case, data):
    read, oracle, header, n_keys, directives = case
    ids = st.sampled_from(["u1", "u2", "#u3"]) if n_keys == 1 else table_ids
    text = data.draw(table_texts(header, st.tuples(*[ids] * n_keys, table_counts),
                                 st.tuples(*[ids] * n_keys, table_counts | bad_counts),
                                 directives))
    path = _table_file(text)
    try:
        with mock.patch.object(reports, "_BLOCK_LINES", data.draw(st.integers(1, 3))):
            got = _read_outcome(read, path)
        want = _read_outcome(oracle, path)
    finally:
        os.unlink(path)
    assert got == want

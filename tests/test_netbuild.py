"""Window arithmetic, TF-IDF matrices, cosine graphs, and window merging."""

import gc
import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from conftest import edge_dict, from_pairs, tfidf_entries
from multicoord import netbuild
from multicoord.errors import DataError, RowError
from multicoord.ingest import ActionEvent, ActorSet, EventLog
from multicoord.netbuild import (MAX_WEIGHT, MAX_WINDOWS, LayerGraph, WindowTfidf,
                                 _merged_layer, _window_bounds, build_multiplex,
                                 layer_window_graph, tfidf_windows, window_slices)

H = 3600.0


def actors_of(*users):
    return ActorSet({"rtw": frozenset(users)})


def only_window(log, actors, width=10.0):
    """The one TF-IDF record of a log over (0, 10): one window [0, width)."""
    (m,) = tfidf_windows(log, actors, width, 10.0)
    assert (m.layer, m.index) == ("rtw", 0)
    return m


# ---------------------------------------------------------------------------
# windows


def test_window_count_31_days():
    # 744 h span, 6 h width, 5 h shift: floor((744-6)/5)+1 = 148
    windows = window_slices((0.0, 744 * H), 6 * H, 5 * H)
    assert len(windows) == 148
    assert windows[0] == 0.0
    assert windows[-1] == 147 * 5 * H
    # Python floats, t_min + k * shift: the starts synth plants its events at
    assert windows == [0.0 + k * (5 * H) for k in range(148)]
    assert all(type(start) is float for start in windows)


def test_window_count_formula_cases():
    assert len(window_slices((0.0, 48 * H), 6 * H, 5 * H)) == 9
    assert len(window_slices((0.0, 6 * H), 6 * H, 5 * H)) == 1   # exact fit
    assert len(window_slices((0.0, 3 * H), 6 * H, 5 * H)) == 1   # short span
    assert len(window_slices((10.0, 10.0), 5.0, 5.0)) == 1       # zero span
    assert len(window_slices((0.0, 11 * H), 6 * H, 5 * H)) == 2


def test_window_membership_is_half_open():
    starts = window_slices((10.0, 15.0), 5.0, 5.0)
    assert starts == [10.0]
    ts = np.array([9.999, 10.0, 14.999, 15.0])  # sorted
    lo, hi = _window_bounds(ts, starts, 5.0)
    assert ts[lo[0]:hi[0]].tolist() == [10.0, 14.999]


def test_window_slices_validation():
    with pytest.raises(ValueError):
        window_slices((0.0, 10.0), 0.0, 1.0)
    with pytest.raises(ValueError):
        window_slices((0.0, 10.0), 1.0, -1.0)
    with pytest.raises(ValueError):
        window_slices((10.0, 0.0), 1.0, 1.0)
    # one millisecond timestamp in a log in seconds: 94,349,999 windows
    with pytest.raises(DataError, match=r"94,349,999 windows.*seconds"):
        window_slices((1.7e9, 1.7e12), 6 * H, 5 * H)
    assert len(window_slices((0.0, MAX_WINDOWS * 5.0), 5.0, 5.0)) == MAX_WINDOWS
    # a span that overflows to inf: no int holds the window count
    with pytest.raises(DataError, match=r"inf windows.*seconds"):
        window_slices((-1.7e308, 1.7e308), 6 * H, 5 * H)


def test_window_slices_refuses_non_finite_width_and_shift():
    # an infinite shift used to give one window starting at nan, which holds
    # no event, so build_multiplex dropped the whole log without a word
    for width, shift in ((10.0, math.inf), (math.inf, 10.0), (math.nan, 10.0),
                         (10.0, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            window_slices((0.0, 100.0), width, shift)


def test_edge_row_beyond_float_or_int_is_named():
    with pytest.raises(RowError, match="row 1: number out of range"):
        from_pairs("rtw", [("a", "b", 1.0), ("b", "c", 10**400)])
    with pytest.raises(RowError, match="row 0: number out of range"):
        from_pairs("rtw", [("a", "b", 1.0, math.inf)])


def test_edge_weight_above_the_cap_is_named():
    assert from_pairs("rtw", [("a", "b", MAX_WEIGHT)]).weight.tolist() == [MAX_WEIGHT]
    with pytest.raises(RowError, match="row 1: weight above 1e[+]100"):
        from_pairs("rtw", [("a", "b", 1.0), ("b", "c", 1e101), ("c", "d", 1e308)])


def random_graph(rng, layer, nodes, n_edges):
    """A LayerGraph of about n_edges distinct random rows over ``nodes``."""
    n = len(nodes)
    key = np.unique(rng.integers(0, n * n, 2 * n_edges))
    u, v = np.divmod(key, n)
    keep = np.flatnonzero(u < v)[:n_edges]
    return LayerGraph(layer, tuple(nodes), u[keep], v[keep], rng.random(keep.size) + 1e-3,
                      rng.integers(1, 60, keep.size), rng.integers(1, 14, keep.size))


def test_symmetric_csr_peak_is_under_twice_what_it_keeps():
    # 2,000 nodes of mean degree ~60, as a 6k unfl-sum graph has: the CSR
    # and, beside it, the lower half's sort and two gathers; the lexsort of
    # both halves that this replaced peaked at ~3x
    g = random_graph(np.random.default_rng(5), "unfl-sum", range(2000), 60_000)
    tracemalloc.start()
    try:
        csr = netbuild.CSR.symmetric(g.n_nodes, g.u, g.v, g.weight)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert csr.indices.size == 2 * g.n_edges
    assert peak <= 2 * kept, f"CSR.symmetric peaked at {peak / kept:.2f}x the {kept} bytes it keeps"


def test_total_weight_allocates_no_list_of_the_weights():
    # the sum used to copy the weights into a list of Python floats: 32 B a row
    n = 100_000
    g = LayerGraph("rtw", ("a", "b"), np.zeros(n, np.int64), np.ones(n, np.int64),
                   np.full(n, 0.1), np.ones(n, np.int64), np.ones(n, np.int64))
    tracemalloc.start()
    try:
        total = g.total_weight()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total == math.fsum([0.1] * n)
    assert peak < 4096, f"total_weight peaked at {peak} bytes"


# ---------------------------------------------------------------------------
# TF-IDF matrices

# Hand fixture, one window with three active users:
#   u1: item A twice, item B once
#   u2: item A once
#   u3: item C once
# N_w = 3, df(A) = 2, df(B) = df(C) = 1, so
#   idf(A) = ln(3/2), idf(B) = idf(C) = ln 3.


def _fixture_log():
    rows = [
        ("u1", "rtw", "A", 1.0), ("u1", "rtw", "A", 2.0), ("u1", "rtw", "B", 3.0),
        ("u2", "rtw", "A", 4.0),
        ("u3", "rtw", "C", 5.0),
    ]
    return EventLog.from_events(rows, time_span=(0.0, 10.0))


def test_tfidf_hand_values():
    m = only_window(_fixture_log(), actors_of("u1", "u2", "u3"))
    a, b = math.log(3 / 2), math.log(3)
    assert (m.users, m.items) == (("u1", "u2", "u3"), ("A", "B", "C"))
    assert tfidf_entries(m) == {"u1": {"A": 2 * a, "B": b}, "u2": {"A": a}, "u3": {"C": b}}


def test_idf_is_math_log():
    # 21 active users, 20 of them on item V: idf(V) = ln(21/20), where
    # np.log is one bit below math.log on numpy 2.4
    rows = [(f"u{k:02d}", "rtw", "V", 1.0) for k in range(20)] + [("u20", "rtw", "Z", 2.0),
                                                                 ("u00", "rtw", "V", 3.0)]
    log = EventLog.from_events(rows, time_span=(0.0, 10.0))
    m = only_window(log, actors_of(*(f"u{k:02d}" for k in range(21))))
    entries = tfidf_entries(m)
    assert entries["u00"] == {"V": 2 * math.log(21 / 20)}
    assert entries["u01"]["V"] == math.log(21 / 20) != float(np.log(21 / 20))
    assert entries["u20"] == {"Z": math.log(21)}


def test_viral_item_is_nulled():
    # every active user shares item V: df = N_w, idf = 0, entry dropped
    rows = [("u1", "rtw", "V", 1.0), ("u2", "rtw", "V", 2.0),
            ("u2", "rtw", "X", 3.0)]
    log = EventLog.from_events(rows, time_span=(0.0, 10.0))
    m = only_window(log, actors_of("u1", "u2"))
    # u1 had only the viral item, so it has no row at all
    assert tfidf_entries(m) == {"u2": {"X": math.log(2)}}


def test_vectors_respect_window_and_actor_set():
    log = _fixture_log()
    # window [0, 4.5) cuts u3's event at 5.0; active = {u1, u2}, so item A
    # (used by both) is nulled and only u1's B survives
    m = only_window(log, actors_of("u1", "u2", "u3"), width=4.5)
    assert tfidf_entries(m) == {"u1": {"B": math.log(2)}}
    # single active user: df(item) = N_w = 1 for every item, all nulled
    solo = ActorSet({"rtw": frozenset({"u1"})})
    assert tfidf_windows(log, solo, 10.0, 10.0) == []


# ---------------------------------------------------------------------------
# cosine graph


def test_cosine_graph_hand_values():
    g = layer_window_graph(only_window(_fixture_log(), actors_of("u1", "u2", "u3")))
    a, b = math.log(3 / 2), math.log(3)
    # u1 = (2a, b) on items (A, B); u2 = (a,) on A; no shared item with u3
    expected = 2 * a * a / (math.hypot(2 * a, b) * a)
    assert list(edge_dict(g)) == [("u1", "u2")]
    data = edge_dict(g)[("u1", "u2")]
    assert data.weight == pytest.approx(expected, abs=1e-12)
    assert data.co_actions == 1
    assert data.window_count == 1
    assert g.nodes == ("u1", "u2")


def test_cosine_graph_identical_vectors():
    log = EventLog.from_events([("u1", "rtw", "A", 1.0), ("u1", "rtw", "B", 1.5),
                                ("u2", "rtw", "A", 2.0), ("u2", "rtw", "B", 2.5),
                                ("u3", "rtw", "Z", 3.0)], time_span=(0.0, 10.0))
    g = layer_window_graph(only_window(log, actors_of("u1", "u2", "u3")))
    data = edge_dict(g)[("u1", "u2")]
    assert data.weight == pytest.approx(1.0, abs=1e-12)
    assert data.co_actions == 2


def test_cosine_graph_order_invariant():
    # the order of the events in the log does not change the record or graph
    log = _fixture_log()
    shuffled = EventLog.from_events(log.events[::-1], time_span=log.time_span)
    acts = actors_of("u1", "u2", "u3")
    m1, m2 = only_window(log, acts), only_window(shuffled, acts)
    assert (m1.users, m1.items, tfidf_entries(m1)) == (m2.users, m2.items, tfidf_entries(m2))
    g1, g2 = layer_window_graph(m1), layer_window_graph(m2)
    assert edge_dict(g1) == edge_dict(g2) and g1.nodes == g2.nodes


# ---------------------------------------------------------------------------
# merging, by the name-keyed window merge that test_properties keeps as the
# build's oracle


def test_merge_windows_mean_weight_and_sums():
    from test_properties import merge_windows

    g0 = from_pairs("rtw", [("a", "b", 0.8, 2), ("b", "c", 0.5, 1)])
    g1 = from_pairs("rtw", [("a", "b", 0.4, 3)])
    g2 = from_pairs("rtw", [("c", "d", 1.0, 1)])
    m = merge_windows([g0, g1, g2])
    ab = edge_dict(m)[("a", "b")]
    assert ab.weight == pytest.approx((0.8 + 0.4) / 2)  # mean over appearances
    assert ab.co_actions == 5
    assert ab.window_count == 2
    assert edge_dict(m)[("b", "c")].window_count == 1
    assert m.nodes == ("a", "b", "c", "d")


def test_merge_windows_weights_by_window_count():
    from test_properties import merge_windows

    # inputs that are themselves merges: the weight is the window-weighted
    # mean, added up in input order
    g0 = from_pairs("rtw", [("a", "b", 0.3, 4, 3), ("b", "c", 0.9, 1, 1)])
    g1 = from_pairs("rtw", [("a", "b", 0.7, 2, 2)])
    g2 = from_pairs("rtw", [("a", "b", 0.1, 5, 4), ("b", "c", 0.2, 3, 5)])
    m = merge_windows([g0, g1, g2])
    assert edge_dict(m) == {("a", "b"): ((0.3 * 3 + 0.7 * 2 + 0.1 * 4) / 9, 11, 9),
                            ("b", "c"): ((0.9 * 1 + 0.2 * 5) / 6, 4, 6)}
    assert list(edge_dict(m)) == [("a", "b"), ("b", "c")]


def test_layer_merge_allocates_edges_not_pair_window_rows():
    # 60 windows of 120 users on two items: window k holds users k..k+119 of
    # a pool, so it repeats most pairs of the window before and adds 119,
    # which recur before they are inserted. The 428,400 pair-window rows are
    # 30x the 14,161 edges. The merge may hold the edges and one window's
    # 14,280 wedges (2.7 MB); one sort over every window's rows would take 21 MB
    n_windows, size = 60, 120
    names = [f"u{k:03d}" for k in range(n_windows + size)]
    rng = np.random.default_rng(5)
    windows = [WindowTfidf("rtw", k, np.arange(k, k + size), np.arange(2),
                           np.repeat(np.arange(size), 2), np.tile(np.arange(2), size),
                           rng.uniform(0.5, 2.0, 2 * size))
               for k in range(n_windows)]
    tracemalloc.start()
    try:
        g = _merged_layer("rtw", names, windows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sums = {}
    for m in windows:
        window = layer_window_graph(replace(m, users=tuple(names[k] for k in m.users)))
        for key, d in edge_dict(window).items():
            w, co, wc = sums.get(key, (0.0, 0, 0))
            sums[key] = (w + d.weight, co + d.co_actions, wc + 1)
    assert edge_dict(g) == {k: (w / wc, co, wc) for k, (w, co, wc) in sums.items()}
    assert g.n_edges == math.comb(size, 2) + (n_windows - 1) * (size - 1)
    bound = 64 * g.n_edges + 128 * 2 * math.comb(size, 2)
    assert peak < bound, f"layer merge peaked at {peak} bytes, bound {bound}"


def test_merge_windows_rejects_mixed_layers():
    from test_properties import merge_windows

    with pytest.raises(ValueError):
        merge_windows([from_pairs("rtw", [("a", "b", 1.0)]),
                       from_pairs("rpl", [("a", "b", 1.0)])])
    empty = merge_windows([], layer="rtw")
    assert empty.layer == "rtw" and empty.n_nodes == 0


# ---------------------------------------------------------------------------
# full construction


# (users, items, events, span, windows); in the second log pairs co-act in
# up to 13 windows, where a merge that sums the weights pairwise instead of
# left to right moves the last digits
COMPOSITION_LOGS = [(8, 5, 300, 30.0, 6), (10, 12, 1400, 60.0, 13)]


def test_build_multiplex_matches_manual_composition(rng):
    for n_users, n_items, n_events, span, n_windows in COMPOSITION_LOGS:
        _check_manual_composition(rng, n_users, n_items, n_events, span, n_windows)


def _check_manual_composition(rng, n_users, n_items, n_events, span, n_windows):
    # random small log; the one-shot builder must equal the window-by-window
    # composition of the dict oracle's graphs, merged by a sequential loop
    from test_properties import (merge_windows, oracle_windows, user_vectors_oracle,
                                 window_graph_oracle)

    users = [f"u{i}" for i in range(n_users)]
    items = [f"i{i}" for i in range(n_items)]
    rows = []
    for _ in range(n_events):
        rows.append(ActionEvent(users[rng.integers(len(users))],
                                ("rtw", "rpl")[rng.integers(2)],
                                items[rng.integers(len(items))],
                                float(rng.random() * span)))
    log = EventLog.from_events(sorted(rows, key=lambda e: e.timestamp),
                               time_span=(0.0, span))
    acts = ActorSet({"rtw": frozenset(users)})
    net = build_multiplex(log, acts, width=10.0, shift=4.0)

    windows = oracle_windows((0.0, span), 10.0, 4.0)
    assert len(windows) == n_windows
    for layer in ("rtw", "rpl"):
        per_window = []
        for w in windows:
            vecs = user_vectors_oracle(log, acts, layer, w)
            if vecs:
                wg = window_graph_oracle(vecs).edge_subgraph()
                if wg.n_edges:
                    per_window.append(wg)
        sums = {}
        for wg in per_window:
            for key, d in edge_dict(wg).items():
                w, co, wc = sums.get(key, (0.0, 0, 0))
                sums[key] = (w + d.weight, co + d.co_actions, wc + 1)
        got = net.layers[layer]
        edges = edge_dict(got)
        assert edges == {k: (w / wc, co, wc) for k, (w, co, wc) in sums.items()}
        assert list(edges) == sorted(edges)
        assert got.nodes == tuple(sorted({u for key in sums for u in key}))
        manual = merge_windows(per_window, layer=layer)
        assert edge_dict(manual) == edges and manual.nodes == got.nodes
        assert got.window_count.max() >= min(n_windows, 9)
    # untouched layers exist and are empty
    for layer in ("men", "hst", "url"):
        assert net.layers[layer].n_edges == 0


def test_build_multiplex_refuses_an_unknown_layer():
    log = EventLog.from_events([ActionEvent("u1", "rtw", "A", 1.0)], time_span=(0.0, 20.0))
    with pytest.raises(ValueError, match="unknown layers \\['unfl-sum'\\]"):
        build_multiplex(log, actors_of("u1"), 10.0, 10.0, layers=("rtw", "unfl-sum"))


def test_build_merges_one_window_of_tfidf_at_a_time(rng, monkeypatch):
    # each window's TF-IDF entries are made as the merge reaches it, so an
    # earlier window is dead by the time the next one is paired; the rows
    # are given out of time order, which EventLog sorts
    users, items = [f"u{k}" for k in range(8)], [f"i{k}" for k in range(40)]
    log = EventLog.from_events([ActionEvent(users[rng.integers(8)], "rtw", items[rng.integers(40)],
                                            float(t)) for t in rng.uniform(0.0, 60.0, 200)],
                               time_span=(0.0, 60.0))
    paired, cosine_pairs = [], netbuild._cosine_pairs

    def tracked(m, n):
        gc.collect()
        assert all(ref() is None for ref in paired), f"{len(paired)} windows paired, one alive"
        paired.append(weakref.ref(m))
        return cosine_pairs(m, n)

    monkeypatch.setattr(netbuild, "_cosine_pairs", tracked)
    net = build_multiplex(log, actors_of(*users), 10.0, 5.0)
    assert len(paired) >= 5 and net.layers["rtw"].n_edges


def test_build_multiplex_boundary_event_exclusive():
    # an event exactly at a window end belongs to the next window only
    rows = [ActionEvent("u1", "rtw", "A", 10.0), ActionEvent("u2", "rtw", "A", 10.0),
            ActionEvent("u1", "rtw", "A", 9.999), ActionEvent("u2", "rtw", "B", 3.0),
            ActionEvent("u1", "rtw", "B", 3.0)]
    log = EventLog.from_events(sorted(rows, key=lambda e: e.timestamp),
                               time_span=(0.0, 20.0))
    # the 9.999 event makes A df=1 in window 0; in window 1 both users share
    # A at 10.0: idf 0, nulled, so window 1 has no record at all
    (m0,) = tfidf_windows(log, actors_of("u1", "u2"), 10.0, 10.0)
    assert m0.index == 0 and "A" in m0.items

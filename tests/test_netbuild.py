"""Window arithmetic, TF-IDF vectors, cosine graphs, and window merging."""

import math

import numpy as np
import pytest

from conftest import edge_dict
from multicoord.ingest import ActionEvent, ActorSet, EventLog
from multicoord.netbuild import (LayerGraph, Window, build_multiplex,
                                 build_user_vectors, layer_window_graph,
                                 merge_windows, window_slices)

H = 3600.0


def actors_of(*users):
    return ActorSet(actors=frozenset(users),
                    per_action_top={"rtw": frozenset(users)})


# ---------------------------------------------------------------------------
# windows


def test_window_count_31_days():
    # 744 h span, 6 h width, 5 h shift: floor((744-6)/5)+1 = 148
    windows = window_slices((0.0, 744 * H), 6 * H, 5 * H)
    assert len(windows) == 148
    assert windows[0].start == 0.0
    assert windows[-1].start == 147 * 5 * H
    assert all(w.width == 6 * H for w in windows)


def test_window_count_formula_cases():
    assert len(window_slices((0.0, 48 * H), 6 * H, 5 * H)) == 9
    assert len(window_slices((0.0, 6 * H), 6 * H, 5 * H)) == 1   # exact fit
    assert len(window_slices((0.0, 3 * H), 6 * H, 5 * H)) == 1   # short span
    assert len(window_slices((10.0, 10.0), 5.0, 5.0)) == 1       # zero span
    assert len(window_slices((0.0, 11 * H), 6 * H, 5 * H)) == 2


def test_window_membership_is_half_open():
    w = Window(start=10.0, width=5.0, index=0)
    assert w.contains(10.0)
    assert w.contains(14.999)
    assert not w.contains(15.0)
    assert not w.contains(9.999)
    assert w.end == 15.0


def test_window_slices_validation():
    with pytest.raises(ValueError):
        window_slices((0.0, 10.0), 0.0, 1.0)
    with pytest.raises(ValueError):
        window_slices((0.0, 10.0), 1.0, -1.0)
    with pytest.raises(ValueError):
        window_slices((10.0, 0.0), 1.0, 1.0)


# ---------------------------------------------------------------------------
# TF-IDF vectors

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
    return EventLog(tuple(ActionEvent(*r) for r in rows), time_span=(0.0, 10.0))


def test_tfidf_hand_values():
    log = _fixture_log()
    vecs = build_user_vectors(log, actors_of("u1", "u2", "u3"), "rtw",
                              Window(0.0, 10.0, 0))
    by_user = {v.user_id: v.entries for v in vecs}
    a, b = math.log(3 / 2), math.log(3)
    assert by_user["u1"] == pytest.approx({"A": 2 * a, "B": b})
    assert by_user["u2"] == pytest.approx({"A": a})
    assert by_user["u3"] == pytest.approx({"C": b})


def test_viral_item_is_nulled():
    # every active user shares item V: df = N_w, idf = 0, entry dropped
    rows = [("u1", "rtw", "V", 1.0), ("u2", "rtw", "V", 2.0),
            ("u2", "rtw", "X", 3.0)]
    log = EventLog(tuple(ActionEvent(*r) for r in rows), time_span=(0.0, 10.0))
    vecs = build_user_vectors(log, actors_of("u1", "u2"), "rtw",
                              Window(0.0, 10.0, 0))
    # u1 had only the viral item, so it emits no vector at all
    assert [v.user_id for v in vecs] == ["u2"]
    assert set(vecs[0].entries) == {"X"}


def test_vectors_respect_window_and_actor_set():
    log = _fixture_log()
    # window [0, 4.5) cuts u3's event at 5.0; active = {u1, u2}, so item A
    # (used by both) is nulled and only u1's B survives
    vecs = build_user_vectors(log, actors_of("u1", "u2", "u3"), "rtw",
                              Window(0.0, 4.5, 0))
    assert [(v.user_id, set(v.entries)) for v in vecs] == [("u1", {"B"})]
    # single active user: df(item) = N_w = 1 for every item, all nulled
    vecs2 = build_user_vectors(log, actors_of("u1"), "rtw", Window(0.0, 10.0, 0))
    assert vecs2 == []


# ---------------------------------------------------------------------------
# cosine graph


def test_cosine_graph_hand_values():
    log = _fixture_log()
    vecs = build_user_vectors(log, actors_of("u1", "u2", "u3"), "rtw",
                              Window(0.0, 10.0, 0))
    g = layer_window_graph(vecs)
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
    vecs = build_user_vectors(
        EventLog((ActionEvent("u1", "rtw", "A", 1.0),
                  ActionEvent("u1", "rtw", "B", 1.5),
                  ActionEvent("u2", "rtw", "A", 2.0),
                  ActionEvent("u2", "rtw", "B", 2.5),
                  ActionEvent("u3", "rtw", "Z", 3.0)), time_span=(0.0, 4.0)),
        actors_of("u1", "u2", "u3"), "rtw", Window(0.0, 4.0, 0))
    g = layer_window_graph(vecs)
    data = edge_dict(g)[("u1", "u2")]
    assert data.weight == pytest.approx(1.0, abs=1e-12)
    assert data.co_actions == 2


def test_cosine_graph_order_invariant():
    log = _fixture_log()
    vecs = build_user_vectors(log, actors_of("u1", "u2", "u3"), "rtw",
                              Window(0.0, 10.0, 0))
    g1 = layer_window_graph(vecs)
    g2 = layer_window_graph(list(reversed(vecs)))
    assert edge_dict(g1) == edge_dict(g2) and g1.nodes == g2.nodes


def test_cosine_graph_input_validation():
    from multicoord.netbuild import UserVector
    v1 = UserVector("u1", "rtw", 0, {"A": 1.0})
    with pytest.raises(ValueError):
        layer_window_graph([v1, UserVector("u1", "rtw", 0, {"B": 1.0})])
    with pytest.raises(ValueError):
        layer_window_graph([v1, UserVector("u2", "rtw", 1, {"A": 1.0})])
    with pytest.raises(ValueError):
        layer_window_graph([v1, UserVector("u2", "rpl", 0, {"A": 1.0})])
    assert layer_window_graph([]).n_edges == 0


# ---------------------------------------------------------------------------
# merging


def test_merge_windows_mean_weight_and_sums():
    g0 = LayerGraph.from_pairs("rtw", [("a", "b", 0.8, 2), ("b", "c", 0.5, 1)])
    g1 = LayerGraph.from_pairs("rtw", [("a", "b", 0.4, 3)])
    g2 = LayerGraph.from_pairs("rtw", [("c", "d", 1.0, 1)])
    m = merge_windows([g0, g1, g2])
    ab = edge_dict(m)[("a", "b")]
    assert ab.weight == pytest.approx((0.8 + 0.4) / 2)  # mean over appearances
    assert ab.co_actions == 5
    assert ab.window_count == 2
    assert edge_dict(m)[("b", "c")].window_count == 1
    assert m.nodes == ("a", "b", "c", "d")


def test_merge_windows_weights_by_window_count():
    # inputs that are themselves merges: the weight is the window-weighted
    # mean, added up in input order
    g0 = LayerGraph.from_pairs("rtw", [("a", "b", 0.3, 4, 3), ("b", "c", 0.9, 1, 1)])
    g1 = LayerGraph.from_pairs("rtw", [("a", "b", 0.7, 2, 2)])
    g2 = LayerGraph.from_pairs("rtw", [("a", "b", 0.1, 5, 4), ("b", "c", 0.2, 3, 5)])
    m = merge_windows([g0, g1, g2])
    assert edge_dict(m) == {("a", "b"): ((0.3 * 3 + 0.7 * 2 + 0.1 * 4) / 9, 11, 9),
                            ("b", "c"): ((0.9 * 1 + 0.2 * 5) / 6, 4, 6)}
    assert list(edge_dict(m)) == [("a", "b"), ("b", "c")]


def test_merge_windows_rejects_mixed_layers():
    with pytest.raises(ValueError):
        merge_windows([LayerGraph.from_pairs("rtw", [("a", "b", 1.0)]),
                       LayerGraph.from_pairs("rpl", [("a", "b", 1.0)])])
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
    # composition of the tested pieces, merged by a sequential loop
    users = [f"u{i}" for i in range(n_users)]
    items = [f"i{i}" for i in range(n_items)]
    rows = []
    for _ in range(n_events):
        rows.append(ActionEvent(users[rng.integers(len(users))],
                                ("rtw", "rpl")[rng.integers(2)],
                                items[rng.integers(len(items))],
                                float(rng.random() * span)))
    log = EventLog(tuple(sorted(rows, key=lambda e: e.timestamp)),
                   time_span=(0.0, span))
    acts = ActorSet(actors=frozenset(users),
                    per_action_top={"rtw": frozenset(users)})
    net = build_multiplex(log, acts, width=10.0, shift=4.0)

    windows = window_slices((0.0, span), 10.0, 4.0)
    assert len(windows) == n_windows
    for layer in ("rtw", "rpl"):
        per_window = []
        for w in windows:
            vecs = build_user_vectors(log, acts, layer, w)
            if vecs:
                wg = layer_window_graph(vecs)
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


def test_build_multiplex_boundary_event_exclusive():
    # an event exactly at a window end belongs to the next window only
    rows = [ActionEvent("u1", "rtw", "A", 10.0), ActionEvent("u2", "rtw", "A", 10.0),
            ActionEvent("u1", "rtw", "A", 9.999), ActionEvent("u2", "rtw", "B", 3.0),
            ActionEvent("u1", "rtw", "B", 3.0)]
    log = EventLog(tuple(sorted(rows, key=lambda e: e.timestamp)),
                   time_span=(0.0, 20.0))
    acts = actors_of("u1", "u2")
    w0, w1 = window_slices((0.0, 20.0), 10.0, 10.0)
    v0 = build_user_vectors(log, acts, "rtw", w0)
    v1 = build_user_vectors(log, acts, "rtw", w1)
    items0 = {i for v in v0 for i in v.entries}
    items1 = {i for v in v1 for i in v.entries}
    assert "A" in items0          # the 9.999 event, df=1 in window 0
    assert items1 == set()        # both users share A at 10.0: idf 0, nulled
    g1 = layer_window_graph(v1) if v1 else None
    assert g1 is None or g1.n_edges == 0

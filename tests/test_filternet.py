"""Two-stage edge filtering: co-action threshold, then weight threshold."""

import pytest

from conftest import edge_dict, from_pairs
from multicoord.filternet import (FilterConfig, auto_threshold,
                                  filter_by_actions, filter_by_weight,
                                  filter_layer, filter_multiplex)
from multicoord.netbuild import LayerGraph, MultiplexNetwork


def co_graph():
    """Edges (a,b) and (c,d) with 3 shared actions, (e,f) with 2."""
    return from_pairs("rtw", [
        ("a", "b", 0.9, 3), ("c", "d", 0.8, 3), ("e", "f", 0.7, 2)])


# ---------------------------------------------------------------------------
# co-action stage


def test_filter_by_actions_keeps_at_threshold():
    g = filter_by_actions(co_graph(), 3)
    assert set(edge_dict(g)) == {("a", "b"), ("c", "d")}
    assert g.nodes == ("a", "b", "c", "d")   # e, f pruned as isolates
    assert filter_by_actions(co_graph(), 2).n_edges == 3
    assert filter_by_actions(co_graph(), 4).n_edges == 0


def test_auto_threshold_smallest_integer_within_budget():
    g = co_graph()
    # th 2 keeps 6 nodes (> 5), th 3 keeps 4: smallest feasible is 3
    assert auto_threshold(g, max_nodes=5) == 3
    assert auto_threshold(g, max_nodes=4) == 3
    # everything fits: minimum threshold 1
    assert auto_threshold(g, max_nodes=6) == 1
    assert auto_threshold(g, max_nodes=100) == 1
    # nothing fits: returns a threshold above the largest co count
    assert auto_threshold(g, max_nodes=3) == 4
    assert filter_by_actions(g, 4).n_nodes == 0
    assert auto_threshold(LayerGraph("rtw"), max_nodes=1) == 1
    with pytest.raises(ValueError):
        auto_threshold(g, max_nodes=0)


def test_auto_threshold_agrees_with_direct_scan(rng):
    # the incremental scan must match the obvious quadratic definition
    for _ in range(25):
        pairs = []
        n = int(rng.integers(4, 12))
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    pairs.append((f"x{i}", f"x{j}", float(rng.random()),
                                  int(rng.integers(1, 6))))
        if not pairs:
            continue
        g = from_pairs("rtw", pairs)
        budget = int(rng.integers(1, n + 3))
        got = auto_threshold(g, budget)
        feasible = [th for th in range(1, int(g.co_actions.max()) + 2)
                    if filter_by_actions(g, th).n_nodes <= budget]
        assert got == min(feasible)


# ---------------------------------------------------------------------------
# weight stage


def test_weight_median_is_lower_median():
    g = from_pairs("rtw", [
        ("a", "b", 1.0), ("c", "d", 2.0), ("e", "f", 3.0), ("g", "h", 4.0)])
    out, th = filter_by_weight(g, "median")
    assert th == 2.0                       # lower median of [1,2,3,4]
    assert out.weight.tolist() == [2.0, 3.0, 4.0]
    assert out.nodes == ("c", "d", "e", "f", "g", "h")

    g3 = from_pairs("rtw", [("a", "b", 1.0), ("c", "d", 2.0),
                                       ("e", "f", 3.0)])
    _, th3 = filter_by_weight(g3, "median")
    assert th3 == 2.0                      # middle of an odd count

    g1 = from_pairs("rtw", [("a", "b", 0.5)])
    out1, th1 = filter_by_weight(g1, "median")
    assert th1 == 0.5 and out1.n_edges == 1


def test_weight_fixed_rule():
    g = co_graph()
    out, th = filter_by_weight(g, "fixed", 0.85)
    assert th == 0.85
    assert list(edge_dict(out)) == [("a", "b")]
    with pytest.raises(ValueError):
        filter_by_weight(g, "fixed", None)
    with pytest.raises(ValueError):
        filter_by_weight(g, "quantile")


def test_weight_filter_empty_graph_passes_through():
    out, th = filter_by_weight(LayerGraph("rtw"), "median")
    assert out.n_edges == 0 and th == 0.0


# ---------------------------------------------------------------------------
# combined pass


def test_filter_config_validation():
    with pytest.raises(ValueError):
        FilterConfig(th_a=0)
    with pytest.raises(ValueError):
        FilterConfig(max_nodes=0)
    with pytest.raises(ValueError):
        FilterConfig(weight_rule="nope")
    with pytest.raises(ValueError):
        FilterConfig(weight_rule="fixed")
    FilterConfig(weight_rule="fixed", weight_value=0.3)


def test_filter_layer_report_counts():
    g = co_graph()
    out, rep = filter_layer(g, FilterConfig(max_nodes=5))
    assert (rep.nodes_raw, rep.edges_raw) == (6, 3)
    assert rep.th_a == 3 and rep.th_a_auto
    assert (rep.nodes_actions, rep.edges_actions) == (4, 2)
    # weights left: [0.8, 0.9], lower median 0.8, both survive
    assert rep.weight_threshold == 0.8
    assert (rep.nodes_final, rep.edges_final) == (4, 2)
    assert out.n_nodes == 4 and out.n_edges == 2


def test_filter_layer_explicit_threshold():
    out, rep = filter_layer(co_graph(), FilterConfig(th_a=2))
    assert rep.th_a == 2 and not rep.th_a_auto
    # weights after co stage: [0.7, 0.8, 0.9], median 0.8 cuts (e, f)
    assert list(edge_dict(out)) == [("a", "b"), ("c", "d")]


def test_filter_multiplex_covers_all_layers():
    net = MultiplexNetwork({
        "rtw": co_graph(),
        "rpl": from_pairs("rpl", [("a", "b", 0.5, 1)]),
    })
    filtered, reports = filter_multiplex(net, FilterConfig())
    by_layer = {r.layer: r for r in reports}
    assert set(by_layer) == {"rtw", "rpl"}
    assert filtered.layers["rtw"].n_edges == 2   # median 0.8 cuts (e, f)
    assert filtered.layers["rpl"].n_edges == 1
    assert by_layer["rpl"].th_a == 1

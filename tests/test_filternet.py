"""Two-stage edge filtering: co-action threshold, then weight threshold."""

import pytest

from conftest import edge_dict, from_pairs
from multicoord.filternet import (FilterConfig, auto_threshold, filter_layer,
                                  filter_multiplex)
from multicoord.netbuild import LayerGraph, MultiplexNetwork


def co_graph():
    """Edges (a,b) and (c,d) with 3 shared actions, (e,f) with 2."""
    return from_pairs("rtw", [
        ("a", "b", 0.9, 3), ("c", "d", 0.8, 3), ("e", "f", 0.7, 2)])


# ---------------------------------------------------------------------------
# co-action stage


def test_actions_stage_keeps_at_threshold():
    # a fixed weight below every weight keeps all of stage one's edges
    def stage1(th_a):
        return filter_layer(co_graph(), FilterConfig(th_a=th_a, weight_rule="fixed",
                                                     weight_value=0.0))
    g, rep = stage1(3)
    assert (rep.nodes_actions, rep.edges_actions) == (4, 2)
    assert set(edge_dict(g)) == {("a", "b"), ("c", "d")}
    assert g.nodes == ("a", "b", "c", "d")   # e, f pruned as isolates
    assert stage1(2)[1].edges_actions == 3
    g4, rep4 = stage1(4)
    assert (rep4.nodes_actions, rep4.edges_actions) == (0, 0)
    assert g4.n_edges == 0 and rep4.weight_threshold is None


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
    assert filter_layer(g, FilterConfig(th_a=4))[1].nodes_actions == 0
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
                    if g.edge_subgraph(g.co_actions >= th).n_nodes <= budget]
        assert got == min(feasible)


# ---------------------------------------------------------------------------
# weight stage: th_a=1 keeps every edge in stage one, as every co_actions
# is >= 1


def test_weight_median_is_lower_median():
    g = from_pairs("rtw", [
        ("a", "b", 1.0), ("c", "d", 2.0), ("e", "f", 3.0), ("g", "h", 4.0)])
    out, rep = filter_layer(g, FilterConfig(th_a=1))
    assert rep.weight_threshold == 2.0     # lower median of [1,2,3,4]
    assert out.weight.tolist() == [2.0, 3.0, 4.0]
    assert out.nodes == ("c", "d", "e", "f", "g", "h")

    g3 = from_pairs("rtw", [("a", "b", 1.0), ("c", "d", 2.0),
                                       ("e", "f", 3.0)])
    _, rep3 = filter_layer(g3, FilterConfig(th_a=1))
    assert rep3.weight_threshold == 2.0    # middle of an odd count

    g1 = from_pairs("rtw", [("a", "b", 0.5)])
    out1, rep1 = filter_layer(g1, FilterConfig(th_a=1))
    assert rep1.weight_threshold == 0.5 and out1.n_edges == 1


def test_weight_fixed_rule():
    cfg = FilterConfig(th_a=1, weight_rule="fixed", weight_value=0.85)
    out, rep = filter_layer(co_graph(), cfg)
    assert rep.weight_threshold == 0.85
    assert list(edge_dict(out)) == [("a", "b")]


def test_weight_filter_empty_graph_passes_through():
    out, rep = filter_layer(LayerGraph("rtw"), FilterConfig(th_a=1))
    assert out.n_edges == 0 and out.nodes == () and rep.weight_threshold is None


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

"""Modularity, Louvain, multislice coupling, flattening, restriction.

Frozen expected values in this file were computed with independent
references (exhaustive partition enumeration, closed-form arithmetic)
before the implementation was tested against them.
"""

import math
import random
import tracemalloc

import numpy as np
import pytest

from conftest import edge_dict, from_pairs, random_layer, two_clique_bridge
from multicoord.community import (GAIN_TOLERANCE, Partition, _aggregate, _flatten,
                                  _local_moving, _supra_graph, communities,
                                  flatten_intersection, flatten_union,
                                  generalized_louvain, louvain, modularity,
                                  multislice_modularity, restrict_to_layer)
from multicoord.errors import DataError
from multicoord.netbuild import CSR, LayerGraph, MultiplexNetwork


def five_random_layers(n_actors=2000, n_edges=20_000, seed=5):
    """A network of five random layers, each over a random three quarters
    of n_actors actors with about n_edges rows."""
    rng = np.random.default_rng(seed)
    actors = [f"u{k:05d}" for k in range(n_actors)]
    layers = {}
    for layer in ("rtw", "rpl", "men", "hst", "url"):
        nodes = sorted(rng.choice(actors, 3 * n_actors // 4, replace=False).tolist())
        n = len(nodes)
        key = np.unique(rng.integers(0, n * n, 2 * n_edges))
        u, v = np.divmod(key, n)
        keep = np.flatnonzero(u < v)[:n_edges]
        layers[layer] = LayerGraph(layer, tuple(nodes), u[keep], v[keep],
                                   rng.random(keep.size) + 1e-3,
                                   rng.integers(1, 60, keep.size), rng.integers(1, 14, keep.size))
    return MultiplexNetwork(layers)


def traced(fn):
    """(fn(), bytes still traced with the result alive, peak bytes) of one call."""
    tracemalloc.start()
    try:
        result = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept, peak


def path3():
    return from_pairs("rtw", [("a", "b", 1.0), ("b", "c", 1.0)])


# ---------------------------------------------------------------------------
# modularity values


def test_modularity_path_fixtures():
    g = path3()
    # 2m = 4; singletons: Q = -[(1/4)^2 + (2/4)^2 + (1/4)^2] = -0.375
    singles = Partition("rtw", {"a": 0, "b": 1, "c": 2})
    assert modularity(g, singles) == pytest.approx(-0.375, abs=1e-15)
    # {a,b},{c}: 2*1/4 - (3/4)^2 - (1/4)^2 = -0.125
    split = Partition("rtw", {"a": 0, "b": 0, "c": 1})
    assert modularity(g, split) == pytest.approx(-0.125, abs=1e-15)
    whole = Partition("rtw", {"a": 0, "b": 0, "c": 0})
    assert modularity(g, whole) == pytest.approx(0.0, abs=1e-15)


def test_modularity_gamma_scaling():
    g = path3()
    split = Partition("rtw", {"a": 0, "b": 0, "c": 1})
    # Q(gamma) = 0.5 - gamma * 0.625 for this partition
    for gamma in (0.5, 1.0, 2.0):
        assert modularity(g, split, gamma) == pytest.approx(
            0.5 - gamma * 0.625, abs=1e-12)


def test_modularity_insertion_order_invariant():
    g = two_clique_bridge()
    assign = {n: (0 if n.startswith("a") else 1) for n in sorted(g.nodes)}
    q1 = modularity(g, Partition("rtw", assign))
    shuffled = dict(sorted(assign.items(), key=lambda kv: kv[0], reverse=True))
    q2 = modularity(g, Partition("rtw", shuffled))
    assert q1 == q2


# ---------------------------------------------------------------------------
# louvain


def test_louvain_two_clique_exact_optimum():
    # brute force over all 115975 partitions of the 10 nodes puts the
    # optimum at the two cliques with Q = 0.45238095238095233
    g = two_clique_bridge()
    p = louvain(g, seed=42)
    groups = set(communities(p.assignment).values())
    assert groups == {frozenset({f"a{i}" for i in range(5)}),
                      frozenset({f"b{i}" for i in range(5)})}
    assert modularity(g, p) == pytest.approx(0.45238095238095233, abs=1e-12)


def test_louvain_canonical_ids():
    g = from_pairs("rtw", [
        ("x1", "x2", 5.0), ("y1", "y2", 5.0), ("y2", "y3", 5.0),
        ("y1", "y3", 5.0), ("x1", "y1", 0.01)])
    p = louvain(g, seed=42)
    groups = communities(p.assignment)
    # ids are dense, ordered by decreasing size then smallest member
    assert sorted(groups) == list(range(len(groups)))
    sizes = [len(groups[i]) for i in sorted(groups)]
    assert sizes == sorted(sizes, reverse=True)
    assert groups[0] == frozenset({"y1", "y2", "y3"})


def test_louvain_trace_monotone_and_beats_singletons(rng):
    for _ in range(20):
        g = random_layer(rng, n=int(rng.integers(6, 25)), p=0.3)
        if g.n_edges == 0:
            continue
        p = louvain(g, seed=int(rng.integers(10000)))
        assert len(p.trace) >= 1
        diffs = np.diff(p.trace)
        assert (diffs >= -1e-12).all()
        singles = Partition(g.layer, {n: i for i, n in enumerate(sorted(g.nodes))})
        assert modularity(g, p) >= modularity(g, singles) - 1e-12
        assert p.trace[-1] == pytest.approx(modularity(g, p), abs=1e-9)


def test_louvain_gamma_zero_merges_everything():
    g = two_clique_bridge()
    p = louvain(g, gamma=0.0, seed=42)
    assert p.n_communities() == 1


def test_louvain_empty_and_determinism():
    g = two_clique_bridge()
    assert louvain(g, seed=7).assignment == louvain(g, seed=7).assignment


def test_local_moving_reads_the_csr_in_place():
    # 1,000 nodes of mean degree ~60: a copy of the level's CSR as per-node
    # lists of Python ints and floats peaks at ~87 bytes an entry here;
    # reading it in place leaves the per-node tables, ~7 bytes an entry
    n = 1000
    rng = np.random.default_rng(3)
    key = np.unique(rng.integers(0, n * n, 60 * n))
    u, v = key // n, key % n
    u, v = u[u < v], v[u < v]
    w = rng.integers(1, 4, u.size).astype(float)
    csr = CSR.symmetric(n, u, v, w)
    strength = np.bincount(np.concatenate((u, v)), np.concatenate((w, w)), minlength=n)
    assert csr.indices.size >= 50 * n
    tracemalloc.start()
    try:
        comm, _, visits, moves = _local_moving(csr, strength[:, None],
                                               np.array([1.0 / strength.sum()]), 1.0,
                                               1e-10, random.Random(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert visits >= n and moves > 0 and len(comm) == n
    assert peak < 16 * csr.indices.size, peak / csr.indices.size


# ---------------------------------------------------------------------------
# multislice


def two_layer_net(g1=None, g2=None):
    g1 = g1 or two_clique_bridge("rtw")
    g2 = g2 or two_clique_bridge("rpl")
    return MultiplexNetwork({"rtw": g1, "rpl": g2})


def test_multislice_hand_fixture():
    # two actors, one unit edge in each of two layers, omega = 0.5, all four
    # state nodes in one community:
    #   intra per layer: 2*(1 - 1/2) - 2*(1/2) = 0; coupling: 2 actors * 2
    #   ordered cross-layer pairs * 0.5 = 2; 2mu = 2 + 2 + 2*0.5*2 = 6
    net = MultiplexNetwork({
        "rtw": from_pairs("rtw", [("u", "v", 1.0)]),
        "rpl": from_pairs("rpl", [("u", "v", 1.0)]),
    })
    p = Partition("multi", {("u", "rtw"): 0, ("v", "rtw"): 0,
                            ("u", "rpl"): 0, ("v", "rpl"): 0}, omega=0.5)
    q = multislice_modularity(net, p, gamma=1.0, omega=0.5)
    assert q == pytest.approx(1 / 3, abs=1e-15)


def test_quality_refuses_a_partition_that_misses_a_node():
    g = path3()
    with pytest.raises(DataError, match="does not cover 1 nodes of rtw, e.g. 'c'"):
        modularity(g, Partition("rtw", {"a": 0, "b": 0}))
    net = MultiplexNetwork({"rtw": g, "rpl": from_pairs("rpl", [("a", "b", 1.0)])})
    supra = {(n, layer): 0 for layer, h in net.layers.items() for n in h.nodes}
    del supra[("b", "rpl")]
    with pytest.raises(DataError, match=r"does not cover 1 .*e\.g\. \('b', 'rpl'\)"):
        multislice_modularity(net, Partition("multi", supra, omega=0.1))


def test_multislice_omega_zero_reduces_to_weighted_layer_mean(rng):
    # with no coupling the multislice quality is the 2m_s-weighted average
    # of per-layer modularities
    for _ in range(30):
        g1 = random_layer(rng, "rtw", n=10, p=0.4)
        g2 = random_layer(rng, "rpl", n=10, p=0.4)
        if g1.n_edges == 0 or g2.n_edges == 0:
            continue
        net = MultiplexNetwork({"rtw": g1, "rpl": g2})
        assign1 = louvain(g1, seed=1).assignment
        assign2 = louvain(g2, seed=1).assignment
        joint = {(n, "rtw"): ("rtw", c) for n, c in assign1.items()}
        joint.update({(n, "rpl"): ("rpl", c) for n, c in assign2.items()})
        mp = Partition("multi", joint, omega=0.0)
        q = multislice_modularity(net, mp, gamma=1.0, omega=0.0)
        m1, m2 = 2 * g1.total_weight(), 2 * g2.total_weight()
        q1 = modularity(g1, Partition("rtw", assign1))
        q2 = modularity(g2, Partition("rpl", assign2))
        assert q == pytest.approx((m1 * q1 + m2 * q2) / (m1 + m2), abs=1e-12)


def test_generalized_louvain_omega_zero_matches_per_layer():
    # fixtures small enough that the optimum is unique: two triangles per
    # layer, so every solver must find the triangles
    def triangles(layer, shift):
        names = [f"{layer}{i + shift}" for i in range(6)]
        return from_pairs(layer, [
            (names[0], names[1], 1.0), (names[1], names[2], 1.0),
            (names[0], names[2], 1.0), (names[3], names[4], 1.0),
            (names[4], names[5], 1.0), (names[3], names[5], 1.0),
            (names[2], names[3], 0.05)])
    net = MultiplexNetwork({"rtw": triangles("rtw", 0), "rpl": triangles("rpl", 0)})
    mp = generalized_louvain(net, gamma=1.0, omega=0.0, seed=42)
    for layer in ("rtw", "rpl"):
        restricted = restrict_to_layer(mp, layer)
        direct = louvain(net.layers[layer], seed=42)
        got = set(communities(restricted.assignment).values())
        want = set(communities(direct.assignment).values())
        assert got == want


def test_generalized_louvain_high_omega_aligns_layers():
    # strong coupling fuses each actor's copies into one community
    net = two_layer_net()
    mp = generalized_louvain(net, gamma=1.0, omega=50.0, seed=42)
    per_actor = {}
    for (actor, layer), cid in mp.assignment.items():
        per_actor.setdefault(actor, set()).add(cid)
    assert all(len(cids) == 1 for cids in per_actor.values())


def test_generalized_louvain_trace_monotone():
    net = two_layer_net()
    mp = generalized_louvain(net, gamma=1.0, omega=0.1, seed=42)
    diffs = np.diff(mp.trace)
    assert (diffs >= -1e-12).all()
    assert mp.trace[-1] == pytest.approx(
        multislice_modularity(net, mp, gamma=1.0, omega=0.1), abs=1e-9)


def test_generalized_louvain_recovers_cross_layer_cliques():
    net = two_layer_net()
    mp = generalized_louvain(net, gamma=1.0, omega=0.1, seed=42)
    groups = communities(mp.assignment)
    members = {frozenset(actor for actor, _ in g) for g in groups.values()}
    assert members == {frozenset({f"a{i}" for i in range(5)}),
                       frozenset({f"b{i}" for i in range(5)})}


# ---------------------------------------------------------------------------
# flattening


def three_layer_net():
    return MultiplexNetwork({
        "rtw": from_pairs("rtw", [("a", "b", 0.2, 2, 3),
                                             ("b", "c", 0.4, 1, 1)]),
        "rpl": from_pairs("rpl", [("a", "b", 0.5, 1, 1),
                                             ("c", "d", 0.9, 4, 2)]),
        "men": from_pairs("men", [("a", "b", 0.25, 1, 1)]),
    })


def test_flatten_union_strategies_hand_case():
    net = three_layer_net()
    nw, ec, sm = (flatten_union(net, s) for s in ("nw", "ec", "sum"))
    for g, scope in ((nw, "unfl-nw"), (ec, "unfl-ec"), (sm, "unfl-sum")):
        assert g.layer == scope
        assert list(edge_dict(g)) == [("a", "b"), ("b", "c"), ("c", "d")]
        assert g.nodes == ("a", "b", "c", "d")
    assert nw.weight.tolist() == [1.0, 1.0, 1.0]
    assert ec.weight.tolist() == [3.0, 1.0, 1.0]
    assert edge_dict(sm)[("a", "b")].weight == pytest.approx(0.2 + 0.5 + 0.25, abs=1e-15)
    assert edge_dict(sm)[("c", "d")].weight == 0.9
    # co-actions and window counts accumulate identically in all strategies
    assert edge_dict(nw)[("a", "b")].co_actions == 4
    assert edge_dict(nw)[("a", "b")].window_count == 5


def test_flatten_intersection_hand_case():
    g = flatten_intersection(three_layer_net())
    # only (a, b) lives in all three layers
    assert g.layer == "intfl"
    assert list(edge_dict(g)) == [("a", "b")]
    assert g.nodes == ("a", "b")
    assert edge_dict(g)[("a", "b")].weight == pytest.approx(0.95, abs=1e-15)
    with pytest.raises(ValueError):
        flatten_intersection(MultiplexNetwork(
            {"rtw": from_pairs("rtw", [("a", "b", 1.0)])}))


def test_flatten_laws_random(rng):
    # brute-force set computation over random 3-layer multiplexes
    for _ in range(50):
        layers = {}
        for name in ("rtw", "rpl", "men"):
            layers[name] = random_layer(rng, name, n=int(rng.integers(5, 20)), p=0.25)
        net = MultiplexNetwork(layers)
        edges = [edge_dict(g) for g in layers.values()]
        union = set().union(*edges)
        inter = set.intersection(*map(set, edges))

        for strategy in ("nw", "ec", "sum"):
            flat = edge_dict(flatten_union(net, strategy))
            assert set(flat) == union
            for key, data in flat.items():
                carrying = [e[key] for e in edges if key in e]
                if strategy == "nw":
                    assert data.weight == 1.0
                elif strategy == "ec":
                    assert data.weight == float(len(carrying))
                else:
                    assert data.weight == pytest.approx(
                        math.fsum(d.weight for d in carrying), abs=1e-12)
        assert set(edge_dict(flatten_intersection(net))) == inter
    with pytest.raises(ValueError):
        flatten_union(three_layer_net(), "mean")


def test_flattened_graph_feeds_louvain():
    flat = flatten_union(two_layer_net(), "sum")
    p = louvain(flat, seed=42)
    assert p.scope == "unfl-sum"
    groups = set(communities(p.assignment).values())
    assert groups == {frozenset({f"a{i}" for i in range(5)}),
                      frozenset({f"b{i}" for i in range(5)})}


# ---------------------------------------------------------------------------
# restriction


def test_restrict_to_layer():
    mp = Partition("multi", {("u1", "rtw"): 5, ("u2", "rtw"): 5,
                             ("u3", "rtw"): 9, ("u1", "rpl"): 9}, gamma=1.3)
    r = restrict_to_layer(mp, "rtw")
    assert r.scope == "rtw" and r.gamma == 1.3
    # canonical ids: {u1, u2} is larger -> 0, {u3} -> 1
    assert r.assignment == {"u1": 0, "u2": 0, "u3": 1}
    r2 = restrict_to_layer(mp, "rpl")
    assert r2.assignment == {"u1": 0}
    with pytest.raises(DataError, match="layer 'hst' has no node"):
        restrict_to_layer(mp, "hst")


def test_gain_tolerance_is_tight():
    assert 0 < GAIN_TOLERANCE <= 1e-9


# ---------------------------------------------------------------------------
# level-0 graph memory


def test_supra_graph_peak_is_under_twice_what_it_keeps():
    # the CSR's halves are written in place one at a time, each layer's as
    # it is made; the lexsort of the stacked rows peaked at ~3.7x here
    net = five_random_layers()
    (names, csr, *_), kept, peak = traced(lambda: _supra_graph(net, 0.1))
    assert csr.indices.size > 200_000 and len(names) == 7500
    assert peak <= 2 * kept, f"_supra_graph peaked at {peak / kept:.2f}x the {kept} bytes it keeps"


def test_aggregate_peak_is_under_three_times_the_level_csr():
    # the first aggregation of a supra-graph, where most entries join two
    # communities: the keys are made in place and each per-entry array is
    # dropped once the next is made from it; holding them all peaked at
    # ~3.3x the level's CSR here
    net = five_random_layers()
    names, csr, strength, two_m, coupling_total = _supra_graph(net, 0.1)
    two_mu = math.fsum(two_m) + coupling_total
    comm, *_ = _local_moving(csr, strength, np.array([1.0 / m for m in two_m]), 1.0,
                             0.5 * GAIN_TOLERANCE * two_mu, random.Random(1))
    size = csr.indptr.nbytes + csr.indices.nbytes + csr.weight.nbytes
    (level, _, _), _, peak = traced(lambda: _aggregate(csr, strength, np.array(comm)))
    assert level.degree.size < len(names) and level.indices.size > 50_000
    assert peak <= 3 * size, f"_aggregate peaked at {peak / size:.2f}x the level's {size} bytes"


def test_flatten_peak_is_under_twice_what_it_keeps():
    # one block of pairs' weights at a time is a list of Python floats; all
    # of them at once peaked at ~3.0x here
    graphs = list(five_random_layers().layers.values())
    (flat, carried), kept, peak = traced(lambda: _flatten(graphs, "unfl-sum"))
    assert flat.n_edges > 50_000 and carried.max() > 1
    assert peak <= 2 * kept, f"_flatten peaked at {peak / kept:.2f}x the {kept} bytes it keeps"

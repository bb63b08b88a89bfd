"""Property tests against brute-force pure-Python references."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from multicoord.characterize import (CommunityMetrics,  # noqa: E402
                                     community_metrics, node_metrics)
from multicoord.community import (generalized_louvain, louvain,  # noqa: E402
                                  modularity, multislice_modularity)
from multicoord.netbuild import (LayerGraph, MultiplexNetwork,  # noqa: E402
                                 UserVector, layer_window_graph)

# small id alphabets, so that random vectors share items and ids collide
# with each other's prefixes
vector_sets = st.dictionaries(
    keys=st.text(alphabet="ab#é", min_size=1, max_size=3),
    values=st.dictionaries(st.sampled_from([f"i{k}" for k in range(6)]),
                           st.floats(min_value=1e-3, max_value=1e3), min_size=1),
    max_size=8)


def _norm(entries):
    return math.sqrt(math.fsum(w * w for w in entries.values()))


@settings(max_examples=200, deadline=None)
@given(vector_sets)
def test_layer_window_graph_matches_brute_force(entries_by_user):
    vectors = [UserVector(u, "rtw", 0, e) for u, e in entries_by_user.items()]
    g = layer_window_graph(vectors)

    expected = {}
    for a in entries_by_user:
        for b in entries_by_user:
            shared = entries_by_user[a].keys() & entries_by_user[b].keys()
            if a < b and shared:
                dot = math.fsum(entries_by_user[a][i] * entries_by_user[b][i] for i in shared)
                cos = dot / (_norm(entries_by_user[a]) * _norm(entries_by_user[b]))
                expected[(a, b)] = (min(cos, 1.0), len(shared))

    assert list(g.edges) == sorted(expected)
    for key, (cos, n_shared) in expected.items():
        d = g.edges[key]
        assert d.weight == pytest.approx(cos, rel=1e-12)
        assert 0.0 < d.weight <= 1.0
        assert (d.co_actions, d.window_count) == (n_shared, 1)
    assert g.nodes == {u for key in expected for u in key}


# ---------------------------------------------------------------------------
# Louvain: determinism, a monotone trace, and a trace that ends at Q

NODE_IDS = [f"n{k}" for k in range(12)]
weights = st.sampled_from([0.05, 0.3, 1.0, 2.5]) | st.floats(min_value=0.01, max_value=3.0)


@st.composite
def layers(draw, name="rtw"):
    """A weighted layer over a small id pool, possibly with isolated nodes."""
    pairs = draw(st.lists(st.tuples(st.sampled_from(NODE_IDS), st.sampled_from(NODE_IDS),
                                    weights), max_size=30))
    g = LayerGraph.from_pairs(name, [(u, v, w) for u, v, w in pairs if u != v])
    g.nodes |= set(draw(st.lists(st.sampled_from(NODE_IDS), max_size=2)))
    return g


@st.composite
def multiplexes(draw):
    names = draw(st.lists(st.sampled_from(["rtw", "rpl", "men", "hst"]),
                          min_size=1, max_size=3, unique=True))
    return MultiplexNetwork.from_layers({name: draw(layers(name)) for name in names})


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
    assert set(p.assignment) == g.nodes
    _check_trace(p.trace, modularity(g, p, gamma))


@settings(max_examples=100, deadline=None)
@given(multiplexes(), st.integers(0, 2**16), st.sampled_from([0.0, 0.1]))
def test_generalized_louvain_deterministic_with_exact_trace(net, seed, omega):
    if not any(g.nodes for g in net.layers.values()):
        return
    p = generalized_louvain(net, omega=omega, seed=seed)
    assert generalized_louvain(net, omega=omega, seed=seed).assignment == p.assignment
    _check_trace(p.trace, multislice_modularity(net, p, omega=omega))


# ---------------------------------------------------------------------------
# characterize against the dict-of-sets code it replaced


def _adjacency_sets(g):
    adj = {u: set() for u in g.nodes}
    for u, v in g.edges:
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
    internal = [(u, v, d) for (u, v), d in g.edges.items() if u in members and v in members]
    e_in = len(internal)
    sub_adj = {u: set() for u in members}
    for u, v, _ in internal:
        sub_adj[u].add(v)
        sub_adj[v].add(u)
    cut = vol_in = vol_total = 0
    for u, v in g.edges:
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
        for (u, v), d in g.edges.items():
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
@example(LayerGraph.from_pairs("rtw", [(f"n{k}", f"n{(k + 1) % 6}", 1.0) for k in range(6)]
                               + [("x0", "x1", 1.0), ("x1", "x2", 1.0), ("x0", "x2", 1.0)]),
         None)
# two identical triangles: the first one wins
@example(LayerGraph.from_pairs("rtw", [("a", "b", 0.5), ("b", "c", 0.5), ("a", "c", 0.5),
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
    for members in picks:
        assert community_metrics(g, members) == _community_oracle(g, members)

    vals = node_metrics(g)
    n = len(nodes)
    for u in nodes:
        assert vals[u].degree_centrality == (len(adj[u]) / (n - 1) if n > 1 else 0.0)
        assert vals[u].local_clustering == _clustering_oracle(adj, u)
    if g.edges:
        want = _eigenvector_oracle(g, adj)
        for u in nodes:
            assert vals[u].eigenvector_centrality == pytest.approx(want[u], abs=1e-10)

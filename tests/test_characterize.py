"""Structural descriptors, PCA projection, and the rank test.

Closed-form values for K4, C5, the 4-leaf star, and the triangle barbell
were derived by hand (and cross-checked against reference graph libraries)
before being frozen here.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import clique, edge_dict, from_pairs, random_layer
from multicoord.characterize import (COMMUNITY_METRIC_NAMES,
                                     NODE_METRIC_NAMES, GraphCSR, _midranks,
                                     _triangles,
                                     brunner_munzel, community_metrics,
                                     metric_cosine, node_metrics,
                                     pca_project, significance_band)
from multicoord.errors import DegenerateSampleError, UndefinedMetricError
from multicoord.netbuild import LayerGraph


def k4():
    return clique("rtw", ["a", "b", "c", "d"])


def c5():
    names = [f"v{i}" for i in range(5)]
    return from_pairs("rtw", [
        (names[i], names[(i + 1) % 5], 1.0) for i in range(5)])


def star4():
    return from_pairs("rtw", [("hub", f"l{i}", 1.0) for i in range(4)])


# ---------------------------------------------------------------------------
# node metrics, closed forms


def test_k4_node_metrics():
    m = node_metrics(GraphCSR.of(k4()))
    for u in "abcd":
        assert m[u].degree_centrality == 1.0
        assert m[u].local_clustering == 1.0
        assert m[u].eigenvector_centrality == pytest.approx(0.5, abs=1e-10)
        assert m[u].pagerank == pytest.approx(0.25, abs=1e-10)


def test_c5_node_metrics():
    m = c5()
    vals = node_metrics(GraphCSR.of(m))
    for u in m.nodes:
        assert vals[u].degree_centrality == 0.5
        assert vals[u].local_clustering == 0.0
        assert vals[u].eigenvector_centrality == pytest.approx(
            1 / math.sqrt(5), abs=1e-10)
        assert vals[u].pagerank == pytest.approx(0.2, abs=1e-10)


def test_star_node_metrics():
    vals = node_metrics(GraphCSR.of(star4()))
    hub, leaf = vals["hub"], vals["l0"]
    assert hub.degree_centrality == 1.0 and leaf.degree_centrality == 0.25
    assert hub.local_clustering == 0.0
    # adjacency eigenvector of K_{1,4}: hub = 2 * leaf, norm 1
    assert hub.eigenvector_centrality == pytest.approx(
        0.7071067811865476, abs=1e-10)
    assert leaf.eigenvector_centrality == pytest.approx(
        0.35355339059327373, abs=1e-10)
    # stationary solution: h = (1 + 4 d) / (5 (1 + d)), leaves share 1 - h
    d = 0.85
    h = (1 + 4 * d) / (5 * (1 + d))
    assert hub.pagerank == pytest.approx(h, abs=1e-10)
    assert leaf.pagerank == pytest.approx((1 - h) / 4, abs=1e-10)


def test_node_metrics_disconnected_zeroes_minor_component():
    # triangle (lambda 2) dominates the single edge (lambda 1)
    g = from_pairs("rtw", [("a", "b", 1.0), ("b", "c", 1.0),
                                      ("a", "c", 1.0), ("x", "y", 1.0)])
    vals = node_metrics(GraphCSR.of(g))
    assert vals["x"].eigenvector_centrality == 0.0
    assert vals["y"].eigenvector_centrality == 0.0
    for u in "abc":
        assert vals[u].eigenvector_centrality == pytest.approx(
            1 / math.sqrt(3), abs=1e-10)


def test_triangle_pass_allocates_a_bounded_block():
    # K_200 opens C(200, 3) = 1,313,400 wedges, 80 blocks of 1 << 14. The
    # edge arrays take ~28 B per CSR entry and a block ~50 B per wedge, so
    # blocks of 1 << 15 wedges, or one block of them all, overshoot
    k = 200
    u, v = np.triu_indices(k, 1)
    csr = GraphCSR.of(LayerGraph("rtw", tuple(f"u{i:03d}" for i in range(k)), u, v,
                                 np.ones(u.size), np.ones(u.size, np.int64),
                                 np.ones(u.size, np.int64)))
    tracemalloc.start()
    try:
        tri = _triangles(csr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tri.tolist() == [math.comb(k - 1, 2)] * k
    bound = 32 * csr.indices.size + 64 * (1 << 14)
    assert peak < bound, f"triangle pass peaked at {peak} bytes, bound {bound}"


def test_node_metrics_invariants_random(rng):
    for _ in range(100):
        g = random_layer(rng, n=int(rng.integers(3, 30)), p=0.25)
        if g.n_edges == 0:
            continue
        vals = node_metrics(GraphCSR.of(g))
        pr_sum = math.fsum(v.pagerank for v in vals.values())
        assert pr_sum == pytest.approx(1.0, abs=1e-9)
        eig = np.array([v.eigenvector_centrality for v in vals.values()])
        assert np.linalg.norm(eig) == pytest.approx(1.0, abs=1e-8)
        assert (eig >= 0.0).all()
        for v in vals.values():
            assert 0.0 <= v.degree_centrality <= 1.0
            assert 0.0 <= v.local_clustering <= 1.0
            assert v.pagerank > 0.0


def test_node_metrics_match_reference_library(rng):
    nx = pytest.importorskip("networkx")
    for trial in range(30):
        g = random_layer(rng, n=int(rng.integers(4, 25)), p=0.35)
        if g.n_edges == 0:
            continue
        G = nx.Graph()
        G.add_nodes_from(g.nodes)
        for (u, v), data in edge_dict(g).items():
            G.add_edge(u, v, weight=data.weight)
        vals = node_metrics(GraphCSR.of(g))
        want_pr = nx.pagerank(G, alpha=0.85, tol=1e-12, max_iter=1000,
                              weight="weight")
        want_cl = nx.clustering(G)  # unweighted
        want_dc = nx.degree_centrality(G)
        for u in g.nodes:
            assert vals[u].pagerank == pytest.approx(want_pr[u], abs=1e-8)
            assert vals[u].local_clustering == pytest.approx(want_cl[u], abs=1e-12)
            assert vals[u].degree_centrality == pytest.approx(want_dc[u], abs=1e-12)
        # eigenvector on the dominant component against a dense solve
        comps = sorted(nx.connected_components(G), key=len)
        best = None
        best_lam = -np.inf
        for comp in comps:
            sub = G.subgraph(comp)
            order = sorted(comp)
            A = nx.to_numpy_array(sub, nodelist=order, weight="weight")
            lams, vecs = np.linalg.eigh(A)
            if lams[-1] > best_lam + 1e-12:
                best_lam = lams[-1]
                best = (order, np.abs(vecs[:, -1]))
        order, vec = best
        vec = vec / np.linalg.norm(vec)
        got = {u: vals[u].eigenvector_centrality for u in g.nodes}
        for i, u in enumerate(order):
            assert got[u] == pytest.approx(vec[i], abs=1e-7)
        for u in set(g.nodes) - set(order):
            assert got[u] == 0.0


def test_node_metrics_validation():
    with pytest.raises(ValueError):
        node_metrics(GraphCSR.of(LayerGraph("rtw")))
    # edgeless nodes still get well-defined values
    g = LayerGraph("rtw", nodes=("a", "b"))
    vals = node_metrics(GraphCSR.of(g))
    assert vals["a"].pagerank == 0.5
    assert vals["a"].degree_centrality == 0.0


# ---------------------------------------------------------------------------
# community metrics


def test_barbell_community_vector(barbell):
    m = community_metrics(GraphCSR.of(barbell), {"a", "b", "c"})
    assert m.size == 3
    assert m.density == 1.0
    assert m.avg_degree == 2.0
    assert m.avg_weight == 1.0
    assert m.avg_clustering == 1.0
    # cut 1, vol({a,b,c}) = 2+2+3 = 7 on the full graph
    assert m.conductance == pytest.approx(1 / 7, abs=1e-15)
    assert m.conductance_defined
    # induced triangle has constant degree: assortativity undefined -> 0
    assert m.assortativity == 0.0
    assert not m.assortativity_defined
    vec = m.vector()
    assert vec.shape == (len(COMMUNITY_METRIC_NAMES),)
    assert vec[0] == 3.0


def test_whole_graph_community_conductance_undefined():
    m = community_metrics(GraphCSR.of(k4()), {"a", "b", "c", "d"})
    assert m.density == 1.0 and m.avg_degree == 3.0
    assert m.conductance == 0.0
    assert not m.conductance_defined


def test_community_metrics_weights_only_in_avg_weight():
    g = from_pairs("rtw", [("a", "b", 0.2), ("b", "c", 0.6),
                                      ("c", "d", 10.0)])
    m = community_metrics(GraphCSR.of(g), {"a", "b", "c"})
    assert m.avg_weight == pytest.approx((0.2 + 0.6) / 2)
    assert m.density == pytest.approx(2 / 3)
    assert m.avg_degree == pytest.approx(4 / 3)
    # conductance counts edges, not weights: cut 1, vol_in 1+2+2=5, vol_out 1
    assert m.conductance == pytest.approx(1.0, abs=1e-15)


def test_community_metrics_match_reference_library(rng):
    nx = pytest.importorskip("networkx")
    checked = 0
    for _ in range(30):
        g = random_layer(rng, n=int(rng.integers(5, 20)), p=0.35)
        if g.n_edges < 3:
            continue
        members = set(sorted(g.nodes)[: max(3, g.n_nodes // 2)])
        G = nx.Graph()
        G.add_nodes_from(g.nodes)
        for (u, v), data in edge_dict(g).items():
            G.add_edge(u, v, weight=data.weight)
        m = community_metrics(GraphCSR.of(g), members)
        sub = G.subgraph(members)
        assert m.density == pytest.approx(nx.density(sub), abs=1e-12)
        assert m.avg_clustering == pytest.approx(
            sum(nx.clustering(sub).values()) / len(members), abs=1e-12)
        if sub.number_of_edges():
            want_w = sum(d["weight"] for _, _, d in sub.edges(data=True)) \
                / sub.number_of_edges()
            assert m.avg_weight == pytest.approx(want_w, abs=1e-12)
        cut = nx.cut_size(G, members)
        vol_s = nx.volume(G, members)
        vol_t = nx.volume(G, set(G) - members)
        if min(vol_s, vol_t) > 0:
            assert m.conductance == pytest.approx(
                cut / min(vol_s, vol_t), abs=1e-12)
            assert m.conductance_defined
        if m.assortativity_defined:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                want = nx.degree_assortativity_coefficient(sub)
            assert m.assortativity == pytest.approx(want, abs=1e-8)
            checked += 1
    assert checked >= 3


def test_community_metrics_validation(barbell):
    with pytest.raises(ValueError):
        community_metrics(GraphCSR.of(barbell), set())
    with pytest.raises(ValueError):
        community_metrics(GraphCSR.of(barbell), {"a", "zz"})
    m = community_metrics(GraphCSR.of(barbell), {"a"})
    assert m.size == 1 and m.density == 0.0 and m.avg_degree == 0.0


# ---------------------------------------------------------------------------
# cosine


def test_metric_cosine():
    assert metric_cosine([1.0, 0.0], [2.0, 0.0]) == pytest.approx(1.0)
    assert metric_cosine([1.0, 0.0], [0.0, 3.0]) == pytest.approx(0.0)
    with pytest.raises(UndefinedMetricError):
        metric_cosine([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        metric_cosine([1.0], [1.0, 2.0])


# ---------------------------------------------------------------------------
# PCA


def _metric_rows(rng, n=12, k=5):
    return rng.random((n, k)) * np.array([1.0, 10.0, 0.1, 5.0, 2.0])[:k]


def test_pca_ratios_sum_to_one_without_drops(rng):
    X = _metric_rows(rng)
    coords, ratios = pca_project(X, dims=2)
    assert coords.shape == (12, 2)
    assert ratios.shape == (5,)    # spectrum covers every kept feature
    full_coords, full_ratios = pca_project(X, dims=5)
    assert math.fsum(full_ratios) == pytest.approx(1.0, abs=1e-10)
    assert (np.diff(full_ratios) <= 1e-12).all()   # descending


def test_pca_sign_convention_largest_loading_positive(rng):
    X = _metric_rows(rng)
    coords1, _ = pca_project(X, dims=2)
    coords2, _ = pca_project(X, dims=2)
    assert np.allclose(coords1, coords2)           # deterministic, no sign flips


def test_pca_matches_reference_library(rng):
    decomposition = pytest.importorskip("sklearn.decomposition")
    for _ in range(10):
        X = rng.random((int(rng.integers(5, 20)), 4)) * [1, 7, 3, 0.5]
        coords, ratios = pca_project(X, dims=2)
        Z = (X - X.mean(axis=0)) / X.std(axis=0, ddof=1)
        ref = decomposition.PCA(n_components=2).fit(Z)
        want = ref.transform(Z)
        # axes are sign-ambiguous between implementations
        assert np.allclose(np.abs(coords), np.abs(want), atol=1e-8)
        assert np.allclose(ratios[:2], ref.explained_variance_ratio_, atol=1e-10)


def test_pca_zero_variance_feature_dropped_with_warning(rng, caplog):
    # logged, not warnings.warn: a CLI user gets one WARNING line, no source line
    X = _metric_rows(rng)
    X[:, 3] = 42.0
    coords, ratios = pca_project(X, dims=2)
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("WARNING", "dropping zero-variance features: 3")]
    assert coords.shape == (12, 2)
    # the dropped feature still counts in the ratio denominator
    _, full = pca_project(np.delete(X, 3, axis=1), dims=4)
    assert len(caplog.records) == 1
    _, expect = pca_project(X, dims=4)
    assert len(caplog.records) == 2
    assert math.fsum(expect) == pytest.approx(4 / 5 * math.fsum(full), abs=1e-10)


def test_pca_needs_three_rows(rng):
    with pytest.raises(UndefinedMetricError):
        pca_project(rng.random((2, 5)), dims=2)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_pca_skip_reason_names_the_row_count(n, caplog):
    # characterize writes the reason into its pca_skipped record
    with pytest.raises(UndefinedMetricError) as info:
        pca_project(np.ones((n, len(COMMUNITY_METRIC_NAMES))), dims=2)
    assert str(info.value) == f"only {n} communities"
    assert caplog.records == []


@pytest.mark.parametrize("varying", [0, 1])
def test_pca_skip_reason_names_the_varying_descriptors(rng, varying, caplog):
    X = np.ones((5, len(COMMUNITY_METRIC_NAMES)))
    X[:, :varying] = rng.random((5, varying))
    with pytest.raises(UndefinedMetricError) as info:
        pca_project(X, dims=2)
    assert str(info.value) == f"only {varying} descriptors vary"
    # the check comes before the warning about the features it would drop
    assert caplog.records == []


# ---------------------------------------------------------------------------
# rank test


def test_brunner_munzel_frozen_pair():
    r = brunner_munzel([1, 3, 5, 7], [2, 4, 6, 8])
    assert r.statistic == pytest.approx(0.5477225575051661, abs=1e-12)
    assert r.p_value == pytest.approx(0.6036450565101363, abs=1e-12)


def test_brunner_munzel_orientation_and_symmetry():
    x = [1.0, 2.0, 3.0, 4.0, 5.0]
    y = [v + 2.5 for v in x]
    r = brunner_munzel(x, y)
    assert r.statistic > 0.0          # y tends larger
    r_sw = brunner_munzel(y, x)
    assert r_sw.statistic == pytest.approx(-r.statistic, abs=1e-12)
    assert r_sw.p_value == pytest.approx(r.p_value, abs=1e-12)


def test_brunner_munzel_matches_reference(rng):
    stats = pytest.importorskip("scipy.stats")
    checked = 0
    for _ in range(20):
        nx_ = int(rng.integers(4, 25))
        ny_ = int(rng.integers(4, 25))
        x = rng.normal(size=nx_) + rng.random()
        y = rng.normal(size=ny_)
        if rng.random() < 0.3:        # exercise midranks through ties
            x = np.round(x, 1)
            y = np.round(y, 1)
        want = stats.brunnermunzel(x, y)
        if not np.isfinite(want.statistic):
            continue
        got = brunner_munzel(x, y)
        assert got.statistic == pytest.approx(float(want.statistic), abs=1e-6)
        assert got.p_value == pytest.approx(float(want.pvalue), abs=1e-6)
        # the tail is the Student t survival function, to a relative 1e-12
        assert got.p_value == pytest.approx(
            min(1.0, 2.0 * float(stats.t.sf(abs(got.statistic), got.df))), rel=1e-12, abs=0)
        checked += 1
    assert checked >= 15


@pytest.mark.parametrize("values", [
    [3.0, 1.0, 2.0, 2.0, 5.0, 1.0, 2.0],   # ties of two and three
    [4.0, 4.0, 4.0, 4.0],                   # all equal
    [2.0, 1.0],                             # n = 2
    [1.0, 1.0],                             # n = 2, tied
    [0.1, -0.0, 0.0, 0.3, 0.1, 0.2],        # signed zeros tie
])
def test_midranks_match_rankdata(values):
    stats = pytest.importorskip("scipy.stats")
    a = np.array(values)
    got = _midranks(a)
    want = stats.rankdata(a)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()


def test_midranks_match_rankdata_random(rng):
    stats = pytest.importorskip("scipy.stats")
    for _ in range(50):
        a = rng.integers(0, 6, size=int(rng.integers(2, 40))).astype(float)
        assert _midranks(a).tolist() == stats.rankdata(a).tolist()


def test_brunner_munzel_degenerate_raises():
    with pytest.raises(DegenerateSampleError):
        brunner_munzel([3.0, 3.0, 3.0], [3.0, 3.0, 3.0])
    with pytest.raises(DegenerateSampleError):
        brunner_munzel([1.0, 1.0], [9.0, 9.0])   # full separation, zero variance
    with pytest.raises(ValueError):
        brunner_munzel([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        brunner_munzel([1.0, np.nan, 2.0], [1.0, 2.0])


def test_significance_bands():
    assert significance_band(0.0005) == "***"
    assert significance_band(0.001) == "***"
    assert significance_band(0.005) == "**"
    assert significance_band(0.01) == "**"
    assert significance_band(0.03) == "*"
    assert significance_band(0.05) == "*"
    assert significance_band(0.0501) == "ns"
    assert significance_band(0.9) == "ns"


def test_metric_name_registries():
    assert len(COMMUNITY_METRIC_NAMES) == 7
    assert len(NODE_METRIC_NAMES) == 4

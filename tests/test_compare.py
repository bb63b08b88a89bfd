"""Overlap matrices, optimal matching, switch labels, NMI, coverage."""

import itertools
import math
import time

import numpy as np
import pytest

from conftest import from_pairs
from multicoord.community import Partition
from multicoord.compare import (COMMON, GAINED, LOST, actor_coverage, edge_coverage,
                                hungarian_match, label_communities,
                                label_nodes, nmi, overlap_matrix,
                                pearson_degree_correlation)
from multicoord.errors import DataError, UndefinedMetricError
from multicoord.netbuild import LayerGraph, MultiplexNetwork


# ---------------------------------------------------------------------------
# overlap


def overlap_of(C_A, C_B, min_size=0):
    """overlap_matrix of two disjoint member-set maps {community id: members}."""
    a, b = ({node: cid for cid, members in C.items() for node in members} for C in (C_A, C_B))
    return overlap_matrix(a, b, min_size)


def test_overlap_matrix_reads_a_multiplex_assignment():
    # a "multi" Partition's assignment keys (node, layer) supra-nodes
    mp = Partition("multi", {("a", "rtw"): 0, ("b", "rtw"): 0, ("c", "rpl"): 1})
    O = overlap_matrix(mp.assignment, {("a", "rtw"): 5, ("c", "rpl"): 5})
    assert O.a_members == (frozenset({("a", "rtw"), ("b", "rtw")}), frozenset({("c", "rpl")}))
    assert O.b_members == (frozenset({("a", "rtw"), ("c", "rpl")}),)
    assert O.counts.tolist() == [[1, 1]]


def test_overlap_min_size_is_strict():
    src = {"a": 0, "b": 0, "c": 0, "d": 1, "e": 1, "f": 2}
    assert overlap_matrix(src, src, min_size=2).a_ids == (0,)
    assert overlap_matrix(src, src, min_size=1).a_ids == (0, 1)
    assert overlap_matrix(src, src, min_size=0).b_ids == (0, 1, 2)
    with pytest.raises(ValueError):
        overlap_matrix(src, src, min_size=-1)


def test_overlap_harmonic_mean_hand_case():
    # |A| = 4, |B| = 3, |A n B| = 2: directional 1/2 and 2/3, harmonic 4/7
    O = overlap_of({0: {1, 2, 3, 4}}, {0: {3, 4, 5}})
    assert O.values.shape == (1, 1)
    assert O.overlap(0, 0) == pytest.approx(4 / 7, abs=1e-15)


def test_overlap_extremes_and_shape():
    O = overlap_of({0: {"a", "b"}, 1: {"c"}},
                       {0: {"a", "b"}, 1: {"x"}, 2: {"c"}})
    assert O.values.shape == (3, 2)          # rows = B, cols = A
    assert O.k_a == 2 and O.k_b == 3
    assert O.overlap(0, 0) == 1.0            # identical sets
    assert O.overlap(0, 1) == 0.0            # disjoint
    assert O.overlap(1, 2) == 1.0


def test_overlap_algebra_random(rng):
    # range, equality, disjointness, and direction-swap symmetry
    for _ in range(1000):
        universe = list(range(int(rng.integers(2, 30))))
        a = set(int(x) for x in rng.choice(universe, size=rng.integers(1, len(universe) + 1), replace=False))
        b = set(int(x) for x in rng.choice(universe, size=rng.integers(1, len(universe) + 1), replace=False))
        O_ab = overlap_of({0: a}, {0: b})
        O_ba = overlap_of({0: b}, {0: a})
        o = O_ab.overlap(0, 0)
        assert 0.0 <= o <= 1.0
        assert (o == 1.0) == (a == b)
        assert (o == 0.0) == (not a & b)
        assert o == O_ba.overlap(0, 0)       # symmetric in the two sets


def test_overlap_min_size_filter():
    O = overlap_of({0: {"a", "b", "c"}, 1: {"d"}},
                       {0: {"a", "b", "c"}, 1: {"d"}}, min_size=1)
    assert O.k_a == 1 and O.k_b == 1
    assert O.a_ids == (0,) and O.b_ids == (0,)


# ---------------------------------------------------------------------------
# matching


def test_hungarian_3x3_frozen():
    # brute force over the 6 permutations puts the optimum on the diagonal
    # with total 0.9 + 0.9 + 0.1
    O = overlap_of({0: set("ab"), 1: set("cd"), 2: set("ef")},
                       {0: set("ab"), 1: set("cd"), 2: set("ef")})
    vals = np.array([[0.9, 0.8, 0.0], [0.8, 0.9, 0.0], [0.0, 0.0, 0.1]])
    object.__setattr__(O, "values", vals)
    M = hungarian_match(O)
    assert M.pairs == ((0, 0), (1, 1), (2, 2))
    assert M.total == pytest.approx(1.9000000000000001, abs=1e-15)


def test_hungarian_prefers_total_over_greedy():
    # greedy on the largest entry (0.9) would force a total of 0.9 + 0.1;
    # the optimum pairs off-diagonal for 0.8 + 0.7
    O = overlap_of({0: set("ab"), 1: set("cd")}, {0: set("ab"), 1: set("cd")})
    object.__setattr__(O, "values", np.array([[0.9, 0.7], [0.8, 0.1]]))
    M = hungarian_match(O)
    # values[b, a]: pairs (a=0, b=1) -> 0.8 and (a=1, b=0) -> 0.7
    assert set(M.pairs) == {(0, 1), (1, 0)}
    assert M.total == pytest.approx(1.5, abs=1e-15)


def test_hungarian_rectangular_and_unmatched():
    O = overlap_of({0: {"a"}, 1: {"b"}, 2: {"c"}},
                       {0: {"a"}, 1: {"z"}})
    M = hungarian_match(O)
    # B community 1 shares no node with any A community, so it stays
    # unmatched, as do A communities 1 and 2
    assert M.pairs == ((0, 0),)
    assert M.total == 1.0


def test_hungarian_matches_brute_force(rng):
    # exhaustive permutation maximum on random matrices with a random share
    # of zero cells, exact equality: a zero cell adds nothing to a total,
    # so forbidding it leaves the maximum as it is
    for _ in range(200):
        k_a = int(rng.integers(1, 8))
        k_b = int(rng.integers(1, 8))
        O = overlap_of({i: {f"a{i}"} for i in range(k_a)},
                           {j: {f"b{j}"} for j in range(k_b)})
        vals = np.round(rng.random((k_b, k_a)), 3) * (rng.random((k_b, k_a)) >= rng.random())
        object.__setattr__(O, "values", vals)
        M = hungarian_match(O)
        n = max(k_a, k_b)
        padded = np.zeros((n, n))
        padded[:k_b, :k_a] = vals
        best = max(math.fsum(padded[r, c] for r, c in enumerate(perm))
                   for perm in itertools.permutations(range(n)))
        assert M.total == pytest.approx(best, abs=1e-12)
        assert all(vals[b, a] > 0 for a, b in M.pairs)
        assert len({a for a, _ in M.pairs}) == len({b for _, b in M.pairs}) == len(M.pairs)
        got = math.fsum(vals[b, a] for a, b in M.pairs)
        assert got == pytest.approx(M.total, abs=1e-12)


def test_hungarian_at_two_thousand_communities(rng):
    # k = 2,000 with 3 positive cells per row: the scipy total, in seconds
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    k = 2000
    vals = np.zeros((k, k))
    for b in range(k):
        vals[b, rng.choice(k, 3, replace=False)] = rng.random(3)
    O = overlap_of({i: {f"a{i}"} for i in range(k)}, {j: {f"b{j}"} for j in range(k)})
    object.__setattr__(O, "values", vals)
    start = time.perf_counter()
    M = hungarian_match(O)
    assert time.perf_counter() - start < 5.0
    rows, cols = linear_sum_assignment(vals, maximize=True)
    assert M.total == pytest.approx(math.fsum(vals[rows, cols]), abs=1e-9)
    assert all(vals[b, a] > 0 for a, b in M.pairs)


def test_hungarian_rejects_non_finite():
    O = overlap_of({0: {"a"}}, {0: {"a"}})
    object.__setattr__(O, "values", np.array([[np.nan]]))
    with pytest.raises(ValueError):
        hungarian_match(O)


# ---------------------------------------------------------------------------
# labels


def _two_sided():
    C_A = {10: {"a", "b", "c", "d"}, 20: {"e", "f"}}
    C_B = {1: {"a", "b", "c", "x"}, 2: {"q", "r"}}
    O = overlap_of(C_A, C_B)
    return O, hungarian_match(O)


def test_label_communities_threshold():
    O, M = _two_sided()
    # matched pair (10, 1) has overlap 3/4 = 0.75
    labels_a, labels_b = label_communities(O, M, theta=0.5)
    assert labels_a[10] == COMMON
    assert labels_b[1] == COMMON
    hi_a, hi_b = label_communities(O, M, theta=0.76)
    assert hi_a[10] == LOST
    assert hi_b[1] == GAINED
    # theta exactly at the overlap keeps the pair common
    assert label_communities(O, M, theta=0.75)[0][10] == COMMON
    # {e,f} and {q,r} share no node, so they are not matched at all
    assert M.pairs == ((0, 0),)
    assert labels_a[20] == LOST
    assert labels_b[2] == GAINED
    assert label_communities(O, M, theta=0.0)[1][2] == GAINED
    # both dicts follow the registry order
    assert tuple(labels_a) == O.a_ids and tuple(labels_b) == O.b_ids
    with pytest.raises(ValueError):
        label_communities(O, M, theta=1.5)


def test_label_bookkeeping_random(rng):
    # lost + common = k_a, gained + common = k_b, common_A = common_B, and
    # raising theta never increases the common count
    for _ in range(100):
        n = int(rng.integers(4, 40))
        nodes = [f"n{i}" for i in range(n)]
        a_assign = {u: int(rng.integers(1, 6)) for u in nodes}
        b_assign = {u: int(rng.integers(1, 6)) for u in nodes}
        O = overlap_matrix(a_assign, b_assign)
        M = hungarian_match(O)
        prev_common = None
        for theta in (0.0, 0.25, 0.5, 0.75, 1.0):
            labels_a, labels_b = label_communities(O, M, theta=theta)
            common_a = sum(1 for v in labels_a.values() if v == COMMON)
            common_b = sum(1 for v in labels_b.values() if v == COMMON)
            lost = sum(1 for v in labels_a.values() if v == LOST)
            gained = sum(1 for v in labels_b.values() if v == GAINED)
            assert common_a == common_b
            assert lost + common_a == O.k_a
            assert gained + common_b == O.k_b
            if prev_common is not None:
                assert common_a <= prev_common
            prev_common = common_a


def test_label_nodes_set_algebra():
    O, M = _two_sided()
    labels = label_nodes(O, M)
    # matched pair is ({a,b,c,d}, {a,b,c,x})
    assert all(labels[u] == COMMON for u in "abc")
    assert labels["d"] == LOST                 # dropped from the matched pair
    assert labels["x"] == GAINED               # new in the matched pair
    # {e,f} and {q,r} are disjoint and so unmatched: A-side members are
    # lost, B-side gained
    assert labels["e"] == labels["f"] == LOST
    assert labels["q"] == labels["r"] == GAINED


def test_label_nodes_cross_pair_membership_is_not_common():
    # node z sits in A-community 0 and B-community 1, but the match pairs
    # (0, 0) and (1, 1): z is lost, not common
    C_A = {0: {"z", "a"}, 1: {"b", "c", "d"}}
    C_B = {0: {"a", "p"}, 1: {"b", "c", "z"}}
    O = overlap_of(C_A, C_B)
    M = hungarian_match(O)
    assert set(M.pairs) == {(0, 0), (1, 1)}
    labels = label_nodes(O, M)
    assert labels["z"] == LOST
    assert labels["a"] == COMMON and labels["b"] == COMMON


def test_overlap_counts_are_intersection_sizes():
    O = overlap_of({0: {"a", "b", "c"}, 1: {"d"}},
                       {0: {"a", "b", "x"}, 1: {"c", "d"}, 2: {"y"}})
    assert O.counts.tolist() == [[2, 0], [1, 1], [0, 0]]
    assert O.values[1, 0] == 2.0 * (1 / 3) * (1 / 2) / (1 / 3 + 1 / 2)
    empty = overlap_of({0: {"a"}, 1: {"b"}}, {0: {"c"}}, min_size=1)
    assert empty.counts.shape == empty.values.shape == (0, 0)


# ---------------------------------------------------------------------------
# NMI


def test_nmi_identical_and_independent():
    p1 = {f"n{i}": i % 3 for i in range(30)}
    assert nmi(overlap_matrix(p1, dict(p1))) == pytest.approx(1.0, abs=1e-12)
    relabeled = {u: {0: 7, 1: 2, 2: 5}[c] for u, c in p1.items()}
    assert nmi(overlap_matrix(p1, relabeled)) == pytest.approx(1.0, abs=1e-12)
    # a partition against the all-in-one partition carries no information
    whole = {u: 0 for u in p1}
    assert nmi(overlap_matrix(p1, whole)) == 0.0
    assert nmi(overlap_matrix(whole, dict(whole))) == 0.0     # degenerate by convention


def test_nmi_matches_reference_implementation(rng):
    sklearn_metrics = pytest.importorskip("sklearn.metrics")
    for _ in range(50):
        n = int(rng.integers(5, 60))
        nodes = [f"n{i}" for i in range(n)]
        p1 = {u: int(rng.integers(1, 6)) for u in nodes}
        p2 = {u: int(rng.integers(1, 6)) for u in nodes}
        labels1 = [p1[u] for u in nodes]
        labels2 = [p2[u] for u in nodes]
        if len(set(labels1)) == 1 and len(set(labels2)) == 1:
            continue  # reference scores degenerate agreement as 1, we define 0
        want = sklearn_metrics.normalized_mutual_info_score(
            labels1, labels2, average_method="arithmetic")
        assert nmi(overlap_matrix(p1, p2)) == pytest.approx(want, abs=1e-10)


def test_nmi_common_universe_and_min_size():
    p1 = {"a": 0, "b": 0, "c": 1, "d": 2}
    p2 = {"c": 5, "d": 7, "e": 0, "f": 1}
    # computed over {c, d} only, where both split into singletons
    assert nmi(overlap_matrix(p1, p2)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DataError):
        nmi(overlap_matrix({"a": 0, "b": 0}, {"c": 0, "d": 0}))
    # the size filter can empty the common universe: p1 keeps {a,b},
    # p2 keeps {c,d}, nothing shared
    with pytest.raises(DataError):
        nmi(overlap_matrix({"a": 0, "b": 0, "c": 1}, {"c": 0, "d": 0, "a": 1}, min_size=1))


# ---------------------------------------------------------------------------
# coverage


def cover_net():
    return MultiplexNetwork({
        "rtw": from_pairs("rtw", [("a", "b", 1.0), ("b", "c", 1.0),
                                             ("c", "d", 1.0)]),
        "rpl": from_pairs("rpl", [("a", "b", 1.0), ("x", "y", 1.0)]),
    })


def test_actor_coverage_directional():
    net = cover_net()
    assert actor_coverage(net, "rtw", "rpl") == pytest.approx(2 / 4)
    assert actor_coverage(net, "rpl", "rtw") == pytest.approx(2 / 4)
    e = MultiplexNetwork({"rtw": LayerGraph("rtw"), "rpl": cover_net().layers["rpl"]})
    with pytest.raises(DataError):
        actor_coverage(e, "rtw", "rpl")


def test_edge_coverage_directional():
    net = cover_net()
    assert edge_coverage(net, "rtw", "rpl") == pytest.approx(1 / 3)
    assert edge_coverage(net, "rpl", "rtw") == pytest.approx(1 / 2)
    with pytest.raises(DataError):
        edge_coverage(MultiplexNetwork(
            {"rtw": LayerGraph("rtw"), "rpl": cover_net().layers["rpl"]}),
            "rtw", "rpl")


def test_pearson_degree_correlation_frozen():
    # common actors a, b, c with rtw degrees (1, 2, 1)... build exact vectors
    net = MultiplexNetwork({
        "rtw": from_pairs("rtw", [("a", "b", 1.0), ("b", "c", 1.0),
                                             ("c", "d", 1.0), ("a", "d", 1.0),
                                             ("a", "c", 1.0)]),
        "rpl": from_pairs("rpl", [("a", "b", 1.0), ("b", "c", 1.0),
                                             ("a", "c", 1.0), ("a", "d", 1.0)]),
    })
    # degrees over common {a,b,c,d}: rtw (3,2,3,2), rpl (3,2,2,1)
    want = float(np.corrcoef([3, 2, 3, 2], [3, 2, 2, 1])[0, 1])
    got = pearson_degree_correlation(net, "rtw", "rpl")
    assert got == pytest.approx(want, abs=1e-12)


def test_pearson_degree_correlation_undefined_cases():
    net = MultiplexNetwork({
        "rtw": from_pairs("rtw", [("a", "b", 1.0)]),
        "rpl": from_pairs("rpl", [("a", "b", 1.0)]),
    })
    with pytest.raises(UndefinedMetricError):
        pearson_degree_correlation(net, "rtw", "rpl")   # constant degrees
    disjoint = MultiplexNetwork({
        "rtw": from_pairs("rtw", [("a", "b", 1.0)]),
        "rpl": from_pairs("rpl", [("x", "y", 1.0)]),
    })
    with pytest.raises(UndefinedMetricError):
        pearson_degree_correlation(disjoint, "rtw", "rpl")  # < 2 common

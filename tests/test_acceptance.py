"""Acceptance suite: the binding correctness criteria for the toolkit.

Each test covers one numbered criterion and prints a single PASS/FAIL
line (visible with `pytest tests/test_acceptance.py -v -s`). Expected
values were computed with independent references before the library was
run against them.
"""

import itertools
import math
import time

import numpy as np
import pytest

from conftest import edge_dict, from_pairs, random_layer
from multicoord.characterize import (GraphCSR, brunner_munzel,
                                     community_metrics, node_metrics)
from multicoord.community import (Partition, communities,
                                  flatten_intersection, flatten_union,
                                  generalized_louvain, louvain, modularity,
                                  multislice_modularity, restrict_to_layer)
from multicoord.compare import (COMMON, GAINED, LOST, hungarian_match,
                                label_communities, nmi, overlap_matrix)
from multicoord.errors import UndefinedMetricError
from multicoord.filternet import FilterConfig, filter_multiplex
from multicoord.ingest import ACTIONS, select_users
from multicoord.netbuild import MultiplexNetwork, build_multiplex, window_slices
from multicoord.synth import SynthConfig, generate

H = 3600.0


def _verdict(num, name, failures):
    status = "FAIL" if failures else "PASS"
    print(f"[{status}] criterion {num:2d}: {name}")
    assert not failures, f"criterion {num}: " + "; ".join(failures[:5])


def _built_network(cfg):
    log, truth = generate(cfg)
    net = build_multiplex(log, select_users(log, 1.0), width=6 * H, shift=5 * H)
    filtered, _ = filter_multiplex(net, FilterConfig())
    return filtered, truth


# ---------------------------------------------------------------------------


def test_criterion_01_planted_recovery():
    cfg = SynthConfig(
        n_users=500, community_sizes=(150, 150, 150),
        strengths=tuple({a: 4.0 for a in ACTIONS} for _ in range(3)),
        seed=1234, noise_rate=0.5, community_pool_size=6, span_hours=48.0)
    failures = []
    t0 = time.monotonic()
    net, truth = _built_network(cfg)
    for layer in ACTIONS:
        p = louvain(net.layers[layer], gamma=1.0, seed=42)
        score = nmi(overlap_matrix(p.assignment, truth.assignment))
        if score < 0.9:
            failures.append(f"mono {layer}: nmi {score:.4f} < 0.9")
    mp = generalized_louvain(net, gamma=1.0, omega=0.1, seed=42)
    for layer in ACTIONS:
        score = nmi(overlap_matrix(restrict_to_layer(mp, layer).assignment, truth.assignment))
        if score < 0.9:
            failures.append(f"multi {layer}: nmi {score:.4f} < 0.9")
    elapsed = time.monotonic() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _verdict(1, f"planted recovery, all layers and modes ({elapsed:.1f}s)",
             failures)


def test_criterion_02_modality_divergence():
    # community 1 coordinates only in rpl; community 0 in rtw, men, rpl
    cfg = SynthConfig(
        n_users=80, community_sizes=(40, 40),
        strengths=({"rtw": 4.0, "men": 4.0, "rpl": 4.0}, {"rpl": 4.0}),
        seed=99, noise_rate=0.0, span_hours=24.0)
    net, truth = _built_network(cfg)
    c1 = communities(truth.assignment)[1]
    failures = []

    p_rpl = louvain(net.layers["rpl"], seed=42)
    detected = set(communities(p_rpl.assignment).values())
    if frozenset(c1) not in detected:
        failures.append("rpl mono run does not detect the rpl-only community")

    rtw_nodes = set(net.layers["rtw"].nodes)
    if rtw_nodes & c1:
        failures.append(f"{len(rtw_nodes & c1)} rpl-only members appear in rtw")

    mp = generalized_louvain(net, gamma=1.0, omega=0.1, seed=42)
    rtw_restriction = set(restrict_to_layer(mp, "rtw").assignment)
    if rtw_restriction & c1:
        failures.append("rpl-only members leak into the rtw restriction")
    _verdict(2, "rpl-only community invisible to rtw", failures)


def test_criterion_03_hungarian_optimality():
    rng = np.random.default_rng(303)
    failures = []
    for trial in range(200):
        k_a = int(rng.integers(1, 8))
        k_b = int(rng.integers(1, 8))
        O = overlap_matrix({f"a{i}": i for i in range(k_a)},
                           {f"b{j}": j for j in range(k_b)})
        object.__setattr__(O, "values", rng.random((k_b, k_a)))
        M = hungarian_match(O)
        n = max(k_a, k_b)
        padded = np.zeros((n, n))
        padded[:k_b, :k_a] = O.values
        best = max(math.fsum(padded[r, c] for r, c in enumerate(perm))
                   for perm in itertools.permutations(range(n)))
        if M.total != best:
            failures.append(f"trial {trial}: {M.total!r} != {best!r}")
    _verdict(3, "assignment equals brute-force max on 200 matrices", failures)


def test_criterion_04_overlap_algebra():
    rng = np.random.default_rng(404)
    failures = []
    for trial in range(1000):
        universe = range(int(rng.integers(2, 25)))
        a = {int(x) for x in rng.choice(list(universe),
                                        size=int(rng.integers(1, len(universe) + 1)),
                                        replace=False)}
        b = {int(x) for x in rng.choice(list(universe),
                                        size=int(rng.integers(1, len(universe) + 1)),
                                        replace=False)}
        o = overlap_matrix(dict.fromkeys(a, 0), dict.fromkeys(b, 0)).overlap(0, 0)
        o_swapped = overlap_matrix(dict.fromkeys(b, 0), dict.fromkeys(a, 0)).overlap(0, 0)
        if not (0.0 <= o <= 1.0):
            failures.append(f"trial {trial}: o={o} out of range")
        if (o == 1.0) != (a == b):
            failures.append(f"trial {trial}: o=1 iff equal violated")
        if (o == 0.0) != (not a & b):
            failures.append(f"trial {trial}: o=0 iff disjoint violated")
        if o != o_swapped:
            failures.append(f"trial {trial}: swap symmetry violated")
    _verdict(4, "overlap range/equality/disjoint/symmetry on 1000 pairs",
             failures)


def test_criterion_05_flattening_laws():
    rng = np.random.default_rng(505)
    failures = []
    for trial in range(50):
        layers = {name: random_layer(rng, name, n=int(rng.integers(5, 50)), p=0.15)
                  for name in ("rtw", "rpl", "men")}
        net = MultiplexNetwork(layers)
        edges = [edge_dict(g) for g in layers.values()]
        union = set().union(*edges)
        inter = set.intersection(*map(set, edges))
        for strategy in ("nw", "ec", "sum"):
            flat = edge_dict(flatten_union(net, strategy))
            if set(flat) != union:
                failures.append(f"trial {trial}: union edge set mismatch")
                continue
            for key, data in flat.items():
                carrying = [e[key].weight for e in edges if key in e]
                want = {"nw": 1.0, "ec": float(len(carrying)),
                        "sum": math.fsum(carrying)}[strategy]
                if data.weight != want:
                    failures.append(f"trial {trial}: {strategy} weight mismatch")
                    break
        if set(edge_dict(flatten_intersection(net))) != inter:
            failures.append(f"trial {trial}: intersection edge set mismatch")
    _verdict(5, "union/ec/sum/intersection laws on 50 multiplexes", failures)


def test_criterion_06_multislice_reduction():
    rng = np.random.default_rng(606)
    failures = []
    for trial in range(100):
        g = random_layer(rng, "rtw", n=int(rng.integers(4, 25)), p=0.3)
        if g.n_edges == 0:
            continue
        net = MultiplexNetwork({"rtw": g})
        assign = louvain(g, seed=int(rng.integers(1000))).assignment
        mp = Partition("multi", {(n, "rtw"): c for n, c in assign.items()})
        q_multi = multislice_modularity(net, mp, gamma=1.0, omega=0.0)
        q_std = modularity(g, Partition("rtw", assign))
        if abs(q_multi - q_std) > 1e-12:
            failures.append(f"trial {trial}: |{q_multi} - {q_std}| > 1e-12")

    # omega = 0 solver equivalence on fixtures with a unique optimum
    def triangles(layer):
        n = [f"u{i}" for i in range(6)]
        return from_pairs(layer, [
            (n[0], n[1], 1.0), (n[1], n[2], 1.0), (n[0], n[2], 1.0),
            (n[3], n[4], 1.0), (n[4], n[5], 1.0), (n[3], n[5], 1.0),
            (n[2], n[3], 0.05)])
    net = MultiplexNetwork({"rtw": triangles("rtw"), "rpl": triangles("rpl")})
    mp = generalized_louvain(net, gamma=1.0, omega=0.0, seed=42)
    for layer in ("rtw", "rpl"):
        got = set(communities(restrict_to_layer(mp, layer).assignment).values())
        want = set(communities(louvain(net.layers[layer], seed=42).assignment).values())
        if got != want:
            failures.append(f"omega=0 restriction differs from mono on {layer}")
    # the decoupled solver attains the independent optima as one total
    q_joint = multislice_modularity(net, mp, gamma=1.0, omega=0.0)
    two_m = {a: 2.0 * net.layers[a].total_weight() for a in ("rtw", "rpl")}
    q_sep = sum(two_m[a] * modularity(net.layers[a], louvain(net.layers[a], seed=42))
                for a in two_m) / sum(two_m.values())
    if abs(q_joint - q_sep) > 1e-12:
        failures.append(f"omega=0 total {q_joint!r} != independent {q_sep!r}")
    _verdict(6, "omega=0 reduces to standard modularity (100 graphs)", failures)


def test_criterion_07_louvain_monotonicity():
    rng = np.random.default_rng(707)
    failures = []
    checked = 0
    for trial in range(100):
        g = random_layer(rng, n=int(rng.integers(4, 30)), p=0.3)
        if g.n_edges == 0:
            continue
        checked += 1
        p = louvain(g, seed=int(rng.integers(1000)))
        trace = np.array(p.trace)
        if not (np.diff(trace) >= -1e-12).all():
            failures.append(f"trial {trial}: trace decreased")
        singles = Partition(g.layer, {n: i for i, n in enumerate(sorted(g.nodes))})
        if modularity(g, p) < modularity(g, singles) - 1e-12:
            failures.append(f"trial {trial}: final Q below singleton Q")
    if checked < 90:
        failures.append(f"only {checked} usable graphs")
    _verdict(7, "pass trace non-decreasing, final Q >= singleton Q", failures)


def test_criterion_08_label_bookkeeping():
    rng = np.random.default_rng(808)
    failures = []
    for trial in range(100):
        n = int(rng.integers(4, 50))
        nodes = [f"n{i}" for i in range(n)]
        O = overlap_matrix({u: int(rng.integers(1, 7)) for u in nodes},
                           {u: int(rng.integers(1, 7)) for u in nodes})
        M = hungarian_match(O)
        prev_common = None
        for theta in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
            labels_a, labels_b = label_communities(O, M, theta=theta)
            common_a = sum(v == COMMON for v in labels_a.values())
            common_b = sum(v == COMMON for v in labels_b.values())
            lost = sum(v == LOST for v in labels_a.values())
            gained = sum(v == GAINED for v in labels_b.values())
            if common_a != common_b:
                failures.append(f"trial {trial}: common_A != common_B")
            if lost + common_a != O.k_a or gained + common_b != O.k_b:
                failures.append(f"trial {trial}: counts do not add up")
            if prev_common is not None and common_a > prev_common:
                failures.append(f"trial {trial}: common grew with theta")
            prev_common = common_a
    _verdict(8, "lost/common/gained totals on 100 comparisons", failures)


def test_criterion_09_metric_sanity():
    rng = np.random.default_rng(909)
    failures = []
    for trial in range(100):
        g = random_layer(rng, n=int(rng.integers(3, 25)), p=0.3)
        if g.n_edges == 0:
            continue
        vals = node_metrics(GraphCSR.of(g))
        order = sorted(g.nodes)
        pr = math.fsum(vals[u].pagerank for u in order)
        if abs(pr - 1.0) > 1e-9:
            failures.append(f"trial {trial}: pagerank sum {pr!r}")
        x = np.array([vals[u].eigenvector_centrality for u in order])
        A = np.zeros((len(order), len(order)))  # order is g.nodes
        A[g.u, g.v] = A[g.v, g.u] = g.weight
        lam = float(x @ A @ x)
        if np.max(np.abs(A @ x - lam * x)) > 1e-8:
            failures.append(f"trial {trial}: eigenvector residual > 1e-8")
        for u in order:
            if not (0.0 <= vals[u].local_clustering <= 1.0):
                failures.append(f"trial {trial}: clustering out of bounds")
        m = community_metrics(GraphCSR.of(g), set(order[: max(2, len(order) // 2)]))
        if not (0.0 <= m.density <= 1.0) or m.conductance < 0.0:
            failures.append(f"trial {trial}: community metric out of bounds")

    # closed forms
    k4 = from_pairs("rtw", [(a, b, 1.0) for a, b in
                                       itertools.combinations("abcd", 2)])
    v = node_metrics(GraphCSR.of(k4))["a"]
    if not (v.degree_centrality == 1.0 and v.local_clustering == 1.0
            and abs(v.eigenvector_centrality - 0.5) < 1e-10
            and abs(v.pagerank - 0.25) < 1e-10):
        failures.append("K4 closed forms")
    c5 = from_pairs("rtw", [(f"v{i}", f"v{(i + 1) % 5}", 1.0)
                                       for i in range(5)])
    v = node_metrics(GraphCSR.of(c5))["v0"]
    if not (abs(v.pagerank - 0.2) < 1e-10
            and abs(v.eigenvector_centrality - 1 / math.sqrt(5)) < 1e-10):
        failures.append("C5 closed forms")
    star = from_pairs("rtw", [("hub", f"l{i}", 1.0) for i in range(4)])
    sv = node_metrics(GraphCSR.of(star))
    if not (abs(sv["hub"].eigenvector_centrality - 0.7071067811865476) < 1e-10
            and abs(sv["l0"].eigenvector_centrality - 0.35355339059327373) < 1e-10
            and sv["hub"].local_clustering == 0.0
            and sv["l0"].degree_centrality == 0.25):
        failures.append("star closed forms")
    barbell = from_pairs("rtw", [
        ("a", "b", 1.0), ("a", "c", 1.0), ("b", "c", 1.0),
        ("d", "e", 1.0), ("d", "f", 1.0), ("e", "f", 1.0), ("c", "d", 1.0)])
    m = community_metrics(GraphCSR.of(barbell), {"a", "b", "c"})
    if not (m.size == 3 and m.density == 1.0 and m.avg_degree == 2.0
            and m.avg_weight == 1.0 and m.avg_clustering == 1.0
            and abs(m.conductance - 1 / 7) < 1e-15
            and m.assortativity == 0.0 and not m.assortativity_defined):
        failures.append("barbell closed forms")
    _verdict(9, "pagerank/eigenvector/clustering sanity + closed forms",
             failures)


def test_criterion_10_brunner_munzel_oracle():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(1010)
    failures = []
    checked = 0
    while checked < 20:
        x = rng.normal(size=int(rng.integers(5, 30))) + float(rng.random())
        y = rng.normal(size=int(rng.integers(5, 30)))
        if rng.random() < 0.4:
            x, y = np.round(x, 1), np.round(y, 1)
        want = stats.brunnermunzel(x, y)
        if not (np.isfinite(want.statistic) and np.isfinite(want.pvalue)):
            continue
        got = brunner_munzel(x, y)
        if abs(got.statistic - float(want.statistic)) > 1e-6:
            failures.append(f"pair {checked}: statistic off")
        if abs(got.p_value - float(want.pvalue)) > 1e-6:
            failures.append(f"pair {checked}: p-value off")
        checked += 1
    try:
        brunner_munzel([2.0, 2.0, 2.0], [2.0, 2.0, 2.0])
        failures.append("degenerate input did not raise")
    except UndefinedMetricError:
        pass
    _verdict(10, "statistic and p match the reference on 20 pairs", failures)


def test_criterion_11_end_to_end_determinism(tmp_path):
    import hashlib
    import json
    import os

    from multicoord.cli import main

    out = str(tmp_path / "out")
    synth_cfg = tmp_path / "synth.json"
    synth_cfg.write_text(json.dumps({
        "out": out,
        "synth": {"n_users": 40, "community_sizes": [15, 15],
                  "strengths": [{a: 3.0 for a in ACTIONS},
                                {a: 3.0 for a in ACTIONS}],
                  "seed": 2024, "noise_rate": 0.1, "span_hours": 24.0}}))
    run_cfg = tmp_path / "run.json"
    run_cfg.write_text(json.dumps({
        "input": os.path.join(out, "events.tsv"), "schema": "tsv",
        "out": out, "detection": {"seed": 42}}))

    def one_run():
        assert main(["synth", "--config", str(synth_cfg)]) == 0
        assert main(["build", "--config", str(run_cfg)]) == 0
        assert main(["detect", "--config", str(run_cfg), "--mode", "indi"]) == 0
        assert main(["detect", "--config", str(run_cfg), "--mode", "multi"]) == 0
        assert main(["compare", "--config", str(run_cfg),
                     "--ref", "multi", "--other", "rtw"]) == 0
        assert main(["characterize", "--config", str(run_cfg),
                     "--ref", "multi", "--other", "rtw"]) == 0
        digests = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
        return digests

    first = one_run()
    second = one_run()
    failures = [f"{name}: bytes differ" for name in first
                if first[name] != second.get(name)]
    if set(first) != set(second):
        failures.append("file sets differ")
    if len(first) < 10:
        failures.append(f"only {len(first)} report files produced")
    _verdict(11, f"two identical runs, {len(first)} files byte-stable",
             failures)


def test_criterion_12_window_arithmetic():
    failures = []
    windows = window_slices((0.0, 744 * H), 6 * H, 5 * H)
    if len(windows) != 148:
        failures.append(f"31-day grid has {len(windows)} windows, wanted 148")
    if windows and not (windows[0] == 0.0 and windows[-1] == 147 * 5 * H):
        failures.append("window starts misplaced")
    _verdict(12, "31 days at 6h/5h yields 148 windows", failures)

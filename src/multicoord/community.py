"""Community detection: the five operationalizations of multimodality.

MONO and INDI run plain greedy modularity optimization (Louvain: local
moving + aggregation) on single layers. UNFL and INTFL flatten the
multiplex into one graph first (union with nw/ec/sum weighting, or
intersection with summed weights). MULTI optimizes multislice modularity
over the supra-graph of (actor, layer) nodes, where each actor's copies
are coupled across layers with weight omega and each layer keeps its own
null model:

    Q = (1/2mu) * sum_ijsr [ (w_ijs - gamma * k_is * k_js / 2m_s) d_sr
                             + d_ij * omega ] * d(g_is, g_jr)

with 2mu = sum_s 2m_s + total coupling weight. Setting omega = 0 on a
single layer reduces Q to standard Newman-Girvan modularity, which the
test suite checks to 1e-12. One shared engine runs both cases: a node
carries a per-layer strength vector, so the aggregated problem keeps the
factorized per-layer null model while coupling weights behave as plain
edges.

All detection is deterministic for a fixed seed (node visit order is a
seeded shuffle) and community ids are canonicalized by decreasing size,
ties broken by smallest member id.

All of it reads LayerGraph's edge arrays; a flattened graph is a
LayerGraph named after its scope. Sums run left to right in edge-row
order (np.bincount) or through math.fsum, so each float is the one a
per-edge loop gives (tests/test_properties.py keeps those loops).
"""

from __future__ import annotations

import logging
import math
import random
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .netbuild import LayerGraph, MultiplexNetwork, _group_pairs, _group_sums, _stacked

logger = logging.getLogger(__name__)

# A full local-moving sweep that gains less than this (in Q units) stops
# the sweep loop; passes that gain less stop the algorithm.
GAIN_TOLERANCE = 1e-10

UNION_STRATEGIES = ("nw", "ec", "sum")


@dataclass(frozen=True)
class Partition:
    """Node -> community assignment for one scope (a layer or a flattened
    network), with the resolution used and the per-pass modularity trace
    of the optimization that produced it (empty for derived partitions).
    """

    scope: str
    assignment: dict[str, int]
    gamma: float = 1.0
    trace: tuple[float, ...] = ()

    def n_communities(self) -> int:
        return len(set(self.assignment.values()))


@dataclass(frozen=True)
class MultiplexPartition:
    """(actor, layer) -> community assignment; communities may span layers."""

    assignment: dict[tuple[str, str], int]
    gamma: float = 1.0
    omega: float = 0.1
    trace: tuple[float, ...] = ()

    def n_communities(self) -> int:
        return len(set(self.assignment.values()))

    def layers(self) -> tuple[str, ...]:
        return tuple(sorted({layer for (_, layer) in self.assignment}))


def communities(assignment: dict) -> dict[int, frozenset]:
    """Group an assignment map into community id -> member set."""
    groups: dict[int, set] = defaultdict(set)
    for node, cid in assignment.items():
        groups[cid].add(node)
    return {cid: frozenset(members) for cid, members in groups.items()}


def _canonical_ids(assignment: dict) -> dict:
    """Relabel community ids densely: by decreasing size, then smallest member."""
    groups = defaultdict(list)
    for node, cid in assignment.items():
        groups[cid].append(node)
    ordered = sorted(groups.values(), key=lambda members: (-len(members), min(members)))
    return {node: i for i, members in enumerate(ordered) for node in members}


# ---------------------------------------------------------------------------
# quality functions


def _strengths(g: LayerGraph) -> np.ndarray:
    """Weighted degree per node, each summed left to right in edge-row order
    (bincount over u0, v0, u1, v1, ...)."""
    return np.bincount(np.column_stack((g.u, g.v)).ravel(), weights=np.repeat(g.weight, 2),
                       minlength=g.n_nodes)


def _labels(comm: list) -> np.ndarray:
    """Community ids (any hashable values) relabelled densely as 0..k-1."""
    index: dict = {}
    return np.array([index.setdefault(c, len(index)) for c in comm], dtype=np.int64)


def modularity(g: LayerGraph, p: Partition, gamma: float = 1.0) -> float:
    """Newman-Girvan weighted modularity
    Q = (1/2m) sum_ij (w_ij - gamma k_i k_j / 2m) d(c_i, c_j).

    Zero-edge graphs score 0 by convention.
    """
    missing = [n for n in g.nodes if n not in p.assignment]
    if missing:
        raise DataError(f"partition does not cover {len(missing)} nodes of {g.layer}")
    two_m = 2.0 * g.total_weight()
    if two_m == 0.0:
        return 0.0
    label = _labels([p.assignment[n] for n in g.nodes])
    same = label[g.u] == label[g.v]
    # bincount adds left to right: internal weight in row order, community
    # strength in node order
    internal = np.bincount(label[g.u][same], weights=2.0 * g.weight[same],
                           minlength=label.max() + 1)
    comm_k = np.bincount(label, weights=_strengths(g))
    return math.fsum(i / two_m - gamma * (k / two_m) ** 2
                     for i, k in zip(internal.tolist(), comm_k.tolist()))


def multislice_modularity(net: MultiplexNetwork, p: MultiplexPartition,
                          gamma: float = 1.0, omega: float = 0.1) -> float:
    """Multislice modularity with categorical (all-to-all) coupling.

    Every (actor, layer) node must be assigned; 2mu includes the coupling
    weight (omega per ordered pair of an actor's copies).
    """
    layer_order = net.layer_names()
    layers_of: dict[str, list[str]] = defaultdict(list)
    for layer in layer_order:
        for node in net.layers[layer].nodes:
            if (node, layer) not in p.assignment:
                raise DataError(f"partition does not cover ({node!r}, {layer!r})")
            layers_of[node].append(layer)
    coupling_total = omega * math.fsum(len(ls) * (len(ls) - 1) for ls in layers_of.values())
    two_m = {layer: 2.0 * net.layers[layer].total_weight() for layer in layer_order}
    two_mu = math.fsum(two_m.values()) + coupling_total
    if two_mu == 0.0:
        return 0.0
    raw = 0.0
    for layer in layer_order:
        g = net.layers[layer]
        if not g.n_edges:
            continue
        label = _labels([p.assignment[(node, layer)] for node in g.nodes])
        internal = np.cumsum(2.0 * g.weight[label[g.u] == label[g.v]])  # left to right
        comm_k = np.bincount(label, weights=_strengths(g))
        null = math.fsum((comm_k * comm_k).tolist()) / two_m[layer]
        raw += (float(internal[-1]) if len(internal) else 0.0) - gamma * null
    if omega != 0.0:
        coupled = 0.0
        for actor in sorted(layers_of):
            ls = layers_of[actor]
            for i in range(len(ls)):
                for j in range(i + 1, len(ls)):
                    if p.assignment[(actor, ls[i])] == p.assignment[(actor, ls[j])]:
                        coupled += 2.0 * omega
        raw += coupled
    return raw / two_mu


# ---------------------------------------------------------------------------
# the shared Louvain engine


class _Problem:
    """State of one aggregation level.

    adj holds symmetric neighbor weights (coupling included, no self
    entries); loops holds collapsed internal weight as an ordered-pair sum;
    strength holds per-layer null-model strength vectors (couplings are
    excluded from the null model by construction).
    """

    __slots__ = ("n", "adj", "loops", "strength", "scaled", "slot", "n_layers")

    def __init__(self, n: int, n_layers: int):
        self.n = n
        self.n_layers = n_layers
        self.adj: list[dict[int, float]] = [dict() for _ in range(n)]
        self.loops: list[float] = [0.0] * n
        self.strength: list[list[float]] = [[0.0] * n_layers for _ in range(n)]
        self.scaled: list[list[float]] = []
        self.slot: list[int] = []

    def finalize_scaled(self, inv_two_m: list[float]):
        self.scaled = [
            [k * inv for k, inv in zip(vec, inv_two_m)] for vec in self.strength
        ]
        # the one layer a node has strength in, or -1: every node when L = 1
        # and every level-0 supra-node, whose null term is then one product
        nonzero = ([s for s, k in enumerate(vec) if k != 0.0] for vec in self.strength)
        self.slot = [nz[0] if len(nz) == 1 else -1 for nz in nonzero]


def _null_term(scaled_u: list[float], comm_k: list[float]) -> float:
    return sum(s * k for s, k in zip(scaled_u, comm_k))


def _local_moving(prob: _Problem, comm: list[int], comm_k: list[list[float]],
                  comm_size: list[int], gamma: float, two_mu: float,
                  rng: random.Random) -> tuple[bool, float]:
    """Greedy node moves until a full sweep gains < GAIN_TOLERANCE.

    Returns whether any node moved and the summed gain of the accepted
    moves (Q rises by twice that over 2mu). comm/comm_k/comm_size are
    updated in place; emptied community slots are recycled for nodes
    moving to fresh solitude.
    """
    order = list(range(prob.n))
    rng.shuffle(order)
    free_ids: list[int] = []
    moved_any = False
    total_gain = 0.0
    nl = prob.n_layers
    while True:
        sweep_gain = 0.0
        for u in order:
            c_old = comm[u]
            links: dict[int, float] = defaultdict(float)
            for v, w in prob.adj[u].items():
                links[comm[v]] += w
            ku = prob.strength[u]
            su = prob.scaled[u]
            # with one non-zero slot t the other products are exact zeros,
            # so the scalar null term is the same float as _null_term
            t = prob.slot[u]
            slots = (t,) if t >= 0 else range(nl)
            # take u out of its community
            kc = comm_k[c_old]
            for s in slots:
                kc[s] -= ku[s]
            comm_size[c_old] -= 1
            null = su[t] * kc[t] if t >= 0 else _null_term(su, kc)
            gain_old = links.get(c_old, 0.0) - gamma * null
            best_c, best_gain = c_old, gain_old
            for c in sorted(links):
                if c == c_old:
                    continue
                null = su[t] * comm_k[c][t] if t >= 0 else _null_term(su, comm_k[c])
                gain = links[c] - gamma * null
                if gain > best_gain:
                    best_c, best_gain = c, gain
            if comm_size[c_old] > 0 and 0.0 > best_gain:
                # strictly better off alone in a fresh community
                if free_ids:
                    best_c = free_ids.pop()
                else:
                    best_c = len(comm_k)
                    comm_k.append([0.0] * nl)
                    comm_size.append(0)
                best_gain = 0.0
            kc = comm_k[best_c]
            for s in slots:
                kc[s] += ku[s]
            comm_size[best_c] += 1
            if best_c != c_old:
                if comm_size[c_old] == 0:
                    free_ids.append(c_old)
                comm[u] = best_c
                moved_any = True
                sweep_gain += best_gain - gain_old
        total_gain += sweep_gain
        if sweep_gain / two_mu < GAIN_TOLERANCE:
            break
    return moved_any, total_gain


def _aggregate(prob: _Problem, comm: list[int]) -> tuple[_Problem, dict[int, int]]:
    """Collapse communities into super-nodes; returns the new problem and
    the old-community-id -> new-node-id map (dense, ordered by old id)."""
    live = sorted({c for c in comm})
    remap = {c: i for i, c in enumerate(live)}
    agg = _Problem(len(live), prob.n_layers)
    for u in range(prob.n):
        cu = remap[comm[u]]
        vec = agg.strength[cu]
        for s in range(prob.n_layers):
            vec[s] += prob.strength[u][s]
        agg.loops[cu] += prob.loops[u]
        for v, w in prob.adj[u].items():
            cv = remap[comm[v]]
            if cv == cu:
                agg.loops[cu] += w  # ordered pair, counted from both ends
            else:
                agg.adj[cu][cv] = agg.adj[cu].get(cv, 0.0) + w
    return agg, remap


def _optimize(prob: _Problem, gamma: float, inv_two_m: list[float], two_mu: float,
              rng: random.Random) -> tuple[list[int], list[float]]:
    """Run local moving + aggregation passes until no node moves.

    The trace holds the quality after each pass, kept from the move gains:
    it starts at the all-singletons Q, each pass adds 2 * (its gains) / 2mu,
    and aggregation leaves Q unchanged. Returns (assignment, trace).
    """
    prob.finalize_scaled(inv_two_m)
    q = -gamma * math.fsum(k * s for vec, svec in zip(prob.strength, prob.scaled)
                           for k, s in zip(vec, svec)) / two_mu
    node_of = [[i] for i in range(prob.n)]  # level node -> original nodes
    global_comm = list(range(prob.n))
    trace: list[float] = []
    while True:
        comm = list(range(prob.n))
        comm_k = [list(vec) for vec in prob.strength]
        comm_size = [1] * prob.n
        moved, gain = _local_moving(prob, comm, comm_k, comm_size, gamma, two_mu, rng)
        for level_node, originals in zip(range(prob.n), node_of):
            for o in originals:
                global_comm[o] = comm[level_node]
        q += 2.0 * gain / two_mu
        trace.append(q)
        if not moved:
            break
        prob, remap = _aggregate(prob, comm)
        prob.finalize_scaled(inv_two_m)
        merged_members: list[list[int]] = [[] for _ in range(prob.n)]
        for level_node, originals in enumerate(node_of):
            merged_members[remap[comm[level_node]]].extend(originals)
        node_of = merged_members
        if len(trace) >= 2 and trace[-1] - trace[-2] < GAIN_TOLERANCE:
            break
    # densify ids in original-node order
    remap_final: dict[int, int] = {}
    for c in global_comm:
        if c not in remap_final:
            remap_final[c] = len(remap_final)
    return [remap_final[c] for c in global_comm], trace


# ---------------------------------------------------------------------------
# public detection operations


def _adjacency(n: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> list[dict[int, float]]:
    """Neighbour -> weight dicts of the symmetric edge rows (u, v, w), each
    in increasing neighbour order: the order in which a walk over rows
    sorted by (u, v) would insert them."""
    rows, cols, ws = np.concatenate((u, v)), np.concatenate((v, u)), np.concatenate((w, w))
    order = np.lexsort((cols, rows))
    bounds = np.searchsorted(rows[order], np.arange(n + 1)).tolist()
    cols, ws = cols[order].tolist(), ws[order].tolist()
    return [dict(zip(cols[a:b], ws[a:b])) for a, b in zip(bounds, bounds[1:])]


def louvain(g: LayerGraph, gamma: float = 1.0, seed: int = 42) -> Partition:
    """Greedy modularity optimization on a single graph.

    Deterministic for a fixed seed; the returned partition's trace holds
    modularity after each pass and is non-decreasing (within float noise).
    """
    if not g.nodes:
        raise DataError(f"cannot run louvain on empty graph {g.layer!r}")
    names = g.nodes
    if not g.n_edges:
        return Partition(scope=g.layer, assignment={u: i for i, u in enumerate(names)},
                         gamma=gamma, trace=(0.0,))
    prob = _Problem(len(names), 1)
    prob.adj = _adjacency(len(names), g.u, g.v, g.weight)
    prob.strength = [[k] for k in _strengths(g).tolist()]
    two_m = 2.0 * g.total_weight()
    rng = random.Random(seed)
    comm, trace = _optimize(prob, gamma, [1.0 / two_m], two_m, rng)
    assignment = _canonical_ids(dict(zip(names, comm)))
    logger.info("louvain[%s]: %d nodes -> %d communities, Q=%.6f (%d passes)",
                g.layer, len(names), len(set(assignment.values())), trace[-1], len(trace))
    return Partition(scope=g.layer, assignment=assignment, gamma=gamma, trace=tuple(trace))


def generalized_louvain(net: MultiplexNetwork, gamma: float = 1.0,
                        omega: float = 0.1, seed: int = 42) -> MultiplexPartition:
    """Multislice community detection over the (actor, layer) supra-graph.

    Intra-layer edges keep their weights and per-layer null models; every
    actor's copies are coupled all-to-all with weight omega (edges without
    a null-model term). Deterministic for a fixed seed.
    """
    layer_order = net.layer_names()
    graphs = [net.layers[layer] for layer in layer_order]
    # supra-node offset + i is (g.nodes[i], layer): layers in order, ids sorted
    offsets = np.cumsum([0] + [g.n_nodes for g in graphs]).tolist()
    names = [(actor, layer) for layer, g in zip(layer_order, graphs) for actor in g.nodes]
    if not names:
        raise DataError("cannot run generalized_louvain on an empty network")
    prob = _Problem(len(names), len(layer_order))
    rows = [(off + g.u, off + g.v, g.weight) for off, g in zip(offsets, graphs)]
    prob.adj = _adjacency(len(names), *map(np.concatenate, zip(*rows)))
    two_m = [0.0] * len(layer_order)
    for s, (off, g) in enumerate(zip(offsets, graphs)):
        for i, k in enumerate(_strengths(g).tolist()):
            prob.strength[off + i][s] = k
        if g.n_edges:
            two_m[s] = float(np.cumsum(2.0 * g.weight)[-1])  # left to right
    coupling_total = 0.0
    if omega != 0.0:
        copies: dict[str, list[int]] = defaultdict(list)
        for off, g in zip(offsets, graphs):
            for i, actor in enumerate(g.nodes):
                copies[actor].append(off + i)
        for actor in sorted(copies):
            idxs = copies[actor]
            coupling_total += omega * len(idxs) * (len(idxs) - 1)
            for a in range(len(idxs)):
                for b in range(a + 1, len(idxs)):
                    iu, iv = idxs[a], idxs[b]
                    prob.adj[iu][iv] = prob.adj[iu].get(iv, 0.0) + omega
                    prob.adj[iv][iu] = prob.adj[iv].get(iu, 0.0) + omega
    two_mu = math.fsum(two_m) + coupling_total
    if two_mu == 0.0:
        assignment = _canonical_ids({node: i for i, node in enumerate(names)})
        return MultiplexPartition(assignment=assignment, gamma=gamma, omega=omega, trace=(0.0,))
    inv_two_m = [1.0 / m if m > 0.0 else 0.0 for m in two_m]
    rng = random.Random(seed)
    comm, trace = _optimize(prob, gamma, inv_two_m, two_mu, rng)
    assignment = _canonical_ids(dict(zip(names, comm)))
    logger.info("generalized_louvain: %d supra-nodes over %d layers -> %d communities, "
                "Q=%.6f (%d passes)", len(names), len(layer_order),
                len(set(assignment.values())), trace[-1], len(trace))
    return MultiplexPartition(assignment=assignment, gamma=gamma, omega=omega,
                              trace=tuple(trace))


# ---------------------------------------------------------------------------
# flattening and restriction


def _flatten(graphs: list[LayerGraph], scope: str) -> tuple[LayerGraph, np.ndarray]:
    """The union of the graphs over all their nodes, and how many graphs
    carry each edge. Weights are math.fsum over the carrying graphs in list
    order; co_actions and window_count are sums.
    """
    nodes, u, v, order, bounds = _group_pairs(graphs)
    w = _stacked([g.weight for g in graphs], order, float).tolist()
    b = bounds.tolist()
    weight = np.array([math.fsum(w[lo:hi]) for lo, hi in zip(b, b[1:])], dtype=float)
    flat = LayerGraph(scope, nodes, u, v, weight,
                      _group_sums(graphs, "co_actions", order, bounds),
                      _group_sums(graphs, "window_count", order, bounds))
    return flat, np.diff(bounds)


def flatten_union(net: MultiplexNetwork, strategy: str) -> LayerGraph:
    """Union-flatten the multiplex into the graph of scope unfl-<strategy>:
    node and edge sets are unions over layers; weights per strategy: nw ->
    1, ec -> number of layers carrying the edge, sum -> sum of layer
    weights (layers summed in canonical order).
    """
    if strategy not in UNION_STRATEGIES:
        raise ValueError(f"unknown union strategy {strategy!r}; expected one of {UNION_STRATEGIES}")
    flat, carried = _flatten([net.layers[layer] for layer in net.layer_names()],
                             f"unfl-{strategy}")
    if strategy == "nw":
        flat.weight = np.ones(flat.n_edges)
    elif strategy == "ec":
        flat.weight = carried.astype(float)
    return flat


def flatten_intersection(net: MultiplexNetwork) -> LayerGraph:
    """Intersection-flatten into the graph of scope intfl: keep only edges
    present in every layer, with summed weights; nodes are the endpoints of
    surviving edges.
    """
    layer_order = net.layer_names()
    if len(layer_order) < 2:
        raise ValueError("intersection flattening needs at least 2 layers")
    flat, carried = _flatten([net.layers[layer] for layer in layer_order], "intfl")
    return flat.edge_subgraph(carried == len(layer_order))


def restrict_to_layer(p: MultiplexPartition, layer: str) -> Partition:
    """Project a multiplex partition onto one layer (C restricted to V^l),
    re-expressed as actor -> community id with canonical dense ids.
    """
    restricted = {actor: cid for (actor, l), cid in p.assignment.items() if l == layer}
    if not restricted:
        raise ValueError(f"layer {layer!r} not present in the multiplex partition")
    return Partition(scope=layer, assignment=_canonical_ids(restricted), gamma=p.gamma)

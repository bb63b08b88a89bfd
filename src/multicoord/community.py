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
test suite checks to 1e-12. The coupled pairs are defined once
(_supra_nodes), for the supra-graph and for Q alike, apart from the
intra-layer rows. One shared engine runs both cases: a node carries a
per-layer strength vector, so the aggregated problem keeps the factorized
per-layer null model while coupling weights behave as plain edges. Both
end in one tail that returns one Partition type: a layer or flattened
scope maps actors, and scope "multi" maps (actor, layer) supra-nodes.
Each aggregation level is one netbuild CSR with its (n, L) strength table
beside it; netbuild's stable key grouping (_sum_by_key) sums the
between-community rows into the next. Local moving drains a FIFO queue
that starts as a seeded shuffle of every node; a node that moves requeues
its neighbours outside its new community, so later visits go only where a
neighbour moved (Ozaki, Tezuka & Inaba 2016; Traag, Waltman & van Eck
2019). It reads the level's CSR in place, with no per-entry Python copy,
and picks each move in one pass over the neighbouring communities: the
highest gain wins, of equal gains the smallest community id, and a node
whose own community ties stays. Passes stop when one moves no node.

Detection is deterministic for a fixed seed, and community ids are
canonicalized by decreasing size, ties broken by smallest member id.

All of it reads LayerGraph's edge arrays; a flattened graph is a
LayerGraph named after its scope. Sums run left to right in edge-row
order (np.bincount) or through math.fsum, so each float is the one a
per-edge loop gives (tests/test_properties.py keeps those loops).
"""

from __future__ import annotations

import logging
import math
import random
from collections import defaultdict, deque
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .netbuild import (CSR, LayerGraph, MultiplexNetwork, _group_pairs, _row_pointer,
                       _sum_by_key, _wedge_opens, _wedges)

logger = logging.getLogger(__name__)

# A node moves only when that raises Q by more than this, so float noise
# cannot keep the local-moving queue cycling.
GAIN_TOLERANCE = 1e-10

UNION_STRATEGIES = ("nw", "ec", "sum")

_FSUM_BLOCK = 1 << 12  # flattened pairs whose weights are summed per block


@dataclass(frozen=True)
class Partition:
    """Node -> community assignment for one scope, with the per-pass
    modularity trace of the optimization that produced it and the node
    visits and moves of each pass (all empty for derived and read-back
    partitions). A layer or flattened scope maps actors; scope "multi" maps
    (actor, layer) supra-nodes, and its communities may span layers. The
    settings a partition was detected with are not part of it: detect
    records them in its partition_summary and in the config hash.
    """

    scope: str
    assignment: dict
    trace: tuple[float, ...] = ()
    visits: tuple[int, ...] = ()
    moves: tuple[int, ...] = ()

    def n_communities(self) -> int:
        return len(set(self.assignment.values()))


def communities(assignment: dict) -> dict[int, frozenset]:
    """Group an assignment map into community id -> member set."""
    groups: dict[int, set] = defaultdict(set)
    for node, cid in assignment.items():
        groups[cid].add(node)
    return {cid: frozenset(members) for cid, members in groups.items()}


def _canonical_ids(assignment: dict) -> dict:
    """Relabel community ids densely: by decreasing size, then smallest member."""
    ordered = sorted(communities(assignment).values(),
                     key=lambda members: (-len(members), min(members)))
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
        raise DataError(f"partition does not cover {len(missing)} nodes of {g.layer}, "
                        f"e.g. {missing[0]!r}")
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


def _supra_nodes(net: MultiplexNetwork) -> tuple[list[tuple[str, str]], np.ndarray, np.ndarray]:
    """The (actor, layer) supra-nodes, layer by layer in each layer's node
    order, and the coupled pairs (a[k], b[k]), a < b: the indices of two
    copies of one actor, each pair once.
    """
    names = [(actor, layer) for layer, g in net.layers.items() for actor in g.nodes]
    # sorted stably by actor, an actor's copies are one group, and each
    # pairs with every later one, as the users of one item do in the build
    actor = _labels([a for a, _ in names])
    by_actor = np.argsort(actor, kind="stable")
    first, second = _wedges(_wedge_opens(actor[by_actor], len(names)))
    return names, by_actor[first], by_actor[second]


def multislice_modularity(net: MultiplexNetwork, p: Partition,
                          gamma: float = 1.0, omega: float = 0.1) -> float:
    """Multislice modularity with categorical (all-to-all) coupling.

    Every (actor, layer) node must be assigned; 2mu includes the coupling
    weight (omega per ordered pair of an actor's copies).
    """
    names, a, b = _supra_nodes(net)
    missing = [x for x in names if x not in p.assignment]
    if missing:
        raise DataError(f"partition does not cover {len(missing)} (actor, layer) nodes, "
                        f"e.g. {missing[0]!r}")
    label = _labels([p.assignment[x] for x in names])
    two_m = [2.0 * g.total_weight() for g in net.layers.values()]
    two_mu = math.fsum(two_m) + omega * 2.0 * len(a)
    if two_mu == 0.0:
        return 0.0
    raw, off = 0.0, 0
    for g, m in zip(net.layers.values(), two_m):
        # ids over all layers: those without a node here add exact zeros to fsum
        lab, off = label[off:off + g.n_nodes], off + g.n_nodes
        if not g.n_edges:
            continue
        internal = np.cumsum(2.0 * g.weight[lab[g.u] == lab[g.v]])  # left to right
        comm_k = np.bincount(lab, weights=_strengths(g))
        null = math.fsum((comm_k * comm_k).tolist()) / m
        raw += (float(internal[-1]) if len(internal) else 0.0) - gamma * null
    coupled = 0.0
    for _ in range(np.count_nonzero(label[a] == label[b])):  # 2 omega per pair, left to right
        coupled += 2.0 * omega
    return (raw + coupled) / two_mu


# ---------------------------------------------------------------------------
# the shared Louvain engine


def _local_moving(csr: CSR, strength: np.ndarray, inv_two_m: np.ndarray, gamma: float,
                  threshold: float, rng: random.Random) -> tuple[list[int], float, int, int]:
    """Greedy node moves from singletons over one level: its CSR (coupling
    included) and its (n, L) table of per-layer null-model strengths, which
    no coupling enters. A node's internal weight is not kept: no move gain
    depends on it, and Q comes from the gains. The CSR is read in place: a
    visit slices memoryviews of its indices and weights, which yield the
    same Python ints and floats, in the same order, as lists would, and no
    entry is copied.

    The queue starts as a seeded shuffle of every node. A node moves to the
    neighbouring community (or a fresh one) of highest gain when that beats
    staying by more than threshold; its neighbours outside its new community
    then rejoin the queue unless already in it. The pass ends when the queue
    is empty. One pass over the neighbouring communities picks the move: of
    equal gains the smallest id wins, and a tie with the node's own
    community moves nothing, as a move must gain more than threshold >= 0.
    Returns (community per node, summed gain of the moves, visits, moves);
    Q rises by twice the gain over 2mu. A node moving to fresh solitude
    takes an emptied community id.
    """
    n = len(strength)
    indptr = csr.indptr.tolist()
    indices, weight = memoryview(csr.indices), memoryview(csr.weight)
    comm_k = strength.T.tolist()  # comm_k[s][c]: community c's strength in layer s
    # terms[u]: (strength, scaled strength, comm_k row) of each layer where u
    # has strength, one for every node when L = 1 and for every level-0
    # supra-node. The null term sums over these only: the other products are
    # exact zeros, and leaving a zero out of the sum changes no float.
    node, layer = np.nonzero(strength)
    k = strength[node, layer]
    terms: list[list] = [[] for _ in range(n)]
    for u, s, ku, fu in zip(node.tolist(), layer.tolist(), k.tolist(),
                            (k * inv_two_m[layer]).tolist()):
        terms[u].append((ku, fu, comm_k[s]))
    comm = list(range(n))
    comm_size = [1] * n
    order = list(range(n))
    rng.shuffle(order)
    queue, queued = deque(order), [True] * n
    free_ids: list[int] = []
    total_gain, visits, moves = 0.0, 0, 0
    while queue:
        u = queue.popleft()
        queued[u] = False
        visits += 1
        c_old = comm[u]
        a, b = indptr[u], indptr[u + 1]
        nbrs = indices[a:b]
        links: dict[int, float] = {}
        for v, w in zip(nbrs, weight[a:b]):
            c = comm[v]
            if c in links:
                links[c] += w
            else:
                links[c] = w
        tu = terms[u]
        null = 0.0
        for k, f, kc in tu:  # take u out of its community
            kc[c_old] -= k
            null += f * kc[c_old]
        comm_size[c_old] -= 1
        gain_old = best_gain = links.get(c_old, 0.0) - gamma * null
        best_c = c_old
        for c, w in links.items():
            null = 0.0
            for _, f, kc in tu:
                null += f * kc[c]
            gain = w - gamma * null
            if gain > best_gain or (gain == best_gain and c < best_c):
                best_c, best_gain = c, gain
        if comm_size[c_old] > 0 and 0.0 > best_gain:
            best_c, best_gain = -1, 0.0  # strictly better off alone in a fresh community
        if best_c != c_old and best_gain - gain_old > threshold:
            if best_c < 0:  # u shares c_old, so at most n - 1 ids are in use
                best_c = free_ids.pop()
            if comm_size[c_old] == 0:
                free_ids.append(c_old)
            comm[u] = best_c
            moves += 1
            total_gain += best_gain - gain_old
            for v in nbrs:
                if not queued[v] and comm[v] != best_c:
                    queued[v] = True
                    queue.append(v)
        else:
            best_c = c_old
        for k, _, kc in tu:
            kc[best_c] += k
        comm_size[best_c] += 1
    return comm, total_gain, visits, moves


def _aggregate(csr: CSR, strength: np.ndarray,
               comm: np.ndarray) -> tuple[CSR, np.ndarray, np.ndarray]:
    """Collapse communities into super-nodes numbered by increasing
    community id; returns the next level's CSR and strength table, and each
    node's super-node.

    Each sum adds in CSR row order, as a walk over the rows would
    (tests/test_properties.py keeps that walk).
    """
    live, new = np.unique(comm, return_inverse=True)
    k = len(live)
    # each entry's (row, neighbour) super-node pair as one key, made in
    # place, and each per-entry array dropped once the next is made from it
    key, cv = new[csr.rows()], new[csr.indices]
    between = key != cv
    key *= k
    key += cv
    del cv
    key, weight = key[between], csr.weight[between]
    del between
    keys, weight, *_ = _sum_by_key(key, weight)
    strength = np.column_stack([np.bincount(new, weights=col, minlength=k) for col in strength.T])
    return CSR(_row_pointer(keys // k, k), keys % k, weight), strength, new


def _optimize(csr: CSR, strength: np.ndarray, gamma: float, inv_two_m: list[float],
              two_mu: float, rng: random.Random) -> tuple[list[int], list[float],
                                                         list[tuple[int, int]]]:
    """Run local moving + aggregation passes until a pass moves no node.

    The trace holds the quality after each pass, kept from the move gains:
    it starts at the all-singletons Q, each pass adds 2 * (its gains) / 2mu,
    and aggregation leaves Q unchanged. Returns (assignment, trace, (visits,
    moves) per pass).
    """
    inv = np.asarray(inv_two_m)
    q = -gamma * math.fsum((strength * (strength * inv)).ravel().tolist()) / two_mu
    threshold = 0.5 * GAIN_TOLERANCE * two_mu  # a move gains 2 * (its gain) / 2mu in Q
    node = np.arange(len(strength))  # original node -> its node at this level
    trace: list[float] = []
    passes: list[tuple[int, int]] = []
    while True:
        comm, gain, visits, moves = _local_moving(csr, strength, inv, gamma, threshold, rng)
        q += 2.0 * gain / two_mu
        trace.append(q)
        passes.append((visits, moves))
        if not moves:
            return node.tolist(), trace, passes
        csr, strength, new = _aggregate(csr, strength, np.array(comm))
        node = new[node]


# ---------------------------------------------------------------------------
# public detection operations


def _detect(scope: str, names: tuple | list, csr: CSR, strength: np.ndarray,
            two_m: list[float], coupling_total: float, gamma: float, omega: float | None,
            seed: int) -> Partition:
    """The one Louvain tail: optimize the level-0 CSR and strength table
    over the named nodes, whose layers have 2m two_m and whose couplings
    weigh coupling_total in all. With 2mu = 0 nothing can gain, so every
    node is its own community; a 2mu that overflows (edge weights are
    capped, so only the coupling can) is a DataError.
    """
    two_mu = math.fsum(two_m) + coupling_total
    if not math.isfinite(two_mu):
        raise DataError(f"{scope}: 2mu is {two_mu} at omega = {omega!r}")
    if two_mu == 0.0:
        comm, trace, passes = list(range(len(names))), [0.0], [(len(names), 0)]
    else:
        inv_two_m = [1.0 / m if m > 0.0 else 0.0 for m in two_m]
        comm, trace, passes = _optimize(csr, strength, gamma, inv_two_m, two_mu,
                                        random.Random(seed))
    assignment = _canonical_ids(dict(zip(names, comm)))
    logger.info("louvain[%s]: %d nodes -> %d communities, Q=%.6f (%d passes)",
                scope, len(names), len(set(assignment.values())), trace[-1], len(trace))
    visits, moves = zip(*passes)
    return Partition(scope, assignment, tuple(trace), visits, moves)


def louvain(g: LayerGraph, gamma: float = 1.0, seed: int = 42) -> Partition:
    """Greedy modularity optimization on a single graph.

    Deterministic for a fixed seed; the returned partition's trace holds
    modularity after each pass and is non-decreasing (within float noise).
    """
    if not g.nodes:
        raise DataError(f"cannot run louvain on empty graph {g.layer!r}")
    return _detect(g.layer, g.nodes, CSR.symmetric(g.n_nodes, g.u, g.v, g.weight),
                   _strengths(g)[:, None], [2.0 * g.total_weight()], 0.0, gamma, None, seed)


def _supra_graph(net: MultiplexNetwork, omega: float) -> tuple[
        list[tuple[str, str]], CSR, np.ndarray, list[float], float]:
    """The level 0 of the (actor, layer) supra-graph: its node names, its
    CSR and strength table, each layer's 2m and the total coupling weight.

    Supra-node r's neighbours, in increasing order, are its actor's copies
    in earlier layers, its lower then its upper neighbours in its layer,
    and its actor's copies in later layers. So the CSR is stacked from four
    halves in that order (CSR.stacked): the coupling pairs as (b, a), the
    layers' (v, u) and (u, v) rows, layer by layer as CSR.symmetric takes
    them, and the coupling pairs as (a, b), sorted by (a, b) once. Each
    part is made only once the one before it is written.
    """
    names, a, b = _supra_nodes(net)
    if not names:
        raise DataError("cannot run generalized_louvain on an empty network")
    graphs = list(net.layers.values())
    # supra-node offset + i is (g.nodes[i], layer)
    offsets = np.cumsum([0] + [g.n_nodes for g in graphs]).tolist()
    n = len(names)
    strength = np.zeros((n, len(graphs)))
    two_m = [0.0] * len(graphs)
    coupling_total = omega * 2.0 * len(a)
    if omega == 0.0:  # no coupling entries
        a = b = a[:0]
    # an actor's pairs are one run, in b order for each a
    by_a = np.argsort(a, kind="stable")
    a, b = a[by_a], b[by_a]
    del by_a
    # per supra-node: coupling below, each layer's lower and upper rows, coupling above
    counts = np.zeros((n, 2 * len(graphs) + 2), dtype=np.int64)
    counts[:, 0] = np.bincount(b, minlength=n)
    counts[:, -1] = np.bincount(a, minlength=n)
    for s, (off, g) in enumerate(zip(offsets, graphs)):
        strength[off:off + g.n_nodes, s] = _strengths(g)
        if g.n_edges:
            two_m[s] = float(np.cumsum(2.0 * g.weight)[-1])  # left to right
        counts[off:off + g.n_nodes, 2 * s + 1] = np.bincount(g.v, minlength=g.n_nodes)
        counts[off:off + g.n_nodes, 2 * s + 2] = np.bincount(g.u, minlength=g.n_nodes)

    def parts():
        yield a[np.argsort(b, kind="stable")], omega
        for off, g in zip(offsets, graphs):
            lower = np.argsort(g.v, kind="stable")
            yield off + g.u[lower], g.weight[lower]
            del lower
            yield off + g.v, g.weight
        yield b, omega

    return names, CSR.stacked(counts, parts()), strength, two_m, coupling_total


def generalized_louvain(net: MultiplexNetwork, gamma: float = 1.0,
                        omega: float = 0.1, seed: int = 42) -> Partition:
    """Multislice community detection over the (actor, layer) supra-graph;
    returns the partition of scope "multi".

    Intra-layer edges keep their weights and per-layer null models; every
    actor's copies are coupled all-to-all with weight omega (edges without
    a null-model term). Deterministic for a fixed seed.
    """
    return _detect("multi", *_supra_graph(net, omega), gamma, omega, seed)


# ---------------------------------------------------------------------------
# flattening and restriction


def _flatten(graphs: list[LayerGraph], scope: str) -> tuple[LayerGraph, np.ndarray]:
    """The union of the graphs over all their nodes, and how many graphs
    carry each edge. Weights are math.fsum over the carrying graphs in list
    order; co_actions and window_count are sums.
    """
    nodes, u, v, order, bounds = _group_pairs(graphs)

    def stacked(column, dtype):
        return np.concatenate([np.zeros(0, dtype), *(getattr(g, column) for g in graphs)])[order]

    w, weight = stacked("weight", float), np.empty(len(u))
    # the fsums of a block of pairs at a time, so one block's weights are Python floats
    for lo in range(0, len(u), _FSUM_BLOCK):
        b = bounds[lo:lo + _FSUM_BLOCK + 1]
        block, b = w[b[0]:b[-1]].tolist(), (b - b[0]).tolist()
        weight[lo:lo + len(b) - 1] = [math.fsum(block[i:j]) for i, j in zip(b, b[1:])]
    del w
    co, wc = (np.add.reduceat(stacked(c, np.int64), bounds[:-1])
              for c in ("co_actions", "window_count"))
    return LayerGraph(scope, nodes, u, v, weight, co, wc), np.diff(bounds)


def flatten_union(net: MultiplexNetwork, strategy: str) -> LayerGraph:
    """Union-flatten the multiplex into the graph of scope unfl-<strategy>:
    node and edge sets are unions over layers; weights per strategy: nw ->
    1, ec -> number of layers carrying the edge, sum -> sum of layer
    weights (layers summed in canonical order).
    """
    if strategy not in UNION_STRATEGIES:
        raise ValueError(f"unknown union strategy {strategy!r}; expected one of {UNION_STRATEGIES}")
    flat, carried = _flatten(list(net.layers.values()), f"unfl-{strategy}")
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
    if len(net.layers) < 2:
        raise ValueError("intersection flattening needs at least 2 layers")
    flat, carried = _flatten(list(net.layers.values()), "intfl")
    return flat.edge_subgraph(carried == len(net.layers))


def restrict_to_layer(p: Partition, layer: str) -> Partition:
    """Project a multiplex partition onto one layer (C restricted to V^l),
    re-expressed as actor -> community id with canonical dense ids. A layer
    without nodes is a DataError: there is nothing to compare or characterize.
    """
    restricted = {actor: cid for (actor, l), cid in p.assignment.items() if l == layer}
    if not restricted:
        raise DataError(f"layer {layer!r} has no node in the multiplex partition: "
                        "the network has no edge in that layer")
    return Partition(scope=layer, assignment=_canonical_ids(restricted))

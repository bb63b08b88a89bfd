"""Agreement between two community structures.

Given the community structures of two approaches A and B, each a node ->
community-id map (a Partition's assignment, of any scope), this module
computes the harmonic-mean overlap matrix

    r_ij = |C_i^A n C_j^B| / |C_i^A|,   r_ji = |C_i^A n C_j^B| / |C_j^B|,
    o_ij = 2 r_ij r_ji / (r_ij + r_ji) = 2 |C_i^A n C_j^B| / (|C_i^A| + |C_j^B|),

an optimal one-to-one matching maximizing the total overlap, lost /
common / gained labels for communities (threshold theta on matched
overlap) and for nodes (threshold-free set algebra inside matched pairs),
NMI over the common node universe, and layer-level coverage metrics.

Each overlap is the closed form on the right, one correctly rounded
division: an overlap of exactly 1/2 is 0.5, so it meets theta 0.5, and an
empty intersection gives 0.

A matched pair shares a node: a pair of zero overlap is never matched,
and a community that overlaps nothing stays unmatched. The matching is a
rectangular min-cost assignment on the negated overlaps, solved by
shortest augmenting paths with potentials (Jonker & Volgenant 1987) whose
steps are array operations over the columns: O(k_b^2 (k_a + k_b)) at
worst.

Size filtering keeps communities with strictly more than ``min_size``
members, applied to both sides before anything else.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, UndefinedMetricError
from .community import communities
from .netbuild import _group_pairs

logger = logging.getLogger(__name__)

COMMON = "common"
LOST = "lost"
GAINED = "gained"


@dataclass
class OverlapMatrix:
    """One comparison's registry: the two filtered community sets in sorted
    id order, their intersection sizes and harmonic-mean overlaps. Every
    partition's ids are ints, so a side's ids sort as numbers.

    values and counts have one row per B community and one column per A
    community; counts[bi, aj] = |b_members[bi] n a_members[aj]| and
    values[bi, aj] = 2 counts[bi, aj] / (|b_members[bi]| + |a_members[aj]|)
    is the harmonic-mean overlap between B community b_ids[bi] and A
    community a_ids[aj], direction-symmetric.
    """

    a_ids: tuple
    b_ids: tuple
    a_members: tuple  # of frozenset, aligned with a_ids
    b_members: tuple
    values: np.ndarray  # shape (len(b_ids), len(a_ids))
    counts: np.ndarray  # int64, same shape

    @property
    def k_a(self) -> int:
        return len(self.a_ids)

    @property
    def k_b(self) -> int:
        return len(self.b_ids)

    def overlap(self, a_idx: int, b_idx: int) -> float:
        return float(self.values[b_idx, a_idx])


@dataclass
class MatchResult:
    """Optimal one-to-one matching over an OverlapMatrix.

    pairs holds (a_idx, b_idx) index pairs into the matrix registries,
    sorted; every pair has a positive overlap, and an index that no pair
    holds is unmatched. total is the sum of the matched overlaps.
    """

    pairs: tuple[tuple[int, int], ...]
    total: float


def overlap_matrix(a: dict, b: dict, min_size: int = 0) -> OverlapMatrix:
    """Pairwise harmonic-mean overlap of the communities of two node ->
    community-id maps, after dropping communities with size <= min_size on
    both sides.
    """
    if min_size < 0:
        raise ValueError(f"min_size must be >= 0, got {min_size}")
    a_sets, b_sets = ({cid: members for cid, members in communities(x).items()
                       if len(members) > min_size} for x in (a, b))
    a_ids = tuple(sorted(a_sets))
    b_ids = tuple(sorted(b_sets))
    a_members = tuple(a_sets[i] for i in a_ids)
    b_members = tuple(b_sets[i] for i in b_ids)
    a_of = {node: aj for aj, members in enumerate(a_members) for node in members}
    cells = [bi * len(a_ids) + a_of[node] for bi, members in enumerate(b_members)
             for node in members if node in a_of]
    counts = np.bincount(np.array(cells, dtype=np.int64),
                         minlength=len(b_ids) * len(a_ids)).reshape(len(b_ids), len(a_ids))
    values = 2.0 * counts / np.add.outer(list(map(len, b_members)), list(map(len, a_members)))
    return OverlapMatrix(a_ids=a_ids, b_ids=b_ids, a_members=a_members,
                         b_members=b_members, values=values, counts=counts)


def _solve_min_assignment(cost: np.ndarray) -> np.ndarray:
    """Min-cost assignment of every row of an n x m cost matrix, n <= m, in
    which each row has a finite column; returns the row matched to each
    column, -1 for a column left free.

    Shortest augmenting paths with potentials, one row at a time; each path
    step is array work over the columns, O(n^2 m) at worst; deterministic.
    """
    n, m = cost.shape
    u = np.zeros(n + 1)
    v = np.zeros(m + 1)
    p = np.zeros(m + 1, dtype=np.int64)  # p[j]: row matched to column j, 1-based, 0 = free
    way = np.zeros(m + 1, dtype=np.int64)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(m + 1, np.inf)
        free = np.ones(m + 1, dtype=bool)
        while p[j0]:
            free[j0] = False
            i0 = p[j0]
            cur = cost[i0 - 1] - u[i0] - v[1:]
            better = free[1:] & (cur < minv[1:])
            minv[1:][better] = cur[better]
            way[1:][better] = j0
            j0 = int(np.argmin(np.where(free, minv, np.inf)))
            delta = minv[j0]
            u[p[~free]] += delta
            v[~free] -= delta
            minv[free] -= delta
        while j0:  # augment along the alternating path
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    return p[1:] - 1


def hungarian_match(O: OverlapMatrix) -> MatchResult:
    """Assignment maximizing the total overlap; optimal, not greedy.

    Only pairs that share a node can match: a zero cell is forbidden, and
    each B community has its own zero-cost column for staying unmatched.
    """
    if not np.all(np.isfinite(O.values)):
        raise ValueError("overlap matrix contains non-finite values")
    k_b, k_a = O.values.shape
    cost = np.full((k_b, k_a + k_b), np.inf)
    np.negative(O.values, out=cost[:, :k_a])
    cost[:, :k_a][O.values == 0] = np.inf
    np.fill_diagonal(cost[:, k_a:], 0.0)
    b_of = _solve_min_assignment(cost)[:k_a]
    a_idx = np.flatnonzero(b_of >= 0)
    pairs = tuple(zip(a_idx.tolist(), b_of[a_idx].tolist()))
    return MatchResult(pairs=pairs, total=math.fsum(O.values[b, a] for a, b in pairs))


def label_communities(O: OverlapMatrix, M: MatchResult, theta: float = 0.5) -> tuple[dict, dict]:
    """Community labels (labels_a, labels_b), each in registry order: a
    matched pair with overlap >= theta is common on both sides; below
    theta the A community is lost and the B community gained; unmatched A
    are lost, unmatched B gained.
    """
    if not (0.0 <= theta <= 1.0):
        raise ValueError(f"theta must be in [0, 1], got {theta}")
    labels_a = dict.fromkeys(O.a_ids, LOST)
    labels_b = dict.fromkeys(O.b_ids, GAINED)
    for a_idx, b_idx in M.pairs:
        if O.overlap(a_idx, b_idx) >= theta:
            labels_a[O.a_ids[a_idx]] = labels_b[O.b_ids[b_idx]] = COMMON
    return labels_a, labels_b


def label_nodes(O: OverlapMatrix, M: MatchResult) -> dict:
    """Node labels from matched-pair set algebra, threshold-free: a node in
    a matched intersection is common; otherwise any node covered on the A
    side is lost and any node covered only on the B side is gained.
    """
    labels = {node: LOST for members in O.a_members for node in members}
    for a_idx, b_idx in M.pairs:
        labels.update(dict.fromkeys(O.a_members[a_idx] & O.b_members[b_idx], COMMON))
    for members in O.b_members:
        for node in members:
            labels.setdefault(node, GAINED)
    return labels


def nmi(O: OverlapMatrix) -> float:
    """Normalized mutual information, 2 I / (H1 + H2), of the two sides of
    a comparison registry, over the nodes both sides cover.

    Degenerate entropies (both partitions constant) give 0 by convention.
    """
    counts = O.counts  # rows B, columns A
    n = int(counts.sum())
    if not n:
        raise DataError("no common nodes between the two partitions after filtering")
    c1 = counts.sum(axis=0).tolist()
    c2 = counts.sum(axis=1).tolist()
    h1 = -math.fsum((c / n) * math.log(c / n) for c in c1 if c)
    h2 = -math.fsum((c / n) * math.log(c / n) for c in c2 if c)
    if h1 + h2 == 0.0:
        return 0.0
    b_idx, a_idx = np.nonzero(counts)
    mi = math.fsum((cnt / n) * math.log(n * cnt / (c1[a] * c2[b]))
                   for a, b, cnt in zip(a_idx.tolist(), b_idx.tolist(),
                                        counts[b_idx, a_idx].tolist()))
    return min(1.0, max(0.0, 2.0 * mi / (h1 + h2)))


def actor_coverage(net, layer_i: str, layer_j: str) -> float:
    """|V^i n V^j| / |V^i|; directional."""
    gi, gj = net.layers[layer_i], net.layers[layer_j]
    if not gi.nodes:
        raise DataError(f"layer {layer_i!r} has no nodes")
    return len(set(gi.nodes).intersection(gj.nodes)) / len(gi.nodes)


def edge_coverage(net, layer_i: str, layer_j: str) -> float:
    """|E^i n E^j| / |E^i| over unordered endpoint pairs, ignoring weights."""
    gi, gj = net.layers[layer_i], net.layers[layer_j]
    if not gi.n_edges:
        raise DataError(f"layer {layer_i!r} has no edges")
    bounds = _group_pairs([gi, gj])[-1]  # a pair of both layers is a group of 2
    return int(np.count_nonzero(np.diff(bounds) == 2)) / gi.n_edges


def pearson_degree_correlation(net, layer_i: str, layer_j: str) -> float:
    """Pearson correlation of unweighted degrees over the common actors."""
    gi, gj = net.layers[layer_i], net.layers[layer_j]
    common = set(gi.nodes).intersection(gj.nodes)
    if len(common) < 2:
        raise UndefinedMetricError(
            f"degree correlation needs >= 2 common actors between {layer_i!r} and {layer_j!r}")
    # degrees of the common actors, both in id order as nodes are sorted
    x, y = (np.bincount(np.concatenate((g.u, g.v)), minlength=g.n_nodes)
            [[u in common for u in g.nodes]].astype(float) for g in (gi, gj))
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise UndefinedMetricError("degree correlation undefined for a constant degree vector")
    return float(np.corrcoef(x, y)[0, 1])

"""Structural profiles of detected communities and statistical comparison.

Community descriptors (size, density, mean internal degree, mean internal
edge weight, mean local clustering, conductance, degree assortativity)
feed cosine similarity, PCA projections, and Brunner-Munzel tests between
groups of communities. Node descriptors (degree centrality, eigenvector
centrality, local clustering, PageRank) profile lost / common / gained
node groups.

Undefined structural values (assortativity with zero degree variance,
conductance when the member set is the whole graph) are reported as 0.0
with an explicit defined flag, so downstream vectors keep a fixed length.

Both descriptor sets work on one GraphCSR per graph, in numpy alone, so
that a characterize process loads no scipy module. A GraphCSR is
netbuild's CSR, the type of every Louvain level too, plus what only
characterize needs: the node ids and the cached eigenvector centrality.
netbuild also labels its components, as it does for the layer statistics.
A community is an induced subgraph of the CSR (CSR.induced), clustering
comes from integer triangle counts (Latapy 2008's forward algorithm),
eigenvector centrality from a Lanczos iteration with full
reorthogonalization, and the Brunner-Munzel p-value from a continued
fraction of the incomplete beta function.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DegenerateSampleError, UndefinedMetricError
from .netbuild import CSR, LayerGraph, _component_labels, _wedge_opens, _wedges

logger = logging.getLogger(__name__)

_PAGERANK_TOL = 1e-12
_PAGERANK_MAX_ITER = 100000
_WEDGE_BUDGET = 1 << 14      # out-wedges closed per block when counting triangles
_LANCZOS_MAX_STEPS = 128     # Krylov basis size before restarting from the Ritz vector
_LANCZOS_STEP_BUDGET = 100 * 128  # Lanczos steps over all restarts
_BETA_CF_MAX_TERMS = 10000
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class CommunityMetrics:
    """Fixed-order structural descriptor of one community."""

    size: int
    density: float
    avg_degree: float
    avg_weight: float
    avg_clustering: float
    conductance: float
    assortativity: float
    conductance_defined: bool = True
    assortativity_defined: bool = True

    def vector(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in COMMUNITY_METRIC_NAMES], dtype=float)


@dataclass(frozen=True)
class NodeMetrics:
    """Fixed-order centrality descriptor of one node."""

    degree_centrality: float
    eigenvector_centrality: float
    local_clustering: float
    pagerank: float

    def vector(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in NODE_METRIC_NAMES], dtype=float)


def _metric_names(cls) -> tuple:
    """A descriptor's metrics in field order; its *_defined flags are not metrics."""
    return tuple(f.name for f in fields(cls) if not f.name.endswith("_defined"))


COMMUNITY_METRIC_NAMES = _metric_names(CommunityMetrics)
NODE_METRIC_NAMES = _metric_names(NodeMetrics)


@dataclass(frozen=True)
class TestResult:
    """Two-sided Brunner-Munzel outcome with Satterthwaite degrees of
    freedom; the sample sizes are the lengths of the caller's samples."""

    statistic: float
    p_value: float
    df: float


class Eigen(NamedTuple):
    """Eigenvector centrality of one graph and the Lanczos facts behind it."""

    vector: np.ndarray
    components: int            # components with an edge, each solved by Lanczos
    lambda1: float             # top eigenvalue of the winning component
    ritz2: float | None        # its second Ritz value at convergence, if any
    steps: int                 # Lanczos steps over all components


@dataclass(frozen=True, eq=False)
class GraphCSR(CSR):
    """One graph's netbuild CSR with its node ids in sorted order, and the
    eigenvector centrality computed once per graph."""

    order: list

    @classmethod
    def of(cls, g: LayerGraph) -> "GraphCSR":
        csr = CSR.symmetric(g.n_nodes, g.u, g.v, g.weight)
        return cls(csr.indptr, csr.indices, csr.weight, list(g.nodes))

    @cached_property
    def index(self) -> dict:
        return {u: i for i, u in enumerate(self.order)}

    @cached_property
    def eigen(self) -> Eigen:
        """Dominant adjacency eigenvector per connected component; keep the
        component with the largest eigenvalue, zero elsewhere, unit
        Euclidean norm overall.

        Lanczos converges to the largest algebraic eigenvalue, so the paired
        -lambda of a bipartite component is never taken. Components within
        1e-12 of the best eigenvalue do not replace it: the first one, in
        order of smallest node, wins.
        """
        labels = _component_labels(self.degree.size, self.rows(), self.indices)
        members = np.split(np.argsort(labels, kind="stable"), np.cumsum(np.bincount(labels))[:-1])
        best_val, best_idx, best_vec, best_ritz2 = -np.inf, None, None, None
        solved = steps = 0
        for idx in members:
            if idx.size == 1:
                lam, ritz2, vec = 0.0, None, np.ones(1)
            else:
                lam, ritz2, vec, k = _lanczos(self.induced(idx))
                solved += 1
                steps += k
            if lam > best_val + 1e-12 or best_vec is None:
                best_val, best_idx, best_vec, best_ritz2 = lam, idx, vec, ritz2
        out = np.zeros(self.degree.size)
        out[best_idx] = np.abs(best_vec)
        norm = np.linalg.norm(out)
        if norm > 0:
            out /= norm
        return Eigen(out, solved, float(best_val), best_ritz2, steps)


def _triangles(csr: CSR) -> np.ndarray:
    """Triangles through each node, by Latapy's (2008) forward algorithm.

    Each edge is oriented from the lower to the higher (degree, id) rank.
    The pairs of out-edges of a node are its open wedges, enumerated in
    blocks of at most _WEDGE_BUDGET; a wedge closes when the edge between
    its two ends is in the sorted edge keys, and then credits all three
    corners. Every triangle is found once, at its lowest-ranked corner.
    """
    n = csr.degree.size
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), csr.degree))] = np.arange(n)
    src, dst = rank[csr.rows()], rank[csr.indices]
    key = np.sort(src[src < dst] * n + dst[src < dst])  # out-lists in target-rank order
    src, dst = key // n, key % n
    # the wedges edge e opens: the later edges in its source's out-list
    opens = _wedge_opens(src, n)
    ends = np.cumsum(opens)
    tri = np.zeros(n, dtype=np.int64)
    e = 0
    while e < key.size:
        stop = max(int(np.searchsorted(ends, ends[e] - opens[e] + _WEDGE_BUDGET, side="right")),
                   e + 1)
        first, second = _wedges(opens, e, stop)
        want = dst[first] * n + dst[second]
        closed = key[np.minimum(np.searchsorted(key, want), key.size - 1)] == want
        for corner in (src[first], dst[first], dst[second]):
            tri += np.bincount(corner[closed], minlength=n)
        e = stop
    return tri[rank]


def _local_clustering(csr: CSR) -> np.ndarray:
    """Unweighted local clustering per node: twice the triangles through a
    node over d(d - 1)."""
    d = csr.degree
    links = 2 * _triangles(csr)
    out = np.zeros(d.size)
    wedge = d >= 2
    out[wedge] = links[wedge] / (d[wedge] * (d[wedge] - 1))
    return out


def _lanczos(csr: CSR) -> tuple[float, float | None, np.ndarray, int]:
    """Top eigenpair of a connected graph's weighted adjacency: Lanczos from
    the all-ones vector with full reorthogonalization, the matvec a
    bincount over the CSR entries and the Ritz pairs from eigh of the
    tridiagonal matrix. It stops when the residual bound beta_k |s_k| of
    the top Ritz pair is at machine precision, or the basis spans the whole
    space. After _LANCZOS_MAX_STEPS steps it restarts from the Ritz
    vector, until _LANCZOS_STEP_BUDGET steps are spent in all: a small
    basis restarts more often, not for less work. Returns (eigenvalue,
    second Ritz value or None, unit vector, steps taken)."""
    n = csr.degree.size
    rows = csr.rows()
    Q = np.empty((min(n, _LANCZOS_MAX_STEPS), n))
    T = np.zeros((Q.shape[0], Q.shape[0]))
    q = np.full(n, 1.0 / math.sqrt(n))
    steps = 0
    while steps < _LANCZOS_STEP_BUDGET:
        for k in range(Q.shape[0]):
            Q[k] = q
            w = np.bincount(rows, weights=csr.weight * q[csr.indices], minlength=n)
            T[k, k] = q @ w
            for _ in range(2):  # classical Gram-Schmidt, applied twice
                w -= Q[:k + 1].T @ (Q[:k + 1] @ w)
            beta = float(np.linalg.norm(w))
            vals, vecs = np.linalg.eigh(T[:k + 1, :k + 1])
            steps += 1
            if beta * abs(vecs[k, -1]) <= _EPS * abs(vals[-1]) or k + 1 == n:
                y = vecs[:, -1] @ Q[:k + 1]
                return (float(vals[-1]), float(vals[-2]) if k else None,
                        y / np.linalg.norm(y), steps)
            if k + 1 < Q.shape[0]:
                T[k, k + 1] = T[k + 1, k] = beta
            q = w / beta
        y = vecs[:, -1] @ Q
        q = y / np.linalg.norm(y)
    raise ArithmeticError(f"Lanczos did not converge in {steps} steps on {n} nodes")


def community_metrics(csr: GraphCSR, members) -> CommunityMetrics:
    """Structural descriptor of the member set within the graph of csr.

    Density, mean degree, weight, and clustering are computed on the
    induced subgraph; conductance uses unweighted volumes on the full
    graph; assortativity is the degree assortativity of the induced
    subgraph. Weights enter only through avg_weight.
    """
    members = frozenset(members)
    if not members:
        raise ValueError("empty member set")
    missing = [u for u in members if u not in csr.index]
    if missing:
        raise ValueError(f"{len(missing)} members not in graph, e.g. {sorted(missing)[:3]}")
    n = len(members)
    idx = np.array(sorted(csr.index[u] for u in members))
    sub = csr.induced(idx)
    e_in = sub.n_edges
    density = 2.0 * e_in / (n * (n - 1)) if n >= 2 else 0.0
    avg_degree = 2.0 * e_in / n
    # fsum is exact, so summing each edge twice and halving is the same float
    avg_weight = math.fsum(sub.weight) / (2 * e_in) if e_in else 0.0
    avg_clustering = math.fsum(_local_clustering(sub)) / n

    # conductance: unweighted cut over the smaller unweighted volume
    vol_in = int(csr.degree[idx].sum())
    cut = vol_in - 2 * e_in
    vol_out = csr.indices.size - vol_in
    if min(vol_in, vol_out) == 0:
        conductance, conductance_defined = 0.0, False
    else:
        conductance, conductance_defined = cut / min(vol_in, vol_out), True

    assortativity, assortativity_defined = _degree_assortativity(sub)
    return CommunityMetrics(size=n, density=density, avg_degree=avg_degree,
                            avg_weight=avg_weight, avg_clustering=avg_clustering,
                            conductance=conductance, assortativity=assortativity,
                            conductance_defined=conductance_defined,
                            assortativity_defined=assortativity_defined)


def _degree_assortativity(sub: CSR) -> tuple[float, bool]:
    """Pearson correlation of endpoint degrees over the edges of the CSR
    subgraph, symmetrized; edges in row-major order, so the numpy
    reductions see a fixed array."""
    deg = sub.degree
    if not sub.indices.size:
        return 0.0, False
    x = np.repeat(deg, deg).astype(float)
    y = deg[sub.indices].astype(float)
    vx = x.var()
    vy = y.var()
    if vx == 0.0 or vy == 0.0:
        return 0.0, False
    r = float(((x - x.mean()) * (y - y.mean())).mean() / math.sqrt(vx * vy))
    return r, True


def _pagerank(csr: CSR, damping: float) -> np.ndarray:
    """Weighted PageRank on the CSR adjacency, uniform teleport, L1
    stopping rule. The strength is each row's np.add.reduceat sum, which
    adds a row of more than eight entries pairwise, not left to right; the
    transition product accumulates row by row."""
    n = csr.degree.size
    strength = np.zeros(n)
    full = csr.degree > 0
    strength[full] = np.add.reduceat(csr.weight, csr.indptr[:-1][full])
    dangling = strength == 0.0
    inv = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, strength))
    rows = csr.rows()
    p = csr.weight * inv[rows]  # the row-stochastic matrix, built once
    x = np.full(n, 1.0 / n)
    teleport = (1.0 - damping) / n
    for _ in range(_PAGERANK_MAX_ITER):
        x_new = damping * np.bincount(csr.indices, weights=p * x[rows], minlength=n) + teleport
        x_new += damping * x[dangling].sum() / n
        err = np.abs(x_new - x).sum()
        x = x_new
        if err < _PAGERANK_TOL:
            break
    return x / x.sum()


def node_metrics(csr: GraphCSR) -> dict:
    """All four node descriptors for every node of the graph of csr; PageRank
    uses the damping factor 0.85."""
    n = len(csr.order)
    if not n:
        raise ValueError("empty graph")
    degc = (csr.degree / (n - 1)).tolist() if n > 1 else [0.0] * n
    clus = _local_clustering(csr).tolist()
    if csr.n_edges:
        eig = csr.eigen.vector
        pr = _pagerank(csr, 0.85)
    else:
        eig = np.ones(n) / math.sqrt(n)
        pr = np.full(n, 1.0 / n)
    return {u: NodeMetrics(degree_centrality=degc[i],
                           eigenvector_centrality=float(eig[i]),
                           local_clustering=clus[i],
                           pagerank=float(pr[i]))
            for i, u in enumerate(csr.order)}


def metric_cosine(v1, v2) -> float:
    """Cosine similarity between two descriptor vectors."""
    a = np.asarray(v1, dtype=float)
    b = np.asarray(v2, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise UndefinedMetricError("cosine undefined for a zero vector")
    return float(a @ b / (na * nb))


def pca_project(vectors, dims: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Project descriptor rows onto principal axes of the z-scored data.

    Fewer than 3 rows, or fewer than ``dims`` features that vary, leave
    the axes undefined: UndefinedMetricError names which. Zero-variance
    features are dropped (with a logged warning) before scoring.
    Returns (coordinates (n, dims), explained variance ratios for all kept
    components, eigenvalues over the original feature count, so the ratios
    sum to 1 exactly when nothing was dropped).
    """
    X = np.asarray(vectors, dtype=float)
    if X.ndim != 2:
        raise ValueError("vectors must form a 2D array")
    if dims < 1:
        raise ValueError(f"dims must be at least 1, got {dims}")
    n, n_feat = X.shape
    if n < 3:
        raise UndefinedMetricError(f"only {n} communities")
    std = X.std(axis=0, ddof=1)
    keep = std > 0.0
    varying = int(np.count_nonzero(keep))
    if varying < dims:
        raise UndefinedMetricError(f"only {varying} descriptors vary")
    if varying < n_feat:
        dropped = [COMMUNITY_METRIC_NAMES[i] if n_feat == len(COMMUNITY_METRIC_NAMES) else str(i)
                   for i in np.flatnonzero(~keep)]
        logger.warning("dropping zero-variance features: %s", ", ".join(dropped))
    Xk = X[:, keep]
    Z = (Xk - Xk.mean(axis=0)) / std[keep]
    C = np.cov(Z, rowvar=False, ddof=1)
    C = np.atleast_2d(C)
    eigval, eigvec = np.linalg.eigh(C)
    order = np.argsort(eigval)[::-1]
    eigval = np.clip(eigval[order], 0.0, None)
    eigvec = eigvec[:, order]
    # orient each axis so its largest-magnitude loading is positive
    for k in range(eigvec.shape[1]):
        pivot = int(np.argmax(np.abs(eigvec[:, k])))
        if eigvec[pivot, k] < 0:
            eigvec[:, k] = -eigvec[:, k]
    coords = Z @ eigvec[:, :dims]
    ratios = eigval / n_feat
    return coords, ratios


def _midranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-D array, tied values sharing the mean of their
    ranks (scipy.stats.rankdata's 'average' method). A tie block holding
    sorted positions start..end-1 gets (start + 1 + end) / 2, an exact half.
    """
    order = np.argsort(a)
    s = a[order]
    starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    ends = np.append(starts[1:], a.size)
    ranks = np.empty(a.size)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def _stirling_tail(x: float) -> float:
    """lgamma(x) - ((x - 1/2) log x - x + log(2 pi) / 2) for x >= 10: the
    Stirling series, to below 1e-16."""
    z = 1.0 / (x * x)
    return (1 / 12 - z * (1 / 360 - z * (1 / 1260 - z * (1 / 1680 - z * (
        1 / 1188 - z * (691 / 360360 - z / 156)))))) / x


def _log_beta(a: float, b: float) -> float:
    """log B(a, b). For a >= 10, lgamma(a) - lgamma(a + b) comes from the
    Stirling series, which avoids cancelling two large lgamma values."""
    if a < 10.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return (math.lgamma(b) + b - (a - 0.5) * math.log1p(b / a) - b * math.log(a + b)
            + _stirling_tail(a) - _stirling_tail(a + b))


def _beta_cf(a: float, b: float, x: float, xc: float) -> float:
    """I_x(a, b) x^-a (1 - x)^-b B(a, b) a, for x below the mean of Beta(a, b):
    the continued fraction in z = x / (1 - x) (cephes' incbd), which stays
    accurate for large a near the mean; xc is 1 - x."""
    z = x / xc
    k1, k2, k3, k4, k5, k6, k7, k8 = a, b - 1.0, a, a + 1.0, 1.0, a + b, a + 1.0, a + 2.0
    p_prev, q_prev, p, q = 0.0, 1.0, 1.0, 1.0
    ratio = 1.0
    for _ in range(_BETA_CF_MAX_TERMS):
        for step in (-(z * k1 * k2) / (k3 * k4), (z * k5 * k6) / (k7 * k8)):
            p_prev, p = p, p + p_prev * step
            q_prev, q = q, q + q_prev * step
        last, ratio = ratio, p / q
        if abs(last - ratio) <= _EPS * abs(ratio):
            return ratio / xc
        k1, k2, k3, k4, k5, k6, k7, k8 = (k1 + 1.0, k2 - 1.0, k3 + 2.0, k4 + 2.0,
                                          k5 + 1.0, k6 + 1.0, k7 + 2.0, k8 + 2.0)
        scale = abs(p) + abs(q)
        if scale > 1e100 or scale < 1e-100:
            p_prev, p, q_prev, q = p_prev / scale, p / scale, q_prev / scale, q / scale
    raise ArithmeticError(f"incomplete beta continued fraction did not converge at "
                          f"a={a}, b={b}, x={x}")


def _t_tail(df: float, t: float) -> float:
    """P(T <= t) for Student's t with df degrees of freedom and t <= 0:
    I_x(df/2, 1/2) / 2 at x = df / (df + t^2). Near t = 0, where x is above
    (a + 1) / (a + b + 2), it takes the complement I_y(1/2, df/2) at
    y = t^2 / (df + t^2), computed without the cancellation in 1 - x."""
    r = t * t / df
    if r == 0.0:
        return 0.5
    a, b = df / 2.0, 0.5
    x, y = 1.0 / (1.0 + r), r / (1.0 + r)
    front = math.exp(-a * math.log1p(r) + b * (math.log(r) - math.log1p(r)) - _log_beta(a, b))
    if x < (a + 1.0) / (a + b + 2.0):
        return 0.5 * front * _beta_cf(a, b, x, y) / a
    return 0.5 - 0.5 * front * _beta_cf(b, a, y, x) / b


def brunner_munzel(x, y) -> TestResult:
    """Two-sided rank test for P(X < Y) + 0.5 P(X = Y) = 0.5 with
    Satterthwaite degrees of freedom; midranks handle ties.

    Fully separated samples have zero rank variance and no finite
    statistic; that raises DegenerateSampleError.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    nx, ny = len(x), len(y)
    if nx < 2 or ny < 2:
        raise ValueError(f"each sample needs >= 2 values, got {nx} and {ny}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("samples must be finite")
    rank_all = _midranks(np.concatenate((x, y)))
    rx, ry = rank_all[:nx], rank_all[nx:]
    rx_mean, ry_mean = rx.mean(), ry.mean()
    rx_within = _midranks(x)
    ry_within = _midranks(y)
    sx = np.square(rx - rx_within - rx_mean + rx_within.mean()).sum() / (nx - 1)
    sy = np.square(ry - ry_within - ry_mean + ry_within.mean()).sum() / (ny - 1)
    pooled = nx * sx + ny * sy
    if pooled <= 0.0:
        raise DegenerateSampleError("zero rank variance (fully separated or constant samples)")
    statistic = nx * ny * (ry_mean - rx_mean) / ((nx + ny) * math.sqrt(pooled))
    df = pooled ** 2 / ((nx * sx) ** 2 / (nx - 1) + (ny * sy) ** 2 / (ny - 1))
    p_value = 2.0 * _t_tail(float(df), -abs(float(statistic)))  # two-sided t tail
    return TestResult(statistic=float(statistic), p_value=min(1.0, p_value), df=float(df))


def significance_band(p: float) -> str:
    """Compact significance label: *** / ** / * / ns."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must be in [0, 1], got {p}")
    if p <= 0.001:
        return "***"
    if p <= 0.01:
        return "**"
    if p <= 0.05:
        return "*"
    return "ns"

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

Both descriptor sets work on one GraphCSR per graph: a community is a
slice of its adjacency matrix, clustering comes from integer triangle
counts, and eigenvector centrality from ARPACK's Lanczos solver (eigsh).
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, UndefinedMetricError
from .netbuild import LayerGraph

logger = logging.getLogger(__name__)

COMMUNITY_METRIC_NAMES = ("size", "density", "avg_degree", "avg_weight",
                          "avg_clustering", "conductance", "assortativity")
NODE_METRIC_NAMES = ("degree_centrality", "eigenvector_centrality",
                     "local_clustering", "pagerank")

_PAGERANK_TOL = 1e-12
_PAGERANK_MAX_ITER = 100000


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
        return np.array([self.size, self.density, self.avg_degree,
                         self.avg_weight, self.avg_clustering,
                         self.conductance, self.assortativity], dtype=float)


@dataclass(frozen=True)
class NodeMetrics:
    """Fixed-order centrality descriptor of one node."""

    degree_centrality: float
    eigenvector_centrality: float
    local_clustering: float
    pagerank: float

    def vector(self) -> np.ndarray:
        return np.array([self.degree_centrality, self.eigenvector_centrality,
                         self.local_clustering, self.pagerank], dtype=float)


@dataclass(frozen=True)
class TestResult:
    """Two-sided Brunner-Munzel outcome."""

    statistic: float
    p_value: float
    df: float
    n_x: int
    n_y: int


@dataclass(frozen=True)
class GraphCSR:
    """One graph as arrays: node ids in sorted order, the symmetric weighted
    CSR adjacency A (sorted indices, so each row lists its neighbours in id
    order), its 0/1 pattern B and the unweighted degrees."""

    order: list
    index: dict
    A: object
    B: object
    degree: np.ndarray

    @classmethod
    def of(cls, g: LayerGraph) -> "GraphCSR":
        import scipy.sparse as sp  # imported where used, to keep CLI start-up cheap

        order = list(g.nodes)
        index = {u: i for i, u in enumerate(order)}
        n = len(order)
        A = sp.csr_matrix((np.concatenate((g.weight, g.weight)),
                           (np.concatenate((g.u, g.v)), np.concatenate((g.v, g.u)))),
                          shape=(n, n))
        A.sort_indices()
        B = sp.csr_matrix((np.ones(A.nnz, dtype=np.int64), A.indices, A.indptr), shape=(n, n))
        return cls(order, index, A, B, np.diff(A.indptr))


def _local_clustering(B) -> np.ndarray:
    """Unweighted local clustering per row of the 0/1 pattern B: twice the
    triangles through a node (row sums of B^2 o B) over d(d - 1)."""
    d = np.diff(B.indptr)
    links = np.asarray((B @ B).multiply(B).sum(axis=1)).ravel()
    out = np.zeros(d.size)
    wedge = d >= 2
    out[wedge] = links[wedge] / (d[wedge] * (d[wedge] - 1))
    return out


def community_metrics(g: LayerGraph, members, csr: GraphCSR | None = None) -> CommunityMetrics:
    """Structural descriptor of the member set within graph g.

    Density, mean degree, weight, and clustering are computed on the
    induced subgraph; conductance uses unweighted volumes on the full
    graph; assortativity is the degree assortativity of the induced
    subgraph. Weights enter only through avg_weight. ``csr`` is g's
    GraphCSR when the caller already built it.
    """
    members = frozenset(members)
    if not members:
        raise ValueError("empty member set")
    missing = members.difference(g.nodes)
    if missing:
        raise ValueError(f"{len(missing)} members not in graph, e.g. {sorted(missing)[:3]}")
    if csr is None:
        csr = GraphCSR.of(g)
    n = len(members)
    idx = np.array(sorted(csr.index[u] for u in members))
    sub = csr.B[idx][:, idx]  # induced subgraph, rows and columns in id order
    e_in = sub.nnz // 2
    density = 2.0 * e_in / (n * (n - 1)) if n >= 2 else 0.0
    avg_degree = 2.0 * e_in / n
    # fsum is exact, so summing each edge twice and halving is the same float
    avg_weight = math.fsum(csr.A[idx][:, idx].data.tolist()) / (2 * e_in) if e_in else 0.0
    avg_clustering = math.fsum(_local_clustering(sub).tolist()) / n

    # conductance: unweighted cut over the smaller unweighted volume
    vol_in = int(csr.degree[idx].sum())
    cut = vol_in - 2 * e_in
    vol_out = csr.A.nnz - vol_in
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


def _degree_assortativity(sub) -> tuple[float, bool]:
    """Pearson correlation of endpoint degrees over the edges of the CSR
    subgraph, symmetrized; edges in row-major order, so the numpy
    reductions see a fixed array."""
    deg = np.diff(sub.indptr)
    if not sub.nnz:
        return 0.0, False
    x = np.repeat(deg, deg).astype(float)
    y = deg[sub.indices].astype(float)
    vx = x.var()
    vy = y.var()
    if vx == 0.0 or vy == 0.0:
        return 0.0, False
    r = float(((x - x.mean()) * (y - y.mean())).mean() / math.sqrt(vx * vy))
    return r, True


def _eigenvector_centrality(A) -> np.ndarray:
    """Dominant adjacency eigenvector of the weighted CSR A, per connected
    component (Lanczos, ARPACK's eigsh); keep the component with the
    largest eigenvalue, zero elsewhere, unit Euclidean norm overall.

    "LA" asks for the largest algebraic eigenvalue, so the paired -lambda of
    a bipartite component is never taken. Components within 1e-12 of the
    best eigenvalue do not replace it: the first one wins.
    """
    from scipy.sparse.csgraph import connected_components
    from scipy.sparse.linalg import eigsh

    n = A.shape[0]
    n_comp, labels = connected_components(A, directed=False)
    best_val = -np.inf
    best_vec = None
    for c in range(n_comp):
        idx = np.flatnonzero(labels == c)
        if idx.size == 1:
            lam, vec = 0.0, np.ones(1)
        else:
            vals, vecs = eigsh(A[idx][:, idx], k=1, which="LA", v0=np.ones(idx.size))
            lam, vec = float(vals[0]), vecs[:, 0]
        if lam > best_val + 1e-12 or best_vec is None:
            best_val = lam
            best_idx = idx
            best_vec = vec
    out = np.zeros(n)
    out[best_idx] = np.abs(best_vec)
    norm = np.linalg.norm(out)
    if norm > 0:
        out /= norm
    return out


def _pagerank(A, damping: float) -> np.ndarray:
    """Weighted PageRank on the CSR adjacency A, uniform teleport, L1
    stopping rule."""
    import scipy.sparse as sp  # imported where used, to keep CLI start-up cheap

    n = A.shape[0]
    out_strength = np.asarray(A.sum(axis=1)).ravel()
    dangling = out_strength == 0.0
    inv = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, out_strength))
    PT = (sp.diags(inv) @ A).T  # transpose of the row-stochastic matrix, built once
    x = np.full(n, 1.0 / n)
    teleport = (1.0 - damping) / n
    for _ in range(_PAGERANK_MAX_ITER):
        x_new = damping * (PT @ x) + teleport
        x_new += damping * x[dangling].sum() / n
        err = np.abs(x_new - x).sum()
        x = x_new
        if err < _PAGERANK_TOL:
            break
    return x / x.sum()


def node_metrics(g: LayerGraph, damping: float = 0.85,
                 csr: GraphCSR | None = None) -> dict:
    """All four node descriptors for every node of g; ``csr`` is g's
    GraphCSR when the caller already built it."""
    if not g.nodes:
        raise ValueError("empty graph")
    if not (0.0 < damping < 1.0):
        raise ValueError(f"damping must be in (0, 1), got {damping}")
    if csr is None:
        csr = GraphCSR.of(g)
    n = len(csr.order)
    degc = (csr.degree / (n - 1)).tolist() if n > 1 else [0.0] * n
    clus = _local_clustering(csr.B).tolist()
    if g.n_edges:
        eig = _eigenvector_centrality(csr.A)
        pr = _pagerank(csr.A, damping)
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

    Zero-variance features are dropped (with a warning) before scoring.
    Returns (coordinates (n, dims), explained variance ratios for all kept
    components, eigenvalues over the original feature count, so the ratios
    sum to 1 exactly when nothing was dropped).
    """
    if isinstance(vectors, (list, tuple)) and vectors and isinstance(vectors[0], CommunityMetrics):
        X = np.vstack([v.vector() for v in vectors])
    else:
        X = np.asarray(vectors, dtype=float)
    if X.ndim != 2:
        raise ValueError("vectors must form a 2D array")
    n, n_feat = X.shape
    if n < 3:
        raise ValueError(f"PCA needs at least 3 rows, got {n}")
    std = X.std(axis=0, ddof=1)
    keep = std > 0.0
    if not np.any(keep):
        raise ValueError("all features have zero variance")
    if not np.all(keep):
        dropped = [COMMUNITY_METRIC_NAMES[i] if n_feat == len(COMMUNITY_METRIC_NAMES) else str(i)
                   for i in np.flatnonzero(~keep)]
        warnings.warn(f"dropping zero-variance features: {', '.join(dropped)}",
                      stacklevel=2)
    Xk = X[:, keep]
    Z = (Xk - Xk.mean(axis=0)) / std[keep]
    C = np.cov(Z, rowvar=False, ddof=1)
    C = np.atleast_2d(C)
    eigval, eigvec = np.linalg.eigh(C)
    order = np.argsort(eigval)[::-1]
    eigval = np.clip(eigval[order], 0.0, None)
    eigvec = eigvec[:, order]
    if dims < 1 or dims > eigvec.shape[1]:
        raise ValueError(f"dims must be in [1, {eigvec.shape[1]}], got {dims}")
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
    from scipy.special import stdtr  # imported where used, to keep CLI start-up cheap

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
    p_value = 2.0 * float(stdtr(df, -abs(statistic)))  # two-sided t tail
    return TestResult(statistic=float(statistic), p_value=min(1.0, p_value),
                      df=float(df), n_x=nx, n_y=ny)


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

"""Shared builders and readers for the test suite, and the hypothesis profiles.

``HYPOTHESIS_PROFILE=ci`` selects the profile CI runs: examples derived from
each test's name, so a failure repeats on a rerun, and the reproduction
blob printed with it. Without the variable, examples are random as usual.
"""

import os
from collections import namedtuple

import numpy as np
import pytest

from multicoord.netbuild import LayerGraph, MultiplexNetwork, _edge_numbers
from multicoord.reports import read_partition_tsv

try:
    from hypothesis import settings
except ImportError:  # test_properties.py skips itself without hypothesis
    pass
else:
    settings.register_profile("ci", derandomize=True, print_blob=True)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


Edge = namedtuple("Edge", "weight co_actions window_count")


def edge_dict(g):
    """{(u, v): Edge} of a graph's rows, in row order: a dict view for tests."""
    names = g.nodes
    return {(names[a], names[b]): Edge(w, co, wc) for a, b, w, co, wc in zip(
        g.u.tolist(), g.v.tolist(), g.weight.tolist(), g.co_actions.tolist(),
        g.window_count.tolist())}


def from_pairs(layer, pairs, nodes=()):
    """A LayerGraph of (u, v, weight[, co_actions[, window_count]]) rows in
    any order, as numbers or as text that float and int take; the counts
    default to 1 and ``nodes`` adds isolated nodes. Raises RowError as
    _edge_numbers and then as LayerGraph.from_codes do."""
    rows = [tuple(p) + (1,) * (5 - len(p)) for p in pairs]
    a, b, *numbers = zip(*rows) if rows else ((),) * 5
    w, co, wc = _edge_numbers(*numbers)
    names = tuple(sorted(set(a).union(b, nodes)))
    index = {x: k for k, x in enumerate(names)}
    ia, ib = (np.fromiter(map(index.__getitem__, ends), np.int64, len(w)) for ends in (a, b))
    return LayerGraph.from_codes(layer, names, ia, ib, w, co, wc)


def read_ground_truth(path):
    """{user: community id} of a ground-truth file that synth wrote: a
    partition file of scope "truth"."""
    return read_partition_tsv(path, "truth").assignment


def tfidf_entries(m):
    """{user: {item: tf * idf}} of a WindowTfidf, in row order: a dict view for tests."""
    out = {u: {} for u in m.users}
    for r, c, w in zip(m.row.tolist(), m.col.tolist(), m.weight.tolist()):
        out[m.users[r]][m.items[c]] = w
    return out


def clique(layer, names, weight=1.0):
    pairs = [(names[i], names[j], weight)
             for i in range(len(names)) for j in range(i + 1, len(names))]
    return from_pairs(layer, pairs)


def random_layer(rng, layer="rtw", n=10, p=0.3, w_lo=0.05, w_hi=1.05):
    """Erdos-Renyi-ish weighted layer; may contain isolated-node-free subsets."""
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                pairs.append((f"n{i:02d}", f"n{j:02d}",
                              float(w_lo + rng.random() * (w_hi - w_lo))))
    return from_pairs(layer, pairs)


def two_clique_bridge(layer="rtw"):
    """Two 5-cliques joined by one edge; the unique modularity optimum is
    the two cliques (verified by exhaustive search over all partitions).
    """
    pairs = [(f"a{i}", f"a{j}", 1.0) for i in range(5) for j in range(i + 1, 5)]
    pairs += [(f"b{i}", f"b{j}", 1.0) for i in range(5) for j in range(i + 1, 5)]
    pairs.append(("a4", "b0", 1.0))
    return from_pairs(layer, pairs)


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


@pytest.fixture
def barbell():
    """Two triangles abc and def joined by the bridge c-d, unit weights."""
    return from_pairs("rtw", [
        ("a", "b", 1.0), ("a", "c", 1.0), ("b", "c", 1.0),
        ("d", "e", 1.0), ("d", "f", 1.0), ("e", "f", 1.0),
        ("c", "d", 1.0)])


def multiplex_from(layer_pairs):
    layers = {name: from_pairs(name, pairs)
              for name, pairs in layer_pairs.items()}
    return MultiplexNetwork(layers)


def unfl_sum_like(n_nodes, n_rows):
    """A graph of n_rows random edges over n_nodes, with weights and counts
    shaped like an unfl-sum edge list's."""
    rng = np.random.default_rng(7)
    key = np.unique(rng.integers(0, n_nodes * n_nodes, 3 * n_rows))
    u, v = np.divmod(key, n_nodes)
    keep = np.flatnonzero(u < v)[:n_rows]
    g = LayerGraph("unfl-sum", tuple(f"u{k:04d}" for k in range(n_nodes)), u[keep], v[keep],
                   rng.random(len(keep)) + 1e-3, rng.integers(1, 60, len(keep)),
                   rng.integers(1, 14, len(keep)))
    assert g.n_edges == n_rows
    return g

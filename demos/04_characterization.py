#!/usr/bin/env python3
"""Characterize the communities two operationalizations disagree about.

After labeling communities lost / common / gained (agreement demo), the
natural follow-up is *what kind* of communities each label collects:
denser ones, more clustered ones, hub-dominated ones? This demo computes
the structural descriptors on the flattened-union graph, projects them
with PCA, and tests lost-vs-gained node centralities with the
Brunner-Munzel rank test.
"""

import numpy as np

from multicoord.characterize import (COMMUNITY_METRIC_NAMES, GraphCSR,
                                     brunner_munzel, community_metrics,
                                     metric_cosine, node_metrics, pca_project,
                                     significance_band)
from multicoord.community import communities, flatten_union, louvain
from multicoord.compare import hungarian_match, label_nodes, overlap_matrix
from multicoord.errors import UndefinedMetricError
from multicoord.filternet import FilterConfig, filter_multiplex
from multicoord.ingest import select_users
from multicoord.netbuild import build_multiplex
from multicoord.synth import SynthConfig, generate

H = 3600.0

cfg = SynthConfig(
    n_users=110,
    community_sizes=(40, 40),
    strengths=({"rtw": 4.0, "hst": 4.0}, {"rpl": 4.0, "hst": 4.0}),
    seed=23,
    noise_rate=0.2,
    span_hours=24.0,
)
log, truth = generate(cfg)
net = build_multiplex(log, select_users(log, 1.0), width=6 * H, shift=5 * H)
net, _ = filter_multiplex(net, FilterConfig())

p_a = louvain(net.layers["rtw"], gamma=1.0, seed=42)
flat = flatten_union(net, "sum")
p_b = louvain(flat, gamma=1.0, seed=42)

# 1. descriptor vector per community, on the graph that produced it
print("community descriptors")
print(f"{'scope':12s}" + "".join(f"{n:>15s}" for n in COMMUNITY_METRIC_NAMES))
rows, row_names = [], []
for scope, g, p in (("rtw", net.layers["rtw"], p_a), ("unfl-sum", flat, p_b)):
    csr = GraphCSR.of(g)
    for cid, members in sorted(communities(p.assignment).items()):
        m = community_metrics(csr, members)
        rows.append(m.vector())
        row_names.append(f"{scope}/{cid}")
        print(f"{row_names[-1]:12s}" + "".join(f"{x:15.3f}" for x in m.vector()))

# cosine between descriptor vectors of the two largest communities
print(f"\ncosine(rtw/0, unfl-sum/0) = {metric_cosine(rows[0], rows[-2]):.3f}")

# 2. PCA projection of all descriptor rows (z-scored internally)
coords, ratios = pca_project(np.array(rows), dims=2)
print(f"\nPCA: first two axes explain {ratios[0]:.0%} + {ratios[1]:.0%}")
for name, (x, y) in zip(row_names, coords):
    print(f"  {name:12s} ({x:+.2f}, {y:+.2f})")

# 3. node labels from the matching, then rank tests between the groups
O = overlap_matrix(p_a.assignment, p_b.assignment)
M = hungarian_match(O)
labels = label_nodes(O, M)
nm = node_metrics(GraphCSR.of(flat))
groups = {lab: [nm[u].pagerank for u in labels if labels[u] == lab and u in nm]
          for lab in ("lost", "common", "gained")}
print("\npagerank by node label (on the flattened graph):")
for lab, vals in groups.items():
    if vals:
        print(f"  {lab:7s} n={len(vals):3d} median={np.median(vals):.4f}")

print("\nBrunner-Munzel, pagerank of lost vs gained nodes:")
try:
    r = brunner_munzel(groups["lost"], groups["gained"])
    print(f"  statistic={r.statistic:+.3f} p={r.p_value:.4f} "
          f"[{significance_band(r.p_value)}]")
except UndefinedMetricError as e:
    print(f"  degenerate samples: {e}")

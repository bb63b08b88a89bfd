#!/usr/bin/env python3
"""Quantify how much two operationalizations agree on one log.

Side A is the single-layer retweet view, side B the flattened-union view
of the same filtered network (the planted log from the operationalization
demo: community 0 in rtw+hst, community 1 in rpl+hst). The retweet view
fragments community 0 and cannot see community 1 at all, so the agreement
machinery should report: fragments lost, community 1 gained.
"""

from multicoord.community import communities, flatten_union, louvain
from multicoord.compare import (hungarian_match, label_communities,
                                label_nodes, nmi, overlap_matrix)
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
p_b = louvain(flatten_union(net, "sum"), gamma=1.0, seed=42)
sets_a = communities(p_a.assignment)
sets_b = communities(p_b.assignment)
print(f"A (rtw):      {len(sets_a)} communities, sizes "
      f"{sorted((len(m) for m in sets_a.values()), reverse=True)}")
print(f"B (unfl-sum): {len(sets_b)} communities, sizes "
      f"{sorted((len(m) for m in sets_b.values()), reverse=True)}")

# harmonic-mean overlap of every pair; rows = B, columns = A
O = overlap_matrix(p_a, p_b)
print("\noverlap matrix (rows B, cols A):")
print("        " + "".join(f"  a{aid:<4}" for aid in O.a_ids))
for bi, bid in enumerate(O.b_ids):
    print(f"  b{bid:<4}" + "".join(f"  {O.values[bi, aj]:.3f}" for aj in range(O.k_a)))

# optimal one-to-one matching, then threshold the matched overlaps
M = hungarian_match(O)
print(f"\nmatching: total overlap {M.total:.3f}")
for a_idx, b_idx in M.pairs:
    print(f"  a{O.a_ids[a_idx]} <-> b{O.b_ids[b_idx]}  "
          f"o = {O.overlap(a_idx, b_idx):.3f}")
# every index of the larger side that no pair holds is unmatched
matched_a = {a for a, _ in M.pairs}
matched_b = {b for _, b in M.pairs}
print(f"  unmatched on A side: {[c for i, c in enumerate(O.a_ids) if i not in matched_a]}")
print(f"  unmatched on B side: {[c for i, c in enumerate(O.b_ids) if i not in matched_b]}")

labels_a, labels_b = label_communities(O, M, theta=0.5)
print("\ncommunity labels at theta = 0.5:")
print("  A:", labels_a)
print("  B:", labels_b)

# node-level bookkeeping needs no threshold: a node is common when some
# matched pair covers it on both sides
counts = {}
for label in label_nodes(O, M).values():
    counts[label] = counts.get(label, 0) + 1
print(f"\nnode labels: {counts}")

# shared users here are all inside B's community 0, so the restricted
# reference is constant and the score collapses to 0; informative NMI
# needs scopes whose shared users span several communities
print(f"\nnmi(A, B) over the shared users = {nmi(O):.3f}")
print("\nReading: A's largest fragment survives as the match for B's"
      "\ncommunity 0, the smaller fragments are lost, and B's community 1"
      "\nhas no counterpart in A at all (gained).")

#!/usr/bin/env python3
"""Run every operationalization of multimodality on one planted log.

The same filtered multiplex network feeds five detection recipes:

  mono     one chosen layer, standard modularity
  indi     every layer independently (five partitions)
  unfl     flatten the layer union (nw / ec / sum edge weighting), one run
  multi    multislice modularity across coupled layer copies
  intfl    flatten the layer intersection, one run

Planted truth: community 0 coordinates in rtw+hst, community 1 in rpl+hst.
Only the hashtag layer carries both groups; retweets and replies each see
one group at most, and a group alone in a layer leaves a weak trace there
(its items are shared by almost everyone active, so the TF-IDF weighting
discounts them). Single-layer runs therefore fragment, while any view that
pools layers recovers the planted structure exactly.
"""

from multicoord.community import (communities, flatten_intersection,
                                  flatten_union, generalized_louvain, louvain,
                                  restrict_to_layer)
from multicoord.compare import nmi, overlap_matrix
from multicoord.filternet import FilterConfig, filter_multiplex
from multicoord.ingest import ACTIONS, select_users
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
print("layers:", {a: f"{net.layers[a].n_nodes}n/{net.layers[a].n_edges}e"
                  for a in ACTIONS})
planted_sets = communities(truth.assignment)


def describe(assignment):
    """Detected count, best overlap per planted community, NMI if both
    planted groups are visible in the scope (NMI against a single visible
    group is vacuous: the reference is constant there).
    """
    det = communities(assignment)
    nodes = set(assignment)
    parts = [f"{len(det):2d} communities"]
    visible = 0
    for ci, planted in sorted(planted_sets.items()):
        if not planted & nodes:
            parts.append(f"c{ci} absent")
            continue
        visible += 1
        O = overlap_matrix(dict.fromkeys(planted, 0), assignment)
        best = max(O.overlap(0, bi) for bi in range(O.k_b))
        parts.append(f"c{ci} best overlap {best:.2f}")
    if visible == 2:
        parts.append(f"nmi {nmi(overlap_matrix(assignment, truth.assignment)):.3f}")
    return "  ".join(parts)


print("\nsingle-layer runs (indi; mono is one such run picked in advance)")
for a in ACTIONS:
    g = net.layers[a]
    if g.n_edges == 0:
        print(f"  {a:9s} empty layer")
        continue
    p = louvain(g, gamma=1.0, seed=42)
    print(f"  {a:9s} {describe(p.assignment)}")

print("\nflattened union runs (unfl)")
for strategy in ("nw", "ec", "sum"):
    p = louvain(flatten_union(net, strategy), gamma=1.0, seed=42)
    print(f"  unfl-{strategy:4s} {describe(p.assignment)}")

print("\nflattened intersection run (intfl)")
flat = flatten_intersection(net)
if flat.n_edges:
    p = louvain(flat, gamma=1.0, seed=42)
    print(f"  intfl     {describe(p.assignment)}")
else:
    # disjoint modalities leave nothing co-acting in *every* layer
    print("  intfl     empty intersection")

print("\nmultislice run (multi, omega=0.1), restricted per layer")
mp = generalized_louvain(net, gamma=1.0, omega=0.1, seed=42)
layers = sorted({layer for _, layer in mp.assignment})
print(f"  joint     {mp.n_communities():2d} communities over "
      f"{len(layers)} layers")
for a in layers:
    p = restrict_to_layer(mp, a)
    print(f"  multi|{a:3s} {describe(p.assignment)}")

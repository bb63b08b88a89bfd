#!/usr/bin/env python3
"""Walk through network construction step by step on a small synthetic log.

Shows the intermediate objects most analyses never touch directly: the
sliding windows, one layer-window's TF-IDF matrix, its cosine graph,
and finally the merged + filtered multiplex network.
"""

from multicoord.community import communities
from multicoord.filternet import FilterConfig, filter_multiplex
from multicoord.ingest import ACTIONS, select_users
from multicoord.netbuild import (build_multiplex, layer_window_graph,
                                 tfidf_windows, window_slices)
from multicoord.synth import SynthConfig, generate

H = 3600.0

cfg = SynthConfig(
    n_users=60,
    community_sizes=(20, 15),
    strengths=({"rtw": 3.0, "hst": 2.5}, {"rpl": 3.0, "url": 2.0}),
    seed=11,
    noise_rate=0.3,
    span_hours=24.0,
)
log, truth = generate(cfg)
print(f"synthetic log: {len(log)} events, {len(log.users)} active users")
planted = communities(truth.assignment)
print(f"planted: {planted.keys()} with sizes "
      f"{[len(m) for m in planted.values()]}, "
      f"{cfg.n_users - len(truth.assignment)} noise-only users")

# 1. sliding windows over the log's time span: generate gives the log its
#    planted span (0, 24 h), while a log read from a file, as the CLI's build
#    reads events.tsv, spans its first to its last stamp and may hold one
#    whole window fewer
windows = window_slices(log.time_span, width=6 * H, shift=5 * H)
print(f"\n{len(windows)} windows of 6h shifted by 5h over "
      f"{(log.time_span[1] - log.time_span[0]) / H:.0f}h")

# 2. one TF-IDF matrix per layer-window, a row per active user; items
#    shared by everyone in the window get idf 0 and disappear, so rows cover
#    discriminative items only
actors = select_users(log, 1.0)
m = tfidf_windows(log, actors, width=6 * H, shift=5 * H)[0]
print(f"\nwindow {m.index}, layer {m.layer}: {len(m.users)} users x {len(m.items)} items")
for r, user in enumerate(m.users[:3]):
    mine = m.row == r
    top = sorted(zip(m.weight[mine].tolist(), (m.items[c] for c in m.col[mine])), reverse=True)
    print(f"  {user}: {len(top)} items, strongest {[(i, round(w, 3)) for w, i in top[:3]]}")

# 3. cosine similarity graph for that window
g0 = layer_window_graph(m)
print(f"window graph: {g0.n_nodes} nodes, {g0.n_edges} edges")

# 4. the full build merges every window of every layer (weight = mean
#    cosine over the windows where the pair co-acts)
net = build_multiplex(log, actors, width=6 * H, shift=5 * H)
print("\nraw multiplex:")
for a in ACTIONS:
    g = net.layers[a]
    print(f"  {a}: {g.n_nodes:4d} nodes  {g.n_edges:5d} edges")

# 5. two-stage filtering: a co-action threshold sized to the node budget,
#    then the lower-median weight cut, then isolate pruning
filtered, reps = filter_multiplex(net, FilterConfig(max_nodes=1000))
print("\nfiltered multiplex:")
for r in reps:
    g = filtered.layers[r.layer]
    w = f"{r.weight_threshold:.3f}" if r.weight_threshold is not None else "n/a"
    print(f"  {r.layer}: th_a={r.th_a}{'*' if r.th_a_auto else ''} weight>={w} "
          f"-> {g.n_nodes:4d} nodes  {g.n_edges:5d} edges")
print("(* = co-action threshold chosen automatically for the node budget)")

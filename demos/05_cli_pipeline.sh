#!/usr/bin/env bash
# Full command-line workflow on a synthetic log, start to finish.
#
# The CLI splits configuration in two: a synth config that generates the
# benchmark log, and a run config that consumes it. Every report file
# opens with a meta line carrying the tool version and the hash of the
# effective configuration, so outputs stay traceable to their settings.
set -euo pipefail

OUT="$(mktemp -d)/run"
mkdir -p "$OUT"
echo "writing to $OUT"

cat > "$OUT/synth.json" <<EOF
{
  "out": "$OUT",
  "synth": {
    "n_users": 110,
    "community_sizes": [40, 40],
    "strengths": [{"rtw": 4.0, "hst": 4.0}, {"rpl": 4.0, "hst": 4.0}],
    "seed": 23,
    "noise_rate": 0.2,
    "span_hours": 24.0
  }
}
EOF

cat > "$OUT/run.json" <<EOF
{
  "input": "$OUT/events.tsv",
  "schema": "tsv",
  "out": "$OUT",
  "width_hours": 6.0,
  "shift_hours": 5.0,
  "detection": {"gamma": 1.0, "omega": 0.1, "seed": 42}
}
EOF

echo; echo "== 1. generate the benchmark log =="
multicoord synth --config "$OUT/synth.json"

echo; echo "== 2. build + filter the multiplex network =="
multicoord build --config "$OUT/run.json"

echo; echo "== 3. detect under several operationalizations =="
multicoord detect --config "$OUT/run.json" --mode indi
multicoord detect --config "$OUT/run.json" --mode unfl-sum
multicoord detect --config "$OUT/run.json" --mode multi
multicoord detect --config "$OUT/run.json" --mode mono --layer hst

echo; echo "== 4. agreement between two approaches =="
multicoord compare --config "$OUT/run.json" --ref unfl-sum --other rtw

echo; echo "== 5. structural characterization of that comparison =="
multicoord characterize --config "$OUT/run.json" --ref unfl-sum --other rtw

echo; echo "== 5b. characterize with no compare before it: it writes the comparison too =="
multicoord characterize --config "$OUT/run.json" --ref multi:hst --other hst
test -s "$OUT/labels_multi-hst_vs_hst.jsonl"

echo; echo "== 6. digest of everything the run produced =="
multicoord report --out "$OUT"

"""The README's synth.json / run.json recipe, shared by the golden-artifact
and import-budget tests.
"""

import json
import os

from multicoord.cli import main

SYNTH = {
    "n_users": 110,
    "community_sizes": [40, 40],
    "strengths": [{"rtw": 4.0, "hst": 4.0}, {"rpl": 4.0, "hst": 4.0}],
    "seed": 23,
    "noise_rate": 0.2,
    "span_hours": 24.0,
}

COMPARISONS = (("unfl-sum", "rtw"), ("multi", "hst"))


def write_configs(root) -> tuple[str, str]:
    """README synth.json and run.json under root; returns their paths."""
    out = os.path.join(str(root), "out")
    synth_cfg = os.path.join(str(root), "synth.json")
    run_cfg = os.path.join(str(root), "run.json")
    with open(synth_cfg, "w", encoding="utf-8") as fh:
        json.dump({"out": out, "synth": SYNTH}, fh)
    with open(run_cfg, "w", encoding="utf-8") as fh:
        json.dump({
            "input": os.path.join(out, "events.tsv"),
            "schema": "tsv",
            "out": out,
            "width_hours": 6.0,
            "shift_hours": 5.0,
            "filter": {"max_nodes": 5000},
            "detection": {"gamma": 1.0, "omega": 0.1, "seed": 42},
        }, fh)
    return synth_cfg, run_cfg


def run_recipe(root) -> str:
    """Run the whole recipe through the CLI entry point; returns the out dir."""
    synth_cfg, run_cfg = write_configs(root)
    assert main(["synth", "--config", synth_cfg]) == 0
    assert main(["build", "--config", run_cfg]) == 0
    assert main(["detect", "--config", run_cfg, "--mode", "mono",
                 "--layer", "hst"]) == 0
    for mode in ("indi", "unfl-nw", "unfl-ec", "unfl-sum", "multi", "intfl"):
        assert main(["detect", "--config", run_cfg, "--mode", mode]) == 0
    for ref, other in COMPARISONS:
        for cmd in ("compare", "characterize"):
            assert main([cmd, "--config", run_cfg, "--ref", ref,
                         "--other", other]) == 0
    return os.path.join(str(root), "out")

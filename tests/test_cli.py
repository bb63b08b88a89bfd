"""End-to-end command-line flow on a small synthetic benchmark.

The synth and analysis steps use separate config files: the analysis
config points its input at the file synth is about to write, and input
paths are validated eagerly, so the generator must run from a config
without an input key.
"""

import json
import logging
import math
import os
import shutil
import subprocess
import sys
import weakref
from collections import Counter

import numpy as np
import pytest

from multicoord import characterize, netbuild, pipeline
from multicoord.cli import _build_parser, _load_config, main
from multicoord.community import restrict_to_layer
from multicoord.errors import ConfigError, DataError
from multicoord.filternet import FilterConfig, filter_multiplex
from multicoord.ingest import ACTIONS
from multicoord.pipeline import DETECT_MODES, DetectionSettings, RunConfig
from multicoord.reports import (config_hash, read_edges_tsv, read_multiplex_partition_tsv,
                               read_partition_tsv, read_records, write_edges_tsv)
from multicoord.synth import SynthConfig, generate
from conftest import from_pairs
from readme_recipe import COMPARISONS, write_configs

SYNTH = {
    "n_users": 40,
    "community_sizes": [15, 15],
    "strengths": [{a: 3.0 for a in ACTIONS}, {a: 3.0 for a in ACTIONS}],
    "seed": 202,
    "noise_rate": 0.1,
    "span_hours": 24.0,
}


def write_cfg(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    return str(path)


def _bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _first_line(path):
    with open(path, encoding="utf-8") as fh:
        return fh.readline()


def _contents(out):
    """File name -> bytes of every file in out."""
    return {name: _bytes(os.path.join(out, name)) for name in os.listdir(out)}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Output directory after synth + build + all detection modes."""
    root = tmp_path_factory.mktemp("cliflow")
    out = str(root / "out")
    synth_cfg = write_cfg(root / "synth.json", {"out": out, "synth": SYNTH})
    assert main(["synth", "--config", synth_cfg]) == 0
    run_cfg = write_cfg(root / "run.json", {
        "input": os.path.join(out, "events.tsv"),
        "schema": "tsv",
        "out": out,
        "width_hours": 6.0,
        "shift_hours": 5.0,
        "detection": {"gamma": 1.0, "omega": 0.1, "seed": 42},
    })
    assert main(["build", "--config", run_cfg]) == 0
    for mode in ("indi", "multi", "unfl-sum", "intfl"):
        assert main(["detect", "--config", run_cfg, "--mode", mode]) == 0
    assert main(["detect", "--config", run_cfg, "--mode", "mono",
                 "--layer", "rtw"]) == 0
    return {"root": root, "out": out, "run_cfg": run_cfg,
            "synth_cfg": synth_cfg}


def test_build_outputs(workdir):
    out = workdir["out"]
    for layer in ACTIONS:
        assert os.path.exists(os.path.join(out, f"edges_{layer}.tsv"))
    assert os.path.exists(os.path.join(out, "actors.tsv"))
    recs = read_records(os.path.join(out, "build_report.jsonl"))
    kinds = {r.get("record") for r in recs}
    assert {"meta", "layer_stats", "layer_stats_raw", "filter_report",
            "layer_coverage"} <= kinds


def test_a_log_without_a_good_line_builds_the_usual_files(tmp_path):
    # an empty log wrote no actors.tsv and no layer_stats_raw or filter_report record
    events = tmp_path / "events.jsonl"
    events.write_text("not json\n[1, 2]\n", encoding="utf-8")
    cfg = write_cfg(tmp_path / "run.json", {"input": str(events), "schema": "jsonl",
                                            "out": str(tmp_path / "out")})
    assert main(["build", "--config", cfg]) == 0
    out = tmp_path / "out"
    assert set(os.listdir(out)) == {*(f"edges_{layer}.tsv" for layer in ACTIONS),
                                    "actors.tsv", "build_report.jsonl"}
    assert (out / "actors.tsv").read_text(encoding="utf-8").split("\n")[1:] == ["user_id", ""]
    kinds = Counter(r["record"] for r in read_records(str(out / "build_report.jsonl")))
    assert kinds["layer_stats_raw"] == kinds["filter_report"] == kinds["layer_stats"] == 5
    assert kinds["window_coverage"] == 1


def test_build_reports_the_events_outside_every_window(tmp_path, capsys):
    # a span of 4,000 s holds one whole window of an hour, from the first
    # stamp: the events at 3,600 s and after fell into no window unreported
    events = tmp_path / "events.tsv"
    events.write_text("u0\trtw\ti0\t0\nu1\trtw\ti0\t3600\nu0\thst\th0\t1800\n"
                      "u1\thst\th0\t4000\nu1\turl\ta.org\t100\n", encoding="utf-8")
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path / "run.json", {"input": str(events), "schema": "tsv", "out": str(out),
                                            "width_hours": 1.0, "shift_hours": 1.0})
    assert main(["build", "--config", cfg]) == 0
    coverage = [r for r in read_records(str(out / "build_report.jsonl"))
                if r["record"] == "window_coverage"]
    assert coverage == [{"record": "window_coverage", "n_windows": 1, "events_outside": {
        "rtw": 1, "rpl": 0, "men": 0, "hst": 1, "url": 0}}]
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 0
    assert ("    1 windows; actor events outside every window: rtw 1, rpl 0, men 0, hst 1, url 0\n"
            in capsys.readouterr().out)


def test_an_empty_log_builds_with_one_warning(tmp_path, caplog):
    # the filter added "layer <l>: weight filter on an empty graph" for each
    # of the five layers
    events = tmp_path / "events.tsv"
    events.write_text("", encoding="utf-8")
    cfg = write_cfg(tmp_path / "run.json", {"input": str(events), "schema": "tsv",
                                            "out": str(tmp_path / "out")})
    caplog.set_level(logging.WARNING)
    assert main(["build", "--config", cfg]) == 0
    assert [(r.name, r.getMessage()) for r in caplog.records] == [
        ("multicoord.pipeline", "build: empty event log; writing empty network")]


def test_the_recipe_build_logs_nothing_from_the_filter(tmp_path, caplog):
    # the README recipe's url layer has no event, and the filter warned about
    # it on every build
    synth_cfg, run_cfg = write_configs(tmp_path)
    assert main(["synth", "--config", synth_cfg]) == 0
    caplog.set_level(logging.WARNING)
    assert main(["build", "--config", run_cfg]) == 0
    assert [r for r in caplog.records if r.name == "multicoord.filternet"] == []


def test_detect_outputs(workdir):
    out = workdir["out"]
    for layer in ACTIONS:
        p = read_partition_tsv(os.path.join(out, f"partition_{layer}.tsv"))
        assert p.scope == layer and p.assignment
    assert os.path.exists(os.path.join(out, "partition_multi.tsv"))
    assert os.path.exists(os.path.join(out, "partition_unfl-sum.tsv"))
    assert os.path.exists(os.path.join(out, "partition_intfl.tsv"))
    # the flattened scopes also persist their derived edge lists
    assert os.path.exists(os.path.join(out, "edges_unfl-sum.tsv"))
    summaries = read_records(os.path.join(out, "detect_indi.jsonl"))
    scopes = {r["scope"] for r in summaries if r.get("record") == "partition_summary"}
    assert scopes == set(ACTIONS)


def test_compare_and_characterize(workdir):
    run_cfg = workdir["run_cfg"]
    out = workdir["out"]
    assert main(["compare", "--config", run_cfg,
                 "--ref", "multi", "--other", "rtw"]) == 0
    assert os.path.exists(os.path.join(out, "overlap_multi_vs_rtw.tsv"))
    labels = read_records(os.path.join(out, "labels_multi_vs_rtw.jsonl"))
    kinds = {r.get("record") for r in labels}
    assert {"comparison_summary", "community_label", "node_label"} <= kinds
    summary = next(r for r in labels if r.get("record") == "comparison_summary")
    assert 0.0 <= summary["nmi"] <= 1.0

    assert main(["characterize", "--config", run_cfg,
                 "--ref", "multi", "--other", "rtw"]) == 0
    for stem in ("community_metrics", "node_metrics", "bm", "pca"):
        assert os.path.exists(os.path.join(out, f"{stem}_multi_vs_rtw.jsonl"))
    assert os.path.exists(os.path.join(out, "cosine_multi_vs_rtw.tsv"))


def test_report_digest(workdir, capsys):
    assert main(["report", "--out", workdir["out"]]) == 0
    text = capsys.readouterr().out
    assert "multicoord report" in text
    assert "detect_indi.jsonl" in text


def test_detect_records_louvain_passes(workdir, capsys):
    for mode in ("indi", "multi"):
        recs = read_records(os.path.join(workdir["out"], f"detect_{mode}.jsonl"))
        for r in (r for r in recs if r.get("record") == "partition_summary"):
            assert r["passes"] == len(r["visits"]) == len(r["moves"]) >= 1
            assert r["visits"][0] >= r["n_nodes"] and r["moves"][-1] == 0
    assert main(["report", "--out", workdir["out"]]) == 0
    assert "louvain: " in capsys.readouterr().out


def test_characterize_records_eigen_summary(workdir, capsys):
    run_cfg = workdir["run_cfg"]
    for cmd in ("compare", "characterize"):
        assert main([cmd, "--config", run_cfg, "--ref", "multi", "--other", "rtw"]) == 0
    recs = read_records(os.path.join(workdir["out"], "node_metrics_multi_vs_rtw.jsonl"))
    eigen = [r for r in recs if r.get("record") == "eigen_summary"]
    assert [r["graph"] for r in eigen] == ["a", "b"]
    for r in eigen:
        assert r["components"] >= 1 and r["lanczos_steps"] >= r["components"]
        assert r["lambda1"] > 0.0 and (r["ritz2"] is None or r["ritz2"] <= r["lambda1"])
    capsys.readouterr()
    assert main(["report", "--out", workdir["out"]]) == 0
    assert "eigenvector centrality of graph a: lambda1=" in capsys.readouterr().out


def test_characterize_profiles_a_shared_scope_once(workdir, monkeypatch):
    # multi against hst reads both sides from edges_hst.tsv; it used to read
    # and profile that graph once per side
    cfg = RunConfig.from_file(workdir["run_cfg"])
    pipeline.run_compare(cfg, "multi", "hst")
    calls = Counter()
    for ns, name in ((pipeline.reports, "read_edges_tsv"), (pipeline, "node_metrics")):
        def counted(*args, _fn=getattr(ns, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(ns, name, counted)
    pipeline.run_characterize(cfg, "multi", "hst")
    assert calls == {"read_edges_tsv": 1, "node_metrics": 1}


def test_detect_is_deterministic(workdir, tmp_path):
    path = os.path.join(workdir["out"], "partition_rtw.tsv")
    first = _bytes(path)
    assert main(["detect", "--config", workdir["run_cfg"], "--mode", "mono",
                 "--layer", "rtw"]) == 0
    assert _bytes(path) == first


def test_seed_override_changes_config_hash(workdir):
    path = os.path.join(workdir["out"], "partition_rtw.tsv")
    before = _first_line(path)
    assert main(["detect", "--config", workdir["run_cfg"], "--mode", "mono",
                 "--layer", "rtw", "--seed", "77"]) == 0
    assert _first_line(path) != before  # hash reflects the effective config
    # restore the original artifact for any later test
    assert main(["detect", "--config", workdir["run_cfg"], "--mode", "mono",
                 "--layer", "rtw"]) == 0


# ---------------------------------------------------------------------------
# exit codes


def test_usage_errors_exit_1(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["detect", "--mode", "nope", "--config", "x.json"])
    assert exc.value.code == 1
    # detect takes no --jobs
    with pytest.raises(SystemExit) as exc:
        main(["detect", "--mode", "indi", "--jobs", "2", "--config", "x.json"])
    assert exc.value.code == 1
    # report reads no seed; it used to take --seed and ignore it
    with pytest.raises(SystemExit) as exc:
        main(["report", "--out", str(tmp_path), "--seed", "7"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_config_errors_exit_1(workdir, tmp_path, capsys):
    assert main(["build", "--config", str(tmp_path / "absent.json")]) == 1
    bad = write_cfg(tmp_path / "bad.json", {"out": "o", "unknown_key": 1})
    assert main(["build", "--config", bad]) == 1
    # mono without --layer is a usage problem, not a data problem
    assert main(["detect", "--config", workdir["run_cfg"], "--mode", "mono"]) == 1
    # unknown approach token
    assert main(["compare", "--config", workdir["run_cfg"],
                 "--ref", "multi", "--other", "dms"]) == 1
    # missing input for build
    no_input = write_cfg(tmp_path / "noin.json", {"out": str(tmp_path / "o")})
    assert main(["build", "--config", no_input]) == 1
    # report with no target
    assert main(["report"]) == 1
    # config pointing at a nonexistent input file
    gone = write_cfg(tmp_path / "gone.json",
                     {"input": str(tmp_path / "nope.tsv"), "out": "o"})
    assert main(["build", "--config", gone]) == 1
    capsys.readouterr()
    # malformed config sections, wrong value types included
    for doc in ({"filter": 5}, {"filter": [["th_a", 2]]},
                {"filter": {"max_nodes": "5"}}, {"detection": "ab"},
                {"detection": {"gamma": "x"}}, {"detection": {"seed": "abc"}},
                {"detection": {"theta": None}}, {"detection": {"seed": 1.5}},
                {"detection": {"min_size": True}}, {"filter": {"th_a": 1.5}},
                {"synth": {"n_users": 10.5, "community_sizes": [], "strengths": [],
                           "seed": 1}},
                {"detection": {"gamma": True, "omega": False}},
                {"filter": {"weight_rule": "fixed", "weight_value": True}},
                {"fraction": True}, {"width_hours": True}, {"shift_hours": False},
                {"synth": {"n_users": 100, "community_sizes": [40.7], "strengths": [{}],
                           "seed": 1}},
                # non-finite numbers, which Python's json reads from NaN and Infinity
                {"detection": {"gamma": math.nan}}, {"detection": {"omega": math.inf}},
                {"filter": {"weight_rule": "fixed", "weight_value": math.nan}},
                {"width_hours": math.inf}, {"shift_hours": -math.inf},
                {"synth": {"n_users": 10, "seed": 1, "span_hours": math.inf}},
                {"synth": {"n_users": 10, "community_sizes": [5], "seed": 1,
                           "strengths": [{"rtw": math.nan}]}},
                # paths and tokens that are not strings, numbers spelled as strings
                {"out": ["o"]}, {"out": None}, {"schema": 5}, {"input": 3},
                {"stoplists": {"hashtags": ["h.txt"]}}, {"comparisons": [["multi", 1]]},
                {"comparisons": [["multi", "rtw", "hst"]]}, {"comparisons": "multi"},
                # no stage read it, yet it moved the config hash: now an unknown key
                {"comparisons": [["multi", "rtw"]]},
                {"filter": {"weight_rule": "fixed", "weight_value": "0.3"}},
                {"synth": {"n_users": 10, "seed": 1, "span_hours": "24"}},
                {"detection": None}, {"fraction": "1"}):
        path = write_cfg(tmp_path / "section.json", {"out": "o", **doc})
        assert main(["build", "--config", path]) == 1, doc
        err = capsys.readouterr().err
        assert err.startswith("config error:") and next(iter(doc)) in err, err
        assert err.count("\n") == 1, err  # one line, no traceback
        # nothing written, not even an output directory named ['o'] or None
        assert all(p.suffix == ".json" for p in tmp_path.iterdir()), doc
    # range checks name their section as the type checks do, and a strength
    # must be a number: true used to plant as 1.0 and hash as true
    synth = {"n_users": 10, "community_sizes": [5], "seed": 1}
    for doc, msg in (
            ({"detection": {"theta": 2.0}}, "detection: theta must be in [0, 1], got 2.0"),
            ({"detection": {"omega": -1}}, "detection: gamma and omega must be >= 0"),
            ({"detection": {"min_size": -1}}, "detection: min_size must be >= 0, got -1"),
            ({"filter": {"max_nodes": 0}}, "filter: max_nodes must be >= 1, got 0"),
            ({"fraction": 2}, "config: fraction must be in (0, 1], got 2.0"),
            ({"shift_hours": 0}, "config: shift_hours must be positive, got 0.0 hours"),
            # finite hours whose seconds are not: build and synth ended in a
            # ValueError traceback from window_slices, or in a data error
            # blaming the timestamps
            ({"width_hours": 1e305}, "config: width_hours must be finite in seconds, got 1e+305 hours"),
            ({"shift_hours": 1e305}, "config: shift_hours must be finite in seconds, got 1e+305 hours"),
            ({"synth": {**synth, "strengths": [{}], "shift_hours": 1e305}},
             "synth: shift_hours must be finite in seconds, got 1e+305 hours"),
            ({"synth": {**synth, "strengths": [{}], "width_hours": 1e305, "span_hours": 1e305}},
             "synth: width_hours must be finite in seconds, got 1e+305 hours"),
            ({"synth": {**synth, "strengths": [{}], "span_hours": 1e306}},
             "synth: span_hours must be finite in seconds, got 1e+306 hours"),
            ({"schema": "csv"}, "config: schema must be tsv or jsonl, got 'csv'"),
            ({"synth": {**synth, "strengths": [{"rtw": True}]}},
             "synth: community 0: strengths must be finite numbers >= 0, got {'rtw': True}"),
            ({"synth": {**synth, "strengths": [{"hst": "2"}]}},
             "synth: community 0: strengths must be finite numbers >= 0, got {'hst': '2'}"),
            ({"synth": {**synth, "strengths": [{"url": None}]}},
             "synth: community 0: strengths must be finite numbers >= 0, got {'url': None}")):
        path = write_cfg(tmp_path / "section.json", {"out": "o", **doc})
        assert main(["build", "--config", path]) == 1, doc
        assert capsys.readouterr().err == f"config error: {msg}\n"
        assert all(p.suffix == ".json" for p in tmp_path.iterdir()), doc
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["build"], ["compare", "--ref", "multi", "--other", "rtw"],
                                  ["characterize", "--ref", "multi", "--other", "rtw"]],
                         ids=["build", "compare", "characterize"])
def test_a_step_that_reads_no_seed_takes_none(workdir, capsys, argv):
    # compare --seed 7 wrote the same overlap body under another config hash
    before = _contents(workdir["out"])
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--config", workdir["run_cfg"], *argv[1:], "--seed", "7"])
    assert exc.value.code == 1
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: --seed 7\n")
    assert _contents(workdir["out"]) == before


def test_a_layer_goes_with_mode_mono_only(workdir, capsys):
    # detect --mode indi --layer rtw ran all five layers and exited 0
    before = _contents(workdir["out"])
    capsys.readouterr()
    for mode in ("indi", "multi", "unfl-sum"):
        assert main(["detect", "--config", workdir["run_cfg"], "--mode", mode,
                     "--layer", "rtw"]) == 1
        assert capsys.readouterr().err == (
            f"config error: mode {mode!r} takes no layer; only mode 'mono' runs one\n")
    # a library call keeps the same rule
    with pytest.raises(ConfigError, match="^mode 'indi' takes no layer"):
        pipeline.run_detect(RunConfig.from_file(workdir["run_cfg"]), "indi", layer="rtw")
    assert _contents(workdir["out"]) == before


def test_an_output_path_that_cannot_be_written_is_a_config_error(workdir, tmp_path, capsys):
    # build --out <a file> ended in a FileExistsError traceback, exit 1
    blocker = tmp_path / "file"
    blocker.write_text("x")
    capsys.readouterr()
    for argv, first in ((["build", "--config", workdir["run_cfg"]], "edges_rtw.tsv"),
                        (["synth", "--config", workdir["synth_cfg"]], "events.tsv")):
        assert main([*argv, "--out", str(blocker)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {blocker / first}: ") \
            and err.count("\n") == 1, err
    assert blocker.read_text() == "x"


def test_build_makes_its_output_directory_before_it_reads(workdir, tmp_path, capsys,
                                                          monkeypatch):
    # build --out <a file> parsed, built and filtered the whole log first
    def parse_events(*args, **kwargs):
        raise AssertionError("build read its input")

    monkeypatch.setattr(pipeline, "parse_events", parse_events)
    blocker = tmp_path / "file"
    blocker.write_text("x")
    capsys.readouterr()
    assert main(["build", "--config", workdir["run_cfg"], "--out", str(blocker)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {blocker / 'edges_rtw.tsv'}: ") \
        and err.count("\n") == 1, err


def test_a_negative_seed_is_refused(workdir, tmp_path, capsys):
    # synth ended in NumPy's ValueError traceback; detect --seed -5 wrote the
    # partition of seed 5 under another config hash
    out = workdir["out"]
    before = _contents(out)
    synth = write_cfg(tmp_path / "synth.json", {"out": str(tmp_path / "o"), "synth": SYNTH})
    capsys.readouterr()
    for argv, msg in (
            (["synth", "--config", synth, "--seed", "-1"], "--seed: seed must be >= 0, got -1"),
            (["detect", "--config", workdir["run_cfg"], "--mode", "mono", "--layer", "rtw",
              "--seed", "-5"], "--seed: seed must be >= 0, got -5")):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err == f"config error: {msg}\n"
    for doc, msg in (({"synth": {**SYNTH, "seed": -3}}, "synth: seed must be >= 0, got -3"),
                     ({"detection": {"seed": -5}}, "detection: seed must be >= 0, got -5")):
        path = write_cfg(tmp_path / "section.json", {"out": str(tmp_path / "o"), **doc})
        assert main(["synth" if "synth" in doc else "build", "--config", path]) == 1, doc
        assert capsys.readouterr().err == f"config error: {msg}\n"
    assert not (tmp_path / "o").exists()
    assert _contents(out) == before
    # seed 0 is a seed like any other
    assert DetectionSettings(seed=0).seed == 0


def test_float_fields_hash_alike_as_json_integers(tmp_path):
    # JSON has one number type: "gamma": 1 and "gamma": 1.0 are one config
    def cfg_hash(doc):
        path = write_cfg(tmp_path / "run.json", doc)
        return config_hash(RunConfig.from_file(path).to_dict())

    ints = {"fraction": 1, "width_hours": 6, "detection": {"gamma": 1, "omega": 0},
            "filter": {"weight_rule": "fixed", "weight_value": 1},
            "synth": {"n_users": 10, "seed": 1, "noise_rate": 0, "span_hours": 24}}
    floats = {"fraction": 1.0, "width_hours": 6.0, "detection": {"gamma": 1.0, "omega": 0.0},
              "filter": {"weight_rule": "fixed", "weight_value": 1.0},
              "synth": {"n_users": 10, "seed": 1, "noise_rate": 0.0, "span_hours": 24.0}}
    assert cfg_hash(ints) == cfg_hash(floats)
    assert cfg_hash({"detection": {"gamma": 1}}) == cfg_hash({"detection": {"gamma": 1.0}})


def test_data_errors_exit_2(workdir, tmp_path, capsys):
    # comparing a scope with an edge list but no partition
    out = tmp_path / "out"
    out.mkdir()
    shutil.copy(os.path.join(workdir["out"], "edges_unfl-sum.tsv"), out)
    cfg = write_cfg(tmp_path / "run.json", {"out": str(out)})
    capsys.readouterr()
    assert main(["compare", "--config", cfg, "--ref", "unfl-sum", "--other", "rtw"]) == 2
    assert capsys.readouterr().err == (f"data error: missing partition "
                                       f"{out / 'partition_unfl-sum.tsv'}; run detect first\n")
    # scope mismatch: bare multi against a user-level flattened scope
    assert main(["compare", "--config", workdir["run_cfg"],
                 "--ref", "multi", "--other", "unfl-sum"]) == 2
    # characterize with no compare before it exits 0: it computes the
    # comparison and writes compare's two files, byte for byte as compare
    # then writes them
    fresh = str(tmp_path / "fresh")
    shutil.copytree(workdir["out"], fresh)
    argv = ["--config", workdir["run_cfg"], "--out", fresh, "--ref", "rtw", "--other", "rpl"]
    paths = [os.path.join(fresh, name)
             for name in ("overlap_rtw_vs_rpl.tsv", "labels_rtw_vs_rpl.jsonl")]
    assert not any(os.path.exists(path) for path in paths)
    assert main(["characterize", *argv]) == 0
    written = [_bytes(path) for path in paths]
    assert main(["compare", *argv]) == 0
    assert [_bytes(path) for path in paths] == written
    # report on a missing directory
    assert main(["report", "--out", str(tmp_path / "void")]) == 2
    capsys.readouterr()


def test_bad_edge_row_exits_2(tmp_path, capsys):
    # a self-loop used to load silently and skew Louvain and the metrics
    out = tmp_path / "out"
    out.mkdir()
    (out / "edges_rtw.tsv").write_text(
        "# multicoord 0 config x\n# layer rtw\nuser_a\tuser_b\tweight\tco_actions\t"
        "window_count\na\ta\t1.0\t1\t1\na\tb\t0.5\t1\t1\n")
    cfg = write_cfg(tmp_path / "run.json", {"out": str(out)})
    assert main(["detect", "--config", cfg, "--mode", "mono", "--layer", "rtw"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "edges_rtw.tsv:4: self-loop" in err, err
    assert not (out / "partition_rtw.tsv").exists()


def test_bad_partition_row_exits_2(tmp_path, capsys):
    # a community id that is not an integer used to end compare with a
    # ValueError traceback and exit code 1
    out = tmp_path / "out"
    out.mkdir()
    head = "# multicoord 0 config x\n# scope {}\nuser_id\tcommunity_id\n"
    (out / "partition_rtw.tsv").write_text(head.format("rtw") + "a\t0\nb\tone\n")
    (out / "partition_rpl.tsv").write_text(head.format("rpl") + "a\t0\nb\t1\n")
    cfg = write_cfg(tmp_path / "run.json", {"out": str(out)})
    assert main(["compare", "--config", cfg, "--ref", "rtw", "--other", "rpl"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:"), err
    assert "partition_rtw.tsv:5: community id 'one' is not an integer" in err, err


def test_runaway_window_grid_exits_2(tmp_path, capsys):
    # one millisecond timestamp in a log in seconds would ask for 94,349,999
    # windows of 6 h shifted by 5 h
    events = tmp_path / "events.tsv"
    events.write_text("u1\trtw\tA\t1700000000\nu2\trtw\tA\t1700000000000\n")
    cfg = write_cfg(tmp_path / "run.json", {"input": str(events), "schema": "tsv",
                                            "out": str(tmp_path / "out")})
    assert main(["build", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "94,349,999 windows" in err, err
    assert "in seconds" in err


def test_explicit_restriction_token(workdir, capsys):
    assert main(["compare", "--config", workdir["run_cfg"],
                 "--ref", "multi:rpl", "--other", "rpl"]) == 0
    out = capsys.readouterr().out
    assert "multi:rpl vs rpl" in out
    assert os.path.exists(os.path.join(workdir["out"],
                                       "overlap_multi-rpl_vs_rpl.tsv"))


def test_bare_multi_facing_multi_layer_is_restricted_to_that_layer(workdir, tmp_path, capsys):
    # both pairs exited 2: no common nodes between the two partitions
    out = str(tmp_path / "out")
    shutil.copytree(workdir["out"], out)
    argv = ["--config", workdir["run_cfg"], "--out", out]

    def compared(ref, other):
        assert main(["compare", *argv, "--ref", ref, "--other", other]) == 0, (ref, other)
        labels = read_records(os.path.join(out, f"labels_{pipeline.comparison_id(ref, other)}.jsonl"))
        summary = next(r for r in labels if r["record"] == "comparison_summary")
        return summary["nmi"], summary["communities"]

    explicit = compared("multi:rtw", "multi:rtw")
    assert compared("multi", "multi:rtw") == explicit
    assert compared("multi:rtw", "multi") == explicit
    assert main(["characterize", *argv, "--ref", "multi", "--other", "multi:rtw"]) == 0


def test_config_hash_is_pinned():
    # every section set; artifacts carry this hash in their meta lines, so a
    # change to to_dict that moves it changes every artifact's first line
    cfg = RunConfig(
        input="data/events.jsonl", schema="jsonl",
        stoplists={"hashtags": "stop/hashtags.txt",
                   "url_domains": "stop/domains.txt"},
        fraction=0.5, width_hours=4.0, shift_hours=3.0,
        filter=FilterConfig(th_a=2, max_nodes=600, weight_rule="fixed",
                            weight_value=0.25),
        detection=DetectionSettings(gamma=1.5, omega=0.2, seed=7, theta=0.4,
                                    min_size=3),
        out="runs/out",
        synth=SynthConfig(n_users=40, community_sizes=(15, 10),
                          strengths=({"rtw": 3.0, "hst": 1.5}, {"rpl": 2.0}),
                          seed=11, noise_rate=0.1, community_pool_size=8,
                          noise_pool_size=300,
                          span_hours=24.0, width_hours=4.0, shift_hours=3.0))
    assert config_hash(cfg.to_dict()) == (
        "b21055c08995fad14d606635986a9b9bf2f7a44c2e15bbe142d8b398c9e7a6a3")


def test_synth_writes_the_truth_that_generate_returns(workdir):
    cfg = RunConfig.from_file(workdir["synth_cfg"])
    _, truth = generate(cfg.synth)
    written = read_partition_tsv(os.path.join(workdir["out"], "ground_truth.tsv"), "truth")
    assert truth.scope == "truth"
    assert (written.scope, written.assignment) == (truth.scope, truth.assignment)
    (summary,) = [r for r in read_records(os.path.join(workdir["out"], "synth_report.jsonl"))
                  if r["record"] == "synth_summary"]
    assert summary["n_noise_users"] == cfg.synth.n_users - len(truth.assignment) == 10
    assert summary["active_layers"] == {str(c): sorted(layers)
                                        for c, layers in cfg.synth.active_layers.items()}
    assert summary["active_layers"] == {"0": sorted(ACTIONS), "1": sorted(ACTIONS)}


def test_seed_overrides_only_the_seed_its_step_reads(tmp_path):
    # detect --seed 7 set the synth seed to 7 too, so detect's config hash
    # covered a seed that detect never reads; synth --seed set the detection seed
    cfg = write_cfg(tmp_path / "both.json", {"out": str(tmp_path / "out"),
                                             "detection": {"seed": 1},
                                             "synth": {**SYNTH, "seed": 2}})
    for argv, seeds in ((["detect", "--mode", "indi"], (7, 2)), (["synth"], (1, 7))):
        got = _load_config(_build_parser().parse_args([*argv, "--config", cfg, "--seed", "7"]))
        assert (got.detection.seed, got.synth.seed) == seeds, argv


def test_characterize_refuses_a_graph_lanczos_does_not_solve(tmp_path, monkeypatch, capsys):
    # a path of 2,000 nodes spent Lanczos' 12,800 steps and ended in an
    # ArithmeticError traceback, exit code 1; a 60-node path under a budget
    # of 16 steps, 4 per restart, is the same case in small
    out = tmp_path / "out"
    out.mkdir()
    names = [f"n{k:02d}" for k in range(60)]
    write_edges_tsv(str(out / "edges_rtw.tsv"), from_pairs("rtw", zip(names, names[1:],
                                                                     [1.0] * 59)))
    cfg = write_cfg(tmp_path / "run.json", {"out": str(out)})
    assert main(["detect", "--config", cfg, "--mode", "mono", "--layer", "rtw"]) == 0
    monkeypatch.setattr(characterize, "_LANCZOS_MAX_STEPS", 4)
    monkeypatch.setattr(characterize, "_LANCZOS_STEP_BUDGET", 16)
    before = _contents(str(out))
    capsys.readouterr()
    argv = ["characterize", "--config", cfg, "--ref", "rtw", "--other", "rtw"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"data error: edge list {out / 'edges_rtw.tsv'}: Lanczos did not converge in 16 steps "
        f"on a 60-node component\n")
    assert _contents(str(out)) == before


def test_synth_section_defaults_to_no_planted_communities(tmp_path):
    cfg = RunConfig.from_dict({"synth": {"n_users": 10, "seed": 1}},
                              base_dir=str(tmp_path))
    assert cfg.synth.n_communities == 0 and cfg.synth.strengths == ()


def test_multi_against_a_layer_without_edges_exits_2(tmp_path, capsys):
    # no hst event: the multiplex partition has no hst node, and restricting
    # it to hst used to end compare and characterize with a ValueError
    # traceback and exit code 1
    events = tmp_path / "events.tsv"
    events.write_text("".join(f"u{k}\t{a}\t{a}{k % 2}\t{k}\n"
                              for k in range(8) for a in ("rtw", "men")))
    cfg = write_cfg(tmp_path / "run.json", {"input": str(events), "schema": "tsv",
                                            "out": str(tmp_path / "out")})
    assert main(["build", "--config", cfg]) == 0
    assert main(["detect", "--config", cfg, "--mode", "multi"]) == 0
    capsys.readouterr()
    assert main(["compare", "--config", cfg, "--ref", "multi", "--other", "hst"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: layer 'hst'"), err
    assert not os.path.exists(tmp_path / "out" / "overlap_multi-hst_vs_hst.tsv")


@pytest.mark.parametrize("weights, varying", [((1.0, 1.0, 1.0), 0), ((1.0, 0.5, 0.25), 1)])
def test_characterize_skips_pca_when_fewer_than_two_descriptors_vary(tmp_path, capsys,
                                                                     weights, varying):
    # three equal triangles per layer, one community each: every descriptor
    # but avg_weight is constant, and avg_weight varies only with the
    # weights; PCA onto two axes used to raise a ValueError
    out = tmp_path / "out"
    out.mkdir()
    head = "# multicoord 0 config x\n"
    for layer in ("rtw", "rpl"):
        rows = "".join(f"n{c}{i}\tn{c}{j}\t{w}\t1\t1\n"
                       for c, w in enumerate(weights) for i, j in ((0, 1), (0, 2), (1, 2)))
        (out / f"edges_{layer}.tsv").write_text(
            f"{head}# layer {layer}\nuser_a\tuser_b\tweight\tco_actions\twindow_count\n" + rows)
        (out / f"partition_{layer}.tsv").write_text(
            f"{head}# scope {layer}\nuser_id\tcommunity_id\n"
            + "".join(f"n{c}{i}\t{c}\n" for c in range(3) for i in range(3)))
    cfg = write_cfg(tmp_path / "run.json", {"out": str(out)})
    assert main(["compare", "--config", cfg, "--ref", "rtw", "--other", "rpl"]) == 0
    assert main(["characterize", "--config", cfg, "--ref", "rtw", "--other", "rpl"]) == 0
    records = read_records(str(out / "pca_rtw_vs_rpl.jsonl"))
    assert [r for r in records if r.get("record") != "meta"] == [
        {"record": "pca_skipped", "reason": f"only {varying} descriptors vary"}]
    capsys.readouterr()


def test_compare_names_a_scope_without_an_edge(tmp_path, capsys):
    # two users with no item in common: no layer has an edge. detect --mode
    # multi used to exit 2, and compare then said "run detect first"
    events = tmp_path / "events.tsv"
    events.write_text("u0\trtw\ti0\t1\nu1\trtw\ti1\t2\n")
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path / "run.json", {"input": str(events), "schema": "tsv",
                                            "out": str(out)})
    assert main(["build", "--config", cfg]) == 0
    for mode in ("multi", "unfl-sum"):
        assert main(["detect", "--config", cfg, "--mode", mode]) == 0
    summaries = [r for r in read_records(str(out / "detect_multi.jsonl"))
                 if r["record"] != "meta"]
    assert summaries == [{"record": "partition_summary", "scope": "multi", "empty": True,
                          "n_nodes": 0, "n_communities": 0, "modularity": None}]
    capsys.readouterr()
    for ref in ("unfl-sum", "multi"):
        assert main(["compare", "--config", cfg, "--ref", ref, "--other", "rtw"]) == 2
        assert capsys.readouterr().err == (
            f"data error: scope {ref!r} has no edge, so detect wrote no partition for it\n")


BAD_ROW = b"u1\trtw\t\xff\t1\n"  # 0xff starts no UTF-8 sequence


@pytest.mark.parametrize("what, name, content, argv", [
    ("event file", "events.tsv", BAD_ROW, ["build"]),
    ("edge list", "out/edges_rtw.tsv", b"# layer rtw\n" + BAD_ROW,
     ["detect", "--mode", "mono", "--layer", "rtw"]),
    ("records", "out/build_report.jsonl", b'{"record": "\xff"}\n', ["report"]),
    ("config", "run.json", b'{"out": "\xff"}', ["build"]),
    ("stoplist", "stop.txt", None, ["build"]),  # a directory
], ids=["event-file", "edge-list", "records", "config", "stoplist"])
def test_unreadable_input_names_the_file(tmp_path, capsys, what, name, content, argv):
    # each used to end in a UnicodeDecodeError or IsADirectoryError
    # traceback and exit code 1
    (tmp_path / "out").mkdir()
    (tmp_path / "events.tsv").write_text("u1\trtw\tA\t1\n")
    (tmp_path / "stop.txt").write_text("spam\n")
    cfg = write_cfg(tmp_path / "run.json", {"input": "events.tsv", "schema": "tsv", "out": "out",
                                            "stoplists": {"hashtags": "stop.txt"}})
    path = tmp_path / name
    if content is None:
        path.unlink()
        path.mkdir()
    else:
        path.write_bytes(content)
    code, kind = (1, "config") if what == "config" else (2, "data")
    assert main([argv[0], "--config", cfg, *argv[1:]]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"{kind} error: cannot read {what} {path}: ") and err.count("\n") == 1, err


def test_decode_error_names_the_line_and_byte(tmp_path, capsys):
    # the message used to give the decoder's position, counted from the start
    # of its current chunk: "can't decode byte 0xff in position 3372"
    events = tmp_path / "events.tsv"
    events.write_bytes(b"".join(b"u%d\trtw\tA\t%d\n" % (k, k) for k in range(5000)) + BAD_ROW)
    cfg = write_cfg(tmp_path / "run.json", {"input": "events.tsv", "schema": "tsv", "out": "out"})
    assert main(["build", "--config", cfg]) == 2
    assert capsys.readouterr().err == (f"data error: cannot read event file {events}: "
                                       "line 5001, byte 8: not UTF-8 (invalid start byte)\n")


def test_url_stoplist_entries_are_reduced_like_event_urls(tmp_path, capsys):
    # entries used to be kept as written, so none of the first three matched
    # the events' bbc.co.uk, and "www." listed an empty domain
    events, stop, out = tmp_path / "events.tsv", tmp_path / "domains.txt", tmp_path / "out"
    events.write_text("".join(f"u{k}\turl\thttps://{site}/p{k}\t{k}\n" for k, site in enumerate(
        ("bbc.co.uk", "www.bbc.co.uk", "cnn.com", "cnn.com", "fox.com"))))
    cfg = write_cfg(tmp_path / "run.json", {"input": str(events), "schema": "tsv", "out": str(out),
                                            "stoplists": {"url_domains": str(stop)}})
    for entry in ("https://www.bbc.co.uk/news", "bbc.co.uk:443", "//BBC.co.uk/x"):
        stop.write_text(entry + "\n")
        assert main(["build", "--config", cfg]) == 0
        assert read_edges_tsv(str(out / "edges_url.tsv")).nodes == ("u2", "u3"), entry
    stop.write_text("www.\n")
    assert main(["build", "--config", cfg]) == 2
    assert capsys.readouterr().err == (f"data error: stoplist {stop}: unparseable URL 'www.': "
                                       "empty host after www-strip\n")


def test_edge_list_must_name_its_scope(tmp_path, capsys):
    # an edge list of another scope used to load as that scope: detect
    # --mode mono --layer rtw printed "detect rpl" and wrote partition_rpl.tsv
    events, out = tmp_path / "events.tsv", tmp_path / "out"
    events.write_text("".join(f"u{k}\trtw\ti{k % 2}\t{k}\n" for k in range(6)))
    cfg = write_cfg(tmp_path / "run.json", {"input": str(events), "schema": "tsv",
                                            "out": str(out)})
    assert main(["build", "--config", cfg]) == 0
    path = out / "edges_rtw.tsv"
    path.write_text(path.read_text().replace("# layer rtw\n", "# layer rpl\n"))
    capsys.readouterr()
    assert main(["detect", "--config", cfg, "--mode", "mono", "--layer", "rtw"]) == 2
    assert capsys.readouterr().err == (
        f"data error: {path}:2: '# layer rpl' does not name scope 'rtw'\n")
    assert not list(out.glob("partition_*"))


@pytest.fixture(scope="module")
def recipe_detected(tmp_path_factory):
    """(run config, out) of the README recipe after every detect mode, before
    any compare."""
    synth_cfg, run_cfg = write_configs(tmp_path_factory.mktemp("recipe"))
    assert main(["synth", "--config", synth_cfg]) == 0
    assert main(["build", "--config", run_cfg]) == 0
    for mode in DETECT_MODES:
        extra = ["--layer", "rtw"] if mode == "mono" else []
        assert main(["detect", "--config", run_cfg, "--mode", mode, *extra]) == 0
    return run_cfg, os.path.join(os.path.dirname(run_cfg), "out")


@pytest.mark.parametrize("ref, other, err", [
    ("intfl", "rtw", "scope 'intfl' has no edge, so detect wrote no partition for it"),
    ("multi", "intfl", "scope mismatch: 'multi' is a multiplex partition and 'intfl' is "
                       "user-level; use multi:<layer>"),
    ("multi", "multi", "characterize needs a concrete graph per side; restrict multiplex "
                       "partitions to a layer (multi:<layer>)"),
], ids=["intfl-rtw", "multi-intfl", "multi-multi"])
def test_characterize_names_why_compare_cannot_run(recipe_detected, capsys, ref, other, err):
    # characterize refuses these pairs for compare's own reasons, or for
    # multi facing multi, which has no single graph, before it computes
    cfg, out = recipe_detected
    argv = ["--config", cfg, "--ref", ref, "--other", other]
    capsys.readouterr()
    assert main(["characterize", *argv]) == 2
    assert capsys.readouterr().err == f"data error: {err}\n"
    assert not [name for name in os.listdir(out) if name.startswith("labels_")]
    if ref != other:  # compare refuses the pair with the same line
        assert main(["compare", *argv]) == 2
        assert capsys.readouterr().err == f"data error: {err}\n"


def _parse_token(token):
    """(base, restriction layer or None) of an approach token: the grammar
    as three helpers held it before one resolver did."""
    if token.startswith("multi:"):
        layer = token.split(":", 1)[1]
        if layer not in ACTIONS:
            raise ConfigError(f"unknown layer in token {token!r}")
        return "multi", layer
    if token in ACTIONS or token in pipeline.FLAT_SCOPES or token == "multi":
        return token, None
    raise ConfigError(f"unknown approach token {token!r}")


def _resolve_tokens(ref, other):
    """The restrict-first rule over two parsed tokens, as it stood beside
    _parse_token."""
    sides = [_parse_token(ref), _parse_token(other)]
    for k, (token, facing) in enumerate(((ref, other), (other, ref))):
        base, layer = sides[k]
        facing_scope = sides[1 - k][1] or sides[1 - k][0]
        if base == "multi" and layer is None and facing_scope != "multi":
            if facing_scope not in ACTIONS:
                raise DataError(f"scope mismatch: '{token}' is a multiplex partition and "
                                f"'{facing}' is user-level; use multi:<layer>")
            sides[k] = (base, facing_scope)
    return sides[0], sides[1]


def _load_approach(out, base, restriction):
    """One resolved side's communities and display token, read as they were
    read beside _resolve_tokens."""
    path = os.path.join(out, f"partition_{base}.tsv")
    if not os.path.exists(path):
        graphs = (pipeline._load_network(out).layers.values() if base == "multi"
                  else [pipeline._load_layer_graph(out, base)])
        if not any(g.nodes for g in graphs):
            raise DataError(f"scope {base!r} has no edge, so detect wrote no partition for it")
        raise DataError(f"missing partition {path}; run detect first")
    if base != "multi":
        return read_partition_tsv(path, base), base
    p = read_multiplex_partition_tsv(path)
    if restriction is not None:
        return restrict_to_layer(p, restriction), f"multi-{restriction}"
    return p, "multi"


def test_sides_resolve_every_token_pair_as_the_old_helpers_did(recipe_detected):
    # each side's communities, display token and graph scope, or the error,
    # for every pair of tokens, good and bad, on an out without a url or
    # intfl partition
    _, out = recipe_detected
    tokens = [*ACTIONS, *pipeline.FLAT_SCOPES, "multi", *(f"multi:{a}" for a in ACTIONS),
              "dms", "rtw:hst", "multi:", "multi:xyz"]
    for ref in tokens:
        for other in tokens:
            try:
                want = [(*_load_approach(out, base, layer), layer or base)
                        for base, layer in _resolve_tokens(ref, other)]
            except (ConfigError, DataError) as exc:
                want = (type(exc), str(exc))
            try:
                got = [(p, token, scope) for p, token, _, scope in pipeline._sides(out, ref, other)]
            except (ConfigError, DataError) as exc:
                got = (type(exc), str(exc))
            assert got == want, (ref, other)


def test_characterize_refuses_a_min_size_that_drops_every_community(recipe_detected, tmp_path,
                                                                    capsys):
    # the comparison refuses sides without a community before any metric runs
    cfg, out = recipe_detected
    with open(cfg, encoding="utf-8") as fh:
        doc = json.load(fh)
    largest = max(Counter(read_partition_tsv(os.path.join(out, f"partition_{scope}.tsv"),
                                             scope).assignment.values()).most_common(1)[0][1]
                  for scope in ("unfl-sum", "rtw"))
    doc["detection"]["min_size"] = largest
    before = _contents(out)
    capsys.readouterr()
    assert main(["characterize", "--config", write_cfg(tmp_path / "run.json", doc),
                 "--ref", "unfl-sum", "--other", "rtw"]) == 2
    assert capsys.readouterr().err == (
        "data error: no common nodes between the two partitions after filtering\n")
    assert _contents(out) == before


def test_theta_zero_matches_no_pair_without_a_shared_node(recipe_detected, tmp_path):
    # at theta 0 every matched pair is common, so a pair that shares no node
    # must not be matched: unfl-sum community 1 overlaps no rtw community and
    # stays gained
    cfg, out = recipe_detected
    with open(cfg, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["out"] = str(tmp_path / "out")
    shutil.copytree(out, doc["out"])
    doc["detection"]["theta"] = 0.0
    cfg = write_cfg(tmp_path / "run.json", doc)
    for ref, other in COMPARISONS:
        assert main(["compare", "--config", cfg, "--ref", ref, "--other", other]) == 0
        path = os.path.join(doc["out"], f"labels_{pipeline.comparison_id(ref, other)}.jsonl")
        with open(path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        pairs = [r for r in records if r["record"] == "matched_pair"]
        assert pairs and all(r["overlap"] > 0.0 for r in pairs)
        common_b = {r["community"] for r in records if r["record"] == "community_label"
                    and r["side"] == "b" and r["label"] == "common"}
        assert common_b == {r["b_community"] for r in pairs}
        if (ref, other) == ("unfl-sum", "rtw"):
            assert "1" not in common_b


def test_loaded_network_is_the_built_one(tmp_path, monkeypatch):
    # build and detect hold the same kind of network: what detect loads from
    # the edge lists is, layer by layer, the filtered network build wrote
    built = []

    def keep(net, cfg):
        built.append(filter_multiplex(net, cfg))
        return built[-1]

    monkeypatch.setattr(pipeline, "filter_multiplex", keep)
    out = str(tmp_path / "out")
    assert main(["synth", "--config", write_cfg(tmp_path / "synth.json",
                                                {"out": out, "synth": SYNTH})]) == 0
    assert main(["build", "--config", write_cfg(tmp_path / "run.json", {
        "input": os.path.join(out, "events.tsv"), "schema": "tsv", "out": out})]) == 0
    # build filters one layer per call: five one-layer networks, in order
    layers = [g for net, _ in built for g in net.layers.values()]
    loaded = pipeline._load_network(out)
    assert list(loaded.layers) == [g.layer for g in layers] == list(ACTIONS)
    for got, want in zip(loaded.layers.values(), layers):
        assert got.nodes == want.nodes and want.n_edges
        for col in ("u", "v", "weight", "co_actions", "window_count"):
            a, b = getattr(got, col), getattr(want, col)
            assert a.dtype == b.dtype and np.array_equal(a, b), (got.layer, col)


def test_build_holds_one_raw_layer_and_drops_the_log(tmp_path, monkeypatch):
    # build summarizes and filters each raw layer before it builds the next,
    # so no raw layer outlives its filtering; it builds each layer from a log
    # of that layer's events, drops the parsed log before the first layer
    # and each layer's log once that layer is built, and so holds no log at
    # its writes
    out = str(tmp_path / "out")
    assert main(["synth", "--config", write_cfg(tmp_path / "synth.json",
                                                {"out": out, "synth": SYNTH})]) == 0
    raw, logs, built = [], [], []
    merged_layer, parse_events, write = netbuild._merged_layer, pipeline.parse_events, pipeline._write
    build_multiplex = pipeline.build_multiplex

    def merged(*args):
        assert all(ref() is None for ref in raw), f"raw {len(raw)} layer(s) built, one alive"
        g = merged_layer(*args)
        raw.append(weakref.ref(g))
        return g

    def parse(*args, **kwargs):
        log = parse_events(*args, **kwargs)
        logs.append(weakref.ref(log))
        return log

    def build(log, *args, **kwargs):
        assert logs and logs[0]() is None, "the parsed log is alive at a layer's build"
        assert all(ref() is None for ref in built), f"{len(built)} layer log(s) built, one alive"
        assert set(ACTIONS[k] for k in log.action.tolist()) <= set(kwargs["layers"])
        built.append(weakref.ref(log))
        return build_multiplex(log, *args, **kwargs)

    def checked_write(*args):
        assert logs and logs[0]() is None, "the event log is alive at the writes"
        write(*args)

    monkeypatch.setattr(netbuild, "_merged_layer", merged)
    monkeypatch.setattr(pipeline, "parse_events", parse)
    monkeypatch.setattr(pipeline, "build_multiplex", build)
    monkeypatch.setattr(pipeline, "_write", checked_write)
    assert main(["build", "--config", write_cfg(tmp_path / "run.json", {
        "input": os.path.join(out, "events.tsv"), "schema": "tsv", "out": out})]) == 0
    assert len(raw) == len(ACTIONS) == len(built) and len(logs) == 1


def test_stage_rss_reports_each_stage_of_a_build(tmp_path):
    # tests/stage_rss.py build on the README recipe with a hashtag stoplist:
    # one line per stage before the layers, one per layer and one for the
    # whole step, with a peak that never falls
    synth_cfg, run_cfg = write_configs(tmp_path)
    assert main(["synth", "--config", synth_cfg]) == 0
    (tmp_path / "hashtags.txt").write_text("#h0\n", encoding="utf-8")
    with open(run_cfg, encoding="utf-8") as fh:
        doc = json.load(fh)
    write_cfg(run_cfg, {**doc, "stoplists": {"hashtags": str(tmp_path / "hashtags.txt")}})
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    done = subprocess.run([sys.executable, os.path.join(root, "tests", "stage_rss.py"), root,
                           run_cfg], capture_output=True, text=True, check=True)
    lines = [line.rsplit(": ", 1) for line in done.stdout.splitlines()]
    assert [label for label, _ in lines] == [
        "start", "parse_events", "apply_stoplists", "select_users",
        *[f"build_multiplex {layer}" for layer in ACTIONS], "run_build"]
    peaks = [float(value.removesuffix(" MB")) for _, value in lines]
    assert 0 < peaks[0] and peaks == sorted(peaks)


def test_stage_rss_reports_each_stage_of_a_characterize(tmp_path):
    # tests/stage_rss.py on the README recipe: one line per edge list read,
    # per node profile kernel on a whole graph, per node profile and for the
    # whole step, with a peak that never falls
    synth_cfg, run_cfg = write_configs(tmp_path)
    assert main(["synth", "--config", synth_cfg]) == 0
    assert main(["build", "--config", run_cfg]) == 0
    for mode in ("indi", "unfl-sum"):
        assert main(["detect", "--config", run_cfg, "--mode", mode]) == 0
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    done = subprocess.run(
        [sys.executable, os.path.join(root, "tests", "stage_rss.py"), root, run_cfg,
         "characterize", "--ref", "unfl-sum", "--other", "rtw"],
        capture_output=True, text=True, check=True)
    lines = [line.rsplit(": ", 1) for line in done.stdout.splitlines()]
    assert [label for label, _ in lines] == [
        "start", "read_edges_tsv edges_rtw.tsv", "read_edges_tsv edges_unfl-sum.tsv",
        *["_local_clustering", "_component_labels", "eigen", "_pagerank", "node_metrics"] * 2,
        "run_characterize"]
    peaks = [float(value.removesuffix(" MB")) for _, value in lines]
    assert 0 < peaks[0] and peaks == sorted(peaks)

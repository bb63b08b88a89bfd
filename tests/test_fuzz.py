"""End-to-end fuzz: tiny random event logs through every CLI step, in process.

Each log, TSV or JSONL, goes through build, every detect mode, compare +
characterize on two pairs, one of them multi against a layer, and report.
The JSONL logs mix in a line of every class that ingest rejects, and at
times a stoplist that empties a layer. Between two steps a study may edit
one artifact of the output directory: a row deleted or repeated, a field
or a directive line changed. The oracle: every
step exits 0, or 2 with a ``data error:`` line; none raises, so none would
end a CLI process with a traceback. Pinned examples add crash cases the generator
does not draw: a log that is not UTF-8 and a stoplist that is a directory. Once every detect mode has run, no message
asks to run detect: a scope without a partition is named as one without an
edge. A step that exits 2 leaves the output directory as it found it.
Edited artifacts of the README recipe pin the cases a log cannot make: a
partition node that its edge list lacks, a partition that covers only part
of its graph, a partition whose `# scope` line names another scope, edge
rows that the reader refuses (a self-loop, a count below 1, a weight of nan
or inf, a repeated pair, a `# layer` of another scope), edge weights that
are finite but huge, layer weights whose flattened sum no later step could
read, detection settings that overflow the multislice quality, and record
files that report cannot print.
A step refused at a write, by a directory at one of its outputs, by a write
that fails part way or by the one write point refusing, leaves the output
directory as it found it too.
A step reads every input before it computes: refused for a bad edge row, a
stoplist entry or a pair of tokens, it calls none of pipeline's compute
functions. compare and then characterize under other detection settings:
the labels characterize profiles are the labels in the file beside them,
and the pair's seven files carry characterize's config hash.
"""

import contextlib
import errno
import hashlib
import io
import json
import os
import re
import shutil
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from multicoord import pipeline  # noqa: E402
from multicoord.cli import main  # noqa: E402
from multicoord.ingest import ACTIONS  # noqa: E402
from multicoord.netbuild import MAX_WEIGHT  # noqa: E402
from multicoord.pipeline import DETECT_MODES, FLAT_SCOPES  # noqa: E402
from multicoord.reports import EDGE_HEADER, read_records  # noqa: E402
from readme_recipe import COMPARISONS, write_configs  # noqa: E402


def _config(width_hours, shift_hours, fraction, max_nodes, seed):
    return {"schema": "tsv", "width_hours": width_hours, "shift_hours": shift_hours,
            "fraction": fraction, "filter": {"max_nodes": max_nodes},
            "detection": {"seed": seed}}


# the CLI steps of a study (see _steps), and the edits of an artifact
# between two of them, with the text an edited field or directive takes
N_STEPS = 1 + len(DETECT_MODES) + 2 * 2 + 1
EDITS = ("delete a row", "repeat a row", "change a field", "change a directive")
FIELDS = ("", "x", "0", "-1", "1.5", "nan", "inf", "1e400", "9" * 30, "u0", "rtw", "multi",
          "#", "{}", "[1]")


@st.composite
def studies(draw):
    """(TSV event lines, run config, (ref, other) pairs, edit) of a tiny
    study: 1-12 users, 1-6 items, 1-5 action types and 1-80 events over up
    to two days. The edit is None or (after step, file, kind, line, field,
    text); see _edit_artifact."""
    n_users, n_items = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    actions = draw(st.lists(st.sampled_from(ACTIONS), min_size=1, max_size=5, unique=True))
    n_events, span = draw(st.integers(1, 80)), draw(st.sampled_from([3600, 6 * 3600, 48 * 3600]))
    rows = draw(st.lists(st.tuples(st.integers(0, n_users - 1), st.sampled_from(actions),
                                   st.integers(0, n_items - 1), st.integers(0, span)),
                         min_size=n_events, max_size=n_events))
    cfg = _config(draw(st.sampled_from([1.0, 6.0, 24.0])),
                  draw(st.sampled_from([0.5, 5.0, 24.0])),
                  draw(st.sampled_from([0.25, 0.5, 1.0])), draw(st.integers(1, 12)),
                  draw(st.integers(0, 3)))
    pairs = [("multi", draw(st.sampled_from(ACTIONS))),
             (draw(st.sampled_from(FLAT_SCOPES)), draw(st.sampled_from(actions)))]
    edit = draw(st.none() | st.tuples(st.integers(0, N_STEPS - 2), st.integers(0, 99),
                                      st.sampled_from(EDITS), st.integers(0, 999),
                                      st.integers(0, 9), st.sampled_from(FIELDS)))
    return [f"u{u}\t{a}\ti{i}\t{t}\n" for u, a, i, t in rows], cfg, pairs, edit


# JSONL studies draw from these: every kind of value that is no id, how the
# item layers spell an item id, and a stoplist entry that matches it
NOT_IDS = (None, True, ["u0"], {"id": 1})
ITEMS = {"hst": "#H{}", "men": "@m{}", "url": "https://s{}.example/p"}
STOPLISTS = {"hst": ("hashtags", "#h{}"), "men": ("mentions", "m{}"),
             "url": ("url_domains", "s{}.example")}


def _jsonl(user, action, item, ts):
    return json.dumps({"user": user, "action": action, "item": item, "ts": ts}) + "\n"


# a line of each class that parse_events rejects, the id classes aside
BAD_LINES = (
    "[1, 2]\n", '"u0"\n',                                      # not an object
    _jsonl("u0", "dms", "i0", 1),                               # unknown action
    _jsonl("u0", "rtw", "i0", "noon"), _jsonl("u0", "rtw", "i0", None),  # bad stamps
    '{"user": "u0", "action": "rtw", "item": "i0"}\n',          # no stamp
    # an integer stamp beyond float range and a nesting deeper than the JSON
    # decoder goes: build ended in an OverflowError and a RecursionError traceback
    '{"user": "u0", "action": "rtw", "item": "i0", "ts": ' + "9" * 400 + "}\n",
    "[" * 100_000 + "\n",
)


@st.composite
def jsonl_studies(draw):
    """(JSONL event lines, run config, (ref, other) pairs, edit, extra
    files): a study of studies() in the JSONL schema, with malformed lines
    of every class parse_events rejects among its rows, and at times a
    stoplist that lists every item of a layer."""
    tsv, cfg, pairs, edit = draw(studies())
    lines = [_jsonl(u, a, ITEMS.get(a, "{}").format(i), int(t))
             for u, a, i, t in (line.rstrip("\n").split("\t") for line in tsv)]
    lines += draw(st.lists(st.sampled_from(BAD_LINES), max_size=4))
    for field in draw(st.lists(st.sampled_from(("user", "action", "item")), max_size=2)):
        ids = {"user": "u0", "action": "rtw", "item": "i0", field: draw(st.sampled_from(NOT_IDS))}
        lines.append(_jsonl(ids["user"], ids["action"], ids["item"], 1))
    cfg, files = {**cfg, "schema": "jsonl"}, {}
    emptied = draw(st.sampled_from((None, *STOPLISTS)))
    if emptied is not None:
        key, entry = STOPLISTS[emptied]
        # studies() draws the items i0 to i5
        files["stop.txt"] = [entry.format(f"i{k}") + "\n" for k in range(6)]
        cfg["stoplists"] = {key: "stop.txt"}
    return draw(st.permutations(lines)), cfg, pairs, edit, files


def _digests(out):
    """File name -> sha256 of the files in out; directories are skipped."""
    if not os.path.isdir(out):
        return {}
    digests = {}
    for name in os.listdir(out):
        if os.path.isdir(os.path.join(out, name)):
            continue
        with open(os.path.join(out, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _steps(pairs):
    yield ("build",)
    for mode in DETECT_MODES:
        yield ("detect", "--mode", mode) + (("--layer", pairs[0][1]) if mode == "mono" else ())
    for ref, other in pairs:
        yield ("compare", "--ref", ref, "--other", other)
        yield ("characterize", "--ref", ref, "--other", other)
    yield ("report",)


def _edit_artifact(out, edit):
    """Apply a drawn edit to the file of out that ``file`` picks, in name
    order: delete or repeat the row that ``line`` picks, set the field of
    it that ``field`` picks to ``text``, or set the value of the comment
    line that ``line`` picks to ``text``. Lines starting with '#' are
    comments, the others rows, a table's header among them; a JSON line is
    a row of one field. A file without such a line is left as it is."""
    _, file, kind, line, field, text = edit
    names = sorted(_digests(out))
    if not names:
        return
    path = os.path.join(out, names[file % len(names)])
    with open(path, encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
        lines = fh.readlines()
    comment = kind == "change a directive"
    at = [k for k, t in enumerate(lines) if t.startswith("#") == comment]
    if not at:
        return
    k = at[line % len(at)]
    if kind == "delete a row":
        del lines[k]
    elif kind == "repeat a row":
        lines.insert(k, lines[k])
    elif kind == "change a field":
        fields = lines[k].rstrip("\n").split("\t")
        fields[field % len(fields)] = text
        lines[k] = "\t".join(fields) + "\n"
    else:
        key = lines[k][1:].split(maxsplit=1)[:1]
        lines[k] = " ".join(["#", *key, text]) + "\n"
    with open(path, "w", encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
        fh.writelines(lines)


def _run_study(lines, cfg, pairs, edit=None, files=None):
    """Run every step of _steps on one study, editing an artifact after the
    step that the edit names; files maps a name beside the config to its
    lines."""
    with tempfile.TemporaryDirectory() as tmp:
        events, path = os.path.join(tmp, "events"), os.path.join(tmp, "run.json")
        out = os.path.join(tmp, "out")
        # a lone surrogate escape such as \udcff writes its byte as it is
        with open(events, "w", encoding="utf-8", errors="surrogateescape") as fh:
            fh.writelines(lines)
        for name, content in (files or {}).items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.writelines(content)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**cfg, "input": events, "out": out}, fh)
        for k, argv in enumerate(_steps(pairs)):
            before = _digests(out)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([argv[0], "--config", path, *argv[1:]])
            assert code in (0, 2), (argv, code, err.getvalue())
            assert code == 0 or "data error:" in err.getvalue(), (argv, err.getvalue())
            assert "run detect" not in err.getvalue(), (argv, err.getvalue())
            if code == 2:
                assert _digests(out) == before, argv
            if edit is not None and k == edit[0]:
                _edit_artifact(out, edit)


@settings(max_examples=25, deadline=None)
@given(studies())
# no hst event, so the multi partition has no hst node to restrict to
@example(([f"u{k}\trtw\ti{k % 2}\t{k}\n" for k in range(6)], _config(6.0, 5.0, 1.0, 12, 0),
          [("multi", "hst"), ("unfl-sum", "rtw")]))
# unfl-ec against men, where one descriptor varies over the communities:
# PCA has one axis
@example(([f"u{u}\tmen\ti{i}\t{t}\n" for u, i, t in (
    (0, 1, 1041), (2, 4, 21599), (3, 4, 978), (3, 3, 156), (4, 4, 132), (6, 4, 202),
    (1, 0, 955), (5, 1, 1234), (5, 2, 17972), (6, 3, 1641))],
    _config(1.0, 5.0, 0.5, 11, 0), [("multi", "men"), ("unfl-ec", "men")]))
# a byte that is not UTF-8 in the log, and a stoplist that is a directory:
# build ended in a UnicodeDecodeError and an IsADirectoryError traceback
@example(([f"u{k}\trtw\ti{k % 2}\t{k}\n" for k in range(5)] + ["u5\trtw\ti\udcff\t5\n"],
          _config(6.0, 5.0, 1.0, 12, 0), [("multi", "rtw"), ("unfl-sum", "rtw")]))
@example(([f"u{k}\thst\ti{k % 2}\t{k}\n" for k in range(6)],
          {**_config(6.0, 5.0, 1.0, 12, 0), "stoplists": {"hashtags": "."}},
          [("multi", "hst"), ("intfl", "hst")]))
# stamps 3.4e308 apart: the span overflows to inf, and build ended in an
# OverflowError traceback counting the windows
@example((["u0\trtw\ti0\t-1.7e308\n", "u1\trtw\ti0\t5\n", "u2\trtw\ti0\t1.7e308\n"],
          _config(6.0, 5.0, 1.0, 12, 0), [("multi", "rtw"), ("unfl-sum", "rtw")]))
def test_every_cli_step_exits_0_or_2_on_tiny_logs(study):
    _run_study(*study)


@settings(max_examples=25, deadline=None)
@given(jsonl_studies())
# every reject class at once, and a stoplist that empties the hst layer
@example(([_jsonl(f"u{k}", a, ITEMS.get(a, "{}").format(f"i{k % 2}"), k)
           for k in range(6) for a in ("rtw", "hst")] + list(BAD_LINES)
          + [_jsonl(None, "rtw", "i0", 1), _jsonl("u0", True, "i0", 1),
             _jsonl("u0", "rtw", ["u0"], 1), _jsonl({"id": 1}, "rtw", "i0", 1)],
          {**_config(6.0, 5.0, 1.0, 12, 0), "schema": "jsonl",
           "stoplists": {"hashtags": "stop.txt"}},
          [("multi", "hst"), ("unfl-sum", "rtw")], None, {"stop.txt": ["#hi0\n", "hi1\n"]}))
def test_every_cli_step_exits_0_or_2_on_tiny_jsonl_logs(study):
    _run_study(*study)


@pytest.fixture(scope="module")
def recipe(tmp_path_factory):
    """The README recipe's out/ after synth, build, detect indi and unfl-sum."""
    synth_cfg, run_cfg = write_configs(tmp_path_factory.mktemp("recipe"))
    assert main(["synth", "--config", synth_cfg]) == 0
    assert main(["build", "--config", run_cfg]) == 0
    for mode in ("indi", "unfl-sum"):
        assert main(["detect", "--config", run_cfg, "--mode", mode]) == 0
    return os.path.join(os.path.dirname(run_cfg), "out")


@pytest.fixture
def edited(recipe, tmp_path):
    """(run config, out) over a copy of the recipe's out/ to edit."""
    out = str(tmp_path / "out")
    shutil.copytree(recipe, out)
    return write_configs(tmp_path)[1], out


def _refused(argv, out, capsys):
    """Run one CLI step that must exit 2 and leave out as it was; returns
    its one line of stderr."""
    before = _digests(out)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: "), err
    assert _digests(out) == before
    return err[0]


def _set_weights(path, weight, n_rows=2):
    """Give the first n_rows rows of an edge list (None: every row) the
    weight ``weight``."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    first = lines.index("\t".join(EDGE_HEADER)) + 1
    for k in range(first, len(lines) if n_rows is None else first + n_rows):
        if not lines[k]:
            continue
        cells = lines[k].split("\t")
        cells[2] = repr(weight)
        lines[k] = "\t".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
    return first + 1  # the 1-based line of the first edited row


# what a step does once it has read its inputs; parse_events is build's
# first and costliest step
COMPUTE = ("parse_events", "build_multiplex", "filter_multiplex", "louvain",
           "generalized_louvain", "flatten_union", "flatten_intersection", "overlap_matrix",
           "hungarian_match", "community_metrics", "node_metrics")


def _forbid_compute(monkeypatch):
    """Make each COMPUTE name in pipeline raise when it is called."""
    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"a refused step called {name}")
        return call

    for name in COMPUTE:
        monkeypatch.setattr(pipeline, name, forbidden(name))


def _put(lines, k, col, text):
    cells = lines[k].split("\t")
    cells[col] = text
    lines[k] = "\t".join(cells)
    return k


# edits of an edge list's lines, k the index of its first row; each returns
# the index of the line it breaks
EDGE_EDITS = {
    "self-loop": lambda lines, k: _put(lines, k, 1, lines[k].split("\t")[0]),
    "co_actions-below-1": lambda lines, k: _put(lines, k, 3, "-1"),
    "weight-nan": lambda lines, k: _put(lines, k, 2, "nan"),
    "weight-inf": lambda lines, k: _put(lines, k, 2, "inf"),
    "repeated-row": lambda lines, k: lines.insert(k + 1, lines[k]) or k + 1,
    "layer-rpl": lambda lines, k: _put(lines, lines.index("# layer rtw"), 0, "# layer rpl"),
}


def _edit_edges(path, edit):
    """Apply EDGE_EDITS[edit] to an edge list; returns the 1-based line it breaks."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    k = EDGE_EDITS[edit](lines, lines.index("\t".join(EDGE_HEADER)) + 1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
    return k + 1


def test_characterize_refuses_a_partition_node_missing_from_the_edge_list(edited, capsys):
    # characterize used to end in a ValueError traceback, exit code 1
    cfg, out = edited
    with open(os.path.join(out, "partition_rtw.tsv"), "a", encoding="utf-8") as fh:
        fh.write("ghost\t0\n")
    argv = ["--config", cfg, "--ref", "unfl-sum", "--other", "rtw"]
    assert main(["compare", *argv]) == 0
    err = _refused(["characterize", *argv], out, capsys)
    assert err == (f"data error: partition {os.path.join(out, 'partition_rtw.tsv')} does not "
                   f"fit edge list {os.path.join(out, 'edges_rtw.tsv')}: "
                   "1 members not in graph, e.g. ['ghost']")


@pytest.mark.parametrize("layer, weight, argv", [
    # fsum of the weights overflowed: an OverflowError traceback
    ("rtw", 1e308, ("--mode", "mono", "--layer", "rtw")),
    # squared community strengths overflowed: a ValueError traceback, after
    # partition_multi.tsv and a detect_multi.jsonl of one meta line were written
    ("hst", 1e200, ("--mode", "multi")),
])
def test_detect_refuses_huge_edge_weights(edited, capsys, layer, weight, argv):
    cfg, out = edited
    path = os.path.join(out, f"edges_{layer}.tsv")
    line = _set_weights(path, weight)
    err = _refused(["detect", "--config", cfg, *argv], out, capsys)
    assert err == f"data error: {path}:{line}: weight above 1e+100"


def test_detect_refuses_a_flattened_weight_above_the_cap(edited, capsys):
    # detect unfl-sum wrote the sums of capped layer weights, and then
    # characterize refused the edge list it had written, exit code 2
    cfg, out = edited
    paths = [os.path.join(out, f"edges_{layer}.tsv") for layer in ACTIONS]
    for path in paths:
        _set_weights(path, MAX_WEIGHT, None)
    detect = ["detect", "--config", cfg, "--mode"]
    err = _refused(detect + ["unfl-sum"], out, capsys)
    assert re.fullmatch(r"data error: unfl-sum: flattened weight [2-5]e\+100 above the edge "
                        r"weight cap 1e\+100", err), err
    # the other unions weigh an edge by its layers, not by their weights
    for mode in ("unfl-nw", "unfl-ec"):
        assert main(detect + [mode]) == 0
    # no recipe edge is in all five layers: give them one at the cap
    for path in paths:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"x0\tx1\t{MAX_WEIGHT!r}\t1\t1\n")
    err = _refused(detect + ["intfl"], out, capsys)
    assert err == "data error: intfl: flattened weight 5e+100 above the edge weight cap 1e+100"


@pytest.mark.parametrize("setting, value, err", [
    # Q overflowed: a ValueError traceback, after partition_multi.tsv and a
    # detect_multi.jsonl of one meta line were written
    ("gamma", 1e308, "data error: multi: modularity is -inf at gamma = 1e+308"),
    # 2mu overflowed, so no node moved: exit 0, 162 singletons and Q = -0.0
    ("omega", 1.7e308, "data error: multi: 2mu is inf at omega = 1.7e+308"),
], ids=["gamma", "omega"])
def test_detect_multi_refuses_a_setting_that_overflows_its_quality(edited, capsys, setting,
                                                                    value, err):
    cfg, out = edited
    with open(cfg, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["detection"][setting] = value
    with open(cfg, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert _refused(["detect", "--config", cfg, "--mode", "multi"], out, capsys) == err


def test_compare_refuses_a_partition_of_another_scope(edited, capsys):
    # a partition_rtw.tsv that says it holds hst was compared as rtw, exit 0
    cfg, out = edited
    path = os.path.join(out, "partition_rtw.tsv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    line = lines.index("# scope rtw") + 1
    lines[line - 1] = "# scope hst"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
    err = _refused(["compare", "--config", cfg, "--ref", "unfl-sum", "--other", "rtw"], out,
                   capsys)
    assert err == f"data error: {path}:{line}: '# scope hst' does not name scope 'rtw'"


@pytest.mark.parametrize("step", [("detect", "--mode", "mono", "--layer", "rtw"),
                                  ("detect", "--mode", "unfl-sum"),
                                  ("detect", "--mode", "multi"),
                                  ("characterize", "--ref", "unfl-sum", "--other", "rtw")],
                         ids=["mono", "unfl-sum", "multi", "characterize"])
@pytest.mark.parametrize("edit", list(EDGE_EDITS))
def test_an_edited_edge_list_is_refused_before_any_compute(edited, capsys, monkeypatch,
                                                            edit, step):
    cfg, out = edited
    if step[0] == "characterize":
        assert main(["compare", "--config", cfg, *step[1:]]) == 0
    path = os.path.join(out, "edges_rtw.tsv")
    line = _edit_edges(path, edit)
    _forbid_compute(monkeypatch)
    err = _refused([step[0], "--config", cfg, *step[1:]], out, capsys)
    assert err.startswith(f"data error: {path}:{line}: "), err


def test_a_partition_may_cover_part_of_its_graph(edited):
    cfg, out = edited
    path = os.path.join(out, "partition_rtw.tsv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    first = lines.index("user_id\tcommunity_id") + 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines[:first] + lines[first::2]))
    argv = ["--config", cfg, "--ref", "unfl-sum", "--other", "rtw"]
    assert main(["compare", *argv]) == 0
    assert main(["characterize", *argv]) == 0


def _stamp(path):
    """The config hash on an artifact's meta line or meta record."""
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
    return json.loads(first)["config_sha256"] if path.endswith(".jsonl") else first.split()[-1]


# (theta, min_size) of one step: the recipe's rtw communities have 12 to 15
# members, so from 12 on some are dropped, and from 15 on none is left
DETECTION = st.tuples(st.floats(0.0, 1.0), st.integers(0, 14))


@settings(max_examples=25, deadline=None)
@given(DETECTION, DETECTION)
# characterize at theta 0.95 after compare at 0.5 labelled a0 lost and b0
# gained, while the labels file beside it said common for both
@example((0.5, 0), (0.95, 0))
def test_characterize_profiles_the_labels_it_writes(recipe, compared, characterized):
    cid = "unfl-sum_vs_rtw"
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        shutil.copytree(recipe, out)
        with open(write_configs(tmp)[1], encoding="utf-8") as fh:
            doc = json.load(fh)
        for step, (theta, min_size) in (("compare", compared), ("characterize", characterized)):
            cfg = os.path.join(tmp, f"{step}.json")
            with open(cfg, "w", encoding="utf-8") as fh:
                json.dump({**doc, "detection": {**doc["detection"], "theta": theta,
                                                "min_size": min_size}}, fh)
            assert main([step, "--config", cfg, "--ref", "unfl-sum", "--other", "rtw"]) == 0

        def labels(stem, kind, *key):
            return {tuple(r[k] for k in key): r["label"]
                    for r in read_records(os.path.join(out, f"{stem}_{cid}.jsonl"))
                    if r["record"] == kind}

        assert (labels("community_metrics", "community_metrics", "side", "community")
                == labels("labels", "community_label", "side", "community"))
        assert (labels("node_metrics", "node_metrics", "node")
                == labels("labels", "node_label", "node"))
        # compare's two files and characterize's five, under characterize's config
        names = [f"{stem}_{cid}.tsv" for stem in ("overlap", "cosine")]
        names += [f"{stem}_{cid}.jsonl"
                  for stem in ("labels", "community_metrics", "pca", "node_metrics", "bm")]
        assert ({_stamp(os.path.join(out, name)) for name in names}
                == {pipeline.RunConfig.from_file(cfg).context().cfg_hash})


def _stoplist_without_a_host(cfg, out):
    # build parsed the whole event log before it refused the stoplist
    stop = os.path.join(os.path.dirname(cfg), "stop.txt")
    with open(stop, "w", encoding="utf-8") as fh:
        fh.write("http://\n")
    with open(cfg, encoding="utf-8") as fh:
        doc = json.load(fh)
    with open(cfg, "w", encoding="utf-8") as fh:
        json.dump({**doc, "stoplists": {"url_domains": stop}}, fh)
    return ["build"], f"stoplist {stop}: unparseable URL 'http://': no host"


def _bad_url_edge(cfg, out):
    # Louvain ran on rtw, rpl, men and hst before the url edge list was read
    path = os.path.join(out, "edges_url.tsv")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("a\tb\tnan\t1\t1\n")
    return ["detect", "--mode", "indi"], f"{path}:4: weight not finite and positive"


def _multi_against_multi(cfg, out):
    # the overlap and the match ran before characterize refused the pair
    assert main(["detect", "--config", cfg, "--mode", "multi"]) == 0
    argv = ["--ref", "multi", "--other", "multi"]
    assert main(["compare", "--config", cfg, *argv]) == 0
    return ["characterize", *argv], ("characterize needs a concrete graph per side; restrict "
                                     "multiplex partitions to a layer (multi:<layer>)")


def _bad_rtw_edge_after_compare(cfg, out):
    # the overlap and the match ran before the edge lists were read
    argv = ["--ref", "unfl-sum", "--other", "rtw"]
    assert main(["compare", "--config", cfg, *argv]) == 0
    path = os.path.join(out, "edges_rtw.tsv")
    line = _edit_edges(path, "weight-nan")
    return ["characterize", *argv], f"{path}:{line}: weight not finite and positive"


@pytest.mark.parametrize("setup", [_stoplist_without_a_host, _bad_url_edge, _multi_against_multi,
                                   _bad_rtw_edge_after_compare],
                         ids=["build", "detect-indi", "characterize-multi",
                              "characterize-edges"])
def test_a_step_refused_for_an_input_computes_nothing(edited, capsys, monkeypatch, setup):
    cfg, out = edited
    (step, *argv), err = setup(cfg, out)
    _forbid_compute(monkeypatch)
    assert _refused([step, "--config", cfg, *argv], out, capsys) == f"data error: {err}"


def _edit_records(path, edit):
    """Rewrite a JSON-lines file with edit(record) applied to each record."""
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(edit(r)) + "\n" for r in records)


@pytest.mark.parametrize("kind, field", [("partition_summary", "n_communities"),
                                         ("meta", "version")])
def test_report_refuses_a_record_without_a_field_it_prints(edited, capsys, kind, field):
    # a KeyError traceback, exit code 1
    _, out = edited
    path = os.path.join(out, "detect_indi.jsonl")
    _edit_records(path, lambda r: {k: v for k, v in r.items()
                                   if r["record"] != kind or k != field})
    err = _refused(["report", "--out", out], out, capsys)
    assert err == (f"data error: {path}: a {kind} record lacks a field or has one of the "
                   f"wrong type (KeyError({field!r}))")


def test_report_refuses_a_line_that_is_not_a_json_object(edited, capsys):
    # an AttributeError traceback, exit code 1
    _, out = edited
    path = os.path.join(out, "detect_indi.jsonl")
    with open(path, encoding="utf-8") as fh:
        n_lines = len(fh.readlines())
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("[1, 2]\n")
    err = _refused(["report", "--out", out], out, capsys)
    assert err == f"data error: {path}:{n_lines + 1}: not a JSON object"


# one study of the README recipe, a step per line
RECIPE_STEPS = (("synth",), ("build",), ("detect", "--mode", "indi"),
                ("detect", "--mode", "unfl-sum"),
                ("compare", "--ref", "unfl-sum", "--other", "rtw"),
                ("characterize", "--ref", "unfl-sum", "--other", "rtw"))


@pytest.mark.parametrize("k, last", [(0, "synth_report.jsonl"), (1, "build_report.jsonl"),
                                     (2, "detect_indi.jsonl"),
                                     (4, "labels_unfl-sum_vs_rtw.jsonl"),
                                     (5, "bm_unfl-sum_vs_rtw.jsonl")],
                         ids=["synth", "build", "detect", "compare", "characterize"])
def test_a_step_refused_at_its_last_output_writes_nothing(tmp_path, capsys, k, last):
    # compare refused at labels_<cid>.jsonl left a new overlap_<cid>.tsv, and
    # every other step the files it wrote before its last one. A fresh study
    # runs the step for the first time, so no rewrite of the same bytes hides
    # a write.
    synth_cfg, run_cfg = write_configs(tmp_path)
    argv = [[step[0], "--config", synth_cfg if step == ("synth",) else run_cfg, *step[1:]]
            for step in RECIPE_STEPS]
    for earlier in argv[:k]:
        assert main(earlier) == 0, earlier
    out = os.path.join(str(tmp_path), "out")
    os.makedirs(os.path.join(out, last))
    before = _digests(out)
    capsys.readouterr()
    assert main(argv[k]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith(f"config error: cannot write {os.path.join(out, last)}: "), err
    assert _digests(out) == before


@pytest.mark.parametrize("k", [1, 2, 5], ids=["build", "detect", "characterize"])
def test_a_step_whose_write_fails_writes_nothing(tmp_path, monkeypatch, capsys, k):
    # a full disk at a step's second file left the files before it and that
    # one truncated in out, and escaped the CLI as a traceback
    synth_cfg, run_cfg = write_configs(tmp_path)
    argv = [[step[0], "--config", synth_cfg if step == ("synth",) else run_cfg, *step[1:]]
            for step in RECIPE_STEPS]
    for earlier in argv[:k]:
        assert main(earlier) == 0, earlier
    out = os.path.join(str(tmp_path), "out")
    write, failed = pipeline._write, []

    def full_disk(path, *contents):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# multicoord")
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def second_write_fails(cfg, first, second, *rest):
        failed.append(second[0])
        write(cfg, first, (second[0], full_disk), *rest)

    monkeypatch.setattr(pipeline, "_write", second_write_fails)
    before = _digests(out)
    capsys.readouterr()
    assert main(argv[k]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"config error: cannot write {os.path.join(out, failed[0])}: "
                   f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"], err
    assert _digests(out) == before


@pytest.mark.parametrize("name", ["edges_hst.tsv", "build_report.jsonl"])
def test_a_directory_at_a_temporary_names_its_target(tmp_path, capsys, name):
    # a directory at <target>.tmp gave "cannot write <target>.tmp", while a
    # writer that failed later named <target>
    synth_cfg, run_cfg = write_configs(tmp_path)
    assert main(["synth", "--config", synth_cfg]) == 0
    out = os.path.join(str(tmp_path), "out")
    os.makedirs(os.path.join(out, name + ".tmp"))
    before, listed = _digests(out), sorted(os.listdir(out))
    capsys.readouterr()
    assert main(["build", "--config", run_cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        f"config error: cannot write {os.path.join(out, name)}: "), err
    assert _digests(out) == before and sorted(os.listdir(out)) == listed


class _Refusal(Exception):
    pass


def test_every_step_writes_through_its_one_write_point(tmp_path, monkeypatch):
    # a step that writes a file outside pipeline._write changes out here
    synth_cfg, run_cfg = write_configs(tmp_path)
    out = os.path.join(str(tmp_path), "out")
    steps = [(synth_cfg, pipeline.run_synth, ()), (run_cfg, pipeline.run_build, ())]
    steps += [(run_cfg, pipeline.run_detect, (mode, "hst") if mode == "mono" else (mode,))
              for mode in DETECT_MODES]
    steps += [(run_cfg, run, pair) for pair in COMPARISONS
              for run in (pipeline.run_compare, pipeline.run_characterize)]
    write = pipeline._write

    def refuse(cfg, *files):
        raise _Refusal

    for cfg_path, run, args in steps:
        cfg = pipeline.RunConfig.from_file(cfg_path)
        before = _digests(out)
        monkeypatch.setattr(pipeline, "_write", refuse)
        with pytest.raises(_Refusal):
            run(cfg, *args)
        assert _digests(out) == before, (run.__name__, args)
        monkeypatch.setattr(pipeline, "_write", write)
        run(cfg, *args)

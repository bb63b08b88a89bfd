"""Report files: round trips, meta stamping, canonical hashing."""

import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import edge_dict, from_pairs, read_ground_truth, unfl_sum_like
from multicoord import reports
from multicoord.community import Partition
from multicoord.compare import overlap_matrix
from multicoord.errors import DataError
from multicoord.ingest import EventLog
from multicoord.netbuild import LayerGraph
from multicoord.reports import (EDGE_HEADER, MULTIPLEX_HEADER, PARTITION_HEADER,
                                ReportContext, canonical_json, config_hash,
                                layer_stats, read_edges_tsv,
                                read_multiplex_partition_tsv,
                                read_partition_tsv, read_records,
                                write_edges_tsv, write_events_tsv,
                                write_ground_truth,
                                write_multiplex_partition_tsv,
                                write_overlap_tsv, write_partition_tsv,
                                write_records, write_table)


def edge_fixture():
    return from_pairs("rtw", [
        ("u2", "u1", 0.123456789012345678, 3, 2),
        ("u1", "u3", 1 / 3, 1, 1)])


# ---------------------------------------------------------------------------
# hashing and meta


def test_canonical_json_is_order_independent():
    a = canonical_json({"b": 1, "a": [1, 2], "c": {"y": 0.5, "x": None}})
    b = canonical_json({"c": {"x": None, "y": 0.5}, "a": [1, 2], "b": 1})
    assert a == b
    assert " " not in a


def test_config_hash_is_stable_sha256():
    h1 = config_hash({"seed": 42, "gamma": 1.0})
    h2 = config_hash({"gamma": 1.0, "seed": 42})
    assert h1 == h2
    assert len(h1) == 64 and all(c in "0123456789abcdef" for c in h1)
    assert config_hash({"seed": 43, "gamma": 1.0}) != h1


def test_config_hash_is_hashlib_sha256():
    # the builtin SHA-256 behind config_hash gives hashlib's digest on any
    # nested config, non-ASCII keys and strings included
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, strategies as st

    scalars = (st.none() | st.booleans() | st.integers()
               | st.floats(allow_nan=False, allow_infinity=False) | st.text())
    values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=4)
                          | st.dictionaries(st.text(), inner, max_size=4), max_leaves=20)

    @given(st.dictionaries(st.text(), values, max_size=6))
    @example({"größe": {"名前": ["naïve", 1.5, None, "\U0001f600"]}, "": {"é": True}})
    def check(obj):
        want = hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()
        assert config_hash(obj) == want

    check()


def test_every_file_starts_with_meta_line(tmp_path):
    h = config_hash({"x": 1})
    ctx = ReportContext("0.1.0", h)
    paths = {}
    paths["edges"] = tmp_path / "edges.tsv"
    write_edges_tsv(str(paths["edges"]), edge_fixture(), ctx)
    paths["part"] = tmp_path / "p.tsv"
    write_partition_tsv(str(paths["part"]), Partition("rtw", {"u1": 0}), ctx)
    paths["mp"] = tmp_path / "mp.tsv"
    write_multiplex_partition_tsv(str(paths["mp"]),
                                  Partition("multi", {("u1", "rtw"): 0}, omega=0.1), ctx)
    paths["overlap"] = tmp_path / "o.tsv"
    write_overlap_tsv(str(paths["overlap"]),
                      overlap_matrix({"u1": 0, "u2": 1}, {"u1": 5, "u2": 5}), ctx)
    paths["truth"] = tmp_path / "gt.tsv"
    write_ground_truth(str(paths["truth"]), Partition("rtw", {"u1": 0}), ctx)
    paths["events"] = tmp_path / "events.tsv"
    write_events_tsv(str(paths["events"]), EventLog.from_events(
        [("u1", "rtw", "t1", 1.0)], time_span=(1.0, 1.0)), ctx)
    paths["table"] = tmp_path / "t.tsv"
    write_table(str(paths["table"]), ("user_id",), [("u1",)], ctx)
    paths["rec"] = tmp_path / "r.jsonl"
    write_records(str(paths["rec"]), [{"record": "x"}], ctx)
    for name, p in paths.items():
        first = p.read_text(encoding="utf-8").splitlines()[0]
        if name == "rec":
            assert f'"config_sha256":"{h}"' in first and '"record":"meta"' in first
        else:
            assert first == f"# multicoord 0.1.0 config {h}"


# ---------------------------------------------------------------------------
# round trips


def test_edges_round_trip_exact(tmp_path):
    p = tmp_path / "edges_rtw.tsv"
    g = edge_fixture()
    write_edges_tsv(str(p), g)
    back = read_edges_tsv(str(p))
    assert back.layer == "rtw"
    assert back.nodes == g.nodes
    assert edge_dict(back) == edge_dict(g)  # repr round trip, bitwise


def test_edges_rows_are_sorted(tmp_path):
    p = tmp_path / "e.tsv"
    write_edges_tsv(str(p), edge_fixture())
    rows = [l for l in p.read_text().splitlines()
            if l and not l.startswith("#") and not l.startswith("user_a")]
    keys = [tuple(r.split("\t")[:2]) for r in rows]
    assert keys == sorted(keys)


def test_partition_round_trip(tmp_path):
    p = tmp_path / "part.tsv"
    part = Partition("unfl-sum", {"u1": 0, "u2": 0, "u3": 1}, gamma=1.4)
    write_partition_tsv(str(p), part)
    back = read_partition_tsv(str(p))
    assert back.scope == "unfl-sum"
    assert back.gamma == 1.4
    assert back.assignment == part.assignment


def test_multiplex_partition_round_trip(tmp_path):
    p = tmp_path / "mp.tsv"
    mp = Partition("multi", {("u1", "rtw"): 0, ("u1", "rpl"): 0,
                             ("u2", "rtw"): 1}, gamma=0.9, omega=0.25)
    write_multiplex_partition_tsv(str(p), mp)
    back = read_multiplex_partition_tsv(str(p))
    assert back.assignment == mp.assignment
    assert back.gamma == 0.9 and back.omega == 0.25


def test_records_round_trip(tmp_path):
    p = tmp_path / "r.jsonl"
    recs = [{"record": "layer_stats", "n_nodes": 4, "w": 0.1},
            {"record": "note", "text": "zeta"}]
    write_records(str(p), recs, ReportContext("9", "f" * 64))
    back = read_records(str(p))
    assert back[0]["record"] == "meta"
    assert back[0]["version"] == "9"
    assert back[0]["config_sha256"] == "f" * 64
    assert back[1:] == recs


def test_records_refuse_non_finite_floats(tmp_path):
    # JSON has no NaN or infinity; TSV tables refuse them too (reports._fmt)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            write_records(str(tmp_path / "r.jsonl"), [{"record": "x", "w": bad}])
    with pytest.raises(ValueError):
        config_hash({"gamma": math.nan})


def test_ground_truth_round_trip(tmp_path):
    class Truth:
        assignment = {"u3": 1, "u1": 0, "u2": 0}
    p = tmp_path / "gt.tsv"
    write_ground_truth(str(p), Truth())
    assert read_ground_truth(str(p)) == Truth.assignment


def test_overlap_tsv_layout(tmp_path):
    O = overlap_matrix({"a": 0, "b": 0, "c": 1}, {"a": 5, "b": 5, "c": 7})
    p = tmp_path / "o.tsv"
    write_overlap_tsv(str(p), O)
    lines = p.read_text().splitlines()
    assert lines[1].split("\t") == ["b_id\\a_id", "0", "1"]
    assert lines[2].split("\t")[0] == "5"
    assert float(lines[2].split("\t")[1]) == 1.0
    assert len(lines) == 2 + len(O.b_ids)


def test_hash_prefixed_ids_round_trip(tmp_path):
    # '#' marks a comment only above the column header
    g = from_pairs("rtw", [("#alice", "bob", 0.5), ("bob", "carol", 0.25)])
    write_edges_tsv(str(tmp_path / "e.tsv"), g)
    got = read_edges_tsv(str(tmp_path / "e.tsv"))
    assert got.layer == "rtw"
    assert edge_dict(got) == edge_dict(g) and got.nodes == ("#alice", "bob", "carol")

    p = Partition(scope="rtw", assignment={"#alice": 0, "bob": 0, "carol": 1},
                  gamma=0.75)
    write_partition_tsv(str(tmp_path / "p.tsv"), p)
    got_p = read_partition_tsv(str(tmp_path / "p.tsv"))
    assert got_p.assignment == p.assignment
    assert got_p.scope == "rtw" and got_p.gamma == 0.75

    mp = Partition("multi", {("#alice", "rtw"): 0, ("bob", "hst"): 1}, gamma=1.5, omega=0.25)
    write_multiplex_partition_tsv(str(tmp_path / "m.tsv"), mp)
    got_mp = read_multiplex_partition_tsv(str(tmp_path / "m.tsv"))
    assert got_mp.assignment == mp.assignment
    assert (got_mp.gamma, got_mp.omega) == (1.5, 0.25)

    class Truth:
        assignment = {"#alice": 0, "bob": 1}
    write_ground_truth(str(tmp_path / "t.tsv"), Truth)
    assert read_ground_truth(str(tmp_path / "t.tsv")) == Truth.assignment


# ---------------------------------------------------------------------------
# error handling


def test_read_errors_are_data_errors(tmp_path):
    with pytest.raises(DataError):
        read_edges_tsv(str(tmp_path / "missing.tsv"))
    bad = tmp_path / "bad.tsv"
    bad.write_text("# multicoord 0 config x\n# layer rtw\nh\nu1\tu2\n")
    with pytest.raises(DataError):
        read_edges_tsv(str(bad))
    empty_part = tmp_path / "p.tsv"
    empty_part.write_text("# multicoord 0 config x\n# scope rtw\n# gamma 1.0\nuser_id\tcommunity_id\n")
    with pytest.raises(DataError):
        read_partition_tsv(str(empty_part))
    badjson = tmp_path / "r.jsonl"
    # an integer longer than int() takes, and a nesting deeper than the
    # decoder goes, raised ValueError and RecursionError, not DataError
    for line in ("not json", "1" * 5000, "[" * 100_000, "[1, 2]"):
        badjson.write_text('{"record":"meta"}\n' + line + "\n")
        with pytest.raises(DataError, match=r"r\.jsonl:2: "):
            read_records(str(badjson))


@pytest.mark.parametrize("row, reason", [
    ("a\ta\t1.0\t1\t1", "self-loop"),
    ("b\ta\t0.7\t1\t1", "pair already seen"),
    ("a\tb\t0.7\t1\t1", "pair already seen"),
    ("a\tc\tnan\t1\t1", "weight not finite and positive"),
    ("a\tc\t-inf\t1\t1", "weight not finite and positive"),
    ("a\tc\t0.0\t1\t1", "weight not finite and positive"),
    ("a\tc\t-0.5\t1\t1", "weight not finite and positive"),
    ("a\tc\t0.5\t0\t1", "co_actions or window_count below 1"),
    ("a\tc\t0.5\t2\t-1", "co_actions or window_count below 1"),
    ("a\tc\t0.5\t1.5\t1", "not a number"),
    ("a\tc\t0.5\t99999999999999999999\t1", "count outside int64"),
    ("a\tc\t0.5\t1\t-99999999999999999999", "count outside int64"),
])
def test_bad_edge_rows_name_their_line(tmp_path, row, reason):
    p = tmp_path / "e.tsv"
    p.write_text("# multicoord 0 config x\n# layer rtw\n"
                 "user_a\tuser_b\tweight\tco_actions\twindow_count\n"
                 f"a\tb\t0.5\t1\t1\n\n{row}\nc\td\t0.5\t1\t1\n")
    with pytest.raises(DataError, match=f"e.tsv:6: {reason}"):
        read_edges_tsv(str(p))


@pytest.mark.parametrize("row, reason", [("c\td\tx\t1\t1", "not a number"),
                                         ("c\tc\t0.5\t1\t1", "self-loop")])
def test_a_bad_row_opening_a_block_names_its_own_line(tmp_path, monkeypatch, row, reason):
    # blocks of two lines: the first holds row a-b and a blank line, and the
    # bad row opens the second, read as it is or checked once all are read
    monkeypatch.setattr(reports, "_BLOCK_LINES", 2)
    p = tmp_path / "e.tsv"
    p.write_text("# multicoord 0 config x\n# layer rtw\n"
                 "user_a\tuser_b\tweight\tco_actions\twindow_count\n"
                 f"a\tb\t0.5\t1\t1\n\n{row}\nd\te\t0.5\t1\t1\n")
    with pytest.raises(DataError, match=f"e.tsv:6: {reason}"):
        read_edges_tsv(str(p))


PARTITION_HEAD = "# multicoord 0 config x\n# scope rtw\n# gamma 1.0\nuser_id\tcommunity_id\n"
MULTI_HEAD = "# multicoord 0 config x\n# gamma 1.0\n# omega 0.1\nuser_id\tlayer\tcommunity_id\n"
TRUTH_HEAD = "# multicoord 0 config x\nuser_id\tcommunity_id\n"


@pytest.mark.parametrize("reader, text, message", [
    (read_partition_tsv, PARTITION_HEAD + "u1\t0\n\nu2\tone\n",
     "p.tsv:7: community id 'one' is not an integer"),
    (read_partition_tsv, PARTITION_HEAD + "u1\t0\nu2\t1.5\n",
     "p.tsv:6: community id '1.5' is not an integer"),
    (read_partition_tsv, PARTITION_HEAD + "u1\t0\nu2\t1\nu1\t1\n",
     "p.tsv:7: user 'u1' repeated"),
    (read_partition_tsv, PARTITION_HEAD.replace("gamma 1.0", "gamma high") + "u1\t0\n",
     "p.tsv:3: gamma 'high' is not a number"),
    (read_multiplex_partition_tsv, MULTI_HEAD + "u1\trtw\t0\nu1\trpl\tx\n",
     "p.tsv:6: community id 'x' is not an integer"),
    (read_multiplex_partition_tsv, MULTI_HEAD + "u1\trtw\t0\nu1\trpl\t0\nu1\trtw\t1\n",
     "p.tsv:7: \\(user, layer\\) \\('u1', 'rtw'\\) repeated"),
    (read_multiplex_partition_tsv, MULTI_HEAD.replace("gamma 1.0", "gamma 1,5") + "u1\trtw\t0\n",
     "p.tsv:2: gamma '1,5' is not a number"),
    (read_multiplex_partition_tsv, MULTI_HEAD.replace("omega 0.1", "omega") + "u1\trtw\t0\n",
     "p.tsv:3: omega '' is not a number"),
    (read_ground_truth, TRUTH_HEAD + "u1\t0\nu2\tc7\n",
     "p.tsv:4: community id 'c7' is not an integer"),
    (read_ground_truth, TRUTH_HEAD + "u1\t0\nu1\t0\n", "p.tsv:4: user 'u1' repeated"),
], ids=["word-id", "float-id", "repeated-user", "bad-gamma", "multi-word-id",
        "multi-repeated-key", "multi-bad-gamma", "multi-empty-omega", "truth-word-id",
        "truth-repeated-user"])
def test_bad_partition_rows_name_their_line(tmp_path, reader, text, message):
    # a bad id used to escape as a bare ValueError, and a repeated key
    # silently kept its last row
    p = tmp_path / "p.tsv"
    p.write_text(text)
    with pytest.raises(DataError, match=message):
        reader(str(p))


@pytest.mark.parametrize("reader, header, text", [
    (read_edges_tsv, EDGE_HEADER, "# layer rtw\nu1\tu2\t0.5\t1\t1\nu2\tu3\t0.5\t1\t1\n"),
    (read_partition_tsv, PARTITION_HEADER, "# scope rtw\n# gamma 1.0\nu1\t0\nu2\t1\n"),
    (read_multiplex_partition_tsv, MULTIPLEX_HEADER, "# gamma 1.0\nu1\trtw\t0\nu2\trtw\t1\n"),
    (read_ground_truth, PARTITION_HEADER, "u1\t0\nu2\t1\n"),
], ids=["edges", "partition", "multiplex-partition", "ground-truth"])
def test_headerless_tables_are_refused(tmp_path, reader, header, text):
    # the first row used to be taken for the header and dropped without a word
    p = tmp_path / "p.tsv"
    p.write_text("# multicoord 0 config x\n" + text)
    line = 2 + text.count("#")
    first = text.split("\n")[text.count("#")]
    expected = "\t".join(header)
    with pytest.raises(DataError, match=re.escape(
            f"p.tsv:{line}: expected the header {expected!r}, got {first!r}")):
        reader(str(p))
    p.write_text("# multicoord 0 config x\n" + "".join(l + "\n" for l in text.split("\n")
                                                      if l.startswith("#")))
    with pytest.raises(DataError, match=re.escape(f"p.tsv: missing the header {expected!r}")):
        reader(str(p))


def test_edge_read_allocates_a_bounded_multiple_of_the_file(tmp_path):
    # ~20k rows shaped like a 1.2k-user unfl-sum edge list; the row reader
    # peaked at ~18x the file's size, the column reader ~11x, and the block
    # reader, whose rows are in place once read, ~2.3x
    g = unfl_sum_like(1500, 20_000)
    p = tmp_path / "edges_unfl-sum.tsv"
    write_edges_tsv(str(p), g)
    size = p.stat().st_size
    tracemalloc.start()
    try:
        back = read_edges_tsv(str(p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert edge_dict(back) == edge_dict(g)
    assert peak < 3 * size, f"read peaked at {peak / size:.1f}x the file's {size} bytes"


def test_edge_write_allocates_a_fraction_of_the_file(tmp_path):
    # 60k rows over 3k nodes; writing every column as a Python list first
    # peaked at ~3.3x the file's size, and a block of rows at a time ~0.08x
    g = unfl_sum_like(3000, 60_000)
    p = tmp_path / "edges_unfl-sum.tsv"
    tracemalloc.start()
    try:
        write_edges_tsv(str(p), g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = p.stat().st_size
    assert edge_dict(read_edges_tsv(str(p))) == edge_dict(g)
    assert peak <= 0.25 * size, f"write peaked at {peak / size:.2f}x the file's {size} bytes"


def test_non_finite_values_refused(tmp_path):
    g = LayerGraph("rtw", ("a", "b"), np.array([0]), np.array([1]), np.array([np.nan]),
                   np.array([1]), np.array([1]))
    with pytest.raises(ValueError):
        write_edges_tsv(str(tmp_path / "x.tsv"), g)


def test_numpy_floats_serialize_as_plain_floats(tmp_path):
    g = from_pairs("rtw", [("a", "b", np.float64(0.5))])
    p = tmp_path / "np.tsv"
    write_edges_tsv(str(p), g)
    body = p.read_text()
    assert "np.float64" not in body and "0.5" in body
    assert read_edges_tsv(str(p)).weight.tolist() == [0.5]


# ---------------------------------------------------------------------------
# stats and context


def test_layer_stats_components():
    g = from_pairs("rtw", [("a", "b", 1.0), ("b", "c", 0.5),
                                      ("x", "y", 2.0)])
    rec = layer_stats(g)
    assert rec["record"] == "layer_stats"
    assert rec["n_nodes"] == 5 and rec["n_edges"] == 3
    assert rec["n_components"] == 2
    assert rec["total_weight"] == pytest.approx(3.5)
    g.nodes += ("z",)  # an isolated node is a component of its own
    assert layer_stats(g)["n_components"] == 3
    assert layer_stats(LayerGraph("rtw"))["n_components"] == 0


def test_report_context_stamps_hash(tmp_path):
    ctx = ReportContext(version="0.1.0", cfg_hash="a" * 64)
    p = tmp_path / "e.tsv"
    write_edges_tsv(str(p), edge_fixture(), ctx)
    assert p.read_text().splitlines()[0].endswith("a" * 64)

"""Event parsing, normalization, stoplists, and actor selection."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from multicoord.cli import main
from multicoord.errors import DataError
from multicoord.ingest import (ACTIONS, ActionEvent, EventLog, StopLists,
                               apply_stoplists, extract_domain, load_stoplist,
                               parse_events, select_users)
from multicoord.reports import ReportContext, write_events_tsv


# ---------------------------------------------------------------------------
# domain extraction


@pytest.mark.parametrize("url,domain", [
    ("https://www.Example.COM/path?q=1", "example.com"),
    ("http://sub.example.org:8080/x", "sub.example.org"),
    ("example.net/page", "example.net"),
    ("//cdn.example.io/asset.js", "cdn.example.io"),
    ("bbc.co.uk", "bbc.co.uk"),
    ("https://example.com", "example.com"),
])
def test_extract_domain(url, domain):
    assert extract_domain(url) == domain


def test_extract_domain_idempotent():
    d = extract_domain("https://www.News.Site.com/a/b?c=d#e")
    assert extract_domain(d) == d


@pytest.mark.parametrize("bad", ["", "   ", "https://"])
def test_extract_domain_rejects(bad):
    with pytest.raises(ValueError):
        extract_domain(bad)


# ---------------------------------------------------------------------------
# parsing


def _write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for r in rows:
            fh.write(json.dumps(r) + "\n")


def test_parse_jsonl_sorted_and_normalized(tmp_path):
    p = tmp_path / "events.jsonl"
    _write_jsonl(p, [
        {"user": "u2", "action": "hst", "item": "#MAGA", "ts": 20.0},
        {"user": "u1", "action": "rtw", "item": "t1", "ts": 10.0},
        {"user": "u3", "action": "men", "item": "@alice", "ts": 15.0},
        {"user": "u4", "action": "url", "item": "https://www.Example.com/a", "ts": 5.0},
    ])
    log = parse_events(p, schema="jsonl")
    assert [e.timestamp for e in log.events] == [5.0, 10.0, 15.0, 20.0]
    by_action = {e.action: e for e in log.events}
    assert by_action["hst"].item_id == "maga"
    assert by_action["men"].item_id == "alice"
    assert by_action["url"].item_id == "example.com"
    assert by_action["rtw"].item_id == "t1"
    assert log.rejects == ()
    assert log.time_span == (5.0, 20.0)


def test_parse_tsv_and_rejects(tmp_path):
    p = tmp_path / "events.tsv"
    p.write_text(
        "# a comment line\n"
        "u1\trtw\tt1\t100\n"
        "\n"
        "u2\tnope\tt1\t101\n"          # unknown action
        "u3\trpl\tt2\tnot-a-time\n"    # bad timestamp
        "u4\trpl\t\t102\n"             # empty item
        "u5\trpl\tt3\t103\n",
        encoding="utf-8")
    log = parse_events(p, schema="tsv")
    assert [e.user_id for e in log.events] == ["u1", "u5"]
    assert [r.line_no for r in log.rejects] == [4, 5, 6]


def test_parse_tsv_hash_prefixed_user_is_a_row(tmp_path):
    # a '#' line is a comment only when it has no tab; one with a tab is a
    # row, and a malformed one is rejected, not skipped
    p = tmp_path / "events.tsv"
    p.write_text("#erin\trtw\tA\t1.0\nbob\trtw\tA\t2.0\n", encoding="utf-8")
    log = parse_events(p, schema="tsv")
    assert [e.user_id for e in log.events] == ["#erin", "bob"]
    assert log.rejects == ()
    p.write_text("# comment\n#erin\trtw\nbob\trtw\tA\t2.0\n", encoding="utf-8")
    log = parse_events(p, schema="tsv")
    assert [e.user_id for e in log.events] == ["bob"]
    assert [r.line_no for r in log.rejects] == [2]


def test_events_tsv_round_trip_keeps_hash_prefixed_ids(tmp_path):
    log = EventLog.from_events([("#erin", "rtw", "t1", 1.0), ("bob", "hst", "tag", 2.5),
                                ("#", "men", "x", 3.0)], time_span=(1.0, 3.0))
    p = tmp_path / "events.tsv"
    write_events_tsv(str(p), log, ReportContext("0", "abc"))
    back = parse_events(p, schema="tsv")
    assert back.events == log.events
    assert back.rejects == ()


def test_parse_rejects_control_characters_in_ids(tmp_path):
    p = tmp_path / "e.jsonl"
    _write_jsonl(p, [
        {"user": "al\tice", "action": "rtw", "item": "t1", "ts": 1.0},
        {"user": "bob", "action": "rtw", "item": "t\n1", "ts": 2.0},
        {"user": "car\x7fol", "action": "rtw", "item": "t1", "ts": 3.0},
        {"user": "dave", "action": "men", "item": "@x\x85y", "ts": 4.0},
        {"user": "#erin", "action": "rtw", "item": "t1", "ts": 5.0},
        {"user": "fr\u00e9d", "action": "rtw", "item": "t1", "ts": 6.0},
    ])
    log = parse_events(p, schema="jsonl")
    assert [e.user_id for e in log.events] == ["#erin", "fr\u00e9d"]
    assert [r.line_no for r in log.rejects] == [1, 2, 3, 4]
    assert all("control character" in r.reason for r in log.rejects)


def test_parse_jsonl_refuses_values_that_are_no_ids(tmp_path):
    # str() would turn these into the ids "None", "True", "['a']" and "none"
    p = tmp_path / "e.jsonl"
    p.write_text(
        '{"user": null, "action": "rtw", "item": "t1", "ts": 1}\n'
        '{"user": true, "action": "rtw", "item": "t1", "ts": 2}\n'
        '{"user": ["a"], "action": "rtw", "item": "t1", "ts": 3}\n'
        '{"user": "u1", "action": {"a": 1}, "item": "t1", "ts": 4}\n'
        '{"user": "u1", "action": "hst", "item": null, "ts": 5}\n'
        '{"user": 42, "action": "rtw", "item": 7, "ts": 6}\n'
        '[1, 2, 3]\n'
        '"u1"\n', encoding="utf-8")
    log = parse_events(p)
    assert log.events == (("42", "rtw", "7", 6.0),)
    tail = ", expected a string or a number"
    assert [(r.line_no, r.reason) for r in log.rejects] == [
        (1, "user is a JSON null" + tail), (2, "user is a JSON boolean" + tail),
        (3, "user is a JSON array" + tail), (4, "action is a JSON object" + tail),
        (5, "item is a JSON null" + tail), (7, "expected a JSON object, got list"),
        (8, "expected a JSON object, got str")]


def _log_with_crash_lines(path):
    """Three good JSONL rows, and between them an integer stamp beyond float
    range and a line nested deeper than the JSON decoder goes (lines 2, 4)."""
    path.write_text(
        '{"user": "u1", "action": "rtw", "item": "t1", "ts": 1}\n'
        '{"user": "u9", "action": "rtw", "item": "t1", "ts": ' + "9" * 400 + '}\n'
        '{"user": "u2", "action": "rtw", "item": "t1", "ts": 2}\n'
        + "[" * 100_000 + "\n"
        '{"user": "u3", "action": "rtw", "item": "t2", "ts": 3}\n', encoding="utf-8")
    return path


def test_parse_jsonl_rejects_a_stamp_beyond_floats_and_a_line_too_deep(tmp_path):
    # each ended build in a traceback: OverflowError, RecursionError
    log = parse_events(_log_with_crash_lines(tmp_path / "e.jsonl"))
    assert [e.user_id for e in log.events] == ["u1", "u2", "u3"]
    assert [r.line_no for r in log.rejects] == [2, 4]
    assert "too large to convert to float" in log.rejects[0].reason
    assert "recursion" in log.rejects[1].reason


def test_build_keeps_the_good_rows_around_such_lines(tmp_path):
    _log_with_crash_lines(tmp_path / "e.jsonl")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"input": "e.jsonl", "schema": "jsonl", "out": "out"}))
    assert main(["build", "--config", str(cfg)]) == 0
    with open(tmp_path / "out" / "actors.tsv", encoding="utf-8") as fh:
        assert fh.read().splitlines()[1:] == ["user_id", "u1", "u2", "u3"]


def test_parse_iso_timestamps(tmp_path):
    p = tmp_path / "e.jsonl"
    _write_jsonl(p, [
        {"user": "u1", "action": "rtw", "item": "t", "ts": "1970-01-01T00:00:10Z"},
        {"user": "u2", "action": "rtw", "item": "t", "ts": "1970-01-01T00:00:20"},
        {"user": "u3", "action": "rtw", "item": "t", "ts": "1970-01-01T00:00:30+00:00"},
    ])
    log = parse_events(p)
    assert [e.timestamp for e in log.events] == [10.0, 20.0, 30.0]


def test_parse_unknown_schema(tmp_path):
    with pytest.raises(ValueError):
        parse_events(tmp_path / "x", schema="csv")


def test_parse_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError):
        parse_events(tmp_path / "absent.jsonl")


# ---------------------------------------------------------------------------
# EventLog invariants


def test_time_span_must_cover_events():
    ev = ActionEvent("u", "rtw", "t", 100.0)
    with pytest.raises(ValueError):
        EventLog.from_events((ev,), time_span=(0.0, 50.0))
    log = EventLog.from_events((ev,), time_span=(0.0, 200.0))
    assert log.time_span == (0.0, 200.0)


def test_empty_log_has_no_span():
    assert EventLog(()).time_span is None
    with pytest.raises(ValueError):
        EventLog((), time_span=(0.0, 1.0))


@pytest.mark.parametrize("stamps,row", [([math.nan, 1.0, 2.0], 0), ([1.0, math.nan, 2.0], 1),
                                        ([1.0, 2.0, math.inf], 2), ([-math.inf, 1.0], 0),
                                        ([5.0, 1.0, math.nan], 2)])
def test_non_finite_timestamp_names_its_row(stamps, row):
    # a nan or inf stamp anywhere would give a span that no window grid
    # covers, and the build would drop events without a word
    events = [(f"u{k}", "rtw", "t", t) for k, t in enumerate(stamps)]
    with pytest.raises(ValueError, match=f"^event row {row}: timestamp .* is not finite$"):
        EventLog.from_events(events)


def test_event_log_allocates_its_columns_only():
    # 20 B a row for the four columns; the span takes no per-row objects
    n = 100_000
    codes, ts = np.zeros(n, np.int32), np.arange(n, dtype=np.float64)
    tracemalloc.start()
    try:
        log = EventLog(codes, codes, codes, ts, ("u",), ("t",))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert log.time_span == (0.0, n - 1.0)
    bound = 24 * n + (1 << 16)
    assert peak < bound, f"EventLog of {n} rows peaked at {peak} bytes, bound {bound}"


def test_parse_events_peak_is_its_columns_and_one_gather(tmp_path):
    # rows out of time order: the parse's growing columns, the sorted codes,
    # one argsort and the log's gathered columns, about 53 B a row; a parse
    # that also sorts its own columns before handing them over peaks near 78
    n = 100_000
    rng = np.random.default_rng(7)
    stamps = rng.uniform(0.0, 1e6, n).tolist()
    path = tmp_path / "events.tsv"
    path.write_text("".join(f"u{u}\t{ACTIONS[a]}\ti{i}\t{t!r}\n" for u, a, i, t in zip(
        rng.integers(0, 1000, n).tolist(), rng.integers(0, 5, n).tolist(),
        rng.integers(0, 2000, n).tolist(), stamps)), encoding="utf-8")
    tracemalloc.start()
    try:
        log = parse_events(path, schema="tsv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert log.ts.tolist() == sorted(stamps)
    bound = 60 * n
    assert peak < bound, f"parse of {n} rows peaked at {peak} bytes, bound {bound}"


# ---------------------------------------------------------------------------
# stoplists


def _log(*rows):
    return EventLog.from_events(rows)


def test_apply_stoplists_filters_only_item_layers():
    log = _log(
        ("u1", "hst", "spamtag", 1.0),
        ("u1", "hst", "keep", 2.0),
        ("u2", "men", "bot", 3.0),
        ("u2", "men", "alice", 4.0),
        ("u3", "url", "spam.example", 5.0),
        ("u3", "rtw", "spamtag", 6.0),   # rtw items never stoplisted
        ("u3", "rpl", "bot", 7.0),
    )
    stop = StopLists.from_sets(hashtags=["#SpamTag"], mentions=["@bot"],
                               url_domains=["www.Spam.Example"])
    out = apply_stoplists(log, stop)
    kept = [(e.action, e.item_id) for e in out.events]
    assert kept == [("hst", "keep"), ("men", "alice"),
                    ("rtw", "spamtag"), ("rpl", "bot")]
    # idempotent and span-preserving
    again = apply_stoplists(out, stop)
    assert again.events == out.events
    assert out.time_span == log.time_span


def test_apply_stoplists_keeps_span_when_boundary_dropped():
    log = _log(("u1", "hst", "edge", 0.0), ("u2", "rtw", "t", 50.0))
    out = apply_stoplists(log, StopLists.from_sets(hashtags=["edge"]))
    assert len(out.events) == 1
    assert out.time_span == (0.0, 50.0)


def test_load_stoplist(tmp_path):
    p = tmp_path / "stop.txt"
    p.write_text("alpha\n\n  beta  \n", encoding="utf-8")
    assert load_stoplist(p) == ("alpha", "beta")


# ---------------------------------------------------------------------------
# actor selection


def test_select_users_top_fraction_per_action():
    rows = []
    # rtw activity: u1 x3, u2 x2, u3 x1, u4 x1 -> top 50% = ceil(2) = 2 users
    for i, n in (("u1", 3), ("u2", 2), ("u3", 1), ("u4", 1)):
        rows += [(i, "rtw", f"t{k}", float(k)) for k in range(n)]
    # rpl activity: u5 only
    rows.append(("u5", "rpl", "t9", 9.0))
    actors = select_users(_log(*rows), 0.5)
    assert actors.per_action_top["rtw"] == {"u1", "u2"}
    assert actors.per_action_top["rpl"] == {"u5"}
    assert actors.actors == {"u1", "u2", "u5"}


def test_select_users_tie_break_is_lexicographic():
    rows = [("ub", "rtw", "t1", 1.0), ("ua", "rtw", "t2", 2.0),
            ("uc", "rtw", "t3", 3.0)]
    actors = select_users(_log(*rows), 1 / 3)
    assert actors.per_action_top["rtw"] == {"ua"}


def test_select_users_validates_fraction():
    log = _log(("u1", "rtw", "t", 1.0))
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            select_users(log, bad)
    # an empty log has no actor in any layer
    assert select_users(EventLog(()), 0.5).per_action_top == {a: frozenset() for a in ACTIONS}


def test_actions_constant():
    assert ACTIONS == ("rtw", "rpl", "men", "hst", "url")
    assert math.isfinite(ActionEvent("u", "rtw", "t", 1.0).timestamp)

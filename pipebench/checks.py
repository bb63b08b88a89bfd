"""Output checks behind ``failed``: each subcommand's artifacts are read
back with the benchmark's own parsers, not the program's.

A check returns a list of problems; an empty list means the operation
succeeded.
"""

from __future__ import annotations

import json
import math
import os
import re
from collections import Counter

from workloads import LAYERS

_META_TSV = re.compile(r"^# multicoord \S+ config [0-9a-f]{64}$")
_SHA = re.compile(r"^[0-9a-f]{64}$")


def _first_line(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.readline().rstrip("\n")


def meta_problem(path: str) -> str | None:
    """None if ``path`` exists and starts with its version + config-hash
    stamp: a `# multicoord <version> config <sha256>` line for tables, a
    meta record for JSON lines.
    """
    if not os.path.exists(path):
        return f"missing {os.path.basename(path)}"
    first = _first_line(path)
    if path.endswith(".jsonl"):
        try:
            rec = json.loads(first)
        except json.JSONDecodeError:
            rec = {}
        ok = rec.get("record") == "meta" and _SHA.match(str(rec.get("config_sha256", "")))
    else:
        ok = _META_TSV.match(first)
    return None if ok else f"{os.path.basename(path)} lacks its meta line"


def table_rows(path: str) -> list:
    """Rows of a multicoord table: `#` lines before the column header are
    comments; every line after it is a row.
    """
    rows = []
    with open(path, encoding="utf-8") as fh:
        header_seen = False
        for line in fh:
            line = line.rstrip("\n")
            if not header_seen:
                header_seen = not line.startswith("#")
                continue
            rows.append(line.split("\t"))
    return rows


def records(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def edge_nodes(out: str, scope: str) -> set:
    return {u for row in table_rows(os.path.join(out, f"edges_{scope}.tsv")) for u in row[:2]}


def partition(out: str, scope: str) -> dict:
    return {row[0]: row[1] for row in table_rows(os.path.join(out, f"partition_{scope}.tsv"))}


def _stamped(out: str, names) -> list:
    return [p for p in (meta_problem(os.path.join(out, n)) for n in names) if p]


def _coverage(out: str, scope: str) -> list:
    """Every node of edges_<scope>.tsv is in partition_<scope>.tsv."""
    nodes = edge_nodes(out, scope)
    if not nodes:
        return []
    problems = _stamped(out, [f"partition_{scope}.tsv"])
    if problems:
        return problems
    lost = nodes - partition(out, scope).keys()
    return [f"{len(lost)} nodes of edges_{scope}.tsv missing from its partition, "
            f"e.g. {sorted(lost)[:3]}"] if lost else []


def check_build(out: str) -> list:
    return _stamped(out, [f"edges_{layer}.tsv" for layer in LAYERS]
                    + ["actors.tsv", "build_report.jsonl"])


def check_detect(out: str, mode: str) -> list:
    problems = _stamped(out, [f"detect_{mode}.jsonl"])
    if mode == "indi":
        for layer in LAYERS:
            problems += _coverage(out, layer)
    elif mode == "multi":
        problems += _stamped(out, ["partition_multi.tsv"])
        if not problems:
            rows = table_rows(os.path.join(out, "partition_multi.tsv"))
            covered = {(row[0], row[1]) for row in rows}
            for layer in LAYERS:
                lost = {u for u in edge_nodes(out, layer) if (u, layer) not in covered}
                if lost:
                    problems.append(f"{len(lost)} nodes of edges_{layer}.tsv missing from "
                                    f"partition_multi.tsv, e.g. {sorted(lost)[:3]}")
    else:
        problems += _stamped(out, [f"edges_{mode}.tsv"]) or _coverage(out, mode)
    return problems


def comparison_id(ref: str, other: str) -> str:
    return f"{ref}_vs_{other}".replace(":", "-")


def check_compare(out: str, ref: str, other: str) -> list:
    cid = comparison_id(ref, other)
    problems = _stamped(out, [f"overlap_{cid}.tsv", f"labels_{cid}.jsonl"])
    if problems:
        return problems
    summary = next((r for r in records(os.path.join(out, f"labels_{cid}.jsonl"))
                    if r.get("record") == "comparison_summary"), None)
    if summary is None:
        return [f"labels_{cid}.jsonl has no comparison_summary"]
    c = summary["communities"]
    if c["lost"] + c["common"] != summary["k_a"] or c["common"] + c["gained"] != summary["k_b"]:
        problems.append(f"{cid}: lost/common/gained {c['lost']}/{c['common']}/{c['gained']} "
                        f"do not add up to k_a={summary['k_a']}, k_b={summary['k_b']}")
    return problems


def check_characterize(out: str, ref: str, other: str) -> list:
    cid = comparison_id(ref, other)
    return _stamped(out, [f"community_metrics_{cid}.jsonl", f"cosine_{cid}.tsv",
                          f"pca_{cid}.jsonl", f"node_metrics_{cid}.jsonl", f"bm_{cid}.jsonl"])


def check(out: str, argv: tuple) -> list:
    """Problems with the artifacts of one subcommand, given its arguments."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    if argv[0] == "build":
        return check_build(out)
    if argv[0] == "detect":
        return check_detect(out, opts["--mode"])
    if argv[0] == "compare":
        return check_compare(out, opts["--ref"], opts["--other"])
    return check_characterize(out, opts["--ref"], opts["--other"])


def read_truth(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split("\t") for line in fh if line.strip())


def nmi(p1: dict, p2: dict) -> float:
    """2 I / (H1 + H2) over the nodes both assignments cover."""
    shared = p1.keys() & p2.keys()
    n = len(shared)
    if not n:
        return 0.0
    joint = Counter((p1[u], p2[u]) for u in shared)
    c1 = Counter(p1[u] for u in shared)
    c2 = Counter(p2[u] for u in shared)
    h1 = -math.fsum(k / n * math.log(k / n) for k in c1.values())
    h2 = -math.fsum(k / n * math.log(k / n) for k in c2.values())
    if h1 + h2 == 0.0:
        return 0.0
    mi = math.fsum(k / n * math.log(n * k / (c1[a] * c2[b])) for (a, b), k in joint.items())
    return 2.0 * mi / (h1 + h2)

"""File formats for pipeline artifacts.

Everything is line-oriented text: tab-separated tables for edge lists,
partitions, ground truth, and overlap matrices, JSON lines for structured
records. Every file starts with a comment line carrying the toolkit
version and the config hash, and writers sort rows, so identical inputs
produce byte-identical files. Floats are written with repr (shortest
round-trip form); no timestamps appear in report bodies.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
from dataclasses import dataclass

from .errors import DataError
from .community import MultiplexPartition, Partition
from .netbuild import EdgeRowError, LayerGraph

logger = logging.getLogger(__name__)

UNHASHED = "unhashed"


def canonical_json(obj) -> str:
    """Stable JSON encoding: sorted keys, no whitespace variation."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def config_hash(cfg_obj) -> str:
    """sha256 of the canonical JSON form of a config mapping."""
    return hashlib.sha256(canonical_json(cfg_obj).encode("utf-8")).hexdigest()


def _meta_line(version: str, cfg_hash: str) -> str:
    return f"# multicoord {version} config {cfg_hash}\n"


def _open_out(path: str):
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n")


def _fmt(x) -> str:
    if isinstance(x, float):  # incl. numpy float subclasses
        if not math.isfinite(x):
            raise ValueError(f"non-finite value in report: {x}")
        return repr(float(x))
    return str(x)


def write_edges_tsv(path: str, g: LayerGraph, version: str = "0",
                    cfg_hash: str = UNHASHED) -> None:
    """`user_a  user_b  weight  co_actions  window_count`, sorted rows."""
    with _open_out(path) as fh:
        fh.write(_meta_line(version, cfg_hash))
        fh.write(f"# layer {g.layer}\n")
        fh.write("user_a\tuser_b\tweight\tco_actions\twindow_count\n")
        names = g.nodes
        rows = zip(g.u.tolist(), g.v.tolist(), g.weight.tolist(), g.co_actions.tolist(),
                   g.window_count.tolist())
        fh.writelines(f"{names[a]}\t{names[b]}\t{_fmt(w)}\t{co}\t{wc}\n"
                      for a, b, w, co, wc in rows)


def _tsv_rows(path: str, what: str, n_cols: int, directives: dict) -> tuple[list, list]:
    """(line numbers, fields) of the data rows of a written table.

    Blank lines are skipped. Before the column header, lines starting with
    '#' are comments; a `# key value` comment is stored as directives[key] =
    value. From the header on, every line is a row, so ids that start with
    '#' read back intact.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    # split on newlines only: str.splitlines also breaks ids at U+2028 and the like
    lines = text.split("\n")
    kept = [k for k, line in enumerate(lines) if line.strip()]
    head = next((i for i, k in enumerate(kept) if not lines[k].startswith("#")), len(kept))
    for k in kept[:head]:
        key, _, value = lines[k][1:].strip().partition(" ")
        directives[key] = value.strip()
    body = kept[head + 1:]
    rows = [lines[k].split("\t") for k in body]
    if set(map(len, rows)) - {n_cols}:
        k, parts = next((k, p) for k, p in zip(body, rows) if len(p) != n_cols)
        raise DataError(f"{path}:{k + 1}: expected {n_cols} columns, got {len(parts)}")
    return [k + 1 for k in body], rows


def read_edges_tsv(path: str) -> LayerGraph:
    """Read an edge list; a row no LayerGraph holds (see from_pairs) is a
    DataError naming its line."""
    directives: dict = {}
    line_nos, rows = _tsv_rows(path, "edge list", 5, directives)
    layer = directives.get("layer")
    if layer is None:
        raise DataError(f"{path}: missing '# layer' line")
    try:
        return LayerGraph.from_pairs(layer, rows)
    except EdgeRowError as exc:
        raise DataError(f"{path}:{line_nos[exc.row]}: {exc.reason}") from exc


def write_partition_tsv(path: str, p: Partition, version: str = "0",
                        cfg_hash: str = UNHASHED) -> None:
    with _open_out(path) as fh:
        fh.write(_meta_line(version, cfg_hash))
        fh.write(f"# scope {p.scope}\n")
        fh.write(f"# gamma {_fmt(float(p.gamma))}\n")
        fh.write("user_id\tcommunity_id\n")
        for user in sorted(p.assignment):
            fh.write(f"{user}\t{p.assignment[user]}\n")


def read_partition_tsv(path: str) -> Partition:
    directives: dict = {}
    assignment = {user: int(comm) for user, comm
                  in _tsv_rows(path, "partition", 2, directives)[1]}
    scope = directives.get("scope")
    if scope is None:
        raise DataError(f"{path}: missing '# scope' line")
    if not assignment:
        raise DataError(f"{path}: empty partition")
    return Partition(scope=scope, assignment=assignment,
                     gamma=float(directives.get("gamma", 1.0)))


def write_multiplex_partition_tsv(path: str, p: MultiplexPartition, version: str = "0",
                                  cfg_hash: str = UNHASHED) -> None:
    with _open_out(path) as fh:
        fh.write(_meta_line(version, cfg_hash))
        fh.write(f"# gamma {_fmt(float(p.gamma))}\n")
        fh.write(f"# omega {_fmt(float(p.omega))}\n")
        fh.write("user_id\tlayer\tcommunity_id\n")
        for (user, layer) in sorted(p.assignment):
            fh.write(f"{user}\t{layer}\t{p.assignment[(user, layer)]}\n")


def read_multiplex_partition_tsv(path: str) -> MultiplexPartition:
    directives: dict = {}
    assignment = {(user, layer): int(comm) for user, layer, comm
                  in _tsv_rows(path, "multiplex partition", 3, directives)[1]}
    if not assignment:
        raise DataError(f"{path}: empty multiplex partition")
    return MultiplexPartition(assignment=assignment,
                              gamma=float(directives.get("gamma", 1.0)),
                              omega=float(directives.get("omega", 0.1)))


def write_overlap_tsv(path: str, O, version: str = "0", cfg_hash: str = UNHASHED) -> None:
    """Matrix with B communities as rows, A communities as columns."""
    with _open_out(path) as fh:
        fh.write(_meta_line(version, cfg_hash))
        fh.write("b_id\\a_id\t" + "\t".join(str(a) for a in O.a_ids) + "\n")
        for bi, b_id in enumerate(O.b_ids):
            row = "\t".join(_fmt(float(x)) for x in O.values[bi])
            fh.write(f"{b_id}\t{row}\n")


def write_records(path: str, records, version: str = "0",
                  cfg_hash: str = UNHASHED) -> None:
    """JSON-lines file; first record is the meta record."""
    with _open_out(path) as fh:
        fh.write(canonical_json({"record": "meta", "version": version,
                                 "config_sha256": cfg_hash}) + "\n")
        for rec in records:
            fh.write(canonical_json(rec) + "\n")


def read_records(path: str) -> list:
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read records {path}: {exc}") from exc
    with fh:
        out = []
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{line_no}: bad JSON: {exc}") from exc
        return out


def write_ground_truth(path: str, truth, version: str = "0",
                       cfg_hash: str = UNHASHED) -> None:
    """`user_id  community_id`, planted users only, sorted."""
    with _open_out(path) as fh:
        fh.write(_meta_line(version, cfg_hash))
        fh.write("user_id\tcommunity_id\n")
        for user in sorted(truth.assignment):
            fh.write(f"{user}\t{truth.assignment[user]}\n")


def read_ground_truth(path: str) -> dict:
    return {user: int(comm) for user, comm in _tsv_rows(path, "ground truth", 2, {})[1]}


def write_events_tsv(path: str, log, version: str = "0",
                     cfg_hash: str = UNHASHED) -> None:
    """Standard 4-column event file: user, action, item, timestamp."""
    with _open_out(path) as fh:
        fh.write(_meta_line(version, cfg_hash))
        fh.writelines(f"{u}\t{a}\t{i}\t{_fmt(t)}\n"
                      for u, a, i, t in zip(log.user, log.action, log.item, log.ts.tolist()))


def _n_components(g: LayerGraph) -> int:
    """Number of connected components, isolated nodes included; 0 for a
    graph without nodes. A union-find with path halving over the edge rows."""
    parent = list(range(g.n_nodes))
    count = g.n_nodes
    for a, b in zip(g.u.tolist(), g.v.tolist()):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            parent[a] = b
            count -= 1
    return count


def layer_stats(g: LayerGraph) -> dict:
    """One summary record per layer graph."""
    return {
        "record": "layer_stats",
        "layer": g.layer,
        "n_nodes": g.n_nodes,
        "n_edges": g.n_edges,
        "total_weight": g.total_weight(),
        "n_components": _n_components(g),
    }


@dataclass(frozen=True)
class ReportContext:
    """Version + config hash stamped into every written file."""

    version: str
    cfg_hash: str

    def edges(self, path, g):
        write_edges_tsv(path, g, self.version, self.cfg_hash)

    def partition(self, path, p):
        write_partition_tsv(path, p, self.version, self.cfg_hash)

    def multiplex_partition(self, path, p):
        write_multiplex_partition_tsv(path, p, self.version, self.cfg_hash)

    def overlap(self, path, O):
        write_overlap_tsv(path, O, self.version, self.cfg_hash)

    def records(self, path, records):
        write_records(path, records, self.version, self.cfg_hash)

    def ground_truth(self, path, truth):
        write_ground_truth(path, truth, self.version, self.cfg_hash)

    def events(self, path, log):
        write_events_tsv(path, log, self.version, self.cfg_hash)

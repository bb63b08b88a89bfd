"""File formats for pipeline artifacts.

Everything is line-oriented text: tab-separated tables for edge lists,
partitions, ground truth, overlap matrices and the pipeline's other
tables, JSON lines for structured records. Every file starts with a
comment line carrying the run's stamp: a ReportContext of the toolkit
version and the config hash, which every writer takes as its ``ctx``
argument (UNSTAMPED by default). Writers sort rows, so identical inputs
produce byte-identical files. One writer, write_table, lays out every
table: the meta line, `# key value` directives, the header and the rows.
Floats are written with repr (shortest round-trip form); no timestamps
appear in report bodies. The readers name the `path:line` of the first
row or directive they cannot take.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
from dataclasses import dataclass

from .errors import DataError, reading
from .community import Partition
from .netbuild import EdgeRowError, LayerGraph, _component_labels

logger = logging.getLogger(__name__)


def canonical_json(obj) -> str:
    """Stable JSON encoding: sorted keys, no whitespace variation, no NaN."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True,
                      allow_nan=False)


def config_hash(cfg_obj) -> str:
    """sha256 of the canonical JSON form of a config mapping."""
    return hashlib.sha256(canonical_json(cfg_obj).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ReportContext:
    """Version + config hash stamped into every written file."""

    version: str
    cfg_hash: str


UNSTAMPED = ReportContext("0", "unhashed")


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


def write_table(path: str, header, rows, ctx: ReportContext = UNSTAMPED, *,
                directives=()) -> None:
    """Write a table in the one artifact format: the meta line, a
    `# key value` line per directive, the header if there is one, then the
    rows. Header and rows are sequences of formatted fields, joined by tabs.
    """
    with _open_out(path) as fh:
        fh.write(f"# multicoord {ctx.version} config {ctx.cfg_hash}\n")
        fh.writelines(f"# {key} {value}\n" for key, value in directives)
        if header:
            fh.write("\t".join(header) + "\n")
        fh.writelines("\t".join(row) + "\n" for row in rows)


def write_edges_tsv(path: str, g: LayerGraph, ctx: ReportContext = UNSTAMPED) -> None:
    """`user_a  user_b  weight  co_actions  window_count`, sorted rows."""
    name = g.nodes.__getitem__
    rows = zip(map(name, g.u.tolist()), map(name, g.v.tolist()), map(_fmt, g.weight.tolist()),
               map(str, g.co_actions.tolist()), map(str, g.window_count.tolist()))
    write_table(path, ("user_a", "user_b", "weight", "co_actions", "window_count"), rows, ctx,
                directives=[("layer", g.layer)])


def _tsv_rows(path: str, what: str, n_cols: int) -> tuple[dict, list, list]:
    """(directives, line numbers, fields) of a written table.

    Blank lines are skipped. Before the column header, lines starting with
    '#' are comments; a `# key value` comment is stored as directives[key] =
    (line number, value). From the header on, every line is a row, so ids
    that start with '#' read back intact.
    """
    with reading(path, what) as fh:
        text = fh.read()
    # split on newlines only: str.splitlines also breaks ids at U+2028 and the like
    lines = text.split("\n")
    kept = [k for k, line in enumerate(lines) if line.strip()]
    head = next((i for i, k in enumerate(kept) if not lines[k].startswith("#")), len(kept))
    directives = {}
    for k in kept[:head]:
        key, _, value = lines[k][1:].strip().partition(" ")
        directives[key] = (k + 1, value.strip())
    body = kept[head + 1:]
    rows = [lines[k].split("\t") for k in body]
    if set(map(len, rows)) - {n_cols}:
        k, parts = next((k, p) for k, p in zip(body, rows) if len(p) != n_cols)
        raise DataError(f"{path}:{k + 1}: expected {n_cols} columns, got {len(parts)}")
    return directives, [k + 1 for k in body], rows


def _number(path: str, directives: dict, key: str, default: float) -> float:
    """The `# key value` directive as a float, default if absent; a value
    that is not a number is a DataError naming its line."""
    line, value = directives.get(key, (None, default))
    try:
        return float(value)
    except ValueError:
        raise DataError(f"{path}:{line}: {key} {value!r} is not a number") from None


def _assignment(path: str, line_nos: list, rows: list, what: str) -> dict:
    """key -> community id from rows of key fields and a community id; a
    repeated key or an id that is not an integer is a DataError naming its
    line. A key of one field is that field, else the tuple of them."""
    out = {}
    for line, (*key, comm) in zip(line_nos, rows):
        key = key[0] if len(key) == 1 else tuple(key)
        if key in out:
            raise DataError(f"{path}:{line}: {what} {key!r} repeated")
        try:
            out[key] = int(comm)
        except ValueError:
            raise DataError(f"{path}:{line}: community id {comm!r} is not an integer") from None
    return out


def read_edges_tsv(path: str, layer: str | None = None) -> LayerGraph:
    """Read an edge list; a row no LayerGraph holds (see from_pairs) is a
    DataError naming its line, and so is a `# layer` line that does not
    name ``layer`` when one is given."""
    directives, line_nos, rows = _tsv_rows(path, "edge list", 5)
    if "layer" not in directives:
        raise DataError(f"{path}: missing '# layer' line")
    line, name = directives["layer"]
    if layer is not None and name != layer:
        raise DataError(f"{path}:{line}: '# layer {name}' does not name scope {layer!r}")
    try:
        return LayerGraph.from_pairs(name, rows)
    except EdgeRowError as exc:
        raise DataError(f"{path}:{line_nos[exc.row]}: {exc.reason}") from exc


def write_partition_tsv(path: str, p: Partition, ctx: ReportContext = UNSTAMPED) -> None:
    write_table(path, ("user_id", "community_id"),
                ((user, str(p.assignment[user])) for user in sorted(p.assignment)), ctx,
                directives=[("scope", p.scope), ("gamma", _fmt(float(p.gamma)))])


def read_partition_tsv(path: str) -> Partition:
    directives, line_nos, rows = _tsv_rows(path, "partition", 2)
    assignment = _assignment(path, line_nos, rows, "user")
    if "scope" not in directives:
        raise DataError(f"{path}: missing '# scope' line")
    if not assignment:
        raise DataError(f"{path}: empty partition")
    return Partition(scope=directives["scope"][1], assignment=assignment,
                     gamma=_number(path, directives, "gamma", 1.0))


def write_multiplex_partition_tsv(path: str, p: Partition, ctx: ReportContext = UNSTAMPED) -> None:
    write_table(path, ("user_id", "layer", "community_id"),
                ((*key, str(p.assignment[key])) for key in sorted(p.assignment)), ctx,
                directives=[("gamma", _fmt(float(p.gamma))), ("omega", _fmt(float(p.omega)))])


def read_multiplex_partition_tsv(path: str) -> Partition:
    directives, line_nos, rows = _tsv_rows(path, "multiplex partition", 3)
    assignment = _assignment(path, line_nos, rows, "(user, layer)")
    if not assignment:
        raise DataError(f"{path}: empty multiplex partition")
    return Partition("multi", assignment, gamma=_number(path, directives, "gamma", 1.0),
                     omega=_number(path, directives, "omega", 0.1))


def write_overlap_tsv(path: str, O, ctx: ReportContext = UNSTAMPED) -> None:
    """Matrix with B communities as rows, A communities as columns."""
    rows = ((str(b_id), *map(_fmt, row)) for b_id, row in zip(O.b_ids, O.values.tolist()))
    write_table(path, ("b_id\\a_id", *map(str, O.a_ids)), rows, ctx)


def write_records(path: str, records, ctx: ReportContext = UNSTAMPED) -> None:
    """JSON-lines file; first record is the meta record."""
    with _open_out(path) as fh:
        fh.write(canonical_json({"record": "meta", "version": ctx.version,
                                 "config_sha256": ctx.cfg_hash}) + "\n")
        for rec in records:
            fh.write(canonical_json(rec) + "\n")


def read_records(path: str) -> list:
    with reading(path, "records") as fh:
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


def write_ground_truth(path: str, truth, ctx: ReportContext = UNSTAMPED) -> None:
    """`user_id  community_id`, planted users only, sorted."""
    write_table(path, ("user_id", "community_id"),
                ((user, str(truth.assignment[user])) for user in sorted(truth.assignment)), ctx)


def read_ground_truth(path: str) -> dict:
    return _assignment(path, *_tsv_rows(path, "ground truth", 2)[1:], "user")


def write_events_tsv(path: str, log, ctx: ReportContext = UNSTAMPED) -> None:
    """Standard 4-column event file: user, action, item, timestamp."""
    write_table(path, (), zip(*log.decoded(), map(_fmt, log.ts.tolist())), ctx)


def _n_components(g: LayerGraph) -> int:
    """Number of connected components, isolated nodes included; 0 for a
    graph without nodes."""
    return int(_component_labels(g.n_nodes, g.u, g.v).max(initial=-1)) + 1


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

"""File formats for pipeline artifacts.

Everything is line-oriented text: tab-separated tables for edge lists,
partitions, ground truth, overlap matrices and the pipeline's other
tables, JSON lines for structured records. Every file starts with a
comment line carrying the run's stamp: a ReportContext of the toolkit
version and the config hash, which every writer takes as its ``ctx``
argument (UNSTAMPED by default). Writers sort rows, so identical inputs
produce byte-identical files. One writer, write_table, lays out every
table: the meta line, `# key value` directives, the header and the rows.
Floats are written with repr (shortest round-trip form), after one
finiteness check per array; no timestamps appear in report bodies. One
reader, _tsv_columns, reads every table back as one list of text fields
per column. It checks that the header is the writer's, so a file without
one loses no row, and the readers name the `path:line` of the first row
or directive they cannot take.

The config hash is CPython's builtin SHA-256 (_sha2 from 3.12, _sha256
before), as the stdlib's random does for SHA-512: hashlib would load
OpenSSL's _hashlib, about 3.6 MB in every CLI process, for one digest of
a few hundred bytes. hashlib.sha256 is the fallback on an interpreter
built without the builtin module.
"""

from __future__ import annotations

import errno
import json
import logging
import os
from dataclasses import dataclass
from itertools import compress, repeat
from typing import Callable

import numpy as np

from .errors import ConfigError, DataError, reading
from .community import Partition
from .netbuild import EdgeRowError, LayerGraph, _component_labels

try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

logger = logging.getLogger(__name__)


def canonical_json(obj) -> str:
    """Stable JSON encoding: sorted keys, no whitespace variation, no NaN."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True,
                      allow_nan=False)


def config_hash(cfg_obj) -> str:
    """sha256 of the canonical JSON form of a config mapping."""
    return _sha256(canonical_json(cfg_obj).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ReportContext:
    """Version + config hash stamped into every written file."""

    version: str
    cfg_hash: str


UNSTAMPED = ReportContext("0", "unhashed")

EDGE_HEADER = ("user_a", "user_b", "weight", "co_actions", "window_count")
PARTITION_HEADER = ("user_id", "community_id")  # ground truth too
MULTIPLEX_HEADER = ("user_id", "layer", "community_id")


def _check_out(path: str) -> None:
    """Make the directory of ``path`` and check that no directory is at
    ``path``. A path that cannot be written, say under a file or at a
    directory, is a ConfigError naming it: the run asked for an output
    place that does not work."""
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        if os.path.isdir(path):  # what open() would raise there
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _finite(values) -> list:
    """The numbers of an array (or a number) as Python values, after one
    check that every one is finite: no report holds NaN or infinity."""
    values = np.asarray(values)
    bad = ~np.isfinite(values)
    if bad.any():
        raise ValueError(f"non-finite value in report: {values[bad][0]}")
    return values.tolist()


def write_table(path: str, header, rows, ctx: ReportContext = UNSTAMPED, *,
                directives=()) -> None:
    """Write a table in the one artifact format: the meta line, a
    `# key value` line per directive, the header if there is one, then the
    rows. Header and rows are sequences of formatted fields, joined by tabs.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# multicoord {ctx.version} config {ctx.cfg_hash}\n")
        fh.writelines(f"# {key} {value}\n" for key, value in directives)
        if header:
            fh.write("\t".join(header) + "\n")
        fh.writelines("\t".join(row) + "\n" for row in rows)


def write_edges_tsv(path: str, g: LayerGraph, ctx: ReportContext = UNSTAMPED) -> None:
    """`user_a  user_b  weight  co_actions  window_count`, sorted rows."""
    name = g.nodes.__getitem__
    rows = zip(map(name, g.u.tolist()), map(name, g.v.tolist()), map(repr, _finite(g.weight)),
               map(str, g.co_actions.tolist()), map(str, g.window_count.tolist()))
    write_table(path, EDGE_HEADER, rows, ctx, directives=[("layer", g.layer)])


def _tsv_columns(path: str, what: str,
                 header: tuple) -> tuple[dict, list[list[str]], Callable[[int], int]]:
    """(directives, columns, line) of a written table: the body as one list
    of text fields per header column, and line(k), the line number of body
    row k, to name a row once a check has failed.

    Blank lines are skipped. Before the column header, lines starting with
    '#' are comments; a `# key value` comment is stored as directives[key] =
    (line number, value). The first other line must be ``header``. From
    there on, every line is a row, so ids that start with '#' read back
    intact, and each row has one field per header column.
    """
    with reading(path, what) as fh:
        text = fh.read()
    # split on newlines only: str.splitlines also breaks ids at U+2028 and the like
    lines = text.split("\n")
    del text
    expected = "\t".join(header)
    directives = {}
    for head, line in enumerate(lines):
        if not line.strip():
            continue
        if not line.startswith("#"):
            break
        key, _, value = line[1:].strip().partition(" ")
        directives[key] = (head + 1, value.strip())
    else:
        raise DataError(f"{path}: missing the header {expected!r}")
    if lines[head] != expected:
        raise DataError(f"{path}:{head + 1}: expected the header {expected!r}, "
                        f"got {lines[head]!r}")
    body = lines[head + 1:]
    del lines
    n_cols = len(header)
    kept = np.fromiter(map(bool, map(str.strip, body)), bool, len(body))
    tabs = np.fromiter(map(str.count, body, repeat("\t")), np.int64, len(body))
    wrong = kept & (tabs != n_cols - 1)
    if wrong.any():
        k = int(np.argmax(wrong))
        raise DataError(f"{path}:{head + 2 + k}: expected {n_cols} columns, got {tabs[k] + 1}")
    joined = "\t".join(compress(body, kept.tolist()))
    del body  # the fields hold the text from here on
    fields = joined.split("\t") if kept.any() else []
    del joined
    return (directives, [fields[c::n_cols] for c in range(n_cols)],
            lambda k: head + 2 + int(np.flatnonzero(kept)[k]))


def _number(path: str, directives: dict, key: str, default: float) -> float:
    """The `# key value` directive as a float, default if absent; a value
    that is not a number is a DataError naming its line."""
    line, value = directives.get(key, (None, default))
    try:
        return float(value)
    except ValueError:
        raise DataError(f"{path}:{line}: {key} {value!r} is not a number") from None


def _assignment(path: str, columns: list, line: Callable[[int], int], what: str) -> dict:
    """key -> community id from key columns and a community id column; a
    repeated key or an id that is not an integer is a DataError naming its
    line. A key of one field is that field, else the tuple of them."""
    *key_columns, comms = columns
    keys = key_columns[0] if len(key_columns) == 1 else zip(*key_columns)
    out = {}
    for k, (key, comm) in enumerate(zip(keys, comms)):
        if key in out:
            raise DataError(f"{path}:{line(k)}: {what} {key!r} repeated")
        try:
            out[key] = int(comm)
        except ValueError:
            raise DataError(f"{path}:{line(k)}: community id {comm!r} is not an integer") from None
    return out


def _scope_name(path: str, directives: dict, key: str, scope: str | None) -> str:
    """The name on a table's `# key` line; a missing line is a DataError,
    and so is a name other than ``scope`` when one is given, naming its
    line: a file read for one scope holds that scope."""
    if key not in directives:
        raise DataError(f"{path}: missing '# {key}' line")
    line, name = directives[key]
    if scope is not None and name != scope:
        raise DataError(f"{path}:{line}: '# {key} {name}' does not name scope {scope!r}")
    return name


def read_edges_tsv(path: str, layer: str | None = None) -> LayerGraph:
    """Read an edge list; a row no LayerGraph holds (see from_columns) is a
    DataError naming its line, and so is a `# layer` line that does not
    name ``layer`` when one is given."""
    directives, columns, line_of = _tsv_columns(path, "edge list", EDGE_HEADER)
    name = _scope_name(path, directives, "layer", layer)
    try:
        return LayerGraph.from_columns(name, *columns)
    except EdgeRowError as exc:
        raise DataError(f"{path}:{line_of(exc.row)}: {exc.reason}") from exc


def write_partition_tsv(path: str, p: Partition, ctx: ReportContext = UNSTAMPED) -> None:
    write_table(path, PARTITION_HEADER,
                ((user, str(p.assignment[user])) for user in sorted(p.assignment)), ctx,
                directives=[("scope", p.scope), ("gamma", repr(_finite(float(p.gamma))))])


def read_partition_tsv(path: str, scope: str | None = None) -> Partition:
    """Read a partition; a `# scope` line that does not name ``scope``
    when one is given is a DataError naming its line, as for edge lists."""
    directives, columns, line = _tsv_columns(path, "partition", PARTITION_HEADER)
    assignment = _assignment(path, columns, line, "user")
    name = _scope_name(path, directives, "scope", scope)
    if not assignment:
        raise DataError(f"{path}: empty partition")
    return Partition(scope=name, assignment=assignment,
                     gamma=_number(path, directives, "gamma", 1.0))


def write_multiplex_partition_tsv(path: str, p: Partition, ctx: ReportContext = UNSTAMPED) -> None:
    write_table(path, MULTIPLEX_HEADER,
                ((*key, str(p.assignment[key])) for key in sorted(p.assignment)), ctx,
                directives=[("gamma", repr(_finite(float(p.gamma)))),
                            ("omega", repr(_finite(float(p.omega))))])


def read_multiplex_partition_tsv(path: str) -> Partition:
    directives, columns, line = _tsv_columns(path, "multiplex partition", MULTIPLEX_HEADER)
    assignment = _assignment(path, columns, line, "(user, layer)")
    if not assignment:
        raise DataError(f"{path}: empty multiplex partition")
    return Partition("multi", assignment, gamma=_number(path, directives, "gamma", 1.0),
                     omega=_number(path, directives, "omega", 0.1))


def write_overlap_tsv(path: str, O, ctx: ReportContext = UNSTAMPED) -> None:
    """Matrix with B communities as rows, A communities as columns."""
    rows = ((str(b_id), *map(repr, row)) for b_id, row in zip(O.b_ids, _finite(O.values)))
    write_table(path, ("b_id\\a_id", *map(str, O.a_ids)), rows, ctx)


def write_records(path: str, records, ctx: ReportContext = UNSTAMPED) -> None:
    """JSON-lines file; first record is the meta record."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(canonical_json({"record": "meta", "version": ctx.version,
                                 "config_sha256": ctx.cfg_hash}) + "\n")
        for rec in records:
            fh.write(canonical_json(rec) + "\n")


def read_records(path: str) -> list[dict]:
    """The records of a JSON-lines file, blank lines skipped; a line that
    is not a JSON object is a DataError naming its line."""
    with reading(path, "records") as fh:
        out = []
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            # ValueError also covers an integer of more digits than int() takes,
            # RecursionError a nesting deeper than the decoder goes
            except (ValueError, RecursionError) as exc:
                raise DataError(f"{path}:{line_no}: bad JSON: {exc}") from exc
            if not isinstance(rec, dict):
                raise DataError(f"{path}:{line_no}: not a JSON object")
            out.append(rec)
        return out


def write_ground_truth(path: str, truth, ctx: ReportContext = UNSTAMPED) -> None:
    """`user_id  community_id`, planted users only, sorted."""
    write_table(path, PARTITION_HEADER,
                ((user, str(truth.assignment[user])) for user in sorted(truth.assignment)), ctx)


def write_events_tsv(path: str, log, ctx: ReportContext = UNSTAMPED) -> None:
    """Standard 4-column event file: user, action, item, timestamp."""
    write_table(path, (), zip(*log.decoded(), map(repr, _finite(log.ts))), ctx)


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

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
finiteness check per array; no timestamps appear in report bodies. The
edge writer formats and writes _BLOCK_LINES rows at a time, so a write
holds one block of text at a time. One reader, _tsv_columns, reads every
table back in blocks of _BLOCK_LINES lines and hands each block's rows to
its caller as one list of text fields per column, so a read holds one
block of text at a time too. The edge reader turns each block's numbers
into arrays and its endpoint names into codes in order of first sight,
which are renumbered to the sorted names once the file is read; the graph
is built from those arrays by LayerGraph.from_codes. The reader checks
that the header is the writer's, so a file without one loses no row, and
the readers name the `path:line` of the first row or directive they
cannot take, whichever block holds it.

A partition file is its scope and its assignment: a `# scope` line (none
for "multi") and one row per node. synth's planted truth is written as
the partition of scope "truth". The settings a partition was detected
with live in detect's partition_summary records and the config hash; a
`# key value` line that no reader takes, such as the `# gamma` and
`# omega` lines of older partition files, is ignored.

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
from bisect import bisect_right
from itertools import compress, count, filterfalse, islice, repeat
from typing import Callable

import numpy as np

from .errors import ConfigError, DataError, RowError, reading
from .community import Partition
from .ingest import _sorted_vocab
from .netbuild import EdgeRowError, LayerGraph, _component_labels, _edge_numbers

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
PARTITION_HEADER = ("user_id", "community_id")  # the planted truth too, as scope "truth"
MULTIPLEX_HEADER = ("user_id", "layer", "community_id")

_BLOCK_LINES = 1 << 10  # lines a table reader or the edge writer holds at a time


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


def _check_finite(values) -> np.ndarray:
    """An array (or a number) as an array, after one check that every value
    is finite: no report holds NaN or infinity."""
    values = np.asarray(values)
    if not np.isfinite(values).all():
        raise ValueError(f"non-finite value in report: {values[~np.isfinite(values)][0]}")
    return values


def _finite(values) -> list:
    """The values of _check_finite as Python numbers."""
    return _check_finite(values).tolist()


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
    """`user_a  user_b  weight  co_actions  window_count`, sorted rows,
    formatted _BLOCK_LINES rows at a time once every weight is finite."""
    _check_finite(g.weight)
    name = g.nodes.__getitem__

    def rows():
        for at in range(0, g.n_edges, _BLOCK_LINES):
            block = slice(at, at + _BLOCK_LINES)
            yield from zip(map(name, g.u[block].tolist()), map(name, g.v[block].tolist()),
                           map(repr, g.weight[block].tolist()),
                           map(str, g.co_actions[block].tolist()),
                           map(str, g.window_count[block].tolist()))

    write_table(path, EDGE_HEADER, rows(), ctx, directives=[("layer", g.layer)])


def _tsv_columns(path: str, what: str, header: tuple,
                 take: Callable[[list, int], None]) -> tuple[dict, Callable[[int], int],
                                                            DataError | None]:
    """Read a written table in blocks of _BLOCK_LINES lines, handing each
    block's rows to take(columns, row): one list of text fields per header
    column, and the index of the block's first row. Returns (directives,
    line, error): line(k) is the line number of row k, to name a row once
    a check has failed, and error the DataError for the first row that take
    refused with a RowError, or None. take sees no row after that one.

    Lines split at '\n' after open's newline translation, never at U+2028
    and the like. Blank lines are skipped. Before the column header, lines
    starting with '#' are comments; a `# key value` comment is stored as
    directives[key] = (line number, value). The first other line must be
    ``header``. From there on, every line is a row, so ids that start with
    '#' read back intact, and each row has one field per header column: the
    first that has not is a DataError raised once it is read, before any
    refused row is named.
    """
    expected, n_cols = "\t".join(header), len(header)
    directives = {}
    blanks = []  # per blank line among the rows, the number of rows before it
    refused, row = None, 0  # (row, reason) of the first row that take refused
    with reading(path, what) as fh:
        for head, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if not line.startswith("#"):
                break
            key, _, value = line[1:].strip().partition(" ")
            directives[key] = (head, value.strip())
        else:
            raise DataError(f"{path}: missing the header {expected!r}")
        if line != expected:
            raise DataError(f"{path}:{head}: expected the header {expected!r}, got {line!r}")
        first = head + 1  # the line number of row 0
        start = first  # the line number of the block's first line
        while lines := list(map(str.rstrip, islice(fh, _BLOCK_LINES), repeat("\n"))):
            n = len(lines)
            kept = np.fromiter(map(bool, map(str.strip, lines)), bool, n)
            tabs = np.fromiter(map(str.count, lines, repeat("\t")), np.int64, n)
            wrong = kept & (tabs != n_cols - 1)
            if wrong.any():
                k = int(np.argmax(wrong))
                raise DataError(f"{path}:{start + k}: expected {n_cols} columns, "
                                f"got {tabs[k] + 1}")
            blank = np.flatnonzero(~kept)
            blanks += (row + blank - np.arange(blank.size)).tolist()
            if refused is None and blank.size < n:
                fields = "\t".join(compress(lines, kept.tolist())).split("\t")
                try:
                    take([fields[c::n_cols] for c in range(n_cols)], row)
                except RowError as exc:
                    refused = row + exc.row, exc.reason
            row += n - blank.size
            start += n

    def line(k: int) -> int:
        return first + k + bisect_right(blanks, k)

    error = None if refused is None else DataError(f"{path}:{line(refused[0])}: {refused[1]}")
    return directives, line, error


def _assignment(path: str, what: str, header: tuple, key_what: str) -> tuple[dict, dict]:
    """(directives, assignment) of a table of key columns and a community
    id column: key -> community id, in row order. A repeated key or an id
    that is not an integer is a DataError naming its line. A key of one
    field is that field, else the tuple of them."""
    out = {}

    def take(columns, row):
        *key_columns, comms = columns
        keys = key_columns[0] if len(key_columns) == 1 else zip(*key_columns)
        for k, (key, comm) in enumerate(zip(keys, comms)):
            if key in out:
                raise RowError(k, f"{key_what} {key!r} repeated")
            try:
                out[key] = int(comm)
            except ValueError:
                raise RowError(k, f"community id {comm!r} is not an integer") from None

    directives, _, error = _tsv_columns(path, what, header, take)
    if error is not None:
        raise error
    return directives, out


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
    """Read an edge list; a row no LayerGraph holds (see from_codes) is a
    DataError naming its line, and so is a `# layer` line that does not
    name ``layer`` when one is given.

    Each block's numbers become arrays through the float and int of
    _edge_numbers, and its endpoint names codes in order of first sight;
    the codes are renumbered to the sorted names once the file is read."""
    code: dict[str, int] = {}  # endpoint name -> code in order of first sight
    blocks = []  # per block: endpoint codes, weights, co_actions, window counts

    def codes(names: list) -> np.ndarray:
        # the block's names in order of first sight, those not yet coded
        # numbered on from the codes given so far
        code.update(zip(filterfalse(code.__contains__, dict.fromkeys(names)), count(len(code))))
        return np.fromiter(map(code.__getitem__, names), np.int64, len(names))

    def take(columns, row):
        a, b, *numbers = columns
        blocks.append([*_edge_numbers(*numbers), codes(a), codes(b)])

    directives, line_of, error = _tsv_columns(path, "edge list", EDGE_HEADER, take)
    name = _scope_name(path, directives, "layer", layer)
    if error is not None:
        raise error
    # one column at a time, each block's part dropped once it is copied
    columns = []
    for c, dtype in enumerate((float, np.int64, np.int64, np.int64, np.int64)):
        columns.append(np.concatenate([np.zeros(0, dtype), *(blk[c] for blk in blocks)]))
        for blk in blocks:
            blk[c] = None
    del blocks
    w, co, wc, a, b = columns
    del columns
    nodes, rank = _sorted_vocab(code, np.int64)
    a, b = rank[a], rank[b]
    try:
        return LayerGraph.from_codes(name, nodes, a, b, w, co, wc)
    except EdgeRowError as exc:
        raise DataError(f"{path}:{line_of(exc.row)}: {exc.reason}") from exc


def write_partition_tsv(path: str, p: Partition, ctx: ReportContext = UNSTAMPED) -> None:
    """`user_id  community_id` under a `# scope` line, sorted: a scope's
    partition, or synth's planted truth as scope "truth"."""
    write_table(path, PARTITION_HEADER,
                ((user, str(p.assignment[user])) for user in sorted(p.assignment)), ctx,
                directives=[("scope", p.scope)])


def read_partition_tsv(path: str, scope: str | None = None) -> Partition:
    """Read a partition; a `# scope` line that does not name ``scope``
    when one is given is a DataError naming its line, as for edge lists."""
    directives, assignment = _assignment(path, "partition", PARTITION_HEADER, "user")
    name = _scope_name(path, directives, "scope", scope)
    if not assignment:
        raise DataError(f"{path}: empty partition")
    return Partition(scope=name, assignment=assignment)


def write_multiplex_partition_tsv(path: str, p: Partition, ctx: ReportContext = UNSTAMPED) -> None:
    write_table(path, MULTIPLEX_HEADER,
                ((*key, str(p.assignment[key])) for key in sorted(p.assignment)), ctx)


def read_multiplex_partition_tsv(path: str) -> Partition:
    _, assignment = _assignment(path, "multiplex partition", MULTIPLEX_HEADER, "(user, layer)")
    if not assignment:
        raise DataError(f"{path}: empty multiplex partition")
    return Partition("multi", assignment)


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

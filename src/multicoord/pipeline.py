"""Batch orchestration: config file -> artifact directory.

A run configuration is a JSON document; unknown keys are rejected at every
level so typos fail loudly instead of silently using defaults. Each stage
reads the previous stage's files from the output directory, which makes
stages restartable and the whole pipeline a plain function of (config,
seed): two runs with the same effective config produce byte-identical
artifacts.

One comparison is computed in one place, _compare. compare runs it and
writes its overlap and labels files; characterize runs it too, writes the
same two files under its own config and profiles those labels. So compare
is characterize's first half, not its prerequisite, and no step reads a
labels file back.

Each step has one shape: it reads every input, then computes on objects,
then writes all its files together at its end through _write. A step
refused for an input or an approach token computes nothing, and a step
that is refused, with a data error, an output place that does not work or
a write that fails, leaves the directory as it found it.

Approach tokens name community structures when comparing:

    rtw rpl men hst url    per-layer partitions
    unfl-nw unfl-ec unfl-sum intfl    flattened partitions
    multi    the multiplex partition (auto-restricted when the other
             side is a single layer or multi:<layer>)
    multi:<layer>    explicit restriction

_sides resolves both tokens of a pair in one place, for compare and
characterize alike: it parses them, applies the restrict-first rule and
only then reads a partition, and it gives each side's graph scope, the
graph characterize reads that side's metrics from.

The reference side of a comparison is the B side: lost communities are
those of the baseline A that the reference no longer detects, gained ones
are new in the reference.
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
import os
from collections import Counter
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import __version__
from .errors import ConfigError, DataError, reading
from .ingest import (ACTIONS, EVENT_SCHEMAS, StopLists, apply_stoplists,
                     load_stoplist, parse_events, select_users)
from .netbuild import MAX_WEIGHT, LayerGraph, MultiplexNetwork, build_multiplex, window_coverage
from .filternet import FilterConfig, filter_multiplex
from .community import (UNION_STRATEGIES, Partition, flatten_intersection,
                        flatten_union, generalized_louvain, louvain, modularity,
                        multislice_modularity, restrict_to_layer)
from .compare import (hungarian_match, label_communities, label_nodes, nmi,
                      overlap_matrix, actor_coverage, edge_coverage,
                      pearson_degree_correlation, COMMON, GAINED, LOST)
from .characterize import (COMMUNITY_METRIC_NAMES, NODE_METRIC_NAMES, GraphCSR,
                           brunner_munzel, community_metrics, metric_cosine,
                           node_metrics, pca_project, significance_band)
from .errors import UndefinedMetricError
from .synth import SynthConfig, check_hours, check_seed, generate
from . import reports

logger = logging.getLogger(__name__)

DETECT_MODES = ("mono", "indi", "unfl-nw", "unfl-ec", "unfl-sum", "multi", "intfl")
FLAT_SCOPES = tuple(f"unfl-{s}" for s in UNION_STRATEGIES) + ("intfl",)


def _check_keys(d, allowed, where: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _typed(v, ftype: str, where: str):
    """A JSON value checked against a field's declared type. JSON has one
    number type, so an int field refuses 1.5 and true, and a float field
    takes only a finite number, stored as a float so 1 and 1.0 hash alike.
    """
    if v is None:
        if ftype.endswith(" | None"):
            return None
        raise ConfigError(f"{where} must not be null")
    base = ftype.removesuffix(" | None")
    if base == "int" and type(v) is not int:
        raise ConfigError(f"{where} must be an integer, got {v!r}")
    if base == "float":
        if type(v) not in (int, float) or not math.isfinite(v):
            raise ConfigError(f"{where} must be a finite number, got {v!r}")
        return float(v)
    if base == "str" and not isinstance(v, str):
        raise ConfigError(f"{where} must be a string, got {v!r}")
    return v


def _section(sec, where: str, cls, default: dict, **build):
    """Build the dataclass `cls` from the JSON object sec, laid over the
    keyword defaults `default`. The allowed keys are the fields cls takes
    and each value is checked against its field's type; `build` maps a
    field to the function that makes its value from a non-null checked one
    (a nested section, a path). Failed checks become a ConfigError.
    """
    types = {f.name: f.type for f in fields(cls) if f.init}
    _check_keys(sec, types, where)
    kwargs = {}
    for key, v in {**default, **sec}.items():
        v = _typed(v, types[key], f"{where}: {key}")
        kwargs[key] = build[key](v) if v is not None and key in build else v
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass
class DetectionSettings:
    gamma: float = 1.0
    omega: float = 0.1
    seed: int = 42
    theta: float = 0.5
    min_size: int = 0

    def __post_init__(self):
        if not (0.0 <= self.theta <= 1.0):
            raise ValueError(f"theta must be in [0, 1], got {self.theta}")
        if self.gamma < 0 or self.omega < 0:
            raise ValueError("gamma and omega must be >= 0")
        if self.min_size < 0:
            raise ValueError(f"min_size must be >= 0, got {self.min_size}")
        check_seed(self.seed)


@dataclass
class RunConfig:
    """Validated run configuration; see from_dict for the document schema."""

    input: str | None = None
    schema: str = "tsv"
    stoplists: dict = field(default_factory=dict)  # StopLists field -> path
    fraction: float = 1.0
    width_hours: float = 6.0
    shift_hours: float = 5.0
    filter: FilterConfig = field(default_factory=FilterConfig)
    detection: DetectionSettings = field(default_factory=DetectionSettings)
    out: str = "out"
    synth: SynthConfig | None = None

    def __post_init__(self):
        if not (0.0 < self.fraction <= 1.0):
            raise ValueError(f"fraction must be in (0, 1], got {self.fraction}")
        check_hours(width_hours=self.width_hours, shift_hours=self.shift_hours)
        if self.schema not in EVENT_SCHEMAS:
            raise ValueError(f"schema must be tsv or jsonl, got {self.schema!r}")

    @classmethod
    def from_dict(cls, doc: dict, base_dir: str = ".") -> "RunConfig":
        """An object keyed by the fields; paths resolve against base_dir."""
        def existing(p, what="input"):
            p = os.path.join(base_dir, p)  # an absolute p replaces base_dir
            if not os.path.exists(p):
                raise ConfigError(f"{what} file does not exist: {p}")
            return p

        def stoplists(paths):
            _check_keys(paths, [f.name for f in fields(StopLists)], "stoplists")
            return {key: existing(_typed(p, "str", f"stoplists: {key}"), "stoplist")
                    for key, p in paths.items()}

        return _section(
            doc, "config", cls, {"out": "out"},
            input=existing, stoplists=stoplists,
            out=lambda p: os.path.join(base_dir, p),
            filter=lambda sec: _section(sec, "filter", FilterConfig, {}),
            detection=lambda sec: _section(sec, "detection", DetectionSettings, {}),
            # a synth section without communities plants none
            synth=lambda sec: _section(sec, "synth", SynthConfig,
                                       {"community_sizes": (), "strengths": ()}))

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        try:
            with reading(path, "config", ConfigError) as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(doc, base_dir=os.path.dirname(os.path.abspath(path)))

    def to_dict(self) -> dict:
        """Effective config for hashing, keyed like the config document."""
        return asdict(self)

    def context(self) -> reports.ReportContext:
        return reports.ReportContext(version=__version__,
                                     cfg_hash=reports.config_hash(self.to_dict()))


def _edges_path(out: str, scope: str) -> str:
    return os.path.join(out, f"edges_{scope}.tsv")


def _write(cfg: RunConfig, *files) -> None:
    """Write a step's files into cfg.out under the run's stamp; each file is
    (name, writer, *contents) and is written as writer(path, *contents,
    ctx). Every target is checked before the first write, so a directory
    at any one of them leaves cfg.out as it was. Each writer writes
    <name>.tmp, and the temporaries replace their targets only once every
    writer has returned: a write that fails, say on a full disk, removes
    them and is a ConfigError, and cfg.out keeps its old files."""
    paths = [os.path.join(cfg.out, name) for name, *_ in files]
    for path in paths:
        reports._check_out(path)
    ctx = cfg.context()
    temps = []
    try:
        for path, (_, writer, *contents) in zip(paths, files):
            temps.append(path + ".tmp")
            writer(temps[-1], *contents, ctx)
        for tmp, path in zip(temps, paths):
            os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    finally:
        for tmp in temps:  # after the renames, none is left
            with contextlib.suppress(OSError):
                os.remove(tmp)


def _load_layer_graph(out: str, scope: str) -> LayerGraph:
    """The graph of edges_<scope>.tsv, whose `# layer` line must name scope."""
    path = _edges_path(out, scope)
    if not os.path.exists(path):
        raise DataError(f"missing edge list {path}; run build (or the detect mode "
                        f"that creates scope {scope!r}) first")
    return reports.read_edges_tsv(path, layer=scope)


def _load_network(out: str, layers=ACTIONS) -> MultiplexNetwork:
    return MultiplexNetwork({layer: _load_layer_graph(out, layer) for layer in layers})


# ---------------------------------------------------------------- synth

def run_synth(cfg: RunConfig) -> dict:
    """Generate the synthetic log + ground truth into the output directory."""
    if cfg.synth is None:
        raise ConfigError("config has no 'synth' section")
    events_path = os.path.join(cfg.out, "events.tsv")
    reports._check_out(events_path)  # make out before the work
    log, truth = generate(cfg.synth)
    records = [{
        "record": "synth_summary",
        "n_events": len(log),
        "n_users": cfg.synth.n_users,
        "n_communities": cfg.synth.n_communities,
        "n_noise_users": cfg.synth.n_users - len(truth.assignment),
        "active_layers": {str(c): sorted(ls) for c, ls in cfg.synth.active_layers.items()},
    }]
    _write(cfg, ("events.tsv", reports.write_events_tsv, log),
           ("ground_truth.tsv", reports.write_partition_tsv, truth),
           ("synth_report.jsonl", reports.write_records, records))
    return {"events": events_path, "ground_truth": os.path.join(cfg.out, "ground_truth.tsv")}


# ---------------------------------------------------------------- build

def run_build(cfg: RunConfig) -> None:
    """Ingest, select actors, build and filter the multiplex network one
    layer at a time, and write per-layer edge lists plus the window
    coverage and the filter / stats / layer coverage reports.

    Once the actors and the window coverage are read from it, the event
    log is split into one log per layer, each with the whole log's
    time_span and so its window grid, and dropped. Each layer's log is
    dropped as that layer is built, and each raw layer is summarized and
    filtered before the next is built, so one raw layer is alive at a time
    and the coverage records and the writes hold only the filtered network.
    """
    if cfg.input is None:
        raise ConfigError("config has no 'input' path")
    # make out before the parse, so that a place that cannot be written costs no work
    reports._check_out(_edges_path(cfg.out, ACTIONS[0]))
    entries = {key: load_stoplist(path) for key, path in cfg.stoplists.items()}
    try:
        stop = StopLists.from_sets(**entries)
    except ValueError as exc:  # only a URL entry can be refused
        raise DataError(f"stoplist {cfg.stoplists['url_domains']}: {exc}") from exc
    log = parse_events(cfg.input, schema=cfg.schema)
    if cfg.stoplists:
        log = apply_stoplists(log, stop)

    if not len(log):
        logger.warning("build: empty event log; writing empty network")
    actors = select_users(log, cfg.fraction)
    width, shift = cfg.width_hours * 3600.0, cfg.shift_hours * 3600.0
    n_windows, outside = window_coverage(log, actors, width, shift)
    records = [{"record": "window_coverage", "n_windows": n_windows, "events_outside": outside}]
    # one log per layer, each keeping the whole log's time_span and so its grid
    logs = {layer: log.masked(log.action == k) for k, layer in enumerate(ACTIONS)}
    del log
    filter_reports, layers = [], {}
    for layer in ACTIONS:
        raw = build_multiplex(logs.pop(layer), actors, width=width, shift=shift, layers=(layer,))
        records.append({**reports.layer_stats(raw.layers[layer]), "record": "layer_stats_raw"})
        filtered, (rep,) = filter_multiplex(raw, cfg.filter)
        layers[layer] = filtered.layers[layer]
        filter_reports.append(rep)
        del raw
    net = MultiplexNetwork(layers)
    records.extend({"record": "filter_report", **asdict(rep)} for rep in filter_reports)
    records.extend(reports.layer_stats(net.layers[layer]) for layer in ACTIONS)

    for li in ACTIONS:
        for lj in ACTIONS:
            if li == lj:
                continue
            rec = {"record": "layer_coverage", "layer_i": li, "layer_j": lj}
            for key, measure in (("actor_coverage", actor_coverage),
                                 ("edge_coverage", edge_coverage),
                                 ("degree_correlation", pearson_degree_correlation)):
                try:
                    rec[key] = measure(net, li, lj)
                except (DataError, UndefinedMetricError):  # undefined for this pair
                    rec[key] = None
            records.append(rec)

    _write(cfg, *((f"edges_{layer}.tsv", reports.write_edges_tsv, net.layers[layer])
                  for layer in ACTIONS),
           ("actors.tsv", reports.write_table, ("user_id",), ((u,) for u in sorted(actors.actors))),
           ("build_report.jsonl", reports.write_records, records))
    logger.info("build: wrote %d layers to %s", len(ACTIONS), cfg.out)


# ---------------------------------------------------------------- detect

def _summary(scope: str, p: Partition | None = None, modularity: float | None = None,
             **settings) -> dict:
    """The partition_summary record of one scope. Without a partition the
    scope had no node, and detect wrote none for it. With one: its size,
    quality and detection settings, and the Louvain passes with the node
    visits and moves of each. A quality that overflowed is a DataError.
    """
    if modularity is not None and not math.isfinite(modularity):
        raise DataError(f"{scope}: modularity is {modularity} at gamma = {settings['gamma']!r}")
    rec = {"record": "partition_summary", "scope": scope, "empty": p is None,
           "n_nodes": 0, "n_communities": 0, "modularity": modularity}
    if p is None:
        logger.warning("detect: scope %s is empty; writing no partition", scope)
    else:
        rec.update(n_nodes=len(p.assignment), n_communities=p.n_communities(), **settings,
                   passes=len(p.trace), visits=list(p.visits), moves=list(p.moves))
    return rec


def _detect_graph(det: DetectionSettings, g: LayerGraph) -> tuple[dict, tuple]:
    """Louvain on one layer or flattened graph, whose scope is g.layer: the
    summary record and the partition file, () for a scope without a node."""
    if not g.nodes:
        return _summary(g.layer), ()
    p = louvain(g, gamma=det.gamma, seed=det.seed)
    return (_summary(g.layer, p, modularity(g, p, gamma=det.gamma), gamma=det.gamma,
                     seed=det.seed),
            (f"partition_{g.layer}.tsv", reports.write_partition_tsv, p))


def _detect_multi(det: DetectionSettings, net: MultiplexNetwork) -> tuple[dict, tuple]:
    """Generalized Louvain on the multiplex, as _detect_graph on a graph."""
    if not any(g.nodes for g in net.layers.values()):
        return _summary("multi"), ()
    p = generalized_louvain(net, gamma=det.gamma, omega=det.omega, seed=det.seed)
    return (_summary("multi", p, multislice_modularity(net, p, gamma=det.gamma, omega=det.omega),
                     gamma=det.gamma, omega=det.omega, seed=det.seed),
            ("partition_multi.tsv", reports.write_multiplex_partition_tsv, p))


def run_detect(cfg: RunConfig, mode: str, layer: str | None = None) -> list:
    """Detect communities under one operationalization; write partitions
    plus a summary record per produced scope.
    """
    if mode not in DETECT_MODES:
        raise ConfigError(f"unknown detect mode {mode!r}; expected one of {DETECT_MODES}")
    if mode == "mono":
        if layer is None:
            raise ConfigError("mode 'mono' needs --layer")
        if layer not in ACTIONS:
            raise ConfigError(f"unknown layer {layer!r}; expected one of {ACTIONS}")
    elif layer is not None:
        raise ConfigError(f"mode {mode!r} takes no layer; only mode 'mono' runs one")
    det, files = cfg.detection, []
    net = _load_network(cfg.out, (layer,) if mode == "mono" else ACTIONS)
    if mode in ("mono", "indi"):
        found = [_detect_graph(det, g) for g in net.layers.values()]
    elif mode in FLAT_SCOPES:
        if mode == "intfl":
            flat = flatten_intersection(net)
        else:
            flat = flatten_union(net, strategy=mode.split("-", 1)[1])
        # a sum of layer weights can pass the cap that every edge list is read under
        top = flat.weight.max(initial=0.0)
        if top > MAX_WEIGHT:
            raise DataError(f"{mode}: flattened weight {top:g} above the edge weight cap "
                            f"{MAX_WEIGHT:g}")
        files.append((f"edges_{mode}.tsv", reports.write_edges_tsv, flat))
        found = [_detect_graph(det, flat)]
    else:  # multi
        found = [_detect_multi(det, net)]
    summaries = [rec for rec, _ in found]
    _write(cfg, *files, *(file for _, file in found if file),
           (f"detect_{mode}.jsonl", reports.write_records, summaries))
    return summaries


# ---------------------------------------------------------------- compare

def _sides(out: str, ref: str, other: str) -> tuple[tuple, tuple]:
    """The two sides of a comparison, side B (ref) then side A (other), each
    as (communities, display token, partition path, graph scope).

    Both tokens are parsed, then the restrict-first rule applies, and only
    then is a file read. The rule: a bare 'multi' facing a single layer, on
    its own or as 'multi:<layer>', is restricted to that layer; facing a
    user-level scope it is a scope mismatch unless an explicit
    'multi:<layer>' is given. A side's graph scope is the graph its metrics
    are read from: a restricted multi reads its layer, and only a bare
    'multi' facing a bare 'multi' keeps the scope 'multi'.

    Detect writes no partition for a scope without a node, so a missing
    partition file names its scope when that scope's graphs are empty.
    """
    sides = []  # [base, scope]
    for token in (ref, other):
        base, colon, layer = token.partition(":")
        if base == "multi" and colon:
            if layer not in ACTIONS:
                raise ConfigError(f"unknown layer in token {token!r}")
            sides.append([base, layer])
        elif token in ACTIONS or token in FLAT_SCOPES or token == "multi":
            sides.append([token, token])
        else:
            raise ConfigError(f"unknown approach token {token!r}")
    for k, (token, facing) in enumerate(((ref, other), (other, ref))):
        facing_scope = sides[1 - k][1]  # multi:<layer> faces as <layer>
        if sides[k][1] == "multi" and facing_scope != "multi":
            if facing_scope not in ACTIONS:
                raise DataError(f"scope mismatch: '{token}' is a multiplex partition and "
                                f"'{facing}' is user-level; use multi:<layer>")
            sides[k][1] = facing_scope
    loaded = []
    for base, scope in sides:
        path = os.path.join(out, f"partition_{base}.tsv")
        if not os.path.exists(path):
            graphs = (_load_network(out).layers.values() if base == "multi"
                      else [_load_layer_graph(out, base)])
            if not any(g.nodes for g in graphs):
                raise DataError(f"scope {base!r} has no edge, so detect wrote no partition for it")
            raise DataError(f"missing partition {path}; run detect first")
        p = (reports.read_partition_tsv(path, base) if base != "multi"
             else reports.read_multiplex_partition_tsv(path))
        if scope != base:  # a restricted multi
            p = restrict_to_layer(p, scope)
        loaded.append((p, base if scope == base else f"multi-{scope}", path, scope))
    return loaded[0], loaded[1]


def comparison_id(ref: str, other: str) -> str:
    return f"{ref}_vs_{other}".replace(":", "-")


def _compare(det: DetectionSettings, ref: str, other: str, A, a_token: str, B,
             b_token: str) -> tuple:
    """The comparison of the baseline communities A against the reference B:
    overlap -> match -> community and node labels -> NMI. Returns (O, M,
    labels_a, labels_b, node_labels, files), files being compare's
    overlap_<cid>.tsv and labels_<cid>.jsonl."""
    O = overlap_matrix(A.assignment, B.assignment, min_size=det.min_size)
    M = hungarian_match(O)
    labels_a, labels_b = label_communities(O, M, theta=det.theta)
    node_labels = label_nodes(O, M)
    n_a, n_b = Counter(labels_a.values()), Counter(labels_b.values())
    n_nodes = Counter(node_labels.values())
    records = [{
        "record": "comparison_summary",
        "ref": ref, "other": other, "a": a_token, "b": b_token,
        "theta": det.theta, "min_size": det.min_size,
        "k_a": O.k_a, "k_b": O.k_b,
        "n_matched": len(M.pairs), "total_overlap": M.total,
        "nmi": nmi(O),
        "communities": {"lost": n_a[LOST], "common": n_a[COMMON], "gained": n_b[GAINED]},
        "nodes": {label: n_nodes[label] for label in (LOST, COMMON, GAINED)},
    }]
    for a_idx, b_idx in M.pairs:
        records.append({"record": "matched_pair",
                        "a_community": str(O.a_ids[a_idx]),
                        "b_community": str(O.b_ids[b_idx]),
                        "overlap": O.overlap(a_idx, b_idx)})
    for side, labels in (("a", labels_a), ("b", labels_b)):
        for comm_id, label in labels.items():
            records.append({"record": "community_label", "side": side,
                            "community": str(comm_id), "label": label})
    for node in sorted(node_labels, key=str):
        records.append({"record": "node_label", "node": str(node),
                        "label": node_labels[node]})
    cid = comparison_id(ref, other)
    return (O, M, labels_a, labels_b, node_labels,
            ((f"overlap_{cid}.tsv", reports.write_overlap_tsv, O),
             (f"labels_{cid}.jsonl", reports.write_records, records)))


def run_compare(cfg: RunConfig, ref: str, other: str) -> dict:
    """Overlap matrix, optimal matching, labels, and NMI for one pair.

    ref is the reference approach (side B); other is the baseline (side A).
    """
    (B, b_token, _, _), (A, a_token, _, _) = _sides(cfg.out, ref, other)
    *_, files = _compare(cfg.detection, ref, other, A, a_token, B, b_token)
    _write(cfg, *files)
    summary = files[1][2][0]  # the comparison_summary, first in labels_<cid>.jsonl
    logger.info("compare %s: k_a=%d k_b=%d matched=%d nmi=%.4f", comparison_id(ref, other),
                summary["k_a"], summary["k_b"], summary["n_matched"], summary["nmi"])
    return summary


# ---------------------------------------------------------------- characterize

def _minmax_normalize(X: np.ndarray) -> np.ndarray:
    """Each column of X scaled onto [0, 1]; a constant column maps to 0."""
    lo = X.min(axis=0)
    hi = X.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    return np.clip((X - lo) / span, 0.0, 1.0)


def run_characterize(cfg: RunConfig, ref: str, other: str) -> dict:
    """Structural characterization of one comparison: community metric
    vectors (raw + min-max normalized), matched-pair cosine table, PCA
    coordinates, node metric records, and Brunner-Munzel tests between
    lost / common / gained node groups. The comparison is computed here by
    _compare, as compare computes it, and its two files are written beside
    these, so the labels profiled are the labels written, under one config.
    """
    cid = comparison_id(ref, other)
    # the restrict-first rule leaves only this pair without a graph per side
    if ref == other == "multi":
        raise DataError("characterize needs a concrete graph per side; "
                        "restrict multiplex partitions to a layer (multi:<layer>)")
    (B, b_token, b_partition, b_scope), (A, a_token, a_partition, a_scope) = _sides(
        cfg.out, ref, other)
    # one graph and one node profile per distinct scope: multi:hst against
    # hst reads and profiles edges_hst.tsv once
    graphs = {s: GraphCSR.of(_load_layer_graph(cfg.out, s))
              for s in dict.fromkeys((a_scope, b_scope))}
    O, M, labels_a, labels_b, node_labels, compared = _compare(
        cfg.detection, ref, other, A, a_token, B, b_token)

    # (side, community id, label, CommunityMetrics), the k_a A rows first
    comm_rows = []
    for side, ids, sets, labels, scope, partition in (
            ("a", O.a_ids, O.a_members, labels_a, a_scope, a_partition),
            ("b", O.b_ids, O.b_members, labels_b, b_scope, b_partition)):
        try:
            comm_rows += [(side, comm_id, labels[comm_id], community_metrics(graphs[scope], members))
                          for comm_id, members in zip(ids, sets)]
        except ValueError as exc:  # a partition node that the edge list lacks
            raise DataError(f"partition {partition} does not fit edge list "
                            f"{_edges_path(cfg.out, scope)}: {exc}") from exc

    vectors = np.array([m.vector() for _, _, _, m in comm_rows])
    comm_records = [{"record": "community_metrics", "side": side, "community": str(comm_id),
                     "label": label,
                     "metrics": dict(zip(COMMUNITY_METRIC_NAMES, vec.tolist())),
                     "normalized": dict(zip(COMMUNITY_METRIC_NAMES, norm.tolist())),
                     "conductance_defined": m.conductance_defined,
                     "assortativity_defined": m.assortativity_defined}
                    for (side, comm_id, label, m), vec, norm in zip(comm_rows, vectors,
                                                                    _minmax_normalize(vectors))]

    cosine_rows, defined = [], []
    for a_idx, b_idx in M.pairs:
        try:
            cos = metric_cosine(vectors[a_idx], vectors[O.k_a + b_idx])
            defined.append(cos)
        except UndefinedMetricError:
            cos = None
        cosine_rows.append((str(O.a_ids[a_idx]), str(O.b_ids[b_idx]),
                            repr(O.overlap(a_idx, b_idx)), "NA" if cos is None else repr(cos)))
    cosine_rows.append(("mean", "-", "-", repr(sum(defined) / len(defined)) if defined else "NA"))

    try:
        coords, ratios = pca_project(vectors, dims=2)
    except UndefinedMetricError as exc:
        pca_records = [{"record": "pca_skipped", "reason": str(exc)}]
    else:
        pca_records = [{"record": "pca_ratios", "ratios": ratios.tolist()}]
        pca_records += [{"record": "pca_point", "side": side, "community": str(comm_id),
                         "label": label, "x": float(xy[0]), "y": float(xy[1])}
                        for (side, comm_id, label, _), xy in zip(comm_rows, coords)]

    try:  # Lanczos can spend its step budget, as on a long chain, in the graph of `profiled`
        profiles = {(profiled := s): node_metrics(csr) for s, csr in graphs.items()}
    except ArithmeticError as exc:
        raise DataError(f"edge list {_edges_path(cfg.out, profiled)}: {exc}") from exc
    # the Lanczos facts behind each eigenvector centrality: a small gap
    # between lambda1 and the second Ritz value marks an ill-conditioned one
    eigen_records = [{"record": "eigen_summary", "graph": graph_id,
                      "components": csr.eigen.components, "lambda1": csr.eigen.lambda1,
                      "ritz2": csr.eigen.ritz2, "lanczos_steps": csr.eigen.steps}
                     for graph_id, csr in (("a", graphs[a_scope]), ("b", graphs[b_scope]))]
    # lost and common nodes live in the baseline graph A, gained nodes only
    # exist in the reference graph B
    node_records = []
    for node in sorted(node_labels, key=str):
        label = node_labels[node]
        graph_id, scope = ("a", a_scope) if label in (LOST, COMMON) else ("b", b_scope)
        nm = profiles[scope][node]
        node_records.append({"record": "node_metrics", "node": str(node), "label": label,
                             "graph": graph_id, **nm._asdict()})

    bm_records = []
    for metric in NODE_METRIC_NAMES:
        for gx, gy in ((LOST, COMMON), (LOST, GAINED), (COMMON, GAINED)):
            x, y = ([r[metric] for r in node_records if r["label"] == g] for g in (gx, gy))
            rec = {"record": "bm_test", "metric": metric, "group_x": gx,
                   "group_y": gy, "n_x": len(x), "n_y": len(y)}
            if len(x) < 2 or len(y) < 2:
                rec["skipped"] = "group too small"
            else:
                try:
                    res = brunner_munzel(x, y)
                    rec.update(statistic=res.statistic, p_value=res.p_value,
                               df=res.df, band=significance_band(res.p_value))
                except UndefinedMetricError as exc:
                    rec["degenerate"] = str(exc)
            bm_records.append(rec)
    _write(cfg, *compared, (f"community_metrics_{cid}.jsonl", reports.write_records, comm_records),
           (f"cosine_{cid}.tsv", reports.write_table,
            ("a_community", "b_community", "overlap", "cosine"), cosine_rows),
           (f"pca_{cid}.jsonl", reports.write_records, pca_records),
           (f"node_metrics_{cid}.jsonl", reports.write_records, eigen_records + node_records),
           (f"bm_{cid}.jsonl", reports.write_records, bm_records))
    logger.info("characterize %s: %d communities, %d labeled nodes",
                cid, len(comm_rows), len(node_records))
    return {"comparison": cid, "n_communities": len(comm_rows),
            "n_nodes": len(node_records)}


# ---------------------------------------------------------------- report

def run_report(out: str) -> str:
    """Human-readable digest of an output directory; returns the text. A
    record file that is not JSON objects, or a record of a kind it prints
    without a field it prints or with one of the wrong type, is a DataError
    naming the file (and the line or the record kind)."""
    if not os.path.isdir(out):
        raise DataError(f"not a directory: {out}")
    lines = [f"multicoord report for {out}"]
    names = sorted(os.listdir(out))
    jsonl = [n for n in names if n.endswith(".jsonl")]
    tsv = [n for n in names if n.endswith(".tsv")]
    lines.append(f"{len(tsv)} tables, {len(jsonl)} record files")
    for name in jsonl:
        path = os.path.join(out, name)
        recs = reports.read_records(path)
        body = [r for r in recs if r.get("record") != "meta"]
        meta = next((r for r in recs if r.get("record") == "meta"), None)
        kind = "meta"
        try:
            stamp = f" [v{meta['version']} cfg {meta['config_sha256'][:12]}]" if meta else ""
            lines.append(f"  {name}: {len(body)} records{stamp}")
            for r in body:
                kind = r.get("record")
                if kind == "partition_summary":
                    lines.append(f"    scope {r['scope']}: {r['n_communities']} communities, "
                                 f"{r['n_nodes']} nodes, Q={r['modularity']}")
                    if "passes" in r:
                        lines.append(f"      louvain: {r['passes']} passes, visits "
                                     f"{'/'.join(map(str, r['visits']))}, moves "
                                     f"{'/'.join(map(str, r['moves']))}")
                elif kind == "comparison_summary":
                    lines.append(f"    {r['ref']} vs {r['other']}: "
                                 f"communities lost/common/gained = "
                                 f"{r['communities']['lost']}/{r['communities']['common']}/"
                                 f"{r['communities']['gained']}, nmi={r['nmi']:.4f}")
                elif kind == "eigen_summary":
                    ritz2 = "-" if r["ritz2"] is None else f"{r['ritz2']:.6g}"
                    lines.append(f"    eigenvector centrality of graph {r['graph']}: "
                                 f"lambda1={r['lambda1']:.6g}, second Ritz value {ritz2}, "
                                 f"{r['components']} components, "
                                 f"{r['lanczos_steps']} Lanczos steps")
                elif kind == "window_coverage":
                    lines.append(f"    {r['n_windows']} windows; actor events outside every window: "
                                 + ", ".join(f"{a} {r['events_outside'][a]:,}" for a in ACTIONS))
                elif kind == "synth_summary":
                    lines.append(f"    {r['n_events']} events, {r['n_users']} users, "
                                 f"{r['n_communities']} planted communities")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"{path}: a {kind} record lacks a field or has one of the "
                            f"wrong type ({exc!r})") from None
    return "\n".join(lines) + "\n"

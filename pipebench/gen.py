"""Seeded input generator for the pipeline benchmark.

The generator is the benchmark's own: it does not call ``multicoord.synth``,
so a later change to ``synth`` cannot change a workload. Every input is a
pure function of the workload parameters and the seed.

Planted model, shared by every workload:

- communities of 50 users, one per 100 users; the rest only make noise;
- communities cycle through three strength patterns, ``{rtw,hst}`` at 4,
  ``{rpl,hst,men}`` at 4 and all five layers at 3 expected events per
  member per window; the third pattern makes ``intfl`` non-empty and gives
  ``multi`` cross-layer work;
- every user emits Poisson(0.5) noise events per layer per window, drawn
  uniformly from a pool of 2000 items per layer;
- a 72 h span planted window by window on 6 h windows with a 5 h shift,
  the grid the run config uses.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from workloads import LAYERS, SHIFT_H, WIDTH_H, WORKLOADS, Spec

HST, URL = LAYERS.index("hst"), LAYERS.index("url")
COMMUNITY_POOL = 6
T0 = 1_700_000_000.0

NOISE = -1      # ``comm`` value of a noise event
TRENDING = -2   # ``comm`` value of a burst event; ``item`` is the burst index

# trending-1.2k additions
BURST_STARTS_H = (10.0, 34.0, 58.0)
BURST_H = 4.0
BURST_SHARE = 0.2
STOPLIST_SIZE = 20
N_MALFORMED = 300


@dataclass
class Log:
    """An event log as parallel arrays, sorted by timestamp."""

    users: list          # user index -> user id
    truth: dict          # planted user id -> community id
    user: np.ndarray
    layer: np.ndarray
    comm: np.ndarray     # community id, NOISE or TRENDING
    item: np.ndarray     # item index within its pool
    ts: np.ndarray

    def __len__(self) -> int:
        return len(self.ts)


def planted_log(spec: Spec, rng: np.random.Generator) -> Log:
    width, shift = WIDTH_H * 3600.0, SHIFT_H * 3600.0
    n_windows = int((spec.span_h - WIDTH_H) // SHIFT_H) + 1
    digits = max(4, len(str(spec.n_users - 1)))
    users = [f"u{i:0{digits}d}" for i in range(spec.n_users)]
    member_of = np.full(spec.n_users, -1)
    start = 0
    for c, size in enumerate(spec.sizes()):
        member_of[start:start + size] = c
        start += size
    members = np.flatnonzero(member_of >= 0)
    truth = {users[u]: int(member_of[u]) for u in members}
    rate = np.zeros((len(LAYERS), len(members)))
    for li, layer in enumerate(LAYERS):
        rate[li] = [spec.patterns[member_of[u] % len(spec.patterns)].get(layer, 0.0)
                    for u in members]
    everyone = np.arange(spec.n_users)

    parts = []
    for w in range(n_windows):
        t_start = T0 + w * shift
        for li in range(len(LAYERS)):
            for who, lam, comm, pool in ((members, rate[li], member_of[members], COMMUNITY_POOL),
                                         (everyone, spec.noise_rate, None, spec.noise_pool)):
                counts = rng.poisson(lam, size=len(who))
                u = np.repeat(who, counts)
                total = len(u)
                c = np.repeat(comm, counts) if comm is not None else np.full(total, NOISE)
                parts.append((u, np.full(total, li), c, rng.integers(0, pool, total),
                              t_start + rng.random(total) * width))
    cols = [np.concatenate(col) for col in zip(*parts)]
    order = np.argsort(cols[4], kind="stable")
    return Log(users, truth, *(col[order] for col in cols))


def add_bursts(log: Log, rng: np.random.Generator) -> Log:
    """Three 4 h bursts; in each, BURST_SHARE of all users post one trending
    hashtag and (independently drawn) BURST_SHARE post one trending domain.
    """
    n = len(log.users)
    k = int(round(BURST_SHARE * n))
    parts = [(log.user, log.layer, log.comm, log.item, log.ts)]
    for b, start_h in enumerate(BURST_STARTS_H):
        for li in (HST, URL):
            who = np.sort(rng.choice(n, size=k, replace=False))
            ts = T0 + (start_h + rng.random(k) * BURST_H) * 3600.0
            parts.append((who, np.full(k, li), np.full(k, TRENDING), np.full(k, b), ts))
    cols = [np.concatenate(col) for col in zip(*parts)]
    order = np.argsort(cols[4], kind="stable")
    return Log(log.users, log.truth, *(col[order] for col in cols))


# ---------------------------------------------------------------- writers

def _normal_item(layer: str, comm: int, item: int) -> str:
    if comm == NOISE:
        return f"n.{layer}.{item}"
    return f"c{comm}.{layer}.{item}"


def write_tsv(path: str, log: Log) -> None:
    """Events as `user  action  item  timestamp`, items already normal."""
    names: dict = {}
    lines = []
    for u, li, c, it, t in zip(log.user.tolist(), log.layer.tolist(), log.comm.tolist(),
                               log.item.tolist(), log.ts.tolist()):
        key = (li, c, it)
        name = names.get(key)
        if name is None:
            name = names[key] = f"{LAYERS[li]}\t{_normal_item(LAYERS[li], c, it)}"
        lines.append(f"{log.users[u]}\t{name}\t{t:.3f}\n")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)


def _raw_item(li: int, comm: int, item: int, serial: int) -> str:
    """Item as a collector would log it: `#MixedCase` tags, `@` mentions,
    full URLs with path and query.
    """
    layer = LAYERS[li]
    if comm == TRENDING:
        return f"#TrendingNow{item}" if li == HST else \
            f"https://www.Trend{item}-Live.net/live/{serial}?utm_source=share"
    tag = f"C{comm}" if comm >= 0 else "N"
    if layer in ("rtw", "rpl"):
        return f"{tag.lower()}-{layer}-{item}"
    if layer == "men":
        return f"@{tag}_Acct{item}"
    if layer == "hst":
        return f"#{tag}Topic{item}"
    host = f"{tag}-site{item}.org" if comm >= 0 else f"news{item}.com"
    return f"https://www.{host}/story/{serial % 9973}?ref=feed&id={serial}"


def _malformed(serial: int) -> str:
    return (
        f'{{"user": "u{serial}", "action": "hst", "item": "#Cut',
        f'{{"user": "u{serial}", "action": "like", "item": "x{serial}", "ts": 1700000000}}',
        f'{{"user": "u{serial}", "action": "rtw", "item": "x{serial}"}}',
        f'{{"user": "u{serial}", "action": "url", "item": "https://", "ts": 1700000000}}',
        f'{{"user": "", "action": "men", "item": "@x{serial}", "ts": 1700000000}}',
    )[serial % 5]


def write_jsonl(path: str, log: Log, rng: np.random.Generator) -> None:
    """Events as raw JSON lines, with N_MALFORMED bad lines mixed in."""
    n_lines = len(log) + N_MALFORMED
    bad_at = set(rng.choice(n_lines, size=N_MALFORMED, replace=False).tolist())
    rows = zip(log.user.tolist(), log.layer.tolist(), log.comm.tolist(),
               log.item.tolist(), log.ts.tolist())
    lines = []
    serial = 0
    for pos in range(n_lines):
        if pos in bad_at:
            lines.append(_malformed(pos) + "\n")
            continue
        u, li, c, it, t = next(rows)
        lines.append(f'{{"user": "{log.users[u]}", "action": "{LAYERS[li]}", '
                     f'"item": "{_raw_item(li, c, it, serial)}", "ts": {t:.3f}}}\n')
        serial += 1
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)


def write_stoplists(out_dir: str, log: Log, names: dict) -> None:
    """Stoplists naming the STOPLIST_SIZE most-used noise hashtags and
    domains, in the raw forms the collector saw them; ``names`` maps the
    run config's stoplist keys to file names.
    """
    for key, li, form in (("hashtags", HST, "#NTopic{}"), ("url_domains", URL, "www.news{}.com")):
        sel = (log.layer == li) & (log.comm == NOISE)
        counts = np.bincount(log.item[sel], minlength=1)
        top = sorted(range(len(counts)), key=lambda i: (-counts[i], i))[:STOPLIST_SIZE]
        with open(os.path.join(out_dir, names[key]), "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(form.format(i) + "\n" for i in top)


def write_truth(path: str, log: Log) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{u}\t{c}\n" for u, c in sorted(log.truth.items()))


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def main(name: str, seed: int, instance: int, out_dir: str) -> dict:
    """Write the inputs of one instance of a workload into ``out_dir``;
    returns {file: sha256}. The planted log comes from
    ``default_rng([seed, instance])``; the trending additions draw from a
    second stream, so ``trending-1.2k`` plants the same log as ``detect-1.2k``.
    """
    w = WORKLOADS[name]
    doc = w.run_config()
    log = planted_log(w.spec, np.random.default_rng([seed, instance]))
    if w.raw_jsonl:
        extra = np.random.default_rng([seed, instance, 1])
        log = add_bursts(log, extra)
        write_jsonl(os.path.join(out_dir, doc["input"]), log, extra)
        write_stoplists(out_dir, log, doc["stoplists"])
    else:
        write_tsv(os.path.join(out_dir, doc["input"]), log)
    write_truth(os.path.join(out_dir, "truth.tsv"), log)
    with open(os.path.join(out_dir, "run.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    files = [doc["input"], "truth.tsv", "run.json", *doc.get("stoplists", {}).values()]
    return {f: sha256(os.path.join(out_dir, f)) for f in files}


if __name__ == "__main__":
    # gen.py WORKLOAD SEED INSTANCE DIR: prints the sha256 of every input as JSON
    print(json.dumps(main(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4])))

"""The benchmark's workloads: the planted model each generates and the CLI
steps each times. Imports no numpy, so that the orchestrating process stays
small (see run.py).

BENCHMARK.json runs two of them:

- trending-1.2k: 1,200 users as raw JSONL (``#MixedCase`` tags, ``@``
  mentions, full URLs) plus three trending bursts, stoplists of the 20
  most-used noise hashtags and domains, 300 malformed lines, fraction 0.5
  and a binding node budget. Timed: build; detect indi, unfl-sum, multi;
  compare + characterize unfl-sum vs hst. JSON/URL parsing, stoplists and
  dense-window netbuild dominate; a trending item shared by a fifth of all
  users is legal input that a pair budget must not reject.
- detect-1.2k: the same planted log as TSV, built in set-up. Timed: detect
  indi, unfl-sum, intfl, multi; then compare + characterize unfl-sum vs rtw
  and multi vs hst. Louvain, compare and the O(K*E) characterize run;
  netbuild is idle, so a build change must not move pipeline_s here (it
  shows in setup_s, which includes the TSV ingest and build).

planted-1k, the README walk on 1,000 users as TSV, stays runnable by hand.
It is not in BENCHMARK.json: on a shared 2-core host whose speed drifts by
up to 30% over minutes, every timed metric of every workload is one more
chance for that drift to spread a set of runs past its bound, and two
workloads leave each run more time than three.

Sizes follow from the same budget. A run measures the median over the
seeded instances ``--seconds`` holds (three of trending-1.2k, two of
detect-1.2k at 48 s), because one instance's detect and characterize times
also vary between seeds (Louvain sweeps per pass, and power-iteration steps
that depend on the spectral gap).
"""

from __future__ import annotations

from dataclasses import dataclass, field

LAYERS = ("rtw", "rpl", "men", "hst", "url")
PATTERNS = (
    {"rtw": 4.0, "hst": 4.0},
    {"rpl": 4.0, "hst": 4.0, "men": 4.0},
    {layer: 3.0 for layer in LAYERS},
)
WIDTH_H, SHIFT_H = 6.0, 5.0
DETECTION = {"gamma": 1.0, "omega": 0.1, "seed": 42}


@dataclass(frozen=True)
class Spec:
    """The planted model of one workload (see gen.py)."""

    n_users: int
    community_sizes: tuple = ()   # default: n_users // 100 communities of 50
    patterns: tuple = PATTERNS
    noise_rate: float = 0.5
    noise_pool: int = 2000
    span_h: float = 72.0

    def sizes(self) -> tuple:
        return self.community_sizes or (50,) * (self.n_users // 100)


@dataclass(frozen=True)
class Workload:
    spec: Spec
    instance_s: float              # nominal seconds per instance; see instances()
    modes: tuple
    pairs: tuple
    raw_jsonl: bool = False        # raw JSONL + bursts, stoplists, malformed lines
    build_in_setup: bool = False
    fraction: float = 1.0
    filter: dict = field(default_factory=dict)
    recovery_floor: float = 0.0    # below it, detect unfl-sum counts as failed

    def instances(self, seconds: float) -> int:
        """Input instances one run measures: as many as ``seconds`` holds at
        the nominal cost, at least one. The count depends on ``seconds``
        alone, so the parent and a change measure the same instances.
        """
        return max(1, int(seconds // self.instance_s))

    def timed(self) -> list:
        """The CLI subcommands of the timed part, as argument tuples."""
        seq = [] if self.build_in_setup else [("build",)]
        seq += [("detect", "--mode", m) for m in self.modes]
        for ref, other in self.pairs:
            seq += [(cmd, "--ref", ref, "--other", other) for cmd in ("compare", "characterize")]
        return seq

    def run_config(self) -> dict:
        doc = {"input": "events.tsv", "schema": "tsv", "out": "out", "width_hours": WIDTH_H,
               "shift_hours": SHIFT_H, "fraction": self.fraction, "filter": self.filter,
               "detection": DETECTION}
        if self.raw_jsonl:
            doc.update(input="events.jsonl", schema="jsonl",
                       stoplists={"hashtags": "stop_hashtags.txt",
                                  "url_domains": "stop_url_domains.txt"})
        return doc


PAIRS = (("unfl-sum", "rtw"), ("multi", "hst"))
WORKLOADS = {
    "trending-1.2k": Workload(Spec(1200), 16.0, ("indi", "unfl-sum", "multi"),
                              (("unfl-sum", "hst"),), raw_jsonl=True, fraction=0.5,
                              filter={"max_nodes": 600}, recovery_floor=0.8),
    "detect-1.2k": Workload(Spec(1200), 24.0, ("indi", "unfl-sum", "intfl", "multi"), PAIRS,
                            build_in_setup=True, recovery_floor=0.8),
    # not in BENCHMARK.json (see above)
    "planted-1k": Workload(Spec(1000), 18.0, ("indi", "unfl-sum", "multi"), PAIRS,
                           recovery_floor=0.8),
    # the README's 110-user recipe, for smoke.py
    "smoke": Workload(Spec(110, community_sizes=(40, 40), patterns=PATTERNS[:2],
                           noise_rate=0.2, noise_pool=5000, span_h=24.0), 60.0,
                      ("indi", "unfl-sum", "multi"), PAIRS, recovery_floor=0.5),
}

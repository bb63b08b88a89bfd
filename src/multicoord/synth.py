"""Synthetic action logs with planted coordinated communities.

Members of a planted community draw items from a small community-specific
pool in each layer the community is active in, which concentrates their
TF-IDF vectors on the same few items and produces high-cosine edges. Noise
events draw from a large per-layer pool shared by everyone. Community pools
are disjoint from each other and from the noise pools, so at high strength
the planted partition is the unique reasonable answer and every planted
co-action is traceable to its community by the item prefix.

Activity is planted window by window: for every window slice, each member
emits a Poisson-distributed number of events with timestamps uniform in
that window, so the windowing logic is exercised, overlap regions included.
Generation is single-threaded and fully determined by the seed.

Beware the degenerate regime: TF-IDF nulls items used by every active user
of a layer window, so a lone community with zero noise and a tiny pool can
produce empty vectors. Keep at least two populations active per layer (a
second community or a nonzero noise rate) or a pool comfortably larger
than one.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .community import communities
from .errors import DataError
from .ingest import ACTIONS, EventLog
from .netbuild import window_slices

logger = logging.getLogger(__name__)

NOISE = "noise"


def check_seed(seed: int) -> int:
    """The one rule for a seed, from a config or from --seed: an integer
    >= 0. NumPy refuses a negative seed, and random.Random takes its
    absolute value, so -5 would detect as 5 under another config hash."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def check_hours(**hours: float) -> None:
    """The one rule for a time span given in hours: it must be positive, and
    still finite once in seconds (x 3600), the unit of every timestamp."""
    for name, h in hours.items():
        if h <= 0:
            raise ValueError(f"{name} must be positive, got {h!r} hours")
        if not math.isfinite(h * 3600.0):
            raise ValueError(f"{name} must be finite in seconds, got {h!r} hours")


@dataclass
class SynthConfig:
    """Recipe for one synthetic log.

    strengths has one mapping per community: layer -> expected planted
    events per member per window (0 or absent = inactive in that layer).
    noise_rate is the expected noise events per user per layer per window,
    applied to every user, members included. Each layer has its own
    noise pool of noise_pool_size items.
    """

    n_users: int
    community_sizes: tuple
    strengths: tuple
    seed: int
    noise_rate: float = 0.0
    community_pool_size: int = 6
    noise_pool_size: int = 5000
    span_hours: float = 48.0
    width_hours: float = 6.0
    shift_hours: float = 5.0

    def __post_init__(self):
        if self.seed is None:
            raise ValueError("seed is mandatory")
        self.seed = check_seed(int(self.seed))
        if not all(isinstance(s, Integral) and not isinstance(s, bool)
                   for s in self.community_sizes):
            raise ValueError(f"community sizes must be integers, got {self.community_sizes!r}")
        self.community_sizes = tuple(int(s) for s in self.community_sizes)
        self.strengths = tuple(dict(s) for s in self.strengths)
        if self.n_users < 1:
            raise ValueError(f"n_users must be >= 1, got {self.n_users}")
        if len(self.strengths) != len(self.community_sizes):
            raise ValueError(f"{len(self.community_sizes)} sizes but "
                             f"{len(self.strengths)} strength maps")
        if any(s < 1 for s in self.community_sizes):
            raise ValueError("community sizes must be >= 1")
        if sum(self.community_sizes) > self.n_users:
            raise ValueError(f"community sizes sum to {sum(self.community_sizes)} "
                             f"> n_users {self.n_users}")
        for ci, smap in enumerate(self.strengths):
            unknown = set(smap) - set(ACTIONS)
            if unknown:
                raise ValueError(f"community {ci}: unknown layers {sorted(unknown)}")
            if not all(isinstance(v, Real) and not isinstance(v, bool) and 0 <= v < math.inf
                       for v in smap.values()):
                raise ValueError(f"community {ci}: strengths must be finite numbers >= 0, "
                                 f"got {smap!r}")
        if self.noise_rate < 0:
            raise ValueError(f"noise_rate must be >= 0, got {self.noise_rate}")
        if self.community_pool_size < 2:
            raise DataError("community_pool_size must be >= 2: a single-item pool "
                            "shared by every active user is nulled by TF-IDF")
        if self.noise_rate > 0 and self.noise_pool_size < 1:
            raise DataError("noise_pool_size must be >= 1 when noise_rate > 0")
        check_hours(width_hours=self.width_hours, shift_hours=self.shift_hours,
                    span_hours=self.span_hours)
        if self.span_hours < self.width_hours:
            raise ValueError(f"span_hours {self.span_hours} shorter than "
                             f"width_hours {self.width_hours}")

    @property
    def n_communities(self) -> int:
        return len(self.community_sizes)


@dataclass(frozen=True)
class GroundTruth:
    """Planted assignment: user -> community id for members; noise users
    are absent from the map. active_layers marks where each community
    coordinates.
    """

    assignment: dict
    active_layers: dict  # community id -> frozenset of layer names
    noise_users: frozenset

    def communities(self) -> dict:
        return communities(self.assignment)

    def members(self, cid) -> frozenset:
        return self.communities().get(cid, frozenset())


def _window_events(rng, users, rate, pool_size, prefix, layer, start, width_s) -> list:
    """One layer's events of ``users`` in the window from ``start``: a
    Poisson(rate) count per user, then for each event an item <prefix><k>
    of the pool and a uniform offset into the window, drawn in that order
    and user by user."""
    counts = rng.poisson(rate, size=len(users)).tolist()
    total = sum(counts)
    if total == 0:
        return []
    items = rng.integers(0, pool_size, size=total).tolist()
    times = (start + rng.random(total) * width_s).tolist()
    owners = (u for u, k in zip(users, counts) for _ in range(k))
    return [(u, layer, f"{prefix}{k}", t) for u, k, t in zip(owners, items, times)]


def generate(cfg: SynthConfig) -> tuple[EventLog, GroundTruth]:
    """Build the planted log and its ground truth; deterministic per seed."""
    rng = np.random.default_rng(cfg.seed)
    digits = max(4, len(str(cfg.n_users - 1)))
    users = [f"u{i:0{digits}d}" for i in range(cfg.n_users)]

    assignment: dict = {}
    members: list[list[str]] = []
    cursor = 0
    for ci, size in enumerate(cfg.community_sizes):
        block = users[cursor:cursor + size]
        members.append(block)
        for u in block:
            assignment[u] = ci
        cursor += size
    noise_users = frozenset(users[cursor:])
    active = {ci: frozenset(layer for layer, s in cfg.strengths[ci].items() if s > 0)
              for ci in range(cfg.n_communities)}

    span_s = cfg.span_hours * 3600.0
    width_s = cfg.width_hours * 3600.0
    starts = window_slices((0.0, span_s), width_s, cfg.shift_hours * 3600.0)

    rows: list[tuple[str, str, str, float]] = []  # (user, action, item, timestamp)
    for start in starts:
        for layer in ACTIONS:
            for ci in range(cfg.n_communities):
                strength = cfg.strengths[ci].get(layer, 0.0)
                if strength > 0:
                    rows += _window_events(rng, members[ci], strength, cfg.community_pool_size,
                                           f"c{ci}.{layer}.", layer, start, width_s)
            if cfg.noise_rate > 0:
                rows += _window_events(rng, users, cfg.noise_rate, cfg.noise_pool_size,
                                       f"n.{layer}.", layer, start, width_s)

    log = EventLog.from_events(rows, time_span=(0.0, span_s))
    truth = GroundTruth(assignment=assignment, active_layers=active,
                        noise_users=noise_users)
    planted = sum(1 for r in rows if r[2].startswith("c"))
    logger.info("synth: %d events (%d planted, %d noise) over %d windows, %d users",
                len(log), planted, len(log) - planted, len(starts), cfg.n_users)
    return log, truth

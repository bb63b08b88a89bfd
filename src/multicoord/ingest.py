"""Action-event ingestion: parsing, stoplist filtering, active-user selection.

An event is a (user, action, item, timestamp) record. Five action types are
tracked, one per co-action modality: retweet (rtw), reply (rpl), mention
(men), hashtag (hst) and URL share (url). During parsing hashtags are
lowercased, URLs are reduced to their registrable domain and mentions keep
their raw id. Collection artifacts (campaign hashtags, candidate mentions,
platform domains) are removed via stoplists, after which the most active
users per action type are selected to form the analysis universe.

Events are columns from the parse on. An EventLog holds the user, action
and item ids as row-aligned tuples of str and the timestamps as a float64
array; stoplist filtering is a mask over them, and actor selection and the
TF-IDF bucketing in netbuild read them directly. ActionEvent is only a row
view, built on demand by EventLog.events for tests and demos.
"""

from __future__ import annotations

import json
import logging
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import compress
from typing import NamedTuple
from urllib.parse import urlsplit

import numpy as np

from .errors import DataError

logger = logging.getLogger(__name__)

RTW = "rtw"
RPL = "rpl"
MEN = "men"
HST = "hst"
URL = "url"

# canonical layer order, used everywhere layers are iterated or reported
ACTIONS: tuple[str, ...] = (RTW, RPL, MEN, HST, URL)
_ACTION_SET = frozenset(ACTIONS)

EVENT_SCHEMAS = ("jsonl", "tsv")

# C0/C1 control characters: a tab or newline inside an id would break the
# tab-separated artifacts it is written to
_CONTROL_CHARS = re.compile(r"[\x00-\x1f\x7f-\x9f]")

# JSON values that are not ids: str() would make them "None", "True" or "['a']"
_NOT_IDS = {type(None): "null", bool: "boolean", list: "array", dict: "object"}

# parse_events caches the domain of each raw URL, and empties the cache when
# it is full: raw URLs that never repeat (a serial number, a tracking
# parameter) would otherwise keep every string of the file alive
_DOMAIN_CACHE_SIZE = 4096


class ActionEvent(NamedTuple):
    """One user action on one item at one point in time: a row of an EventLog."""

    user_id: str
    action: str
    item_id: str
    timestamp: float


@dataclass(frozen=True)
class RecordError:
    """A rejected input line, kept so parsing never drops data silently."""

    line_no: int
    reason: str


@dataclass(frozen=True, eq=False)
class EventLog:
    """Events as row-aligned columns, plus the rejects seen while parsing.

    Row k is ``user[k]`` doing ``action[k]`` on ``item[k]`` at ``ts[k]``
    (epoch seconds; a read-only float64 array). parse_events and
    synth.generate give the rows in time order; from_events keeps the order
    it is given. ``time_span`` is (t_min, t_max). It defaults to the
    observed event range but may be wider (e.g. the nominal span of a
    generated log) so that window grids are stable under filtering.
    """

    user: tuple[str, ...] = ()
    action: tuple[str, ...] = ()
    item: tuple[str, ...] = ()
    ts: np.ndarray = field(default_factory=lambda: np.empty(0))
    time_span: tuple[float, float] | None = None
    rejects: tuple[RecordError, ...] = ()

    def __post_init__(self):
        ts = np.array(self.ts, dtype=float)
        ts.flags.writeable = False
        object.__setattr__(self, "ts", ts)
        if not len(self.user) == len(self.action) == len(self.item) == len(ts):
            raise ValueError("event columns differ in length")
        if len(ts):
            stamps = ts.tolist()
            lo, hi = min(stamps), max(stamps)
            if self.time_span is None:
                object.__setattr__(self, "time_span", (lo, hi))
            else:
                t0, t1 = self.time_span
                if not (t0 <= lo and hi <= t1):
                    raise ValueError("time_span does not cover all events")
        elif self.time_span is not None:
            raise ValueError("time_span given for an empty log")

    @classmethod
    def from_events(cls, events, time_span=None, rejects=()) -> "EventLog":
        """A log of (user, action, item, timestamp) rows, in the order given."""
        user, action, item, ts = tuple(zip(*events)) or ((), (), (), ())
        return cls(user, action, item, ts, time_span, tuple(rejects))

    @property
    def events(self) -> tuple[ActionEvent, ...]:
        """The rows as ActionEvent tuples, built anew on each access."""
        return tuple(map(ActionEvent, self.user, self.action, self.item, self.ts.tolist()))

    def __len__(self) -> int:
        return len(self.ts)


@dataclass(frozen=True)
class StopLists:
    """Items to drop before network construction.

    Hashtag and domain membership is case-insensitive (entries are stored
    lowercased); mention ids are matched exactly.
    """

    hashtags: frozenset[str] = frozenset()
    mentions: frozenset[str] = frozenset()
    url_domains: frozenset[str] = frozenset()

    @staticmethod
    def from_sets(hashtags=(), mentions=(), url_domains=()) -> "StopLists":
        return StopLists(
            hashtags=frozenset(h.lstrip("#").lower() for h in hashtags),
            mentions=frozenset(m.lstrip("@") for m in mentions),
            url_domains=frozenset(_normalize_domain_entry(d) for d in url_domains),
        )


def _normalize_domain_entry(d: str) -> str:
    d = d.strip().lower()
    if d.startswith("www."):
        d = d[4:]
    return d


def load_stoplist(path) -> tuple[str, ...]:
    """Read a plain-text stoplist, one entry per line; blank lines ignored."""
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                entries.append(line)
    return tuple(entries)


@dataclass(frozen=True)
class ActorSet:
    """The analysis universe: top-active users per action and their union."""

    actors: frozenset[str]
    per_action_top: dict[str, frozenset[str]] = field(compare=False)

    def __post_init__(self):
        union = frozenset().union(*self.per_action_top.values()) if self.per_action_top else frozenset()
        if union != self.actors:
            raise ValueError("actors must equal the union of per-action sets")


def extract_domain(url: str) -> str:
    """Reduce a URL to its lowercased host, dropping scheme, path, query,
    port and a leading "www.". Raises ValueError if no host can be found.

    Idempotent on its own outputs ("bbc.co.uk" -> "bbc.co.uk").
    """
    u = url.strip()
    if not u:
        raise ValueError("empty URL")
    if "://" not in u and not u.startswith("//"):
        # bare host or host/path form
        u = "//" + u
    try:
        host = urlsplit(u).hostname
    except ValueError as exc:
        raise ValueError(f"unparseable URL {url!r}: {exc}") from None
    if not host:
        raise ValueError(f"unparseable URL {url!r}: no host")
    if host.startswith("www."):
        host = host[4:]
    if not host:
        raise ValueError(f"unparseable URL {url!r}: empty host after www-strip")
    return host


def _parse_timestamp(tok) -> float:
    """Epoch seconds or ISO-8601; naive ISO strings are taken as UTC."""
    if isinstance(tok, (int, float)) and not isinstance(tok, bool):
        ts = float(tok)
    else:
        s = str(tok).strip()
        try:
            ts = float(s)
        except ValueError:
            if s.endswith("Z") or s.endswith("z"):
                s = s[:-1] + "+00:00"
            dt = datetime.fromisoformat(s)
            if dt.tzinfo is None:
                dt = dt.replace(tzinfo=timezone.utc)
            ts = dt.timestamp()
    if not math.isfinite(ts):
        raise ValueError(f"non-finite timestamp {tok!r}")
    return ts


def _json_ids(*values) -> list[str]:
    """The user, action and item of a JSON record as strings: a string or
    a number is an id; null, a boolean, an array or an object is refused."""
    for name, value in zip(("user", "action", "item"), values):
        if type(value) in _NOT_IDS:
            raise ValueError(f"{name} is a JSON {_NOT_IDS[type(value)]}, "
                             "expected a string or a number")
    return [str(v) for v in values]


def parse_events(path, schema: str = "jsonl") -> EventLog:
    """Parse an event file into a timestamp-sorted EventLog.

    Supported schemas: "jsonl" (one JSON object per line with keys user,
    action, item, ts) and "tsv" (4 tab-separated columns in that order).
    Blank lines and lines starting with '#' are skipped, except that a TSV
    line containing a tab is always a row. Malformed lines become
    RecordError entries on the returned log instead of being silently
    dropped. The file is read line by line into four column lists; rows
    with equal timestamps keep their file order.
    """
    if schema not in EVENT_SCHEMAS:
        raise ValueError(f"unknown event schema {schema!r}; expected one of {EVENT_SCHEMAS}")
    jsonl = schema == "jsonl"
    users: list[str] = []
    actions: list[str] = []
    items: list[str] = []
    stamps: list[float] = []
    rejects: list[RecordError] = []
    # ids that passed the checks below, each as the one str object shared by
    # every row that names it, each raw action token seen, normalized, and
    # each raw URL's domain: a repeated id, token or URL is checked once
    valid: dict[str, str] = {}
    action_of: dict[str, str] = {}
    domain_of: dict[str, str] = {}  # raw URL -> domain, for URLs that have one
    loads, has_control, isfinite = json.loads, _CONTROL_CHARS.search, math.isfinite
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read event file {path}: {exc}") from exc
    with fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            # a TSV line with a tab is a row, so user ids may start with '#'
            if not line.strip() or (line[0] == "#" and (jsonl or "\t" not in line)):
                continue
            try:
                if jsonl:
                    rec = loads(line)
                    if type(rec) is not dict:
                        raise ValueError(f"expected a JSON object, got {type(rec).__name__}")
                    user, action, item, ts = rec["user"], rec["action"], rec["item"], rec["ts"]
                    if not (type(user) is type(action) is type(item) is str):
                        user, action, item = _json_ids(user, action, item)
                else:
                    cols = line.split("\t")
                    if len(cols) != 4:
                        raise ValueError(f"expected 4 columns, got {len(cols)}")
                    user, action, item, ts = cols
                user = user.strip()
                if user not in valid:
                    if not user:
                        raise ValueError("empty user id")
                    if has_control(user):
                        raise ValueError(f"control character in user id {user!r}")
                    valid[user] = user
                if action not in action_of:
                    a = action.strip().lower()
                    if a not in _ACTION_SET:
                        raise ValueError(f"unknown action token {a!r}")
                    action_of[action] = a
                action = action_of[action]
                item = item.strip()
                if action == HST:
                    item = item.lstrip("#").lower()
                elif action == MEN:
                    item = item.lstrip("@")
                elif action == URL:
                    if item not in domain_of:
                        if len(domain_of) == _DOMAIN_CACHE_SIZE:
                            domain_of.clear()
                        domain_of[item] = extract_domain(item)
                    item = domain_of[item]
                if item not in valid:
                    if not item:
                        raise ValueError("empty item id")
                    if has_control(item):
                        raise ValueError(f"control character in item id {item!r}")
                    valid[item] = item
                if type(ts) is not float or not isfinite(ts):
                    ts = _parse_timestamp(ts)
            except (ValueError, KeyError, TypeError) as exc:
                rejects.append(RecordError(line_no, str(exc)))
                continue
            users.append(valid[user])
            actions.append(action)
            items.append(valid[item])
            stamps.append(ts)
    ts = np.array(stamps, dtype=float)
    order = np.argsort(ts, kind="stable").tolist()  # stable: file order kept for ties
    if rejects:
        logger.warning("parse_events: rejected %d of %d lines from %s",
                       len(rejects), len(rejects) + len(stamps), path)
    return EventLog(*(tuple(map(col.__getitem__, order)) for col in (users, actions, items)),
                    ts[order], rejects=tuple(rejects))


def apply_stoplists(log: EventLog, stop: StopLists) -> EventLog:
    """Drop hst/men/url events whose item is stoplisted; rtw/rpl untouched.

    Idempotent. The log's time_span is preserved so window grids do not
    move when boundary events are removed.
    """
    stopped = {HST: stop.hashtags, MEN: stop.mentions, URL: stop.url_domains}
    keep = [item not in stopped.get(action, ()) for action, item in zip(log.action, log.item)]
    if all(keep):
        return log
    span = log.time_span if any(keep) else None
    return EventLog(*(tuple(compress(col, keep)) for col in (log.user, log.action, log.item)),
                    log.ts[np.array(keep, dtype=bool)], span, log.rejects)


def select_users(log: EventLog, fraction: float) -> ActorSet:
    """Select, per action type, the top ``ceil(fraction * n_active)`` users
    by event count (ties broken toward lexicographically smaller ids), and
    return their union as the analysis universe.
    """
    if not (0.0 < fraction <= 1.0):
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if not len(log):
        raise ValueError("cannot select users from an empty log")
    counts: dict[str, Counter] = {a: Counter() for a in ACTIONS}
    for (action, user), n in Counter(zip(log.action, log.user)).items():
        counts[action][user] = n
    per_action_top: dict[str, frozenset[str]] = {}
    for a in ACTIONS:
        c = counts[a]
        if not c:
            per_action_top[a] = frozenset()
            continue
        k = math.ceil(fraction * len(c))
        ranked = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))
        per_action_top[a] = frozenset(u for u, _ in ranked[:k])
    actors = frozenset().union(*per_action_top.values())
    logger.info("select_users: fraction=%.4g -> %d actors (%s)", fraction, len(actors),
                ", ".join(f"{a}:{len(per_action_top[a])}" for a in ACTIONS))
    return ActorSet(actors=actors, per_action_top=per_action_top)

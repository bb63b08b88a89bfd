"""Action-event ingestion: parsing, stoplist filtering, active-user selection.

An event is a (user, action, item, timestamp) record. Five action types are
tracked, one per co-action modality: retweet (rtw), reply (rpl), mention
(men), hashtag (hst) and URL share (url). During parsing hashtags are
lowercased, URLs are reduced to their registrable domain and mentions keep
their raw id. Collection artifacts (campaign hashtags, candidate mentions,
platform domains) are removed via stoplists, after which the most active
users per action type are selected to form the analysis universe.
"""

from __future__ import annotations

import json
import logging
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from urllib.parse import urlsplit

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


@dataclass(frozen=True)
class ActionEvent:
    """One user action on one item at one point in time."""

    user_id: str
    action: str
    item_id: str
    timestamp: float


@dataclass(frozen=True)
class RecordError:
    """A rejected input line, kept so parsing never drops data silently."""

    line_no: int
    reason: str


@dataclass(frozen=True)
class EventLog:
    """Timestamp-sorted event sequence plus the rejects seen while parsing.

    ``time_span`` is (t_min, t_max). It defaults to the observed event range
    but may be wider (e.g. the nominal span of a generated log) so that
    window grids are stable under filtering.
    """

    events: tuple[ActionEvent, ...]
    time_span: tuple[float, float] | None = None
    rejects: tuple[RecordError, ...] = ()

    def __post_init__(self):
        if self.events:
            lo = min(e.timestamp for e in self.events)
            hi = max(e.timestamp for e in self.events)
            if self.time_span is None:
                object.__setattr__(self, "time_span", (lo, hi))
            else:
                t0, t1 = self.time_span
                if not (t0 <= lo and hi <= t1):
                    raise ValueError("time_span does not cover all events")
        elif self.time_span is not None:
            raise ValueError("time_span given for an empty log")

    def __len__(self) -> int:
        return len(self.events)


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


def _normalize_item(action: str, item: str) -> str:
    if action == HST:
        item = item.lstrip("#").lower()
    elif action == MEN:
        item = item.lstrip("@")
    elif action == URL:
        item = extract_domain(item)
    return item


def _build_event(user, action, item, ts) -> ActionEvent:
    user = str(user).strip()
    if not user:
        raise ValueError("empty user id")
    if _CONTROL_CHARS.search(user):
        raise ValueError(f"control character in user id {user!r}")
    action = str(action).strip().lower()
    if action not in _ACTION_SET:
        raise ValueError(f"unknown action token {action!r}")
    item = _normalize_item(action, str(item).strip())
    if not item:
        raise ValueError("empty item id")
    if _CONTROL_CHARS.search(item):
        raise ValueError(f"control character in item id {item!r}")
    return ActionEvent(user, action, item, _parse_timestamp(ts))


def parse_events(path, schema: str = "jsonl") -> EventLog:
    """Parse an event file into a timestamp-sorted EventLog.

    Supported schemas: "jsonl" (one JSON object per line with keys user,
    action, item, ts) and "tsv" (4 tab-separated columns in that order).
    Blank lines and lines starting with '#' are skipped, except that a TSV
    line containing a tab is always a row. Malformed lines become
    RecordError entries on the returned log instead of being silently
    dropped.
    """
    if schema not in EVENT_SCHEMAS:
        raise ValueError(f"unknown event schema {schema!r}; expected one of {EVENT_SCHEMAS}")
    events: list[ActionEvent] = []
    rejects: list[RecordError] = []
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read event file {path}: {exc}") from exc
    with fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            # a TSV line with a tab is a row, so user ids may start with '#'
            if not line.strip() or (line.startswith("#")
                                    and (schema == "jsonl" or "\t" not in line)):
                continue
            try:
                if schema == "jsonl":
                    rec = json.loads(line)
                    ev = _build_event(rec["user"], rec["action"], rec["item"], rec["ts"])
                else:
                    cols = line.split("\t")
                    if len(cols) != 4:
                        raise ValueError(f"expected 4 columns, got {len(cols)}")
                    ev = _build_event(*cols)
            except (ValueError, KeyError, TypeError) as exc:
                rejects.append(RecordError(line_no, str(exc)))
                continue
            events.append(ev)
    events.sort(key=lambda e: e.timestamp)  # stable: file order kept for ties
    if rejects:
        logger.warning("parse_events: rejected %d of %d lines from %s",
                       len(rejects), len(rejects) + len(events), path)
    return EventLog(tuple(events), rejects=tuple(rejects))


def apply_stoplists(log: EventLog, stop: StopLists) -> EventLog:
    """Drop hst/men/url events whose item is stoplisted; rtw/rpl untouched.

    Idempotent. The log's time_span is preserved so window grids do not
    move when boundary events are removed.
    """
    kept = tuple(
        e for e in log.events
        if not (
            (e.action == HST and e.item_id in stop.hashtags)
            or (e.action == MEN and e.item_id in stop.mentions)
            or (e.action == URL and e.item_id in stop.url_domains)
        )
    )
    if len(kept) == len(log.events):
        return log
    span = log.time_span if kept else None
    return EventLog(kept, time_span=span, rejects=log.rejects)


def select_users(log: EventLog, fraction: float) -> ActorSet:
    """Select, per action type, the top ``ceil(fraction * n_active)`` users
    by event count (ties broken toward lexicographically smaller ids), and
    return their union as the analysis universe.
    """
    if not (0.0 < fraction <= 1.0):
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if not log.events:
        raise ValueError("cannot select users from an empty log")
    counts: dict[str, Counter] = {a: Counter() for a in ACTIONS}
    for e in log.events:
        counts[e.action][e.user_id] += 1
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

"""Action-event ingestion: parsing, stoplist filtering, active-user selection.

An event is a (user, action, item, timestamp) record. Five action types are
tracked, one per co-action modality: retweet (rtw), reply (rpl), mention
(men), hashtag (hst) and URL share (url). During parsing hashtags are
lowercased, URLs are reduced to their registrable domain and mentions keep
their raw id. Collection artifacts (campaign hashtags, candidate mentions,
platform domains) are removed via stoplists, whose entries are normalized
as event items are, after which the most active users per action type are
selected to form the analysis universe. An ActorSet stores those
per-action tops only; its actors are their union. The event file and
stoplists are read through errors.reading, so a file that cannot be read
as UTF-8 text is a DataError naming it.

Events are code columns from the parse on, and ingest is the one place
that encodes ids. An EventLog holds integer user and item codes that index
sorted vocabularies, so code order is id order, an action code that indexes
ACTIONS, and the timestamps as a float64 array. The rows are in time order
by construction: EventLog sorts them once, stably by stamp, so no producer
sorts its rows and the window slices in netbuild need no sort of their own.
Stoplist filtering is a mask over the columns, actor selection a
bincount, and the TF-IDF bucketing in netbuild starts from the codes.
ActionEvent is only a row view, built on demand by EventLog.events for
tests and demos.
"""

from __future__ import annotations

import json
import logging
import math
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import NamedTuple
from urllib.parse import urlsplit

import numpy as np

from .errors import reading

logger = logging.getLogger(__name__)

RTW = "rtw"
RPL = "rpl"
MEN = "men"
HST = "hst"
URL = "url"

# canonical layer order, used everywhere layers are iterated or reported
ACTIONS: tuple[str, ...] = (RTW, RPL, MEN, HST, URL)
_ACTION_CODE = {a: k for k, a in enumerate(ACTIONS)}

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


def _sorted_vocab(first_seen: dict[str, int], dtype=np.int32) -> tuple[tuple[str, ...],
                                                                      np.ndarray]:
    """The sorted vocabulary of ``first_seen`` (id -> code in order of first
    sight), and per first-sight code the id's position in it."""
    vocab = tuple(sorted(first_seen))
    rank = np.empty(len(vocab), dtype=dtype)
    rank[list(map(first_seen.__getitem__, vocab))] = np.arange(len(vocab))
    return vocab, rank


def _sorted_codes(first_seen: dict[str, int], codes) -> tuple[np.ndarray, tuple[str, ...]]:
    """Codes numbered in order of first sight, renumbered into the sorted
    vocabulary of ``first_seen`` (id -> first-sight code), and that vocabulary."""
    vocab, rank = _sorted_vocab(first_seen)
    return rank[np.asarray(codes, dtype=np.int32)], vocab


@dataclass(frozen=True, eq=False)
class EventLog:
    """Events as row-aligned code columns, plus the rejects seen while parsing.

    Row k is ``users[user[k]]`` doing ``ACTIONS[action[k]]`` on
    ``items[item[k]]`` at ``ts[k]`` (epoch seconds). The columns are
    read-only arrays, int32 codes and float64 timestamps. ``users`` and
    ``items`` are sorted tuples of distinct ids, so code order is id order;
    they hold every id of the rows and, after a mask, possibly more.
    The rows are in time order, whatever order they are given in: a stable
    sort by stamp, so equal stamps keep the given order. Every stamp must be
    finite: a ValueError names the first given row that is not.
    ``time_span`` is (t_min, t_max). It defaults to the observed event
    range but may be wider (e.g. the nominal span of a generated log) so
    that window grids are stable under filtering.
    """

    user: np.ndarray = ()
    action: np.ndarray = ()
    item: np.ndarray = ()
    ts: np.ndarray = ()
    users: tuple[str, ...] = ()
    items: tuple[str, ...] = ()
    time_span: tuple[float, float] | None = None
    rejects: tuple[RecordError, ...] = ()

    def __post_init__(self):
        ts = np.asarray(self.ts, dtype=np.float64)
        if not len(self.user) == len(self.action) == len(self.item) == len(ts):
            raise ValueError("event columns differ in length")
        finite = np.isfinite(ts)
        if not finite.all():
            row = int(finite.argmin())
            raise ValueError(f"event row {row}: timestamp {ts[row].item()} is not finite")
        # rows in time order are copied; any others are gathered through one
        # stable argsort, which keeps the given order of equal stamps, -0.0
        # and 0.0 included, and is the copy
        order = None if (ts[1:] >= ts[:-1]).all() else np.argsort(ts, kind="stable")
        columns = (("user", np.int32), ("action", np.int32), ("item", np.int32),
                   ("ts", np.float64))
        for name, dtype in columns:
            col = ts if name == "ts" else getattr(self, name)
            object.__setattr__(self, name, np.array(col, dtype=dtype) if order is None
                               else np.asarray(col, dtype=dtype)[order])
        ts = self.ts
        if len(ts):
            # argmin and argmax keep the first of equal stamps, -0.0 or 0.0,
            # as Python's min and max do; ndarray.min and max need not. Both
            # copy a read-only array, so the columns are frozen after them
            lo, hi = ts[ts.argmin()].item(), ts[ts.argmax()].item()
            if self.time_span is None:
                object.__setattr__(self, "time_span", (lo, hi))
            else:
                t0, t1 = self.time_span
                if not (t0 <= lo and hi <= t1):
                    raise ValueError("time_span does not cover all events")
        elif self.time_span is not None:
            raise ValueError("time_span given for an empty log")
        for name, _ in columns:
            getattr(self, name).flags.writeable = False

    @classmethod
    def from_events(cls, events, time_span=None) -> "EventLog":
        """A log of (user, action, item, timestamp) rows, in time order
        whatever order they come in."""
        user, action, item, ts = tuple(zip(*events)) or ((), (), (), ())
        users, items = {}, {}  # id -> first-sight code, then the sorted vocabulary
        user, users = _sorted_codes(users, [users.setdefault(u, len(users)) for u in user])
        item, items = _sorted_codes(items, [items.setdefault(i, len(items)) for i in item])
        return cls(user, list(map(_ACTION_CODE.__getitem__, action)), item, ts, users, items,
                   time_span)

    def masked(self, keep: np.ndarray) -> "EventLog":
        """The rows where the boolean array ``keep`` is true, over the same
        vocabularies. time_span is kept, so that window grids do not move,
        unless no row is left."""
        return EventLog(self.user[keep], self.action[keep], self.item[keep], self.ts[keep],
                        self.users, self.items, self.time_span if keep.any() else None,
                        self.rejects)

    def decoded(self) -> tuple[list[str], list[str], list[str]]:
        """The user, action and item columns as ids."""
        return (list(map(self.users.__getitem__, self.user.tolist())),
                list(map(ACTIONS.__getitem__, self.action.tolist())),
                list(map(self.items.__getitem__, self.item.tolist())))

    @property
    def events(self) -> tuple[ActionEvent, ...]:
        """The rows as ActionEvent tuples, built anew on each access."""
        return tuple(map(ActionEvent, *self.decoded(), self.ts.tolist()))

    def __len__(self) -> int:
        return len(self.ts)


@dataclass(frozen=True)
class StopLists:
    """Items to drop before network construction.

    Entries are normalized as parse_events normalizes event items: hashtags
    lose a leading '#' and are lowercased, mentions lose a leading '@' and
    are matched exactly, and URL entries are reduced by extract_domain, so
    "https://www.bbc.co.uk/news" lists bbc.co.uk. A URL entry without a
    host is a ValueError.
    """

    hashtags: frozenset[str] = frozenset()
    mentions: frozenset[str] = frozenset()
    url_domains: frozenset[str] = frozenset()

    @staticmethod
    def from_sets(hashtags=(), mentions=(), url_domains=()) -> "StopLists":
        return StopLists(
            hashtags=frozenset(h.lstrip("#").lower() for h in hashtags),
            mentions=frozenset(m.lstrip("@") for m in mentions),
            url_domains=frozenset(map(extract_domain, url_domains)),
        )


def load_stoplist(path) -> tuple[str, ...]:
    """Read a plain-text stoplist, one entry per line; blank lines ignored.
    A file that cannot be read as UTF-8 text is a DataError naming it."""
    with reading(path, "stoplist") as fh:
        return tuple(line for line in map(str.strip, fh) if line)


@dataclass(frozen=True)
class ActorSet:
    """The analysis universe: the top-active users of each action type."""

    per_action_top: dict[str, frozenset[str]]

    @property
    def actors(self) -> frozenset[str]:
        """Every selected user: the union of the per-action tops."""
        return frozenset().union(*self.per_action_top.values())


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
    """Parse an event file into an EventLog.

    Supported schemas: "jsonl" (one JSON object per line with keys user,
    action, item, ts) and "tsv" (4 tab-separated columns in that order).
    Blank lines and lines starting with '#' are skipped, except that a TSV
    line containing a tab is always a row. Malformed lines become
    RecordError entries on the returned log instead of being silently
    dropped. The file is read line by line into four columns, ids as codes
    in order of first sight, which are renumbered in id order at the end;
    the columns go to EventLog as read, which puts them in time order (rows
    with equal timestamps keep their file order). A file that cannot be
    read as UTF-8 text is a DataError naming it.
    """
    if schema not in EVENT_SCHEMAS:
        raise ValueError(f"unknown event schema {schema!r}; expected one of {EVENT_SCHEMAS}")
    # imported here, so that only build loads the array extension (~0.4 MB
    # of peak RSS in every CLI process that imports it)
    from array import array

    jsonl = schema == "jsonl"
    # columns with ids as codes numbered in order of first sight; per column
    # the code of each id that passed the checks below, each raw action
    # token seen, normalized, and each raw URL's domain: a repeated id, token
    # or URL is checked once
    users, actions, items, stamps = array("i"), array("b"), array("i"), array("d")
    user_code, item_code, action_of = {}, {}, {}
    domain_of: dict[str, str] = {}  # raw URL -> domain, for URLs that have one
    rejects: list[RecordError] = []
    loads, has_control, isfinite = json.loads, _CONTROL_CHARS.search, math.isfinite
    with reading(path, "event file") as fh:
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
                if user not in user_code:
                    if not user:
                        raise ValueError("empty user id")
                    if has_control(user):
                        raise ValueError(f"control character in user id {user!r}")
                if action not in action_of:
                    a = action.strip().lower()
                    if a not in _ACTION_CODE:
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
                if item not in item_code:
                    if not item:
                        raise ValueError("empty item id")
                    if has_control(item):
                        raise ValueError(f"control character in item id {item!r}")
                if type(ts) is not float or not isfinite(ts):
                    ts = _parse_timestamp(ts)
            # OverflowError: an integer stamp beyond float range; RecursionError:
            # a line nested deeper than the JSON decoder goes
            except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
                rejects.append(RecordError(line_no, str(exc)))
                continue
            users.append(user_code.setdefault(user, len(user_code)))
            actions.append(_ACTION_CODE[action])
            items.append(item_code.setdefault(item, len(item_code)))
            stamps.append(ts)
    if rejects:
        logger.warning("parse_events: rejected %d of %d lines from %s",
                       len(rejects), len(rejects) + len(stamps), path)
    user, users = _sorted_codes(user_code, users)
    item, items = _sorted_codes(item_code, items)
    return EventLog(user, actions, item, stamps, users, items, rejects=tuple(rejects))


def apply_stoplists(log: EventLog, stop: StopLists) -> EventLog:
    """Drop hst/men/url events whose item is stoplisted; rtw/rpl untouched.

    Idempotent. The log's time_span is preserved so window grids do not
    move when boundary events are removed.
    """
    listed = np.zeros((len(ACTIONS), len(log.items)), dtype=bool)
    for action, ids in ((HST, stop.hashtags), (MEN, stop.mentions), (URL, stop.url_domains)):
        listed[_ACTION_CODE[action]] = [i in ids for i in log.items]
    keep = ~listed[log.action, log.item]
    return log if keep.all() else log.masked(keep)


def select_users(log: EventLog, fraction: float) -> ActorSet:
    """Select, per action type, the top ``ceil(fraction * n_active)`` users
    by event count (ties broken toward lexicographically smaller ids), and
    return them as the analysis universe; an empty log has none.
    """
    if not (0.0 < fraction <= 1.0):
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    n = len(log.users)
    counts = np.bincount(log.action.astype(np.int64) * n + log.user,
                         minlength=len(ACTIONS) * n).reshape(len(ACTIONS), n)
    per_action_top: dict[str, frozenset[str]] = {}
    for a, c in zip(ACTIONS, counts):
        active = np.flatnonzero(c)
        ranked = active[np.lexsort((active, -c[active]))]  # equal counts: smaller id first
        top = ranked[:math.ceil(fraction * len(active))].tolist()
        per_action_top[a] = frozenset(map(log.users.__getitem__, top))
    actors = ActorSet(per_action_top)
    logger.info("select_users: fraction=%.4g -> %d actors (%s)", fraction, len(actors.actors),
                ", ".join(f"{a}:{len(per_action_top[a])}" for a in ACTIONS))
    return actors

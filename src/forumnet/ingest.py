"""Post parsing, the integer-coded post table and rolling calendar windows.

Parsed records are coded once into a ``PostTable``; every later stage
reads its columns.  Windows use calendar arithmetic rather than
fixed-length seconds: month jumps land on the same day-of-month and the
half-month jump alternates between day 1 and day 15, which is what makes
one-month windows starting on the 1st and 15th line up.
"""

from __future__ import annotations

import calendar
import csv
import json
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from operator import itemgetter
from typing import NamedTuple

import numpy as np

SENTIMENTS = ("positive", "neutral", "negative")
# label code of a sentiment: its SENTIMENTS index, -1 when unlabeled
LABEL_CODES = {None: -1, **{s: i for i, s in enumerate(SENTIMENTS)}}


class IngestError(ValueError):
    """Malformed post data or window specification."""


class PostRecord(NamedTuple):
    """One post.

    A plain tuple: ``==``, hashing and ordering compare all six fields in
    order, so posts with distinct post ids sort by (timestamp, post_id).
    """
    timestamp: datetime  # naive UTC, second resolution
    post_id: str
    thread_id: str
    user_id: str
    is_original: bool
    sentiment: str | None = None


def _parse_timestamp(raw: str, where: str) -> datetime:
    try:
        ts = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    except ValueError:
        raise IngestError(f"{where}: unparseable timestamp {raw!r}") from None
    if ts.tzinfo is not None:
        ts = ts.astimezone(timezone.utc).replace(tzinfo=None)
    return ts.replace(microsecond=0)


def _parse_bool(raw: str, where: str) -> bool:
    low = str(raw).strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no", ""):
        return False
    raise IngestError(f"{where}: invalid boolean {raw!r}")


def _parse_sentiment(raw, where: str) -> str | None:
    if raw is None:
        return None
    token = str(raw).strip().lower()
    if token == "":
        return None
    if token not in SENTIMENTS:
        raise IngestError(f"{where}: unknown sentiment token {raw!r}")
    return token


REQUIRED_FIELDS = ("post_id", "thread_id", "user_id", "timestamp", "is_original")
FIELDS = REQUIRED_FIELDS + ("sentiment",)

# canonical raw values, read without the validators
_BOOLS = {"true": True, "false": False}
_LABELS = {"": None, **{s: s for s in SENTIMENTS}}


def _record(values, where: str) -> PostRecord:
    """Validate one record's raw values, given in ``FIELDS`` order.

    Canonical values (naive whole-second timestamps, lower-case
    ``true``/``false`` and labels) are taken directly; anything else goes
    to the validators, which normalise it or raise.
    """
    post_id, thread_id, user_id, raw_ts, raw_orig, raw_label = values
    required = values[:5]
    if None in required or "" in required:
        missing = [f for f, v in zip(REQUIRED_FIELDS, required) if v in (None, "")]
        raise IngestError(f"{where}: missing required field(s) {missing}")
    try:
        ts = datetime.fromisoformat(raw_ts)
    except (TypeError, ValueError):
        ts = None
    if ts is None or ts.tzinfo is not None or ts.microsecond or "Z" in raw_ts:
        ts = _parse_timestamp(str(raw_ts), where)
    flag = _BOOLS.get(raw_orig) if type(raw_orig) is str else raw_orig
    if type(flag) is not bool:
        flag = _parse_bool(raw_orig, where)
    # lists and dicts are unhashable, so only strings are looked up
    label = _LABELS.get(raw_label, False) if type(raw_label) is str else False
    if label is False:
        label = _parse_sentiment(raw_label, where)
    return PostRecord(ts, str(post_id), str(thread_id), str(user_id), flag, label)


def _numbered_rows(stream, fmt: str):
    """Yield (line number, raw values in ``FIELDS`` order) per record.

    The number is the record's first physical line.  A CSV header naming a
    column twice keeps the last one; a missing column or a short row gives
    None, extra cells are ignored and blank lines skipped.  JSONL counts
    every line, blank ones included.
    """
    if fmt == "csv":
        reader = csv.reader(stream)
        lineno = 1
        try:
            index = {name: i for i, name in enumerate(next(reader, ()))}
            # a short row is padded with None; a missing column reads the last pad
            pad = [None] * (max(index.values(), default=0) + 1)
            pick = itemgetter(*(index.get(f, -1) for f in FIELDS))
            lineno = reader.line_num + 1
            for row in reader:
                if row:
                    yield lineno, pick(row + pad)
                lineno = reader.line_num + 1
        except csv.Error as exc:
            raise IngestError(f"line {lineno}: {exc}") from None
    elif fmt == "jsonl":
        for lineno, line in enumerate(stream, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise IngestError(f"line {lineno}: invalid JSON: {exc}") from None
            if not isinstance(row, dict):
                raise IngestError(f"line {lineno}: expected a JSON object, "
                                  f"got {type(row).__name__}")
            yield lineno, [row.get(f) for f in FIELDS]
    else:
        raise IngestError(f"unknown input format {fmt!r}")


def parse_posts(stream, fmt: str = "csv") -> list[PostRecord]:
    """Parse CSV or JSONL post records, sorted by (timestamp, post_id).

    A post_id seen twice is an error at the line of its second occurrence.
    """
    records = []
    seen: set[str] = set()
    for lineno, values in _numbered_rows(stream, fmt):
        record = _record(values, f"line {lineno}")
        if record.post_id in seen:
            raise IngestError(
                f"line {lineno}: duplicate post_id {record.post_id!r}")
        seen.add(record.post_id)
        records.append(record)
    records.sort()  # post ids are unique, so tuple order is (timestamp, post_id)
    return records


def write_posts_csv(records, stream):
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(FIELDS)
    for r in records:
        writer.writerow([
            r.post_id, r.thread_id, r.user_id,
            r.timestamp.isoformat(sep=" "),
            "true" if r.is_original else "false",
            r.sentiment or "",
        ])


_EPOCH = datetime(1970, 1, 1)


def _column(posts, field: int, code=None, dtype=np.int64):
    """One record field as an array, each value mapped through ``code``."""
    values = map(itemgetter(field), posts)
    return np.fromiter(map(code, values) if code else values, dtype, len(posts))


def _codes(posts, field: int):
    """Sorted distinct values of a string field, as copies that keep no
    record's memory alive, and each post's int32 index among them."""
    ids = sorted(set(map(itemgetter(field), posts)))
    index = dict(zip(ids, range(len(ids))))
    return ([s.encode(errors="surrogatepass").decode(errors="surrogatepass")
             for s in ids], _column(posts, field, index.__getitem__, np.int32))


@dataclass(frozen=True, eq=False)
class PostTable:
    """Posts as integer-coded columns, sorted by (timestamp, post_id).

    User and thread codes index the sorted ``user_ids``/``thread_ids``, so
    ordering by code is ordering by id.  Labels are ``LABEL_CODES``.
    ``thread_label`` and ``thread_creation``, indexed by thread code, are
    the label and epoch seconds of each thread's original post.
    """
    user: np.ndarray             # int32
    thread: np.ndarray           # int32
    time: np.ndarray             # int64 epoch seconds
    label: np.ndarray            # int8
    is_original: np.ndarray      # bool
    user_ids: list
    thread_ids: list
    thread_label: np.ndarray     # int8
    thread_creation: np.ndarray  # int64

    def __len__(self) -> int:
        return len(self.time)


def post_table(posts) -> PostTable:
    """Code post records, in any order, as a ``PostTable``.

    Every thread must have exactly one original post; the error names the
    first offending thread in time order."""
    posts = sorted(posts)  # post ids are unique: (timestamp, post_id) order
    user_ids, user = _codes(posts, 3)
    thread_ids, thread = _codes(posts, 2)
    # seconds since the epoch; whole seconds are exact in float64
    time = _column(posts, 0, lambda ts: (ts - _EPOCH).total_seconds(),
                   np.float64).astype(np.int64)
    label = _column(posts, 5, LABEL_CODES.__getitem__, np.int8)
    is_original = _column(posts, 4, dtype=bool)
    original = np.flatnonzero(is_original)
    found = np.bincount(thread[original], minlength=len(thread_ids))
    if (found != 1).any():
        bad = thread[np.isin(thread, np.flatnonzero(found != 1)).argmax()]
        raise IngestError(f"thread {thread_ids[bad]}: expected exactly 1 "
                          f"original post, found {found[bad]}")
    original = original[np.argsort(thread[original])]  # one per thread, by code
    return PostTable(user, thread, time, label, is_original, user_ids,
                     thread_ids, label[original], time[original])


def appearance_rank(codes: np.ndarray) -> np.ndarray:
    """Each code renumbered by the order of its first occurrence."""
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    rank = np.empty(first.size, np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse]


# --- window arithmetic ---

def add_months(d: date, months: int) -> date:
    month_index = d.month - 1 + months
    year = d.year + month_index // 12
    month = month_index % 12 + 1
    day = min(d.day, calendar.monthrange(year, month)[1])
    return date(year, month, day)


def parse_duration(token: str):
    """Duration token: '4m' (months) or 'halfmonth'."""
    tok = token.strip().lower()
    if tok == "halfmonth":
        return ("halfmonth",)
    if tok.endswith("m") and tok[:-1].isdigit():
        return ("months", int(tok[:-1]))
    raise IngestError(f"invalid duration {token!r} (use e.g. '4m' or 'halfmonth')")


def _advance(d: date, jump) -> date:
    if jump[0] == "months":
        return add_months(d, jump[1])
    if d.day == 1:
        return d.replace(day=15)
    if d.day == 15:
        return add_months(d.replace(day=1), 1)
    raise IngestError("halfmonth jump requires window starts on day 1 or 15")


def _duration_months(dur) -> float:
    return 0.5 if dur[0] == "halfmonth" else float(dur[1])


@dataclass(frozen=True)
class WindowSpec:
    start: date
    end: date
    span: tuple  # ('months', k); windows cover [start, start + span)
    jump: tuple  # ('months', k) or ('halfmonth',)

    def __post_init__(self):
        if self.span[0] != "months":
            raise IngestError("window span must be a whole number of months")
        if self.end < self.start:
            raise IngestError("window end boundary precedes start boundary")
        if _duration_months(self.jump) > _duration_months(self.span):
            raise IngestError("jump larger than span leaves coverage gaps")

    @classmethod
    def from_tokens(cls, start: str, end: str, span: str, jump: str):
        return cls(date.fromisoformat(start), date.fromisoformat(end),
                   parse_duration(span), parse_duration(jump))


@dataclass(frozen=True)
class Window:
    """The post table ``rows`` stamped in the half-open window from
    midnight of ``label`` to ``label`` + span."""
    label: date
    table: PostTable = field(repr=False)
    rows: slice

    @property
    def label_str(self) -> str:
        return self.label.isoformat()


def window_starts(spec: WindowSpec) -> list[date]:
    starts = []
    cur = spec.start
    while add_months(cur, spec.span[1]) <= spec.end:
        starts.append(cur)
        cur = _advance(cur, spec.jump)
    return starts


def make_windows(posts, spec: WindowSpec) -> list[Window]:
    """Rolling windows over a ``PostTable`` (records are coded first),
    as row ranges found by binary search on time."""
    table = posts if isinstance(posts, PostTable) else post_table(posts)
    windows = []
    for start in window_starts(spec):
        bounds = np.array([start, add_months(start, spec.span[1])], "datetime64[s]")
        lo, hi = np.searchsorted(table.time, bounds.astype(np.int64))
        windows.append(Window(start, table, slice(int(lo), int(hi))))
    return windows


def window_stats(w: Window) -> dict:
    t, rows = w.table, w.rows
    return {"posts": rows.stop - rows.start,
            "threads": int(np.count_nonzero(np.bincount(t.thread[rows]))),
            "users": int(np.count_nonzero(np.bincount(t.user[rows])))}

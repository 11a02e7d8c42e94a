"""Post parsing, the integer-coded post table and rolling calendar windows.

Posts are parsed in chunks straight into the columns of a ``PostTable``;
every later stage reads its columns.  Windows use calendar arithmetic
rather than fixed-length seconds: month jumps land on the same
day-of-month and the half-month jump alternates between day 1 and day 15,
which is what makes one-month windows starting on the 1st and 15th line up.
"""

from __future__ import annotations

import calendar
import csv
import json
import logging
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta, timezone
from itertools import repeat
from operator import itemgetter
from typing import NamedTuple

import numpy as np

log = logging.getLogger(__name__)

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
        try:
            ts = ts.astimezone(timezone.utc).replace(tzinfo=None)
        except OverflowError:  # the offset moves it past year 1 or 9999
            raise IngestError(f"{where}: timestamp {raw!r} out of range") from None
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


def _record(values, where: str) -> PostRecord:
    """Validate one record's raw values, given in ``FIELDS`` order, each
    through its validator, which normalises it or raises."""
    post_id, thread_id, user_id, raw_ts, raw_orig, raw_label = values
    required = values[:5]
    if None in required or "" in required:
        missing = [f for f, v in zip(REQUIRED_FIELDS, required) if v in (None, "")]
        raise IngestError(f"{where}: missing required field(s) {missing}")
    return PostRecord(_parse_timestamp(str(raw_ts), where), str(post_id),
                      str(thread_id), str(user_id), _parse_bool(raw_orig, where),
                      _parse_sentiment(raw_label, where))


# --- chunked parsing ---

# records parsed at a time; a chunk's raw rows should fit in the CPU cache:
# with 2 MB of L2 per core, 1024 parsed faster than 2048 or 8192
CHUNK_ROWS = 1024

_EPOCH = datetime(1970, 1, 1)
_SECOND = timedelta(seconds=1)
_OTHER = -128  # chunk code of a value that is not canonical
_FLAG_CODES = {"true": 1, "false": 0}
_LABEL_CODES = {"": -1, **LABEL_CODES}
# a canonical timestamp is YYYY-MM-DD[ T]HH:MM:SS: the byte range allowed at
# each offset (offset 10, the separator, is ' ' or 'T', checked apart)
_STAMP_LO = np.frombuffer(b"0000-00-00 00:00:00", np.uint8)
_STAMP_HI = np.frombuffer(b"9999-99-99T99:99:99", np.uint8)
_NOT_A_STAMP = "0000-01-01 00:00:00"  # not canonical, but numpy parses it


def _stamp_seconds(values):
    """Epoch seconds of the canonical timestamps among ``values`` and a mask
    of which values are canonical; the other seconds are meaningless.

    Canonical is 19 ASCII characters ``YYYY-MM-DD[ T]HH:MM:SS`` naming a
    real second from year 1 on: exactly the strings ``_parse_timestamp``
    has nothing to normalise in.  A byte mask checks the shape and rules
    out year 0; numpy's ``datetime64`` parser checks the calendar."""
    if set(map(type, values)) != {str} or set(map(len, values)) != {19}:
        values = [v if type(v) is str and len(v) == 19 else _NOT_A_STAMP
                  for v in values]
    # one byte per character: a non-ASCII one becomes '?', which no offset allows
    raw = np.frombuffer("".join(values).encode("ascii", "replace"),
                        np.uint8).reshape(-1, 19)
    canonical = (((raw >= _STAMP_LO) & (raw <= _STAMP_HI)).all(1)
                 & ((raw[:, 10] == ord(" ")) | (raw[:, 10] == ord("T")))
                 & (raw[:, :4] != ord("0")).any(1))  # numpy has a year 0
    if not canonical.all():
        values = [v if ok else _NOT_A_STAMP
                  for v, ok in zip(values, canonical.tolist())]
    seconds = np.empty(len(values), np.int64)
    spans = [(0, len(values))]
    while spans:
        lo, hi = spans.pop()
        try:
            seconds[lo:hi] = np.array(values[lo:hi], "datetime64[s]").view(np.int64)
        except ValueError:  # parse each half again, down to the bad stamps
            if hi - lo == 1:
                canonical[lo] = False
            else:
                spans += [(lo, (lo + hi) // 2), ((lo + hi) // 2, hi)]
    return seconds, canonical


def _lookup(codes: dict, values) -> np.ndarray:
    """Each value's int8 code in ``codes``, ``_OTHER`` when it has none."""
    try:
        return np.fromiter(map(codes.get, values, repeat(_OTHER)), np.int8,
                           len(values))
    except TypeError:  # an unhashable JSON array or object
        return np.array([_OTHER if isinstance(v, (list, dict))
                         else codes.get(v, _OTHER) for v in values], np.int8)


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


def _chunks(stream, fmt: str):
    """Yield (the records' line numbers, their raw values as columns in
    ``FIELDS`` order) per ``CHUNK_ROWS`` records.  An error of the reader
    itself is raised after the records before it are yielded."""
    starts, rows, error = [], [], None
    try:
        for lineno, values in _numbered_rows(stream, fmt):
            starts.append(lineno)
            rows.append(values)
            if len(rows) == CHUNK_ROWS:
                yield starts, [list(column) for column in zip(*rows)]
                starts, rows = [], []
    except IngestError as exc:
        error = exc
    if rows:
        yield starts, [list(column) for column in zip(*rows)]
    if error:
        raise error


def _parse(stream, fmt: str):
    """Validated post columns in file order, and how many records went
    through ``_record``.

    Canonical values are checked a chunk at a time; a record holding any
    other value goes through ``_record``, in file order, which normalises
    it or raises.  A post_id seen twice is an error at the line of its
    second occurrence, and the first error in file order wins."""
    coder, seen, routed = _Coder(), set(), 0
    for starts, columns in _chunks(stream, fmt):
        post, thread, user, raw_stamp, raw_flag, raw_label = columns
        time, canonical = _stamp_seconds(raw_stamp)
        flag = _lookup(_FLAG_CODES, raw_flag)
        for i in np.flatnonzero(flag == _OTHER).tolist():
            if type(raw_flag[i]) is bool:  # a JSON boolean
                flag[i] = raw_flag[i]
        label = _lookup(_LABEL_CODES, raw_label)
        canonical &= (flag != _OTHER) & (label != _OTHER)
        for ids in (post, thread, user):
            if "" in ids or set(map(type, ids)) != {str}:
                canonical &= [type(v) is str and v != "" for v in ids]
        error, stop = None, len(starts)
        for i in np.flatnonzero(~canonical).tolist():
            routed += 1
            try:
                rec = _record([c[i] for c in columns], f"line {starts[i]}")
            except IngestError as exc:
                error, stop = exc, i
                break
            post[i], thread[i], user[i] = rec.post_id, rec.thread_id, rec.user_id
            time[i] = (rec.timestamp - _EPOCH) // _SECOND
            flag[i] = rec.is_original
            label[i] = LABEL_CODES[rec.sentiment]
        fresh = set(post[:stop])
        if len(fresh) < stop or not seen.isdisjoint(fresh):
            for line, post_id in zip(starts, post[:stop]):
                if post_id in seen:
                    raise IngestError(f"line {line}: duplicate post_id {post_id!r}")
                seen.add(post_id)
        if error:
            raise error
        seen |= fresh
        coder.add(post, thread, user, time, flag == 1, label)
    return coder, routed


def parse_posts(stream, fmt: str = "csv") -> PostTable:
    """Parse CSV or JSONL posts into a ``PostTable``.

    Errors name the first physical line of the bad record; a thread
    without exactly one original post is an error too."""
    coder, routed = _parse(stream, fmt)
    table = coder.table()
    log.info("ingest: %d posts, %d rows through the per-row validators",
             len(table), routed)
    return table


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


# --- the coded table ---

def _code(index: dict, ids) -> np.ndarray:
    """Each id's int32 code, numbering new ids in first-seen order."""
    fresh = [i for i in dict.fromkeys(ids) if i not in index]
    index.update(zip(fresh, range(len(index), len(index) + len(fresh))))
    return np.fromiter(map(index.__getitem__, ids), np.int32, len(ids))


def _sorted_ids(index: dict):
    """The ids of a first-seen coding in sorted order, and each first-seen
    code's position among them."""
    ids = sorted(index)
    rank = np.empty(len(ids), np.int32)
    rank[np.fromiter(map(index.__getitem__, ids), np.int64, len(ids))] = \
        np.arange(len(ids))
    return ids, rank


def _time_order(time: np.ndarray, post_ids: list) -> np.ndarray:
    """Row order by (time, post id): a stable argsort on time, then each
    group of equal times sorted by post id."""
    order = np.argsort(time, kind="stable")
    t = time[order]
    same = t[1:] == t[:-1]
    tied = np.zeros(len(t), bool)
    tied[1:] = same
    tied[:-1] |= same
    rows = order[tied].tolist()
    order[tied] = [i for _, _, i in sorted(zip(
        t[tied].tolist(), map(post_ids.__getitem__, rows), rows))]
    return order


class _Coder:
    """Post columns gathered chunk by chunk, user and thread ids coded in
    first-seen order."""

    def __init__(self):
        self.post_ids = []
        self.users, self.threads = {}, {}
        # user, thread, time, is_original, label
        self.parts = [[np.empty(0, t)] for t in (np.int32, np.int32, np.int64,
                                                 bool, np.int8)]

    def add(self, post_ids, thread_ids, user_ids, time, is_original, label):
        self.post_ids += post_ids
        chunk = (_code(self.users, user_ids), _code(self.threads, thread_ids),
                 time, is_original, label)
        for part, column in zip(self.parts, chunk):
            part.append(column)

    def columns(self):
        """The ``PostTable`` columns up to ``post_ids``, in (time, post_id)
        order, with codes indexing the sorted ids."""
        user, thread, time, is_original, label = map(np.concatenate, self.parts)
        order = _time_order(time, self.post_ids)
        user_ids, user_rank = _sorted_ids(self.users)
        thread_ids, thread_rank = _sorted_ids(self.threads)
        return (user_rank[user[order]], thread_rank[thread[order]], time[order],
                label[order], is_original[order], user_ids, thread_ids,
                np.array(self.post_ids, object)[order].tolist())

    def table(self) -> PostTable:
        """The ``PostTable``.  Every thread must have exactly one original
        post; the error names the first offending thread in time order."""
        columns = self.columns()
        _, thread, time, label, is_original, _, thread_ids, _ = columns
        original = np.flatnonzero(is_original)
        found = np.bincount(thread[original], minlength=len(thread_ids))
        if (found != 1).any():
            bad = thread[np.isin(thread, np.flatnonzero(found != 1)).argmax()]
            raise IngestError(f"thread {thread_ids[bad]}: expected exactly 1 "
                              f"original post, found {found[bad]}")
        original = original[np.argsort(thread[original])]  # one per thread
        return PostTable(*columns, label[original], time[original])


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
    post_ids: list               # in row order
    thread_label: np.ndarray     # int8
    thread_creation: np.ndarray  # int64

    def __len__(self) -> int:
        return len(self.time)

    def records(self):
        """Yield the posts as ``PostRecord``s, in row order."""
        sentiment = dict(zip(LABEL_CODES.values(), LABEL_CODES))
        for t, post_id, thread, user, is_original, label in zip(
                self.time.tolist(), self.post_ids, self.thread.tolist(),
                self.user.tolist(), self.is_original.tolist(),
                self.label.tolist()):
            yield PostRecord(_EPOCH + t * _SECOND, post_id,
                             self.thread_ids[thread], self.user_ids[user],
                             is_original, sentiment[label])


def post_table(posts) -> PostTable:
    """Code post records, in any order, as a ``PostTable``; every thread
    must have exactly one original post."""
    coder = _Coder()
    if posts:
        stamps, post_ids, thread_ids, user_ids, flags, labels = zip(*posts)
        coder.add(list(post_ids), thread_ids, user_ids,
                  np.fromiter(((ts - _EPOCH) // _SECOND for ts in stamps),
                              np.int64, len(stamps)),
                  np.array(flags, bool),
                  np.fromiter(map(LABEL_CODES.__getitem__, labels), np.int8,
                              len(labels)))
    return coder.table()


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
    """Duration token: '<n>m' (n >= 1 months) or 'halfmonth'."""
    tok = token.strip().lower()
    if tok == "halfmonth":
        return ("halfmonth",)
    if tok.endswith("m") and tok[:-1].isdecimal() and int(tok[:-1]) >= 1:
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

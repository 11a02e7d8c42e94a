"""Post parsing, thread derivation and rolling calendar windows.

Windows use calendar arithmetic rather than fixed-length seconds: month
jumps land on the same day-of-month and the half-month jump alternates
between day 1 and day 15, which is what makes one-month windows starting
on the 1st and 15th line up.
"""

from __future__ import annotations

import calendar
import csv
import json
from bisect import bisect_left
from dataclasses import dataclass
from datetime import date, datetime, timezone
from operator import itemgetter
from typing import NamedTuple

SENTIMENTS = ("positive", "neutral", "negative")


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


@dataclass
class ThreadRecord:
    thread_id: str
    creation: datetime | None
    post_count: int
    user_count: int
    sentiment: str | None  # original post's label, None when unlabeled


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


def derive_threads(posts) -> dict[str, ThreadRecord]:
    """Thread metadata from the full post list, in any order.

    Thread sentiment is the original post's label and its creation the
    original's timestamp, even when a reply is stamped earlier; a thread
    must have exactly one original post.
    """
    by_thread: dict[str, list[PostRecord]] = {}
    for p in posts:
        by_thread.setdefault(p.thread_id, []).append(p)
    out = {}
    for tid, plist in by_thread.items():
        originals = [p for p in plist if p.is_original]
        if len(originals) != 1:
            raise IngestError(
                f"thread {tid}: expected exactly 1 original post, found {len(originals)}"
            )
        out[tid] = ThreadRecord(
            thread_id=tid,
            creation=originals[0].timestamp,
            post_count=len(plist),
            user_count=len({p.user_id for p in plist}),
            sentiment=originals[0].sentiment,
        )
    return out


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


@dataclass
class WindowSlice:
    label: date           # window start
    start: datetime
    end: datetime         # half-open [start, end)
    posts: list[PostRecord]
    threads: dict[str, ThreadRecord]  # per-window counts, corpus sentiment

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


def make_windows(posts, spec: WindowSpec) -> list[WindowSlice]:
    """Partition posts into rolling windows.

    Thread post/user counts inside each slice are computed from contained
    posts only; thread sentiment comes from the corpus-wide original post.
    """
    posts = sorted(posts, key=itemgetter(0, 1))  # (timestamp, post_id)
    sentiments = {}
    creations = {}
    for p in posts:
        if p.is_original and p.thread_id not in sentiments:
            sentiments[p.thread_id] = p.sentiment
            creations[p.thread_id] = p.timestamp
    stamps = [p.timestamp for p in posts]
    slices = []
    for start in window_starts(spec):
        s = datetime(start.year, start.month, start.day)
        e_date = add_months(start, spec.span[1])
        e = datetime(e_date.year, e_date.month, e_date.day)
        lo = bisect_left(stamps, s)
        hi = bisect_left(stamps, e)
        contained = posts[lo:hi]
        threads: dict[str, ThreadRecord] = {}
        per_thread: dict[str, list[PostRecord]] = {}
        for p in contained:
            per_thread.setdefault(p.thread_id, []).append(p)
        for tid, plist in per_thread.items():
            threads[tid] = ThreadRecord(
                thread_id=tid,
                creation=creations.get(tid),
                post_count=len(plist),
                user_count=len({p.user_id for p in plist}),
                sentiment=sentiments.get(tid),
            )
        slices.append(WindowSlice(start, s, e, contained, threads))
    return slices


def window_stats(w: WindowSlice) -> dict:
    return {
        "posts": len(w.posts),
        "threads": len(w.threads),
        "users": len({p.user_id for p in w.posts}),
    }

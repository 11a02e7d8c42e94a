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
from dataclasses import dataclass, field
from datetime import date, datetime, timezone

SENTIMENTS = ("positive", "neutral", "negative")


class IngestError(ValueError):
    """Malformed post data or window specification."""


@dataclass(frozen=True, order=True)
class PostRecord:
    timestamp: datetime  # naive UTC, second resolution
    post_id: str
    thread_id: str = field(compare=False)
    user_id: str = field(compare=False)
    is_original: bool = field(compare=False)
    sentiment: str | None = field(compare=False, default=None)


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


def _record_from_mapping(row: dict, where: str) -> PostRecord:
    missing = [f for f in REQUIRED_FIELDS if row.get(f) in (None, "")]
    if missing:
        raise IngestError(f"{where}: missing required field(s) {missing}")
    return PostRecord(
        timestamp=_parse_timestamp(str(row["timestamp"]), where),
        post_id=str(row["post_id"]),
        thread_id=str(row["thread_id"]),
        user_id=str(row["user_id"]),
        is_original=_parse_bool(row["is_original"], where)
        if not isinstance(row["is_original"], bool) else row["is_original"],
        sentiment=_parse_sentiment(row.get("sentiment"), where),
    )


def _numbered_rows(stream, fmt: str):
    """Yield (line number, field mapping) for each CSV or JSONL record."""
    if fmt == "csv":
        reader = csv.DictReader(stream)
        yield from enumerate(reader, start=2)
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
            yield lineno, row
    else:
        raise IngestError(f"unknown input format {fmt!r}")


def parse_posts(stream, fmt: str = "csv") -> list[PostRecord]:
    """Parse CSV or JSONL post records, sorted by (timestamp, post_id).

    A post_id seen twice is an error at the line of its second occurrence.
    """
    records = []
    seen: set[str] = set()
    for lineno, row in _numbered_rows(stream, fmt):
        record = _record_from_mapping(row, f"line {lineno}")
        if record.post_id in seen:
            raise IngestError(
                f"line {lineno}: duplicate post_id {record.post_id!r}")
        seen.add(record.post_id)
        records.append(record)
    records.sort(key=lambda r: (r.timestamp, r.post_id))
    return records


def write_posts_csv(records, stream):
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(REQUIRED_FIELDS + ("sentiment",))
    for r in records:
        writer.writerow([
            r.post_id, r.thread_id, r.user_id,
            r.timestamp.isoformat(sep=" "),
            "true" if r.is_original else "false",
            r.sentiment or "",
        ])


def derive_threads(posts) -> dict[str, ThreadRecord]:
    """Thread metadata from the full post list.

    Thread sentiment is the original post's label; a thread must have
    exactly one original post.
    """
    by_thread: dict[str, list[PostRecord]] = {}
    for p in sorted(posts, key=lambda r: (r.timestamp, r.post_id)):
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
    posts = sorted(posts, key=lambda r: (r.timestamp, r.post_id))
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

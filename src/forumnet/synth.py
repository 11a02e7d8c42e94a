"""Deterministic scripted forum-event generator.

Thread and user choice use Zipf-by-rank weights: within a day, active
threads are ranked by popularity (post count so far) and a thread at rank
r is picked with probability proportional to (r + 1)^-s.  A high exponent
concentrates discussion in a few threads, which is what drives the clique
signal downstream.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from itertools import accumulate

from .ingest import SENTIMENTS, PostRecord


class ScriptError(ValueError):
    pass


def _check_dist(p, name):
    if len(p) != 3 or any(x < 0 for x in p) or abs(sum(p) - 1.0) > 1e-9:
        raise ScriptError(f"{name} must be 3 non-negative probabilities summing to 1")


@dataclass(frozen=True)
class Segment:
    duration_days: int
    user_pool: int
    threads_per_day: float
    posts_per_day: float
    thread_zipf: float
    user_zipf: float
    thread_sentiment: tuple[float, float, float]
    mixing: tuple  # 3 columns (thread sentiment) of 3 post-sentiment probs

    def __post_init__(self):
        if self.duration_days < 1:
            raise ScriptError("segment duration must be >= 1 day")
        if self.user_pool < 1:
            raise ScriptError("user pool must be >= 1")
        if self.threads_per_day <= 0 or self.posts_per_day <= 0:
            raise ScriptError("daily rates must be positive")
        if self.thread_zipf < 0 or self.user_zipf < 0:
            raise ScriptError("Zipf exponents must be >= 0")
        _check_dist(self.thread_sentiment, "thread_sentiment")
        if len(self.mixing) != 3:
            raise ScriptError("mixing must have one column per thread sentiment")
        for col in self.mixing:
            _check_dist(col, "mixing column")


@dataclass(frozen=True)
class RegimeScript:
    segments: tuple
    seed: int
    start: date = date(2020, 1, 1)
    thread_lifetime_days: int = 30

    def __post_init__(self):
        if not self.segments:
            raise ScriptError("script needs at least one segment")
        if self.thread_lifetime_days < 1:
            raise ScriptError("thread lifetime must be >= 1 day")

    @classmethod
    def from_json(cls, text: str) -> "RegimeScript":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScriptError(f"invalid script JSON: {exc}") from None
        known = {"segments", "seed", "start", "thread_lifetime_days"}
        extra = set(raw) - known
        if extra:
            raise ScriptError(f"unknown script keys: {sorted(extra)}")
        segs = []
        for s in raw.get("segments", []):
            segs.append(Segment(
                duration_days=int(s["duration_days"]),
                user_pool=int(s["user_pool"]),
                threads_per_day=float(s["threads_per_day"]),
                posts_per_day=float(s["posts_per_day"]),
                thread_zipf=float(s["thread_zipf"]),
                user_zipf=float(s["user_zipf"]),
                thread_sentiment=tuple(s["thread_sentiment"]),
                mixing=tuple(tuple(c) for c in s["mixing"]),
            ))
        return cls(
            segments=tuple(segs),
            seed=int(raw.get("seed", 0)),
            start=date.fromisoformat(raw.get("start", "2020-01-01")),
            thread_lifetime_days=int(raw.get("thread_lifetime_days", 30)),
        )


def _poisson(rng: random.Random, lam: float) -> int:
    # Knuth's method; rates here are small enough that this is fine
    limit = math.exp(-lam)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= limit:
            return k
        k += 1


def _zipf_cum(n: int, s: float) -> list[float]:
    total = 0.0
    out = []
    for r in range(n):
        total += 1.0 / (r + 1) ** s
        out.append(total)
    return out


def _pick(rng: random.Random, cum) -> int:
    return bisect(cum, rng.random() * cum[-1])


def generate_forum(script: RegimeScript) -> list[PostRecord]:
    """Run the script day by day; deterministic for a given seed.

    Popularity ranks are frozen at the start of each day, so the event
    order (and hence the random stream) does not depend on how replies
    happen to land within the day. Draws are batched per day (originals
    first, then reply threads, users, timestamps, sentiments) to keep the
    stream layout fixed and the loop cheap.
    """
    rng = random.Random(script.seed)
    posts: list[PostRecord] = []
    # thread id -> [sentiment index, post count, creation day, original ts]
    threads: dict[str, list] = {}
    next_thread = 0
    next_post = 0
    day = 0
    for seg in script.segments:
        user_cum = _zipf_cum(seg.user_pool, seg.user_zipf)
        users = [f"u{idx:05d}" for idx in range(seg.user_pool)]
        sent_cum = list(accumulate(seg.thread_sentiment))
        mix_cum = [list(accumulate(col)) for col in seg.mixing]
        for _ in range(seg.duration_days):
            day_start = datetime.combine(
                script.start + timedelta(days=day), datetime.min.time()
            )
            n_new = _poisson(rng, seg.threads_per_day)
            n_replies = _poisson(rng, seg.posts_per_day)
            day_originals: dict[str, datetime] = {}
            for _ in range(n_new):
                tid = f"t{next_thread:06d}"
                next_thread += 1
                ts = day_start + timedelta(seconds=int(rng.random() * 86400))
                user = users[_pick(rng, user_cum)]
                si = _pick(rng, sent_cum)
                posts.append(PostRecord(ts, f"p{next_post:07d}", tid, user,
                                        True, SENTIMENTS[si]))
                next_post += 1
                threads[tid] = [si, 1, day, ts]
                day_originals[tid] = ts
            active = [
                tid for tid, info in threads.items()
                if day - info[2] < script.thread_lifetime_days
            ]
            # rank by (popularity desc, age asc); frozen for the day
            active.sort(key=lambda tid: (-threads[tid][1], threads[tid][2], tid))
            if active:
                thread_cum = _zipf_cum(len(active), seg.thread_zipf)
                rand = rng.random
                for _ in range(n_replies):
                    tid = active[_pick(rng, thread_cum)]
                    info = threads[tid]
                    ts = day_start + timedelta(seconds=int(rand() * 86400))
                    if tid in day_originals and ts <= day_originals[tid]:
                        ts = day_originals[tid] + timedelta(seconds=1)
                    user = users[_pick(rng, user_cum)]
                    si = _pick(rng, mix_cum[info[0]])
                    posts.append(PostRecord(ts, f"p{next_post:07d}", tid,
                                            user, False, SENTIMENTS[si]))
                    next_post += 1
                    info[1] += 1
            day += 1
    posts.sort(key=lambda p: (p.timestamp, p.post_id))
    return posts

"""Workload definitions and their seeded input generators.

Inputs are generated here rather than with ``forumnet.synth`` so that the
benchmark's inputs stay fixed when the package under test changes.  The
forum generator replays the random stream of ``forumnet.synth.generate_forum``
at the commit that introduced the benchmark, so seed 0 of ``regime-monthly``
is the criterion-9 regime corpus (285,826 posts), byte for byte; it writes
the CSV directly from integers instead of building post objects.
"""

from __future__ import annotations

import calendar
import math
import random
from bisect import bisect
from dataclasses import dataclass
from datetime import date, timedelta
from itertools import accumulate
from typing import Callable

import numpy as np

SENTIMENTS = ("positive", "neutral", "negative")

MIX_CALM = ((0.55, 0.25, 0.20), (0.20, 0.65, 0.15), (0.25, 0.45, 0.30))
MIX_HOT = ((0.30, 0.25, 0.45), (0.15, 0.45, 0.40), (0.10, 0.25, 0.65))
TS_CALM = (0.30, 0.50, 0.20)
TS_HOT = (0.05, 0.25, 0.70)
CALM_ZIPF = 0.2
HOT_ZIPF = 1.6


@dataclass(frozen=True)
class Segment:
    days: int
    user_pool: int
    threads_per_day: float
    posts_per_day: float
    thread_zipf: float
    user_zipf: float
    thread_sentiment: tuple
    mixing: tuple


def _poisson(rng, lam):
    limit = math.exp(-lam)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= limit:
            return k
        k += 1


def _zipf_cum(n, s):
    return list(accumulate(1.0 / (r + 1) ** s for r in range(n)))


def forum_csv(segments, seed, start: date, lifetime_days: int) -> str:
    """Posts CSV text of a scripted forum; deterministic for a given seed.

    Each day draws its new threads, then replies to threads younger than
    ``lifetime_days``, ranked by (post count desc, age asc) as of the start
    of the day and picked with Zipf-by-rank weights.
    """
    rng = random.Random(seed)
    rand = rng.random
    rows = []          # (second since start, post number, thread and user, original, sentiment)
    threads = []       # [sentiment index, post count, creation day, original second]
    next_post = 0
    day = 0
    first_live = 0     # threads are created in day order, so the live ones are a suffix
    zipf_cache = {}
    for seg in segments:
        user_cum = _zipf_cum(seg.user_pool, seg.user_zipf)
        user_total = user_cum[-1]
        sent_cum = list(accumulate(seg.thread_sentiment))
        mix_cum = [list(accumulate(col)) for col in seg.mixing]
        for _ in range(seg.days):
            base = day * 86400
            n_new = _poisson(rng, seg.threads_per_day)
            n_replies = _poisson(rng, seg.posts_per_day)
            day_originals = {}
            for _ in range(n_new):
                tid = len(threads)
                ts = base + int(rand() * 86400)
                user = bisect(user_cum, rand() * user_total)
                si = bisect(sent_cum, rand() * sent_cum[-1])
                rows.append((ts, next_post, f"t{tid:06d},u{user:05d}", True, si))
                next_post += 1
                threads.append([si, 1, day, ts])
                day_originals[tid] = ts
            while (first_live < len(threads)
                   and day - threads[first_live][2] >= lifetime_days):
                first_live += 1
            active = sorted(range(first_live, len(threads)),
                            key=lambda t: (-threads[t][1], threads[t][2], t))
            if not active:
                day += 1
                continue
            key = (len(active), seg.thread_zipf)
            if key not in zipf_cache:
                zipf_cache[key] = _zipf_cum(*key)
            thread_cum = zipf_cache[key]
            thread_total = thread_cum[-1]
            for _ in range(n_replies):
                tid = active[bisect(thread_cum, rand() * thread_total)]
                info = threads[tid]
                ts = base + int(rand() * 86400)
                if tid in day_originals and ts <= day_originals[tid]:
                    ts = day_originals[tid] + 1
                user = bisect(user_cum, rand() * user_total)
                mc = mix_cum[info[0]]
                si = bisect(mc, rand() * mc[-1])
                rows.append((ts, next_post, f"t{tid:06d},u{user:05d}", False, si))
                next_post += 1
                info[1] += 1
            day += 1
    rows.sort(key=lambda r: (r[0], r[1]))
    day_str = [(start + timedelta(days=d)).isoformat() for d in range(day + 1)]
    out = ["post_id,thread_id,user_id,timestamp,is_original,sentiment"]
    for ts, num, tail, original, si in rows:
        d, sec = divmod(ts, 86400)
        h, rem = divmod(sec, 3600)
        m, s = divmod(rem, 60)
        out.append(f"p{num:07d},{tail},{day_str[d]} {h:02d}:{m:02d}:{s:02d},"
                   f"{'true' if original else 'false'},{SENTIMENTS[si]}")
    return "\n".join(out) + "\n"


def _segment(days, hot, pool, threads_per_day, posts_per_day):
    return Segment(days, pool, threads_per_day, posts_per_day,
                   HOT_ZIPF if hot else CALM_ZIPF, 1.5,
                   TS_HOT if hot else TS_CALM, MIX_HOT if hot else MIX_CALM)


def _monthly_segments(first: date, months: int, hot: set, **rates):
    segs = []
    y, m = first.year, first.month
    for _ in range(months):
        segs.append(_segment(calendar.monthrange(y, m)[1], (y, m) in hot, **rates))
        y, m = (y + 1, 1) if m == 12 else (y, m + 1)
    return segs


def regime_corpus(seed: int) -> str:
    # the criterion-9 script: December 2019 burn-in, then 2020 with a hot
    # August and September
    segs = _monthly_segments(date(2019, 12, 1), 13, {(2020, 8), (2020, 9)},
                             pool=900, threads_per_day=20.0, posts_per_day=700.0)
    return forum_csv(segs, seed, date(2019, 12, 1), 3)


LONG_HOT = {(2010, 3), (2011, 9), (2012, 11), (2013, 6), (2014, 2)}


def long_corpus(seed: int) -> str:
    # 2009-06 burn-in month, then windows from 2009-07 to 2014-08
    segs = _monthly_segments(date(2009, 6, 1), 63, LONG_HOT,
                             pool=400, threads_per_day=8.0, posts_per_day=60.0)
    return forum_csv(segs, seed, date(2009, 6, 1), 3)


def gnp_edges(seed: int, n: int = 5000, mean_degree: float = 50.0) -> str:
    """Edge list of G(n, p) with p = mean_degree / (n - 1).

    Draws one uniform per node pair in ``np.triu_indices`` order, row by
    row, so seed 7 reproduces the criterion-2 graph without materialising
    all n(n-1)/2 pairs at once.
    """
    rng = np.random.default_rng(seed)
    p = mean_degree / (n - 1)
    parts = []
    for u in range(n - 1):
        vs = np.flatnonzero(rng.random(n - 1 - u) < p) + (u + 1)
        if len(vs):
            parts.append(np.column_stack([np.full(len(vs), u), vs]))
    edges = np.concatenate(parts)
    return "\n".join(f"{u} {v}" for u, v in edges.tolist()) + "\n"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    input_name: str
    make_input: Callable[[int], str]   # seed -> input file text
    config: dict | None = None     # pipeline config; None means the orbits CLI


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "regime-monthly",
            "The paper's setting: the criterion-9 regime corpus in 12 monthly "
            "windows with NetEmd and sentiment on; ingest and discordance "
            "dominate.",
            "posts.csv", regime_corpus,
            {"window_start": "2020-01-01", "window_end": "2021-01-01",
             "window_span": "1m", "window_jump": "1m",
             "projection": "weighted", "comparison": "netemd",
             "explained_variance": 0.90, "jumps": [1, 2]},
        ),
        Workload(
            "long-4m",
            "59 overlapping 4-month windows over 2009-2014 without sentiment: "
            "1,711 NetEmd pairs dominate, and every post is handled in 4 "
            "windows.",
            "posts.csv", long_corpus,
            {"window_start": "2009-07-01", "window_end": "2014-09-01",
             "window_span": "4m", "window_jump": "1m", "sentiment": False},
        ),
        Workload(
            "orbits-n5000",
            "One large orbit census through the orbits CLI on the criterion-2 "
            "graph (n=5000, mean degree 50), where the pipeline runs many "
            "small ones.",
            "graph.edges", lambda seed: gnp_edges(seed + 7),   # seed 0: criterion 2
        ),
    )
}

"""Per-window sentiment metrics, Z-score flags, discordance and inference."""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from itertools import accumulate, combinations

import numpy as np

from .ingest import SENTIMENTS, WindowSlice

# the 7 non-empty subsets of {positive, neutral, negative}
SENTIMENT_COMBOS = tuple(
    frozenset(c)
    for k in (1, 2, 3)
    for c in combinations(SENTIMENTS, k)
)


@dataclass
class SentimentSummary:
    label: str
    thread_counts: dict[str, int]       # labeled threads with in-window posts
    unlabeled_threads: int
    post_counts: dict[str, int]         # posts attributed to thread sentiment
    user_combos: dict[frozenset, int]   # users by set of thread sentiments

    def user_only(self, sentiment: str) -> int:
        return self.user_combos.get(frozenset({sentiment}), 0)


def sentiment_metrics(w: WindowSlice) -> SentimentSummary:
    """Thread, post and user tallies per sentiment for one window.

    Threads count once per sentiment when they have any in-window post;
    posts are attributed to their thread's sentiment; users are keyed by
    the set of thread sentiments they posted in. Unlabeled threads are
    excluded from all three and counted separately.
    """
    thread_counts = dict.fromkeys(SENTIMENTS, 0)
    unlabeled = 0
    for t in w.threads.values():
        if t.sentiment is None:
            unlabeled += 1
        else:
            thread_counts[t.sentiment] += 1
    post_counts = dict.fromkeys(SENTIMENTS, 0)
    per_user: dict[str, set] = {}
    for p in w.posts:
        s = w.threads[p.thread_id].sentiment
        if s is None:
            continue
        post_counts[s] += 1
        per_user.setdefault(p.user_id, set()).add(s)
    combos = {c: 0 for c in SENTIMENT_COMBOS}
    for sset in per_user.values():
        combos[frozenset(sset)] += 1
    return SentimentSummary(w.label_str, thread_counts, unlabeled,
                            post_counts, combos)


RATIOS = ("pos_neg", "neg_pos", "neutral")
METRICS = ("threads", "posts", "users")


def _metric_counts(summary: SentimentSummary, metric: str) -> dict[str, int]:
    if metric == "threads":
        return summary.thread_counts
    if metric == "posts":
        return summary.post_counts
    if metric == "users":
        # "only" counts: users restricted to a single thread sentiment
        return {s: summary.user_only(s) for s in SENTIMENTS}
    raise ValueError(f"unknown metric {metric!r}")


def _ratio(counts: dict[str, int], ratio: str):
    pos, neu, neg = (counts["positive"], counts["neutral"], counts["negative"])
    if ratio == "pos_neg":
        return pos / neg if neg else None
    if ratio == "neg_pos":
        return neg / pos if pos else None
    if ratio == "neutral":
        return neu / (pos + neg) if pos + neg else None
    raise ValueError(f"unknown ratio {ratio!r}")


def zscore_values(series) -> list:
    """Z-scores over the defined entries of a ratio series.

    ``None`` entries (zero denominators) are excluded from the mean and
    population standard deviation and stay undefined in the output; a
    constant series maps to all-zero Z.
    """
    defined = [v for v in series if v is not None]
    if not defined:
        return [None] * len(series)
    mean = sum(defined) / len(defined)
    var = sum((v - mean) ** 2 for v in defined) / len(defined)
    std = math.sqrt(var)
    out = []
    for v in series:
        if v is None:
            out.append(None)
        elif std == 0:
            out.append(0.0)
        else:
            out.append((v - mean) / std)
    return out


@dataclass
class ZTable:
    labels: tuple[str, ...]
    ratios: dict[tuple[str, str], list]  # (metric, ratio) -> per-window values
    zscores: dict[tuple[str, str], list]

    def to_csv(self, fmt: str = "%.9g") -> str:
        buf = io.StringIO()
        keys = sorted(self.zscores)
        buf.write("window," + ",".join(f"{m}_{r}" for m, r in keys) + "\n")
        for i, lab in enumerate(self.labels):
            cells = [
                "" if self.zscores[k][i] is None else fmt % self.zscores[k][i]
                for k in keys
            ]
            buf.write(lab + "," + ",".join(cells) + "\n")
        return buf.getvalue()


def zscore_series(summaries) -> ZTable:
    summaries = list(summaries)
    if len(summaries) < 2:
        raise ValueError("need at least 2 windows for Z-scores")
    labels = tuple(s.label for s in summaries)
    ratios = {}
    zscores = {}
    for metric in METRICS:
        for ratio in RATIOS:
            series = [
                _ratio(_metric_counts(s, metric), ratio) for s in summaries
            ]
            ratios[(metric, ratio)] = series
            zscores[(metric, ratio)] = zscore_values(series)
    return ZTable(labels, ratios, zscores)


_RATIO_DIRECTION = {"pos_neg": "positive", "neg_pos": "negative",
                    "neutral": "neutral"}


def flag_sentiment_changes(ztable: ZTable) -> list[dict]:
    """Windows where >=2 metrics move past |Z| > 1 in the same direction."""
    flags = []
    for i, label in enumerate(ztable.labels):
        for ratio, direction in _RATIO_DIRECTION.items():
            zs = [
                ztable.zscores[(metric, ratio)][i] for metric in METRICS
            ]
            strong = [z for z in zs if z is not None and abs(z) > 1]
            pos_side = [z for z in strong if z > 0]
            neg_side = [z for z in strong if z < 0]
            side = None
            if len(pos_side) >= 2:
                side = "increase"
            elif len(neg_side) >= 2:
                side = "decrease"
            if side:
                flags.append({
                    "window": label,
                    "sentiment": direction,
                    "change": side,
                    "zscores": dict(zip(METRICS, zs)),
                })
    return flags


@dataclass(frozen=True)
class DiscordanceParams:
    min_window: int = 2
    max_window: int = 5

    def __post_init__(self):
        if self.min_window < 2 or self.max_window < self.min_window:
            raise ValueError("discordance window sizes must satisfy 2 <= min <= max")

    def qualifies(self, labels) -> bool:
        """A thread counts when its labeled posts fill the smallest window."""
        return len(labels) >= self.min_window


def labeled_sequences(posts) -> dict[str, list[str]]:
    """Non-null post labels by thread, in the (timestamp) order of ``posts``."""
    per_thread: dict[str, list] = {}
    for p in posts:
        if p.sentiment is not None:
            per_thread.setdefault(p.thread_id, []).append(p.sentiment)
    return per_thread


def discordance_thread(sentiments, params: DiscordanceParams = DiscordanceParams()) -> float:
    """Normalized local disagreement of an ordered sentiment sequence.

    Two labels are |a - b| apart in ``SENTIMENTS`` order (positive 0,
    neutral 1, negative 2), so a window holding k0, k1, k2 of each has
    total pair distance k0*k1 + k1*k2 + 2*k0*k2, read from prefix counts.
    For each window size D the sliding-window totals are summed and divided
    by the attainable maximum (windows x per-window max); the index is the
    mean over window sizes, in [0, 1], and 0.0 when no window size fits.
    """
    codes = [SENTIMENTS.index(s) for s in sentiments]
    n = len(codes)
    if n < params.min_window:
        return 0.0
    pos = list(accumulate((c == 0 for c in codes), initial=0))
    neu = list(accumulate((c == 1 for c in codes), initial=0))
    per_d = []
    for D in range(params.min_window, min(params.max_window, n) + 1):
        total = 0
        for pos_lo, pos_hi, neu_lo, neu_hi in zip(pos, pos[D:], neu, neu[D:]):
            k0 = pos_hi - pos_lo
            k1 = neu_hi - neu_lo
            # k0*k1 + k1*k2 == k1*(D - k1), and k2 == D - k0 - k1
            total += k1 * (D - k1) + 2 * k0 * (D - k0 - k1)
        # attainable per-window maximum: a balanced positive/negative split
        most = 2 * (D // 2) * ((D + 1) // 2)
        per_d.append(total / ((n - D + 1) * most))
    return sum(per_d) / len(per_d)


def discordance_window_avg(w: WindowSlice,
                           params: DiscordanceParams = DiscordanceParams()):
    """Mean thread discordance over threads whose labeled in-window posts
    qualify; None when none does."""
    vals = [discordance_thread(seq, params)
            for seq in labeled_sequences(w.posts).values()
            if params.qualifies(seq)]
    return sum(vals) / len(vals) if vals else None


def mixing_matrix(samples) -> np.ndarray:
    """Column-stochastic post-in-thread sentiment proportions (macro average).

    ``samples`` is an iterable of (thread_sentiment, post sentiment
    sequence). Rows are post sentiment, columns thread sentiment, both in
    (positive, neutral, negative) order.
    """
    per_class: dict[str, list[np.ndarray]] = {s: [] for s in SENTIMENTS}
    for thread_sent, post_sents in samples:
        posts = list(post_sents)
        if thread_sent not in SENTIMENTS:
            raise ValueError(f"unknown thread sentiment {thread_sent!r}")
        if not posts:
            continue
        vec = np.array([
            sum(1 for s in posts if s == target) / len(posts)
            for target in SENTIMENTS
        ])
        per_class[thread_sent].append(vec)
    cols = []
    for s in SENTIMENTS:
        if not per_class[s]:
            raise ValueError(f"no sampled threads with sentiment {s!r}")
        cols.append(np.mean(per_class[s], axis=0))
    return np.column_stack(cols)


def infer_post_sentiment(summaries, m: np.ndarray) -> list:
    """Per-window inferred post-sentiment proportions via the mixing matrix."""
    out = []
    for s in summaries:
        counts = np.array([s.post_counts[x] for x in SENTIMENTS], dtype=float)
        inferred = m @ counts
        total = inferred.sum()
        out.append(tuple(inferred / total) if total > 0 else None)
    return out


def inferred_ratio_zscores(proportions) -> dict:
    """Z-scored pos/neg, neg/pos and neutral ratios of inferred proportions."""
    series = {r: [] for r in RATIOS}
    for prop in proportions:
        if prop is None:
            for r in RATIOS:
                series[r].append(None)
            continue
        counts = dict(zip(SENTIMENTS, prop))
        for r in RATIOS:
            series[r].append(_ratio(counts, r))
    return {r: zscore_values(v) for r, v in series.items()}


def infer_discordance(summaries, per_class_avg: dict) -> list:
    """Labeled-thread-count weighted mean of per-class discordance averages."""
    out = []
    for s in summaries:
        num = 0.0
        den = 0
        for sent in SENTIMENTS:
            c = s.thread_counts[sent]
            num += c * per_class_avg[sent]
            den += c
        out.append(num / den if den else None)
    return out


def cohen_kappa(labels_a, labels_b) -> float:
    """Chance-corrected agreement between two equal-length label sequences."""
    a = list(labels_a)
    b = list(labels_b)
    if len(a) != len(b) or not a:
        raise ValueError("label sequences must be non-empty and equal length")
    n = len(a)
    p_o = sum(1 for x, y in zip(a, b) if x == y) / n
    cats = set(a) | set(b)
    p_e = sum((a.count(c) / n) * (b.count(c) / n) for c in cats)
    if p_e == 1.0:
        return 1.0 if p_o == 1.0 else 0.0
    return (p_o - p_e) / (1 - p_e)


def summaries_to_csv(summaries) -> str:
    buf = io.StringIO()
    combo_names = [
        "+".join(sorted(c, key=SENTIMENTS.index)) for c in SENTIMENT_COMBOS
    ]
    buf.write(
        "window,"
        + ",".join(f"threads_{s}" for s in SENTIMENTS) + ",threads_unlabeled,"
        + ",".join(f"posts_{s}" for s in SENTIMENTS) + ","
        + ",".join(f"users_{c}" for c in combo_names) + "\n"
    )
    for s in summaries:
        row = [s.label]
        row += [str(s.thread_counts[x]) for x in SENTIMENTS]
        row.append(str(s.unlabeled_threads))
        row += [str(s.post_counts[x]) for x in SENTIMENTS]
        row += [str(s.user_combos[c]) for c in SENTIMENT_COMBOS]
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def sentiment_flags_json(flags) -> str:
    return json.dumps(flags, indent=2) + "\n"

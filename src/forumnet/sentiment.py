"""Per-window sentiment metrics, Z-score flags, discordance and inference."""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .ingest import SENTIMENTS, PostTable, Window, appearance_rank

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


def sentiment_metrics(w: Window) -> SentimentSummary:
    """Thread, post and user tallies per sentiment for one window.

    Threads count once per sentiment when they have any in-window post;
    posts are attributed to their thread's sentiment; users are keyed by
    the set of thread sentiments they posted in. Unlabeled threads are
    excluded from all three and counted separately.
    """
    t = w.table
    thread = t.thread[w.rows]
    present = np.flatnonzero(np.bincount(thread))
    threads = np.bincount(t.thread_label[present] + 1, minlength=4).tolist()
    label = t.thread_label[thread]
    labeled = label >= 0
    posts = np.bincount(label[labeled], minlength=3).tolist()
    # each user's set of thread labels as a bit set, from distinct (user, label)
    pairs = np.unique(t.user[w.rows][labeled].astype(np.int64) * 3 + label[labeled])
    masks = np.bincount(pairs // 3, 1 << (pairs % 3)).astype(np.int64)
    users = np.bincount(masks, minlength=8).tolist()
    return SentimentSummary(
        w.label_str, dict(zip(SENTIMENTS, threads[1:])), threads[0],
        dict(zip(SENTIMENTS, posts)),
        {c: users[sum(1 << SENTIMENTS.index(s) for s in c)]
         for c in SENTIMENT_COMBOS})


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
    return [None if v is None else 0.0 if std == 0 else (v - mean) / std
            for v in series]


@dataclass
class ZTable:
    labels: tuple[str, ...]
    ratios: dict[tuple[str, str], list]  # (metric, ratio) -> per-window values
    zscores: dict[tuple[str, str], list]

    def to_csv(self) -> str:
        buf = io.StringIO()
        keys = sorted(self.zscores)
        buf.write("window," + ",".join(f"{m}_{r}" for m, r in keys) + "\n")
        for i, lab in enumerate(self.labels):
            cells = [
                "" if self.zscores[k][i] is None else "%.9g" % self.zscores[k][i]
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
            zs = [ztable.zscores[(metric, ratio)][i] for metric in METRICS]
            strong = [z for z in zs if z is not None and abs(z) > 1]
            rising = sum(z > 0 for z in strong)
            side = ("increase" if rising >= 2 else
                    "decrease" if len(strong) - rising >= 2 else None)
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


class LabeledThreads(NamedTuple):
    """Labeled posts grouped by thread, threads in order of their first
    labeled post; group g holds ``labels[bounds[g]:bounds[g + 1]]`` in
    time order."""
    thread: np.ndarray   # thread code of each group
    bounds: np.ndarray   # int64, one more than the groups
    labels: np.ndarray   # label codes

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.bounds)


def labeled_threads(table: PostTable, rows=slice(None)) -> LabeledThreads:
    """The labeled posts among ``table`` rows, grouped by a stable sort."""
    label = table.label[rows]
    keep = label >= 0
    thread = table.thread[rows][keep]
    rank = appearance_rank(thread)
    order = np.argsort(rank, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(rank))))
    return LabeledThreads(thread[order][bounds[:-1]], bounds, label[keep][order])


def discordance_scores(groups: LabeledThreads,
                       params: DiscordanceParams = DiscordanceParams()) -> list:
    """Normalized local disagreement of every group's label sequence.

    Two labels are |a - b| apart in ``SENTIMENTS`` order (positive 0,
    neutral 1, negative 2), so a window holding k0, k1, k2 of each has
    total pair distance k0*k1 + k1*k2 + 2*k0*k2, read from prefix counts
    over all groups at once.  For each window size D the sliding-window
    totals of a group are summed and divided by the attainable maximum
    (windows x per-window max); a group's index is the mean over the
    window sizes that fit, in [0, 1], and 0.0 when none fits.
    """
    bounds, sizes = groups.bounds, groups.sizes
    pos, neu = (np.cumsum(np.concatenate(([False], groups.labels == c)))
                for c in (0, 1))
    top = min(params.max_window, int(sizes.max(initial=0)))
    per_d = []
    for D in range(params.min_window, top + 1):
        k0, k1 = pos[D:] - pos[:-D], neu[D:] - neu[:-D]  # per window start
        # k0*k1 + k1*k2 == k1*(D - k1), and k2 == D - k0 - k1; running sums
        run = np.cumsum(np.concatenate(([0], k1 * (D - k1) + 2 * k0 * (D - k0 - k1))))
        # a group's windows start from its first label and end inside it
        lo = np.minimum(bounds[:-1], run.size - 1)
        hi = np.where(sizes >= D, bounds[1:] - D + 1, lo)
        # attainable per-window maximum: a balanced positive/negative split
        most = 2 * (D // 2) * ((D + 1) // 2)
        per_d.append((run[hi] - run[lo]) / (np.maximum(sizes - D + 1, 1) * most))
    fits = np.minimum(sizes, top) - params.min_window + 1
    rows = np.array(per_d).T.tolist() if per_d else [[]] * sizes.size
    # averaged over window sizes in order, as Python sums a list
    return [sum(r[:k]) / k if k > 0 else 0.0 for r, k in zip(rows, fits.tolist())]


def discordance_window_avg(groups: LabeledThreads,
                           params: DiscordanceParams = DiscordanceParams()):
    """(mean discordance over the groups whose labels fill the smallest
    window, or None when none does; the number of those groups)."""
    vals = [v for v, n in zip(discordance_scores(groups, params), groups.sizes)
            if n >= params.min_window]
    return (sum(vals) / len(vals) if vals else None), len(vals)


def label_mixing(classes, groups: LabeledThreads) -> np.ndarray:
    """Column-stochastic post-in-thread sentiment proportions (macro average).

    ``classes`` holds each group's thread label code; groups of class -1
    are skipped. Rows are post sentiment, columns thread sentiment, both in
    ``SENTIMENTS`` order; each column is the mean, over its threads in
    group order, of their label proportions.
    """
    sizes = groups.sizes
    owner = np.repeat(np.arange(sizes.size), sizes)
    counts = np.bincount(owner * 3 + groups.labels, minlength=3 * sizes.size)
    props = counts.reshape(-1, 3) / sizes[:, None]
    cols = []
    for code, s in enumerate(SENTIMENTS):
        if not (classes == code).any():
            raise ValueError(f"no sampled threads with sentiment {s!r}")
        cols.append(np.mean(props[classes == code], axis=0))
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
    counts = [None if p is None else dict(zip(SENTIMENTS, p)) for p in proportions]
    return {r: zscore_values([None if c is None else _ratio(c, r) for c in counts])
            for r in RATIOS}


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

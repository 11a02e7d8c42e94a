"""Test-only oracles and helpers.

``canonical_small`` names a graph on at most 4 nodes up to isomorphism, and
``subgraph_frequencies`` counts connected induced subgraphs by that name, so
the orbit-multiplicity identity can be checked independently of
``count_orbits`` and ``count_orbits_bruteforce``.

The dict-based stages below (thread derivation, windows of post records,
bipartite projection and sparsification, sentiment summaries, discordance
and the mixing matrix) are the string-keyed implementations that the
integer-coded ``PostTable`` path replaced; ``test_table.py`` asserts exact
equality against them.  Graphs here are ``Graph``s or plain dicts: an
incidence maps (user, thread) to a post count and weights map (u, v) to a
weight.  ``coded`` turns sentiment-name sequences into the groups that the
sentiment kernels take.  ``parsed_records`` reads what ``parse_posts``
validated before its originals check.  The graph helpers at the end have no
caller in the package.
"""

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from itertools import accumulate
from operator import itemgetter

import numpy as np

from forumnet.graphs import (Graph, GraphError, _check_pair, adjacency_mask,
                             build_graph)
from forumnet.ingest import (SENTIMENTS, IngestError, PostRecord, PostTable,
                             WindowSpec, _parse, add_months, window_starts)
from forumnet.report import discordance_csv, series_csv
from forumnet.sentiment import (SENTIMENT_COMBOS, DiscordanceParams,
                                LabeledThreads, SentimentSummary,
                                infer_discordance, infer_post_sentiment,
                                inferred_ratio_zscores)


def parsed_records(stream, fmt: str = "csv") -> list[PostRecord]:
    """The posts ``parse_posts`` validates from ``stream``, as records in
    (timestamp, post_id) order, before it checks each thread's originals."""
    columns = _parse(stream, fmt)[0].columns()
    return list(PostTable(*columns, thread_label=None,
                          thread_creation=None).records())


def canonical_small(g: Graph) -> tuple[int, int]:
    """Canonical identifier for graphs with at most 4 nodes.

    Returns (node_count, minimum adjacency bitmask over all node
    permutations), so two small graphs get equal identifiers iff they
    are isomorphic.
    """
    n = g.node_count
    if n > 4:
        raise GraphError(f"canonical_small requires <= 4 nodes, got {n}")
    best = None
    for perm in itertools.permutations(range(n)):
        mask = adjacency_mask(n, ((perm[u], perm[v]) for u, v in g.edges))
        if best is None or mask < best:
            best = mask
    return (n, best if best is not None else 0)


def connected(k, edges):
    if k == 1:
        return True
    if not edges:
        return False
    adj = {i: [] for i in range(k)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == k


def subgraph_frequencies(g: Graph, max_size: int = 4) -> dict:
    """Frequency of each connected graphlet (by ``canonical_small``) up to
    ``max_size`` nodes, via plain enumeration.

    Used to check the orbit-multiplicity identity (sum of a graphlet's orbit
    counts = frequency x size).
    """
    if max_size not in (2, 3, 4):
        raise GraphError(f"max_size must be 2, 3 or 4, got {max_size}")
    n = g.node_count
    Ad = np.zeros((n, n), dtype=bool)
    for u, v in g.edges:
        Ad[u, v] = Ad[v, u] = True
    freqs: dict[tuple[int, int], int] = {}
    for k in range(2, max_size + 1):
        for combo in itertools.combinations(range(n), k):
            edges = [
                (i, j)
                for i in range(k)
                for j in range(i + 1, k)
                if Ad[combo[i], combo[j]]
            ]
            if connected(k, edges):
                key = canonical_small(build_graph(k, edges))
                freqs[key] = freqs.get(key, 0) + 1
    return freqs


# --- dict-based oracles for the post-table path ---

def epoch_seconds(ts: datetime) -> int:
    return (ts - datetime(1970, 1, 1)) // timedelta(seconds=1)


@dataclass
class ThreadRecord:
    thread_id: str
    creation: datetime | None
    post_count: int
    user_count: int
    sentiment: str | None  # original post's label, None when unlabeled


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


def windows_table(windows) -> str:
    rows = ["window,posts,threads,users"]
    for w in windows:
        st = window_stats(w)
        rows.append(f"{w.label_str},{st['posts']},{st['threads']},{st['users']}")
    return "\n".join(rows) + "\n"


def build_bipartite(w: WindowSlice):
    """Per-window user-thread incidence (post counts).

    Returns (incidence, user ids in index order, thread ids in index
    order); only users/threads with in-window posts appear.
    """
    users = sorted({p.user_id for p in w.posts})
    threads = sorted({p.thread_id for p in w.posts})
    uidx = {u: i for i, u in enumerate(users)}
    tidx = {t: i for i, t in enumerate(threads)}
    incidence: dict[tuple[int, int], int] = {}
    for p in w.posts:
        key = (uidx[p.user_id], tidx[p.thread_id])
        incidence[key] = incidence.get(key, 0) + 1
    return incidence, users, threads


def project_users(incidence: dict, weighted: bool = True) -> dict:
    """One-mode projection onto users.

    Plain mode sums x_it * x_jt over threads; weighted mode divides each
    thread's contribution by (users_in_thread - 1) * posts_in_thread, so
    crowded threads bind their participants more loosely. Single-user
    threads contribute nothing.
    """
    per_thread: dict[int, list[tuple[int, int]]] = {}
    for (u, t), c in incidence.items():
        per_thread.setdefault(t, []).append((u, c))
    weights: dict[tuple[int, int], float] = {}
    for t, members in per_thread.items():
        if len(members) < 2:
            continue
        members.sort()
        phi = sum(c for _, c in members)
        denom = (len(members) - 1) * phi if weighted else 1
        for a in range(len(members)):
            ua, ca = members[a]
            for bb in range(a + 1, len(members)):
                ub, cb = members[bb]
                key = (ua, ub)
                weights[key] = weights.get(key, 0.0) + ca * cb / denom
    return weights


def pair_arrays(pairs: dict):
    """Keys and values of a dict keyed by integer pairs, as three arrays."""
    keys = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
    return keys[:, 0], keys[:, 1], np.array(list(pairs.values()), dtype=float)


def pair_dict(a, b, w) -> dict:
    """The inverse of ``pair_arrays``: {(a, b): w}."""
    return dict(zip(zip(a.tolist(), b.tolist()), w.tolist()))


def sparsify_threshold(weights: dict) -> dict:
    """Drop edges below the largest weight that isolates nobody.

    Returns the threshold, the weights over the users with an edge
    (renumbered), the sparsified ``Graph`` and each position's old index.
    """
    max_w: dict[int, float] = {}
    for (u, v), w in weights.items():
        if w > max_w.get(u, 0.0):
            max_w[u] = w
        if w > max_w.get(v, 0.0):
            max_w[v] = w
    if not max_w:
        raise GraphError("cannot sparsify a graph with no edges")
    active = sorted(max_w)
    remap = {u: i for i, u in enumerate(active)}
    threshold = min(max_w.values())
    remapped = {(remap[u], remap[v]): w for (u, v), w in weights.items()}
    kept = frozenset(pair for pair, w in remapped.items() if w >= threshold)
    return {"threshold": threshold, "weights": remapped,
            "sparsified": Graph(len(active), kept), "user_index": tuple(active)}


def sentiment_metrics(w: WindowSlice) -> SentimentSummary:
    """Thread, post and user tallies per sentiment for one window."""
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


def labeled_sequences(posts) -> dict[str, list[str]]:
    """Non-null post labels by thread, in the (timestamp) order of ``posts``."""
    per_thread: dict[str, list] = {}
    for p in posts:
        if p.sentiment is not None:
            per_thread.setdefault(p.thread_id, []).append(p.sentiment)
    return per_thread


def discordance_thread(sentiments, params: DiscordanceParams = DiscordanceParams()) -> float:
    """Closed-form discordance of one sequence, from prefix label counts."""
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
            total += k1 * (D - k1) + 2 * k0 * (D - k0 - k1)
        most = 2 * (D // 2) * ((D + 1) // 2)
        per_d.append(total / ((n - D + 1) * most))
    return sum(per_d) / len(per_d)


def coded(sequences) -> LabeledThreads:
    """Sentiment-name sequences as groups; ValueError on an unknown name."""
    codes = [[SENTIMENTS.index(s) for s in seq] for seq in sequences]
    return LabeledThreads(np.arange(len(codes)),
                          np.cumsum([0] + list(map(len, codes))),
                          np.array([x for c in codes for x in c], dtype=np.int8))


def qualifies(seq, params: DiscordanceParams) -> bool:
    """A thread counts when its labeled posts fill the smallest window."""
    return len(seq) >= params.min_window


def discordance_window_avg(sequences,
                           params: DiscordanceParams = DiscordanceParams()):
    vals = [discordance_thread(seq, params)
            for seq in sequences if qualifies(seq, params)]
    return sum(vals) / len(vals) if vals else None


def discordance_table(windows, params: DiscordanceParams) -> str:
    rows = []
    for w in windows:
        sequences = labeled_sequences(w.posts).values()
        counted = sum(qualifies(seq, params) for seq in sequences)
        rows.append((w.label_str, discordance_window_avg(sequences, params),
                     counted))
    return discordance_csv(rows)


def mixing_matrix(samples) -> np.ndarray:
    """Column-stochastic post-in-thread sentiment proportions (macro average)."""
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


def corpus_mixing_matrix(posts) -> np.ndarray:
    """The mixing matrix of every labeled thread of a record list."""
    threads = derive_threads(posts)
    return mixing_matrix((threads[tid].sentiment, seq)
                         for tid, seq in labeled_sequences(sorted(posts)).items()
                         if threads[tid].sentiment is not None)


def inference_artifacts(posts, summaries,
                        params: DiscordanceParams) -> dict[str, str]:
    """Mixing matrix and inferred series by artifact name."""
    threads = derive_threads(posts)
    sequences = {tid: seq for tid, seq in labeled_sequences(sorted(posts)).items()
                 if threads[tid].sentiment is not None}
    m = mixing_matrix((threads[tid].sentiment, seq)
                      for tid, seq in sequences.items())
    cols = {f"inferred_{r}": z for r, z in
            inferred_ratio_zscores(infer_post_sentiment(summaries, m)).items()}
    per_class: dict[str, list] = {}
    for tid, seq in sequences.items():
        if qualifies(seq, params):
            per_class.setdefault(threads[tid].sentiment, []).append(
                discordance_thread(seq, params))
    if all(per_class.get(s) for s in SENTIMENTS):
        avgs = {s: sum(v) / len(v) for s, v in per_class.items()}
        cols["inferred_discordance"] = infer_discordance(summaries, avgs)
    return {
        "mixing_matrix.csv": "\n".join(
            ",".join("%.9g" % v for v in row) for row in m) + "\n",
        "inferred.csv": series_csv([s.label for s in summaries], cols),
    }


# --- graph helpers with no caller in the package ---

def build_weighted_graph(node_count, weighted_edges) -> dict:
    """Weights of (u, v, w) triples by node pair; weights must be > 0."""
    if node_count < 0:
        raise GraphError("node_count must be non-negative")
    weights: dict[tuple[int, int], float] = {}
    for u, v, w in weighted_edges:
        pair = _check_pair(u, v, node_count)
        if pair in weights:
            raise GraphError(f"duplicate edge: ({u}, {v})")
        if not w > 0:
            raise GraphError(f"edge weight must be positive: ({u}, {v}, {w})")
        weights[pair] = float(w)
    return weights


def weighted_degrees(node_count, weights: dict) -> list[float]:
    wd = [0.0] * node_count
    for (u, v), w in weights.items():
        wd[u] += w
        wd[v] += w
    return wd


def graph_stats(g: Graph) -> dict:
    """Degree sequence, density and isolated-node count.

    Density is |E| / C(n, 2) for n >= 2 and 0 for degenerate graphs.
    """
    deg = g.degrees()
    n = g.node_count
    density = 0.0 if n < 2 else g.edge_count / (n * (n - 1) / 2)
    return {"degrees": deg, "density": density,
            "isolated": sum(1 for d in deg if d == 0)}


def write_weighted_edge_list(weights: dict) -> str:
    """Serialize weights as ``u v w`` lines."""
    lines = [f"{u} {v} {w!r}" for (u, v), w in sorted(weights.items())]
    return "\n".join(lines) + ("\n" if lines else "")


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

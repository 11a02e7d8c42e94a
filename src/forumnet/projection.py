"""Bipartite construction, one-mode user projection and threshold sparsification.

``project_pairs`` and ``sparsify_pairs`` are the one array kernel:
``project_window`` runs it on a window of the post table, and
``build_bipartite``, ``project_users`` and ``sparsify_threshold`` adapt it
to the dict-based graph types.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import BipartiteGraph, Graph, GraphError, WeightedGraph
from .ingest import Window, appearance_rank


@dataclass(frozen=True)
class ProjectionResult:
    weighted: WeightedGraph   # restricted to users with at least one edge
    threshold: float
    sparsified: Graph         # edges with weight >= threshold; no isolated nodes
    user_index: tuple         # position -> original user index


def project_pairs(n: int, user, thread, count, weighted: bool = True):
    """One-mode projection of incidence entries onto ``n`` users.

    Entries are distinct (user, thread) pairs with their post counts, and
    threads contribute in the order of their first entry.  Plain mode sums
    x_it * x_jt over threads; weighted mode divides each thread's term by
    (users_in_thread - 1) * posts_in_thread, so crowded threads bind their
    participants more loosely.  Single-user threads contribute nothing.
    Returns pairs (a, b) with a < b, in increasing order, and their weights.
    """
    group = appearance_rank(thread)
    order = np.lexsort((user, group))
    user, group = user[order], group[order]
    count = np.asarray(count, dtype=np.int64)[order]
    _, start, size = np.unique(group, return_index=True, return_counts=True)
    member = np.repeat(np.arange(size.size), size)
    later = np.repeat(start + size, size) - np.arange(user.size) - 1
    a = np.repeat(np.arange(user.size), later)
    b = a + 1 + np.arange(a.size) - np.repeat(np.cumsum(later) - later, later)
    # (users - 1) * posts per thread, or 1: exact integers in float64
    denom = ((size - 1) * np.bincount(member, count) if weighted
             else np.ones(size.size))
    term = count[a] * count[b] / denom[member[a]]
    key = user[a].astype(np.int64) * n + user[b]
    # bincount adds each pair's terms in input order, i.e. in thread order
    keys, inverse = np.unique(key, return_inverse=True)
    return keys // n, keys % n, np.bincount(inverse, term, keys.size)


def sparsify_pairs(n: int, a, b, w):
    """Threshold pair weights at the largest value that isolates nobody.

    The threshold is the minimum over nodes of their maximum incident
    weight; keeping edges >= that value preserves every node's strongest
    tie, and any higher cutoff would isolate a minimizing node.  Returns
    (threshold, the nodes with an edge, a and b renumbered over those
    nodes, mask of the kept pairs).
    """
    strongest = np.zeros(n)
    np.maximum.at(strongest, a, w)
    np.maximum.at(strongest, b, w)
    has_edge = strongest > 0
    if not has_edge.any():
        raise GraphError("cannot sparsify a graph with no edges")
    threshold = float(strongest[has_edge].min())
    index = np.cumsum(has_edge) - 1
    return threshold, np.flatnonzero(has_edge), index[a], index[b], w >= threshold


def _incidence(w: Window):
    """In-window users and threads (sorted codes) and the (user, thread,
    post count) entries over their positions, in order of first post."""
    t = w.table
    users, user = np.unique(t.user[w.rows], return_inverse=True)
    threads, thread = np.unique(t.thread[w.rows], return_inverse=True)
    key = user.astype(np.int64) * threads.size + thread
    keys, first, count = np.unique(key, return_index=True, return_counts=True)
    order = np.argsort(first)
    keys = keys[order]
    return users, threads, keys // threads.size, keys % threads.size, count[order]


def project_window(w: Window, weighted: bool) -> tuple[Graph, float]:
    """Sparsified user network of a window and its threshold.

    Threads contribute in the order of their first in-window post.  Raises
    GraphError if the projection has no edges.
    """
    users, _, user, thread, count = _incidence(w)
    a, b, weights = project_pairs(users.size, user, thread, count, weighted)
    threshold, active, a, b, kept = sparsify_pairs(users.size, a, b, weights)
    edges = frozenset(zip(a[kept].tolist(), b[kept].tolist()))
    return Graph(active.size, edges), threshold


def build_bipartite(w: Window):
    """Per-window user-thread incidence (post counts).

    Returns (BipartiteGraph, user ids in index order, thread ids in index
    order); only users/threads with in-window posts appear.
    """
    users, threads, user, thread, count = _incidence(w)
    incidence = dict(zip(zip(user.tolist(), thread.tolist()), count.tolist()))
    return (BipartiteGraph(users.size, threads.size, incidence),
            [w.table.user_ids[i] for i in users],
            [w.table.thread_ids[i] for i in threads])


def _pair_arrays(pairs: dict):
    keys = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
    return keys[:, 0], keys[:, 1], np.array(list(pairs.values()))


def project_users(b: BipartiteGraph, weighted: bool = True) -> WeightedGraph:
    """``project_pairs`` over a BipartiteGraph; threads contribute in the
    order of their first incidence entry."""
    user, thread, count = _pair_arrays(b.incidence)
    a, bb, w = project_pairs(b.user_count, user, thread, count, weighted)
    return WeightedGraph(b.user_count,
                         dict(zip(zip(a.tolist(), bb.tolist()), w.tolist())))


def sparsify_threshold(g: WeightedGraph) -> ProjectionResult:
    """``sparsify_pairs`` over a WeightedGraph; users without edges go."""
    a, b, w = _pair_arrays(g.weights)
    threshold, active, a, b, kept = sparsify_pairs(g.node_count, a, b, w)
    pairs = list(zip(a.tolist(), b.tolist()))
    return ProjectionResult(
        WeightedGraph(active.size, dict(zip(pairs, w.tolist()))), threshold,
        Graph(active.size, frozenset(p for p, k in zip(pairs, kept) if k)),
        tuple(active.tolist()))

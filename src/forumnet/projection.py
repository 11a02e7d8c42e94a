"""User-thread incidence, one-mode user projection and threshold sparsification.

``project_window`` is the stage: it reads a window's (user, thread, post
count) incidence from the post table and runs the array kernel,
``project_pairs`` then ``sparsify_pairs``, whose kept pairs become the
window's ``Graph``.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph, GraphError
from .ingest import Window, appearance_rank


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
    """In-window users (sorted codes) and the (user, thread, post count)
    entries over user and thread positions in code order, in order of
    first post."""
    t = w.table
    users, user = np.unique(t.user[w.rows], return_inverse=True)
    threads, thread = np.unique(t.thread[w.rows], return_inverse=True)
    key = user.astype(np.int64) * threads.size + thread
    keys, first, count = np.unique(key, return_index=True, return_counts=True)
    order = np.argsort(first)
    keys = keys[order]
    return users, keys // threads.size, keys % threads.size, count[order]


def project_window(w: Window, weighted: bool) -> tuple[Graph, float]:
    """Sparsified user network of a window and its threshold.

    Threads contribute in the order of their first in-window post.  Raises
    GraphError if the projection has no edges.
    """
    users, user, thread, count = _incidence(w)
    a, b, weights = project_pairs(users.size, user, thread, count, weighted)
    threshold, active, a, b, kept = sparsify_pairs(users.size, a, b, weights)
    edges = frozenset(zip(a[kept].tolist(), b[kept].tolist()))
    return Graph(active.size, edges), threshold

import random
from datetime import datetime

import numpy as np
import pytest

from forumnet.graphs import Graph, GraphError
from forumnet.ingest import PostRecord, WindowSpec, make_windows
from forumnet.projection import _incidence, project_pairs, sparsify_pairs
from oracles import pair_arrays, pair_dict


def random_incidence(rng, users=8, threads=6):
    incidence = {}
    for u in range(users):
        for t in range(threads):
            if rng.random() < 0.4:
                incidence[(u, t)] = rng.randint(1, 3)
    return incidence


def incidence_matrix(incidence, users=8, threads=6):
    X = np.zeros((users, threads))
    for (u, t), c in incidence.items():
        X[u, t] = c
    return X


def project(users, incidence, weighted=True):
    """``project_pairs`` over an incidence dict, as a dict of pair weights."""
    return pair_dict(*project_pairs(users, *pair_arrays(incidence), weighted))


def test_plain_projection_matches_matrix_product():
    rng = random.Random(0)
    for _ in range(100):
        incidence = random_incidence(rng)
        X = incidence_matrix(incidence)
        P = X @ X.T
        weights = project(8, incidence, weighted=False)
        for u in range(8):
            for v in range(u + 1, 8):
                got = weights.get((u, v), 0.0)
                # single-user threads are excluded from the projection
                solo = sum(
                    X[u, t] * X[v, t]
                    for t in range(6)
                    if np.count_nonzero(X[:, t]) < 2
                )
                assert got == pytest.approx(P[u, v] - solo)


def test_weighted_projection_hand_case():
    # one thread, three posts: two by user 0 and one by user 1
    # -> weight = (2 * 1) / ((2 - 1) * 3) = 2/3
    assert project(2, {(0, 0): 2, (1, 0): 1}) == {(0, 1): pytest.approx(2 / 3)}


def test_weighted_projection_accumulates_threads():
    weights = project(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})
    assert weights[(0, 1)] == pytest.approx(0.5 + 0.5)


def test_single_user_threads_contribute_nothing():
    assert project(2, {(0, 0): 5}) == {}


def test_sparsify_threshold_closed_form():
    rng = random.Random(1)
    for _ in range(100):
        n = rng.randint(3, 12)
        weights = {}
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.5:
                    weights[(u, v)] = rng.uniform(0.01, 1.0)
        if not weights:
            continue
        threshold, active, a, b, kept = sparsify_pairs(n, *pair_arrays(weights))
        # threshold equals min over active nodes of their max incident weight
        max_w = {}
        for (u, v), w in weights.items():
            max_w[u] = max(max_w.get(u, 0.0), w)
            max_w[v] = max(max_w.get(v, 0.0), w)
        assert threshold == min(max_w.values())
        # nobody isolated at the threshold
        sparsified = Graph(active.size, frozenset(zip(a[kept].tolist(),
                                                      b[kept].tolist())))
        assert all(d > 0 for d in sparsified.degrees())
        # any higher cutoff isolates at least one node
        higher = threshold + 1e-12
        above = [p for p, w in zip(zip(a.tolist(), b.tolist()), weights.values())
                 if w >= higher]
        touched = {x for p in above for x in p}
        assert len(touched) < sparsified.node_count


def test_sparsify_drops_edgeless_users():
    _, active, a, b, kept = sparsify_pairs(4, *pair_arrays({(1, 3): 0.5}))
    assert active.tolist() == [1, 3]
    assert (a.tolist(), b.tolist(), kept.tolist()) == ([0], [1], [True])


def test_sparsify_rejects_empty():
    with pytest.raises(GraphError):
        sparsify_pairs(3, *pair_arrays({}))


def test_build_bipartite_from_window():
    posts = [
        PostRecord(datetime(2020, 1, 2), "p1", "t1", "bob", True, None),
        PostRecord(datetime(2020, 1, 3), "p2", "t1", "ann", False, None),
        PostRecord(datetime(2020, 1, 4), "p3", "t1", "ann", False, None),
    ]
    w = make_windows(posts, WindowSpec.from_tokens(
        "2020-01-01", "2020-02-01", "1m", "1m"))[0]
    users, user, thread, count = _incidence(w)
    assert [w.table.user_ids[i] for i in users] == ["ann", "bob"]
    # entries in order of first post: bob's original, then ann's replies
    assert list(zip(user.tolist(), thread.tolist(), count.tolist())) == [
        (1, 0, 1), (0, 0, 2)]

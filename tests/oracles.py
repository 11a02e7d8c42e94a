"""Test-only oracles for the orbit census: plain enumeration, no orbit tables.

``canonical_small`` names a graph on at most 4 nodes up to isomorphism, and
``subgraph_frequencies`` counts connected induced subgraphs by that name, so
the orbit-multiplicity identity can be checked independently of
``count_orbits`` and ``count_orbits_bruteforce``.
"""

import itertools

import numpy as np

from forumnet.graphs import Graph, GraphError, adjacency_mask, build_graph


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

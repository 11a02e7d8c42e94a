import itertools

import pytest

from forumnet.graphs import (GraphError, adjacency_mask, build_graph,
                             read_edge_list, write_edge_list)
from oracles import (build_weighted_graph, canonical_small, graph_stats,
                     weighted_degrees, write_weighted_edge_list)


def test_build_graph_basics():
    g = build_graph(4, [(0, 1), (1, 2), (3, 1)])
    assert g.node_count == 4
    assert g.edge_count == 3
    assert g.degrees() == [1, 3, 1, 1]


def test_build_graph_normalizes_orientation():
    g = build_graph(3, [(2, 0)])
    assert (0, 2) in g.edges


@pytest.mark.parametrize("edges", [
    [(0, 0)],            # self loop
    [(0, 1), (1, 0)],    # duplicate, reversed
    [(0, 5)],            # out of range
])
def test_build_graph_rejects_bad_edges(edges):
    with pytest.raises(GraphError):
        build_graph(3, edges)


def test_weighted_graph_requires_positive_weights():
    with pytest.raises(GraphError):
        build_weighted_graph(2, [(0, 1, 0.0)])
    weights = build_weighted_graph(3, [(0, 1, 2.0), (1, 2, 0.5)])
    assert weighted_degrees(3, weights) == [2.0, 2.5, 0.5]


def test_graph_stats():
    g = build_graph(4, [(0, 1), (1, 2)])
    st = graph_stats(g)
    assert st["density"] == pytest.approx(2 / 6)
    assert st["isolated"] == 1


def _all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield build_graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


def test_canonical_small_matches_isomorphism_exhaustively():
    # two graphs on the same node count share an id iff a relabeling maps
    # one edge set onto the other; checked for every pair of 4-node graphs
    graphs = list(_all_graphs(4))
    ids = [canonical_small(g) for g in graphs]
    for i, gi in enumerate(graphs):
        for j in range(i + 1, len(graphs)):
            gj = graphs[j]
            iso = any(
                frozenset(
                    tuple(sorted((p[u], p[v]))) for u, v in gi.edges
                ) == gj.edges
                for p in itertools.permutations(range(4))
            )
            assert iso == (ids[i] == ids[j])


def test_canonical_small_class_counts():
    # 11 isomorphism classes of simple graphs on 4 vertices
    assert len({canonical_small(g) for g in _all_graphs(4)}) == 11
    assert len({canonical_small(g) for g in _all_graphs(3)}) == 4


def test_adjacency_mask_roundtrip():
    assert adjacency_mask(3, [(0, 1)]) == 1
    assert adjacency_mask(3, [(1, 2)]) == 1 << 3


def test_edge_list_roundtrip():
    g = build_graph(5, [(0, 4), (1, 2)])
    text = write_edge_list(g)
    n, edges = read_edge_list(text.splitlines())
    assert n == 5
    assert set(edges) == {(0, 4), (1, 2)}


def test_edge_list_weighted_roundtrip():
    weights = build_weighted_graph(3, [(0, 1, 0.25), (1, 2, 1.5)])
    n, edges = read_edge_list(write_weighted_edge_list(weights).splitlines())
    assert n == 3
    assert build_weighted_graph(n, edges) == weights


def test_read_edge_list_comments_and_errors():
    n, edges = read_edge_list(["# header", "", "0 1", "1 2  # trailing"])
    assert n == 3 and len(edges) == 2
    with pytest.raises(GraphError):
        read_edge_list(["0 1 2 3"])


@pytest.mark.parametrize("bad, message", [
    ("x 2", "node ids must be non-negative integers, got 'x 2'"),
    ("0 1.5", "node ids must be non-negative integers, got '0 1.5'"),
    ("-1 2", "node ids must be non-negative integers, got '-1 2'"),
    ("0 1 heavy", "weight must be a number, got 'heavy'"),
])
def test_read_edge_list_errors_name_the_line(bad, message):
    with pytest.raises(GraphError, match=f"^line 3: {message}$"):
        read_edge_list(["# header", "0 1", bad])


def test_read_edge_list_mixed_weights_defaults_to_one():
    _, edges = read_edge_list(["0 1", "1 2 0.5"])
    assert (0, 1, 1.0) in edges

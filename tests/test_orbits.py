import itertools
import random
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forumnet.graphs import GraphError, build_graph
from forumnet.orbits import (ORBITS_BY_SIZE, count_orbits,
                             count_orbits_bruteforce, orbit_matrix_from_csv,
                             orbit_tables)
from oracles import canonical_small, connected, subgraph_frequencies


def random_graph(n, p, rng):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return build_graph(n, edges)


def test_empty_and_tiny():
    for g in (build_graph(0, []), build_graph(3, [])):
        om = count_orbits(g)
        assert om.counts.shape == (g.node_count, 15)
        assert not om.counts.any()


def test_bad_max_size():
    with pytest.raises(GraphError):
        count_orbits(build_graph(2, [(0, 1)]), max_size=5)


@pytest.mark.parametrize("n", [4, 50, 400, 600])
def test_known_k4(n):
    # K_n: every node sees C(n-1, 2) triangles and C(n-1, 3) K4s; every other
    # orbit is an induced non-complete pattern and must vanish
    g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    om = count_orbits(g)
    expect = np.zeros(15, dtype=np.int64)
    expect[0], expect[3], expect[14] = n - 1, comb(n - 1, 2), comb(n - 1, 3)
    assert (om.counts == expect).all()


def test_known_path4():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    om = count_orbits(g)
    expect = {
        0: [1, 2, 2, 1],
        1: [1, 1, 1, 1],
        2: [0, 1, 1, 0],
        4: [1, 0, 0, 1],
        5: [0, 1, 1, 0],
    }
    for o, vals in expect.items():
        assert list(om.column(o)) == vals
    for o in (3, 6, 7, 8, 9, 10, 11, 12, 13, 14):
        assert not om.column(o).any()


def test_star_center():
    g = build_graph(5, [(0, i) for i in range(1, 5)])
    om = count_orbits(g)
    assert om.column(7)[0] == 4      # C(4,3) 3-stars centered at the hub
    assert om.column(2)[0] == 6
    assert list(om.column(6)[1:]) == [3, 3, 3, 3]


@pytest.mark.parametrize("max_size", [2, 3, 4])
def test_bruteforce_equivalence_random(max_size):
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(5, 28)
        g = random_graph(n, rng.choice([0.1, 0.25, 0.5, 0.8]), rng)
        fast = count_orbits(g, max_size)
        slow = count_orbits_bruteforce(g, max_size)
        assert fast.orbit_ids == slow.orbit_ids == ORBITS_BY_SIZE[max_size]
        assert np.array_equal(fast.counts, slow.counts)


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 30))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if draw(st.booleans()):
        edges = pairs  # complete graph
    else:
        edges = [pr for pr, keep in zip(pairs, draw(
            st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs))))
            if keep]
        # isolate a prefix of the nodes
        cut = draw(st.integers(0, n))
        edges = [(u, v) for u, v in edges if u >= cut]
    return build_graph(n, edges)


@pytest.mark.parametrize("max_size", [2, 3, 4])
@settings(max_examples=100, deadline=None)
@given(g=graphs())
def test_bruteforce_equivalence_property(max_size, g):
    assert np.array_equal(count_orbits(g, max_size).counts,
                          count_orbits_bruteforce(g, max_size).counts)


def test_relabeling_equivariance():
    rng = random.Random(3)
    g = random_graph(18, 0.3, rng)
    base = count_orbits(g).counts
    for _ in range(10):
        perm = list(range(18))
        rng.shuffle(perm)
        h = build_graph(18, [(perm[u], perm[v]) for u, v in g.edges])
        permuted = count_orbits(h).counts
        assert np.array_equal(permuted[perm], base)


def test_orbit_multiplicity_identity():
    # per graphlet: sum over nodes of its orbit counts = frequency * size,
    # with frequencies from the independent enumeration helper
    rng = random.Random(11)
    g = random_graph(12, 0.4, rng)
    om = count_orbits(g)
    freqs = subgraph_frequencies(g)

    def freq_of(size, edges):
        return freqs.get(canonical_small(build_graph(size, edges)), 0)

    totals = om.counts.sum(axis=0)
    assert totals[0] == 2 * freq_of(2, [(0, 1)])
    assert totals[1] + totals[2] == 3 * freq_of(3, [(0, 1), (1, 2)])
    assert totals[3] == 3 * freq_of(3, [(0, 1), (1, 2), (0, 2)])
    assert totals[14] == 4 * freq_of(
        4, [(u, v) for u in range(4) for v in range(u + 1, 4)]
    )
    assert totals[8] == 4 * freq_of(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def test_degree_is_orbit_zero():
    g = random_graph(20, 0.3, random.Random(5))
    om = count_orbits(g)
    assert list(om.column(0)) == g.degrees()


def test_csv_roundtrip():
    g = random_graph(9, 0.5, random.Random(1))
    om = count_orbits(g)
    back = orbit_matrix_from_csv(om.to_csv())
    assert back.orbit_ids == om.orbit_ids
    assert np.array_equal(back.counts, om.counts)


def test_csv_rejects_garbage():
    with pytest.raises(GraphError):
        orbit_matrix_from_csv("node,bad\n0,1\n")
    with pytest.raises(GraphError):
        orbit_matrix_from_csv("")


@pytest.mark.parametrize("text, message", [
    ("\nnode,o0,ox\n0,1,2\n", "line 2: bad orbit CSV header 'node,o0,ox'"),
    ("node,o0,1\n0,1,2\n", "line 1: bad orbit CSV header 'node,o0,1'"),
    ("node,o0,o0\n0,1,1\n", "line 1: bad orbit CSV header 'node,o0,o0'"),
    ("node,o0,o15\n0,1,1\n", "line 1: bad orbit CSV header 'node,o0,o15'"),
    ("node,o0,o1\n0,1,2\n\n1,2,x\n",
     "line 4: invalid literal for int\\(\\) with base 10: 'x'"),
    ("node,o0,o1\n0,1,2\n2,2,0\n", "line 3: bad orbit CSV row '2,2,0'"),
    ("node,o0\n0,1\n1," + "9" * 20 + "\n",
     "line 3: .+"),  # numpy's overflow message varies by version
])
def test_csv_errors_name_the_line(text, message):
    with pytest.raises(GraphError, match=f"^{message}$"):
        orbit_matrix_from_csv(text)


def test_column_unknown_orbit():
    om = count_orbits(build_graph(2, [(0, 1)]), max_size=2)
    with pytest.raises(KeyError):
        om.column(3)


def test_orbit_tables_map_exactly_the_disconnected_masks_to_none():
    # bit i of a mask on k nodes is the i-th pair in lexicographic order
    tables = orbit_tables()
    found = {}
    for k in (2, 3, 4):
        pairs = list(itertools.combinations(range(k), 2))
        assert len(tables[k]) == 1 << len(pairs)
        for mask, orbs in enumerate(tables[k]):
            edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
            assert (orbs is None) == (not connected(k, edges)), (k, edges)
        found[k] = sum(orbs is not None for orbs in tables[k])
    assert found == {2: 1, 3: 4, 4: 38}

import random

import numpy as np
import pytest

from forumnet.graphs import build_graph
from forumnet.netemd import (OrbitSet, distance_matrix_from_csv,
                             netemd_matrix, pca_netemd_matrix, pca_reconstruct)
from forumnet.orbits import count_orbits


def random_graph(n, p, rng):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return build_graph(n, edges)


def test_orbit_set_validation():
    assert len(OrbitSet()) == 15
    with pytest.raises(ValueError):
        OrbitSet(())
    with pytest.raises(ValueError):
        OrbitSet((0, 99))


def test_netemd_self_is_zero():
    g = random_graph(15, 0.4, random.Random(0))
    om = count_orbits(g)
    assert netemd_matrix([om, om]).values[0, 1] == 0.0


def test_netemd_permutation_invariance():
    rng = random.Random(1)
    g = random_graph(16, 0.35, rng)
    om = count_orbits(g)
    for _ in range(20):
        perm = list(range(16))
        rng.shuffle(perm)
        h = build_graph(16, [(perm[u], perm[v]) for u, v in g.edges])
        assert netemd_matrix([om, count_orbits(h)]).values[0, 1] == 0.0


def test_netemd_matrix_symmetry_and_diagonal():
    rng = random.Random(2)
    mats = [count_orbits(random_graph(14, p, rng)) for p in (0.2, 0.4, 0.7)]
    d = netemd_matrix(mats)
    assert np.allclose(d.values, d.values.T)
    assert not d.values.diagonal().any()
    assert (d.values >= 0).all()
    assert d.per_orbit.shape == (15, 3, 3)
    # total is the mean of the per-orbit breakdown
    assert np.allclose(d.values, d.per_orbit.mean(axis=0))


def test_netemd_matrix_needs_two():
    with pytest.raises(ValueError):
        netemd_matrix([count_orbits(build_graph(3, [(0, 1)]))])


def test_netemd_matrix_worker_independence():
    rng = random.Random(3)
    mats = [count_orbits(random_graph(20, 0.3, rng)) for _ in range(4)]
    d1 = netemd_matrix(mats, workers=1)
    d4 = netemd_matrix(mats, workers=4)
    assert np.array_equal(d1.values, d4.values)


def test_distance_matrix_csv_roundtrip():
    rng = random.Random(4)
    mats = [count_orbits(random_graph(10, 0.5, rng)) for _ in range(3)]
    d = netemd_matrix(mats, labels=["a", "b", "c"])
    back = distance_matrix_from_csv(d.to_csv())
    assert back.labels == ("a", "b", "c")
    assert np.allclose(back.values, d.values, atol=1e-10)
    with pytest.raises(ValueError):
        distance_matrix_from_csv("not,a,matrix\n")


@pytest.mark.parametrize("row_b, message", [
    ("b,1,zero", "line 4: could not convert string to float: 'zero'"),
    ("b,2,0", r"line 4: distance matrix must be symmetric with a zero "
              r"diagonal, got 2\.0 at \(b, a\)"),
    ("b,1,0.5", r"line 4: .* got 0\.5 at \(b, b\)"),
])
def test_distance_csv_errors_name_the_line(row_b, message):
    text = ",a,b\n\na,0,1\n" + row_b + "\n"
    with pytest.raises(ValueError, match="^" + message):
        distance_matrix_from_csv(text)


def test_pca_reconstruct_idempotent_at_full_variance():
    rng = random.Random(5)
    mats = [count_orbits(random_graph(30, 0.3, rng)) for _ in range(3)]
    recon = pca_reconstruct([m.counts for m in mats], explained_variance=1.0)
    for om, r in zip(mats, recon):
        assert np.allclose(r, np.log1p(om.counts.astype(float)), atol=1e-8)


def test_pca_reconstruct_validation():
    rng = random.Random(6)
    mats = [count_orbits(random_graph(25, 0.3, rng)) for _ in range(2)]
    with pytest.raises(ValueError):
        pca_reconstruct([m.counts for m in mats], explained_variance=0.0)
    with pytest.raises(ValueError):
        pca_reconstruct([m.counts[:5] for m in mats])  # 10 rows < 15 columns


def test_pca_reconstruct_degenerate_warns():
    flat = [np.zeros((20, 15)), np.zeros((20, 15))]
    with pytest.warns(UserWarning):
        pca_reconstruct(flat, explained_variance=0.9)


def test_pca_netemd_matrix_properties():
    rng = random.Random(7)
    mats = [count_orbits(random_graph(40, p, rng)) for p in (0.15, 0.3, 0.6)]
    d = pca_netemd_matrix(mats, explained_variance=0.9)
    assert np.allclose(d.values, d.values.T)
    assert not d.values.diagonal().any()
    # shared basis means identical collections give identical matrices
    d2 = pca_netemd_matrix(mats, explained_variance=0.9)
    assert np.array_equal(d.values, d2.values)


def test_pca_netemd_equals_netemd_on_log_features_at_ev_one():
    # at full variance the reconstruction is the log1p features themselves,
    # so distances must match a NetEmd computed over those columns
    rng = random.Random(8)
    mats = [count_orbits(random_graph(35, 0.3, rng)) for _ in range(3)]
    d = pca_netemd_matrix(mats, explained_variance=1.0)
    from forumnet.emd import emd_star, make_distribution
    logs = [np.log1p(m.counts.astype(float)) for m in mats]
    for i in range(3):
        for j in range(i + 1, 3):
            per = [
                emd_star(make_distribution(logs[i][:, k]),
                         make_distribution(logs[j][:, k]))
                for k in range(15)
            ]
            assert d.values[i, j] == pytest.approx(float(np.mean(per)), abs=1e-7)

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forumnet.emd import (emd, emd_star, make_distribution,
                          quantile_shift_profile, standardise)


def grid_min(p, q, rounds=4, points=801):
    """Independent oracle: refine a dense grid over the shift objective."""
    ps = p.scaled(1.0 / p.std) if p.variance > 0 else p
    qs = q.scaled(1.0 / q.std) if q.variance > 0 else q
    a_k, w_k = quantile_shift_profile(ps, qs)
    center = qs.mean - ps.mean
    radius = max(
        (ps.support[-1] - ps.support[0]) + (qs.support[-1] - qs.support[0]), 1.0
    )
    lo, hi = center - radius, center + radius
    best = None
    for _ in range(rounds):
        cs = np.linspace(lo, hi, points)
        vals = np.abs(a_k[None, :] + cs[:, None]) @ w_k
        i = int(np.argmin(vals))
        best = float(vals[i])
        step = (hi - lo) / (points - 1)
        lo, hi = cs[i] - step, cs[i] + step
    return best


def rand_dist(rng, n=None):
    n = n or rng.randint(1, 30)
    return make_distribution([rng.gauss(0, 3) for _ in range(n)])


def test_make_distribution_merges_duplicates():
    d = make_distribution([2.0, 1.0, 2.0, 5.0])
    assert list(d.support) == [1.0, 2.0, 5.0]
    assert list(d.masses) == [0.25, 0.5, 0.25]
    assert d.mean == pytest.approx(2.5)


def test_make_distribution_rejects_empty():
    with pytest.raises(ValueError):
        make_distribution([])


def test_w1_hand_values():
    p = make_distribution([0.0, 1.0])
    q = make_distribution([0.0, 2.0])
    assert emd(p, q) == pytest.approx(0.5)
    assert emd(p, p) == 0.0
    # point masses: distance equals the separation
    assert emd(make_distribution([3.0]), make_distribution([7.5])) == pytest.approx(4.5)


def test_w1_triangle_inequality():
    rng = random.Random(0)
    for _ in range(200):
        a, b, c = (rand_dist(rng) for _ in range(3))
        assert emd(a, c) <= emd(a, b) + emd(b, c) + 1e-12


def test_quantile_profile_reconstructs_w1():
    rng = random.Random(1)
    for _ in range(100):
        p, q = rand_dist(rng), rand_dist(rng)
        a_k, w_k = quantile_shift_profile(p, q)
        assert float(w_k @ np.abs(a_k)) == pytest.approx(emd(p, q), abs=1e-12)
        for c in (-1.5, 0.3, 2.0):
            shifted = type(p)(p.support + c, p.masses, p.mean + c, p.variance)
            assert float(w_k @ np.abs(a_k + c)) == pytest.approx(
                emd(shifted, q), abs=1e-12
            )


def test_emd_star_zero_on_affine_images():
    rng = random.Random(2)
    for _ in range(100):
        p = rand_dist(rng, rng.randint(2, 20))
        a = rng.uniform(0.1, 5.0)
        b = rng.uniform(-10, 10)
        img = type(p)(p.support * a + b, p.masses, p.mean * a + b,
                      p.variance * a * a)
        assert emd_star(p, img) <= 1e-8


def test_emd_star_symmetry_and_nonnegativity():
    rng = random.Random(3)
    for _ in range(300):
        p, q = rand_dist(rng), rand_dist(rng)
        d1 = emd_star(p, q)
        d2 = emd_star(q, p)
        assert d1 >= 0
        assert abs(d1 - d2) <= 1e-8


def test_emd_star_matches_grid_oracle():
    rng = random.Random(4)
    for _ in range(200):
        p, q = rand_dist(rng), rand_dist(rng)
        assert emd_star(p, q) == pytest.approx(
            grid_min(p, q), abs=1e-6
        )


def test_emd_star_zero_variance_rules():
    a = make_distribution([2.0])
    b = make_distribution([5.0, 5.0])
    assert emd_star(a, b) == 0.0
    # one-sided point mass: optimum is the MAD about the median of the other
    spread = make_distribution([0.0, 1.0, 5.0])
    scaled = spread.scaled(1.0 / spread.std)
    med = 1.0 / spread.std
    expect = float(np.abs(scaled.support - med) @ scaled.masses)
    assert emd_star(a, spread) == pytest.approx(expect, abs=1e-9)


def test_emd_star_identical_is_exactly_zero():
    rng = random.Random(5)
    for _ in range(50):
        p = rand_dist(rng)
        assert emd_star(p, p) == 0.0


def test_emd_star_triangle_vs_path_spot_value():
    tri = make_distribution([2.0, 2.0, 2.0])
    path = make_distribution([1.0, 2.0, 1.0])
    assert emd_star(tri, path) == pytest.approx(1 / math.sqrt(2), abs=1e-9)


# orbit-count-like samples: mostly small integers with many ties, a few
# large ones, and samples that are a single repeated value (point masses)
_counts = st.one_of(
    st.lists(st.one_of(st.integers(0, 4), st.integers(0, 500)),
             min_size=1, max_size=80),
    st.builds(lambda v, n: [v] * n, st.integers(0, 50), st.integers(1, 80)),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_counts, _counts)
def test_emd_star_is_the_minimum_over_kinks(xs, ys):
    p, q = make_distribution(xs), make_distribution(ys)
    a_k, w_k = quantile_shift_profile(standardise(p), standardise(q))
    # a convex piecewise-linear objective is minimised at one of its kinks
    kink_min = float((np.abs(a_k[None, :] - a_k[:, None]) @ w_k).min())
    d = emd_star(p, q)
    assert d == pytest.approx(kink_min, abs=1e-12)
    assert d == pytest.approx(emd_star(q, p), abs=1e-12)
    assert emd_star(p, make_distribution(xs[::-1])) == 0.0


@pytest.mark.parametrize("n", [50, 56, pytest.param(57, marks=pytest.mark.xfail(
    strict=True, reason=(
        "quantile_shift_profile drops the top quantile interval when both "
        "cumulative masses overshoot 1 by more than 1e-15 (57 masses of 1/57)"
    )))])
def test_emd_star_equal_size_closed_form(n):
    x = np.arange(n, dtype=float)
    y = x ** 2
    # equal sizes: the quantile difference is the sorted standardised
    # difference d, and the best shift leaves its mean absolute deviation
    # about the median
    d = np.sort(y) / y.std() - np.sort(x) / x.std()
    expect = float(np.abs(d - np.median(d)).mean())
    got = emd_star(make_distribution(x), make_distribution(y))
    assert got == pytest.approx(expect, abs=1e-12)

"""1-D empirical distributions, Wasserstein-1 distance and the shape metric.

The shape metric (EMD*) rescales both distributions to unit variance and
takes the infimum of their Wasserstein-1 distance over all translations c.
In quantile form the shifted distance is f(c) = sum_k w_k |a_k + c| (see
quantile_shift_profile). Its slope is the weight of the a_k above -c minus
the weight below -c, so f is minimised at c = -m for a weighted median m of
the a_k, and the distance is sum_k w_k |a_k - m| in closed form, without a
search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class EmpiricalDistribution:
    support: np.ndarray  # strictly increasing
    masses: np.ndarray   # positive, summing to 1
    mean: float
    variance: float      # population variance
    # cumsum(masses), computed once so that pairwise comparisons reuse it
    cdf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "cdf", np.cumsum(self.masses))

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def scaled(self, factor: float) -> "EmpiricalDistribution":
        return EmpiricalDistribution(
            self.support * factor,
            self.masses,
            self.mean * factor,
            self.variance * factor * factor,
        )


def make_distribution(values) -> EmpiricalDistribution:
    """Empirical distribution with mass 1/n per value, duplicates merged."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("make_distribution requires a non-empty 1-D sequence")
    support, counts = np.unique(arr, return_counts=True)
    masses = counts / arr.size
    # moments from the merged form, so the result is independent of the
    # input order (identical multisets compare at exactly zero)
    mean = float(masses @ support)
    var = float(masses @ (support - mean) ** 2)
    return EmpiricalDistribution(support, masses, mean, var)


def standardise(p: EmpiricalDistribution) -> EmpiricalDistribution:
    """Rescale to unit variance; a point mass stays unscaled."""
    return p.scaled(1.0 / p.std) if p.variance > 0 else p


def emd(p: EmpiricalDistribution, q: EmpiricalDistribution) -> float:
    """Exact Wasserstein-1 distance: integral of |F_p - F_q|."""
    pos = np.concatenate([p.support, q.support])
    delta = np.concatenate([p.masses, -q.masses])
    order = np.argsort(pos, kind="stable")
    x = pos[order]
    cdf_diff = np.cumsum(delta[order])
    return float(np.abs(cdf_diff[:-1]) @ np.diff(x))


def emd_star(p: EmpiricalDistribution, q: EmpiricalDistribution) -> float:
    """Unit-variance rescaling followed by the best-translation distance.

    Zero-variance handling: two point masses are at distance 0; if exactly
    one input is a point mass it stays unscaled and the optimum is the
    other distribution's mean absolute deviation about its median.
    """
    return best_shift(standardise(p), standardise(q))


def best_shift(p: EmpiricalDistribution, q: EmpiricalDistribution) -> float:
    """min over c of W1(p shifted by c, q), with p and q used as given.

    The minimiser is c = -m for the weighted median m of the quantile
    differences (see the module docstring).
    """
    a, w = quantile_shift_profile(p, q)
    order = np.argsort(a, kind="stable")
    cum = np.cumsum(w[order])
    m = a[order[np.searchsorted(cum, 0.5 * cum[-1])]]
    return float(w @ np.abs(a - m))


def quantile_shift_profile(p: EmpiricalDistribution, q: EmpiricalDistribution):
    """Represent W1(p shifted by c, q) as sum_k w_k |a_k + c|.

    The union of the two cumulative-mass grids cuts [0, 1] into intervals
    of width w_k on which both quantile functions are constant; a_k is
    their difference there. Returns (a, w); best_shift minimises over c.
    """
    levels = np.unique(np.concatenate([p.cdf, q.cdf]))
    levels = levels[(levels > 0) & (levels <= 1 + 1e-15)]
    w = np.diff(np.concatenate([[0.0], levels]))
    # the quantile on (previous level, level] is the first support point
    # whose cumulative mass reaches the level; leaving the last cumulative
    # mass out of the search clamps levels past it to the last point
    ip = np.searchsorted(p.cdf[:-1], levels)
    iq = np.searchsorted(q.cdf[:-1], levels)
    return p.support[ip] - q.support[iq], w

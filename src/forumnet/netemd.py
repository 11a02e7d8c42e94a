"""NetEmd and its PCA-denoised variant, plus all-pairs distance matrices."""

from __future__ import annotations

import io
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .emd import best_shift, make_distribution, standardise
from .orbits import ALL_ORBITS


@dataclass(frozen=True)
class OrbitSet:
    ids: tuple[int, ...] = ALL_ORBITS

    def __post_init__(self):
        if not self.ids:
            raise ValueError("orbit set must be non-empty")
        bad = [i for i in self.ids if i not in ALL_ORBITS]
        if bad:
            raise ValueError(f"unknown orbit ids: {bad}")

    def __len__(self):
        return len(self.ids)


@dataclass(frozen=True)
class DistanceMatrix:
    labels: tuple[str, ...]
    values: np.ndarray                  # symmetric, zero diagonal
    per_orbit: np.ndarray | None = None  # (features, n, n)
    feature_ids: tuple | None = None

    @property
    def size(self) -> int:
        return len(self.labels)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("," + ",".join(self.labels) + "\n")
        for i, lab in enumerate(self.labels):
            buf.write(lab + "," + ",".join("%.12g" % v for v in self.values[i]) + "\n")
        return buf.getvalue()

    def per_orbit_csv(self, feature_index: int) -> str:
        if self.per_orbit is None:
            raise ValueError("no per-orbit matrices retained")
        return DistanceMatrix(self.labels, self.per_orbit[feature_index]).to_csv()


def distance_matrix_from_csv(text: str) -> DistanceMatrix:
    """Parse ``DistanceMatrix.to_csv`` output; errors name the line.

    The matrix must be exactly symmetric with a zero diagonal, as written.
    """
    rows = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if len(rows) < 2 or not rows[0][1].startswith(","):
        raise ValueError("bad distance CSV: expected label header row")
    labels = tuple(rows[0][1].split(",")[1:])
    if len(rows) - 1 != len(labels):
        raise ValueError("bad distance CSV: row/column count mismatch")
    values = np.zeros((len(labels), len(labels)))
    for i, (n, line) in enumerate(rows[1:]):
        cells = line.split(",")
        if cells[0] != labels[i] or len(cells) != len(labels) + 1:
            raise ValueError(f"line {n}: bad distance CSV row {line!r}")
        try:
            values[i] = [float(c) for c in cells[1:]]
        except ValueError as exc:
            raise ValueError(f"line {n}: {exc}") from None
    # the first entry, in reading order, whose mirror or diagonal is wrong
    bad = np.argwhere(np.tril((values != values.T) | np.diag(values.diagonal() != 0)))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"line {rows[i + 1][0]}: distance matrix must be symmetric "
                         f"with a zero diagonal, got {float(values[i, j])!r} at "
                         f"({labels[i]}, {labels[j]})")
    return DistanceMatrix(labels, values)


def _standard_features(columns):
    """Unit-variance distributions of one network's feature columns."""
    return [standardise(make_distribution(c)) for c in columns]


def _all_pairs(dists_per_net, labels, feature_ids, workers=None):
    """All-pairs EMD* over per-network feature distributions that are
    already standardised, so each pair only aligns quantiles."""
    n = len(dists_per_net)
    m = len(feature_ids)
    per = np.zeros((m, n, n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def compute(pair):
        i, j = pair
        return [
            best_shift(dists_per_net[i][k], dists_per_net[j][k])
            for k in range(m)
        ]

    if workers and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(compute, pairs))
    else:
        results = [compute(p) for p in pairs]
    for (i, j), vals in zip(pairs, results):
        for k, v in enumerate(vals):
            per[k, i, j] = per[k, j, i] = v
    total = per.mean(axis=0)
    return DistanceMatrix(tuple(labels), total, per, tuple(feature_ids))


def netemd_matrix(collection, orbits: OrbitSet = OrbitSet(), labels=None,
                  workers=None) -> DistanceMatrix:
    """All-pairs NetEmd over a collection of orbit matrices.

    Per-orbit matrices are retained for the per-orbit heatmaps.
    """
    mats = list(collection)
    if len(mats) < 2:
        raise ValueError("need at least 2 orbit matrices")
    if labels is None:
        labels = [str(i) for i in range(len(mats))]
    dists = [_standard_features(m.column(o) for o in orbits.ids) for m in mats]
    return _all_pairs(dists, labels, orbits.ids, workers)


def pca_reconstruct(collection, explained_variance: float = 0.9):
    """Denoise orbit-count features by PCA reconstruction.

    ``collection`` holds one (nodes, features) count array per network.
    Rows are per-node orbit vectors transformed by log(1+x) and pooled
    across all networks; columns are centered; the smallest component
    count reaching the explained-variance threshold is kept and rows are
    projected down and back up. Component signs are fixed by making the
    largest-magnitude loading positive so output is platform stable.
    """
    if not 0 < explained_variance <= 1:
        raise ValueError("explained_variance must be in (0, 1]")
    mats = [np.log1p(np.asarray(m, dtype=float)) for m in collection]
    sizes = [m.shape[0] for m in mats]
    pooled = np.vstack(mats)
    ncols = pooled.shape[1]
    if pooled.shape[0] < ncols:
        raise ValueError(
            f"pooled row count {pooled.shape[0]} below feature count {ncols}"
        )
    mean = pooled.mean(axis=0)
    centered = pooled - mean
    cov = centered.T @ centered / pooled.shape[0]
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, None)
    eigvecs = eigvecs[:, order]
    for j in range(ncols):
        i = int(np.abs(eigvecs[:, j]).argmax())
        if eigvecs[i, j] < 0:
            eigvecs[:, j] = -eigvecs[:, j]
    total = eigvals.sum()
    if total <= 0:
        warnings.warn("degenerate pooled data: all rows identical; "
                      "falling back to a single component")
        k = 1
    else:
        ratio = np.cumsum(eigvals) / total
        k = int(np.searchsorted(ratio, explained_variance - 1e-12) + 1)
        k = min(k, ncols)
    V = eigvecs[:, :k]
    recon = centered @ V @ V.T + mean
    out = []
    at = 0
    for sz in sizes:
        out.append(recon[at:at + sz])
        at += sz
    return out


def pca_netemd_matrix(collection, orbits: OrbitSet = OrbitSet(),
                      explained_variance: float = 0.9, labels=None,
                      workers=None) -> DistanceMatrix:
    """NetEmd applied to PCA-reconstructed orbit features.

    Each reconstructed column is treated as an orbit-like feature and the
    distances are averaged exactly as in plain NetEmd.
    """
    mats = list(collection)
    if len(mats) < 2:
        raise ValueError("need at least 2 orbit matrices")
    sub = [
        np.asarray([m.column(o) for o in orbits.ids]).T for m in mats
    ]
    recon = pca_reconstruct(sub, explained_variance)
    if labels is None:
        labels = [str(i) for i in range(len(mats))]
    dists = [_standard_features(r.T) for r in recon]
    return _all_pairs(dists, labels, tuple(range(recon[0].shape[1])), workers)

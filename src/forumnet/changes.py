"""Median-rule structural change detection on a distance matrix."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .netemd import DistanceMatrix


@dataclass(frozen=True)
class ChangeFlag:
    from_label: str
    to_label: str
    jump: int
    distance: float
    median: float


def upper_triangle_median(d: DistanceMatrix) -> float:
    n = d.size
    iu = np.triu_indices(n, k=1)
    vals = d.values[iu]
    return float(np.median(vals))


def flag_changes(d: DistanceMatrix, jumps=(1, 2)) -> list[ChangeFlag]:
    """Flag window pairs whose distance exceeds the median of all pairs.

    Strict inequality: ties with the median are not flagged.  A k>=2 flag
    starting at index i is suppressed when a consecutive (k=1) flag also
    starts at i.  Raises ValueError for a jump below 1.
    """
    n = d.size
    if n < 3:
        raise ValueError("need at least 3 windows to flag changes")
    if any(k < 1 for k in jumps):
        raise ValueError(f"jumps must be positive integers, got {list(jumps)}")
    med = upper_triangle_median(d)
    flags = []
    for k in sorted(jumps):
        for i in range(n - k):
            dist = float(d.values[i, i + k])
            if dist > med:
                flags.append(ChangeFlag(d.labels[i], d.labels[i + k],
                                        k, dist, med))
    consecutive = {f.from_label for f in flags if f.jump == 1}
    flags = [f for f in flags if f.jump == 1 or f.from_label not in consecutive]
    flags.sort(key=lambda f: (f.from_label, f.jump))
    return flags


def flags_to_json(flags) -> str:
    return json.dumps(
        [
            {
                "from": f.from_label,
                "to": f.to_label,
                "jump": f.jump,
                "distance": f.distance,
                "median": f.median,
            }
            for f in flags
        ],
        indent=2,
    ) + "\n"

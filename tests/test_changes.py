import json

import numpy as np
import pytest

from forumnet.changes import (flag_changes, flags_to_json,
                              upper_triangle_median)
from forumnet.netemd import DistanceMatrix


def dmat(values, labels=None):
    arr = np.array(values, dtype=float)
    labels = tuple(labels or [f"w{i}" for i in range(arr.shape[0])])
    return DistanceMatrix(labels, arr, None, None)


def test_upper_triangle_median_hand_value():
    d = dmat([[0, 1, 2], [1, 0, 4], [2, 4, 0]])
    assert upper_triangle_median(d) == 2.0


def test_flags_strictly_above_median():
    d = dmat([[0, 1, 2], [1, 0, 4], [2, 4, 0]])
    flags = flag_changes(d)
    # median is 2: the (w0, w2) pair ties and must not be flagged
    assert [(f.from_label, f.to_label, f.jump) for f in flags] == [
        ("w1", "w2", 1)
    ]
    assert flags[0].distance == 4.0
    assert flags[0].median == 2.0


def test_consecutive_flag_suppresses_jump_two():
    vals = np.array([
        [0, 5, 5, 1],
        [5, 0, 1, 1],
        [5, 1, 0, 1],
        [1, 1, 1, 0],
    ], dtype=float)
    d = dmat(vals)
    flags = flag_changes(d)
    # (w0, w2) at jump 2 exceeds the median but w0 already has a k=1 flag
    assert [(f.from_label, f.jump) for f in flags] == [("w0", 1)]
    # each jump on its own: no consecutive flag to suppress the jump-2 one
    unsuppressed = flag_changes(d, (1,)) + flag_changes(d, (2,))
    assert [(f.from_label, f.jump) for f in unsuppressed] == [
        ("w0", 1), ("w0", 2)
    ]


def test_jump_two_survives_without_consecutive_flag():
    vals = np.array([
        [0, 1, 5, 1],
        [1, 0, 1, 1],
        [5, 1, 0, 1],
        [1, 1, 1, 0],
    ], dtype=float)
    flags = flag_changes(dmat(vals))
    assert [(f.from_label, f.to_label, f.jump) for f in flags] == [
        ("w0", "w2", 2)
    ]


def test_needs_three_windows():
    with pytest.raises(ValueError):
        flag_changes(dmat([[0, 1], [1, 0]]))


def test_flags_to_json_roundtrip():
    d = dmat([[0, 1, 2], [1, 0, 4], [2, 4, 0]], labels=["a", "b", "c"])
    out = json.loads(flags_to_json(flag_changes(d)))
    assert out == [{"from": "b", "to": "c", "jump": 1,
                    "distance": 4.0, "median": 2.0}]

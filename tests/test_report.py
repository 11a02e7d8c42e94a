import numpy as np
import pytest

from forumnet.netemd import DistanceMatrix
from forumnet.report import discordance_csv, render_heatmap, series_csv


def dmat():
    vals = np.array([[0.0, 0.5, 1.0], [0.5, 0.0, 0.25], [1.0, 0.25, 0.0]])
    return DistanceMatrix(("2020-01-01", "2020-02-01", "2020-03-01"),
                          vals, None, None)


def test_heatmap_structure_and_determinism():
    d = dmat()
    svg = render_heatmap(d)
    assert svg == render_heatmap(d)
    assert svg.startswith('<?xml version="1.0"')
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<rect") == 1 + 9
    # month labels appear on both axes
    assert svg.count(">01-2020</text>") == 2
    # extremes map to the configured hues
    assert "#08306b" in svg and "#f7fbff" in svg


def test_heatmap_constant_matrix_renders_dark():
    d = DistanceMatrix(("a", "b"), np.zeros((2, 2)), None, None)
    svg = render_heatmap(d)
    assert "#f7fbff" not in svg
    assert svg.count("#08306b") == 4


def test_heatmap_options_validation():
    with pytest.raises(ValueError):
        render_heatmap(dmat(), label_every=0)
    with pytest.raises(ValueError):
        render_heatmap(DistanceMatrix((), np.zeros((0, 0)), None, None))


def test_heatmap_label_every():
    svg = render_heatmap(dmat(), label_every=2)
    assert ">01-2020</text>" in svg
    assert ">02-2020</text>" not in svg
    assert ">03-2020</text>" in svg


def test_discordance_csv():
    text = discordance_csv([("w0", 0.25, 4), ("w1", None, 0)])
    assert text == ("label,avg_discordance,n_threads\n"
                    "w0,0.25,4\n"
                    "w1,,0\n")


def test_series_csv():
    text = series_csv(["a", "b"], {"y": [1.0, None], "x": [0.5, 2.0]})
    assert text == ("window,x,y\n"
                    "a,0.5,1\n"
                    "b,2,\n")

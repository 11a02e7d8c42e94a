"""Report emission: deterministic SVG heatmaps and small CSV helpers."""

from __future__ import annotations

from datetime import date

from .netemd import DistanceMatrix

CELL = 24                 # cell edge in px
MARGIN = 70               # room for axis labels
DARK = (8, 48, 107)       # minimum distance (most similar)
LIGHT = (247, 251, 255)   # maximum distance


def check_label_every(label_every: int):
    if label_every < 1:
        raise ValueError(f"heatmap label_every must be at least 1, got {label_every}")


def _month_label(raw: str) -> str:
    try:
        d = date.fromisoformat(raw)
    except ValueError:
        return raw
    return f"{d.month:02d}-{d.year}"


def _color(t: float) -> str:
    # t = 0 -> dark (similar), t = 1 -> light
    rgb = [
        round(a + t * (b - a)) for a, b in zip(DARK, LIGHT)
    ]
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def render_heatmap(d: DistanceMatrix, label_every: int = 1) -> str:
    """Square-cell SVG heatmap of a distance matrix, with every
    ``label_every``-th window labelled on both axes.

    The minimum distance maps to the darkest hue and the maximum to the
    lightest; ties (constant matrix) render entirely dark. Output is pure
    text with fixed formatting so identical inputs give identical bytes.
    """
    check_label_every(label_every)
    n = d.size
    if n == 0:
        raise ValueError("empty distance matrix")
    vals = d.values
    lo = float(vals.min())
    hi = float(vals.max())
    span = hi - lo
    side = MARGIN + n * CELL
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{side}" '
        f'height="{side}" viewBox="0 0 {side} {side}">',
        f'<rect width="{side}" height="{side}" fill="white"/>',
    ]
    for i in range(n):
        for j in range(n):
            v = float(vals[i, j])
            t = 0.0 if span == 0 else (v - lo) / span
            x = MARGIN + j * CELL
            y = MARGIN + i * CELL
            lines.append(
                f'<rect x="{x}" y="{y}" width="{CELL}" '
                f'height="{CELL}" fill="{_color(t)}">'
                f'<title>{d.labels[i]} vs {d.labels[j]}: {v:.6g}</title></rect>'
            )
    font = 'font-family="monospace" font-size="10"'
    for k in range(0, n, label_every):
        text = _month_label(d.labels[k])
        cx = MARGIN + k * CELL + CELL // 2
        cy = MARGIN + k * CELL + CELL // 2
        lines.append(
            f'<text x="{cx}" y="{MARGIN - 6}" {font} text-anchor="end" '
            f'transform="rotate(-60 {cx} {MARGIN - 6})">{text}</text>'
        )
        lines.append(
            f'<text x="{MARGIN - 6}" y="{cy + 3}" {font} '
            f'text-anchor="end">{text}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def discordance_csv(rows) -> str:
    """Rows of (label, avg or None, thread count) -> CSV text."""
    out = ["label,avg_discordance,n_threads"]
    for label, avg, n in rows:
        cell = "" if avg is None else "%.9g" % avg
        out.append(f"{label},{cell},{n}")
    return "\n".join(out) + "\n"


def series_csv(labels, columns: dict) -> str:
    """Generic per-window series CSV; None cells render empty."""
    names = sorted(columns)
    out = ["window," + ",".join(names)]
    for i, label in enumerate(labels):
        cells = []
        for name in names:
            v = columns[name][i]
            cells.append("" if v is None else "%.9g" % v)
        out.append(label + "," + ",".join(cells))
    return "\n".join(out) + "\n"

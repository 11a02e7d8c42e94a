"""Output checks for one run, and the reference outputs they compare against.

Every run's artifacts are checked for structure and invariants:

* ``manifest.json`` lists exactly the artifacts expected for the workload's
  windows, and the output directory holds nothing else;
* every distance matrix is symmetric with a zero diagonal;
* orbit 0 of every census equals the degree in the matching edge list, and
  the orbit totals of triangles and K4s are multiples of 3 and 4;
* on ``regime-monthly`` seed 0 the 2020-07 -> 2020-08 boundary is flagged.

For seeds recorded in ``reference.json`` the outputs must also match the
outputs of the commit that recorded them.  Integer artifacts (window stats,
edge lists, orbit counts, sentiment counts) must be byte-identical, flag
sets must be equal, and every number in a float artifact must agree within
``|a - b| <= ATOL + RTOL * |b|``.  Per-orbit distance matrices are compared
through their row sums and the NetEmd matrix through its upper triangle,
to keep the reference small.
"""

from __future__ import annotations

import hashlib
import json
from datetime import date
from pathlib import Path

import numpy as np

RTOL = 1e-7
ATOL = 1e-9
REFERENCE = Path(__file__).resolve().parent / "reference.json"

EXACT_PREFIXES = ("windows.csv", "network_", "orbits_", "sentiment_summaries.csv",
                  "orbits.csv")
FLOAT_FILES = ("sentiment_zscores.csv", "discordance.csv",
               "mixing_matrix.csv", "inferred.csv")
SENTIMENT_FILES = ("sentiment_summaries.csv", "sentiment_zscores.csv",
                   "sentiment_flags.json", "discordance.csv", "mixing_matrix.csv",
                   "inferred.csv")


def digests(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def window_labels(config: dict) -> list:
    start = date.fromisoformat(config["window_start"])
    end = date.fromisoformat(config["window_end"])
    span = int(config["window_span"].rstrip("m"))
    jump = int(config["window_jump"].rstrip("m"))

    def months(d):
        return d.year * 12 + d.month - 1

    labels = []
    m = months(start)
    while m + span <= months(end):
        labels.append(date(m // 12, m % 12 + 1, 1).isoformat())
        m += jump
    return labels


def _cells(text: str) -> list:
    """Every CSV cell: a float, None for an empty cell, else the string."""
    out = []
    for line in text.splitlines():
        for cell in line.split(","):
            if cell == "":
                out.append(None)
                continue
            try:
                out.append(float(cell))
            except ValueError:
                out.append(cell)
    return out


def _matrix(text: str):
    lines = text.splitlines()
    labels = lines[0].split(",")[1:]
    rows = [line.split(",") for line in lines[1:]]
    return [r[0] for r in rows], labels, np.array([[float(c) for c in r[1:]] for r in rows])


def _flags(text: str) -> list:
    return sorted([f["from"], f["to"], f["jump"]] for f in json.loads(text))


def _sentiment_flags(text: str) -> list:
    return sorted([f["window"], f["sentiment"], f["change"]] for f in json.loads(text))


def _orbit_table(text: str):
    lines = text.splitlines()
    header = lines[0].split(",")
    body = np.array([[int(c) for c in ln.split(",")] for ln in lines[1:]],
                    dtype=np.int64).reshape(len(lines) - 1, len(header))
    return header, body


def _check_orbits(orbit_text: str, edge_text: str, where: str) -> list:
    header, body = _orbit_table(orbit_text)
    if header != ["node"] + [f"o{i}" for i in range(15)]:
        return [f"{where}: unexpected orbit header {header}"]
    n = len(body)
    if not np.array_equal(body[:, 0], np.arange(n)):
        return [f"{where}: node column is not 0..{n - 1}"]
    edges = np.array(edge_text.split(), dtype=np.int64).reshape(-1, 2)
    degree = np.bincount(edges.ravel(), minlength=n)
    problems = []
    if len(degree) != n or not np.array_equal(body[:, 1], degree):
        problems.append(f"{where}: orbit 0 differs from the edge-list degree")
    if (body[:, 1:] < 0).any():
        problems.append(f"{where}: negative orbit count")
    if body[:, 4].sum() % 3 or body[:, 15].sum() % 4:
        problems.append(f"{where}: triangle or K4 totals not multiples of 3 and 4")
    return problems


def _close(got: list, want: list) -> bool:
    if len(got) != len(want):
        return False
    for a, b in zip(got, want):
        if isinstance(b, float) and isinstance(a, float):
            if not abs(a - b) <= ATOL + RTOL * abs(b):
                return False
        elif a != b:
            return False
    return True


def summarize(out: Path, config: dict | None) -> dict:
    """The parts of a run's outputs that reference.json records."""
    files = {p.name: p.read_text() for p in sorted(out.iterdir())}
    summary = {"sha256": {n: h for n, h in digests(out).items()
                          if n.startswith(EXACT_PREFIXES)}}
    if config is None:
        return summary
    summary["change_flags"] = _flags(files["change_flags.json"])
    summary["floats"] = {n: _cells(files[n]) for n in FLOAT_FILES if n in files}
    d = _matrix(files["distances.csv"])[2]
    summary["floats"]["distances.csv"] = d[np.triu_indices(len(d), 1)].tolist()
    summary["orbit_row_sums"] = {
        n: _matrix(t)[2].sum(axis=1).tolist()
        for n, t in files.items() if n.startswith("distances_orbit")}
    if "sentiment_flags.json" in files:
        summary["sentiment_flags"] = _sentiment_flags(files["sentiment_flags.json"])
    return summary


def compare_reference(got: dict, want: dict) -> list:
    problems = []
    for key in ("sha256", "change_flags", "sentiment_flags"):
        if got.get(key) != want.get(key):
            bad = key
            if key == "sha256":
                names = set(got[key]) | set(want[key])
                bad = sorted(n for n in names if got[key].get(n) != want[key].get(n))
            problems.append(f"differs from reference: {key} {bad}")
    for key in ("floats", "orbit_row_sums"):
        g, w = got.get(key, {}), want.get(key, {})
        bad = sorted(n for n in set(g) | set(w)
                     if n not in g or n not in w or not _close(g[n], w[n]))
        if bad:
            problems.append(f"differs from reference beyond tolerance: {bad}")
    return problems


def check_pipeline(out: Path, config: dict, name: str, seed: int) -> list:
    manifest = json.loads((out / "manifest.json").read_text())
    labels = window_labels(config)
    expected = {"windows.csv", "distances.csv", "heatmap.svg", "change_flags.json"}
    expected |= {f"distances_orbit{i}.csv" for i in range(15)}
    for lab in labels:
        expected |= {f"network_{lab}.edges", f"orbits_{lab}.csv"}
    if config.get("sentiment", True):
        expected |= set(SENTIMENT_FILES)
    problems = []
    if manifest["windows"] != labels or manifest["skipped_windows"]:
        problems.append("manifest windows differ from the expected windows, "
                        f"or windows were skipped: {manifest['skipped_windows']}")
    if set(manifest["artifacts"]) != expected:
        problems.append("manifest artifacts differ from the expected set: "
                        f"{sorted(set(manifest['artifacts']) ^ expected)}")
    on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
    if on_disk != set(manifest["artifacts"]):
        problems.append(f"files on disk differ from the manifest: "
                        f"{sorted(on_disk ^ set(manifest['artifacts']))}")
    if problems:
        return problems
    for fname in ["distances.csv"] + [f"distances_orbit{i}.csv" for i in range(15)]:
        rows, cols, d = _matrix((out / fname).read_text())
        if rows != labels or cols != labels:
            problems.append(f"{fname}: labels differ from the windows")
        elif np.abs(d - d.T).max() > 1e-12 or np.abs(np.diag(d)).max() > 0:
            problems.append(f"{fname}: not symmetric with a zero diagonal")
    for lab in labels:
        problems += _check_orbits((out / f"orbits_{lab}.csv").read_text(),
                                  (out / f"network_{lab}.edges").read_text(),
                                  f"window {lab}")
    if name == "regime-monthly" and seed == 0:
        if ["2020-07-01", "2020-08-01", 1] not in _flags(
                (out / "change_flags.json").read_text()):
            problems.append("the 2020-07 -> 2020-08 boundary is not flagged")
    return problems


def check_run(out: Path, input_path: Path, config: dict | None, name: str,
              seed: int) -> list:
    """Problems found in one run's outputs; empty when they are correct."""
    if config is None:
        problems = _check_orbits((out / "orbits.csv").read_text(),
                                 input_path.read_text(), "orbits.csv")
        if {p.name for p in out.iterdir()} != {"orbits.csv"}:
            problems.append("unexpected files beside orbits.csv")
    else:
        problems = check_pipeline(out, config, name, seed)
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    want = reference.get(name, {}).get(str(seed))
    if want is not None and not problems:
        problems += compare_reference(summarize(out, config), want)
    return problems


def record_reference(out: Path, config: dict | None, name: str, seed: int):
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    reference.setdefault(name, {})[str(seed)] = summarize(out, config)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")

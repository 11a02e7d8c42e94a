"""End-to-end orchestration: ingest through reports, with persisted artifacts."""

from __future__ import annotations

import json
import logging
import platform
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .changes import flag_changes, flags_to_json
from .graphs import GraphError, write_edge_list
from .ingest import (SENTIMENTS, IngestError, PostTable, WindowSpec,
                     make_windows, parse_posts, window_stats)
from .netemd import DistanceMatrix, OrbitSet, netemd_matrix, pca_netemd_matrix
from .orbits import ORBITS_BY_SIZE, count_orbits
from .projection import project_window
from .report import HeatmapOptions, discordance_csv, render_heatmap, series_csv
from .sentiment import (DiscordanceParams, discordance_scores,
                        discordance_window_avg, flag_sentiment_changes,
                        infer_discordance, infer_post_sentiment,
                        inferred_ratio_zscores, label_mixing, labeled_threads,
                        sentiment_flags_json, sentiment_metrics,
                        summaries_to_csv, zscore_series)

log = logging.getLogger(__name__)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class PipelineError(RuntimeError):
    def __init__(self, stage: str, cause: Exception | str):
        self.stage = stage
        super().__init__(f"[{stage}] {cause}")


@dataclass(frozen=True)
class PipelineConfig:
    input_path: str
    output_dir: str
    window_start: str
    window_end: str
    window_span: str = "1m"
    window_jump: str = "1m"
    input_format: str = "csv"
    projection: str = "weighted"        # weighted | plain
    orbit_max_size: int = 4
    comparison: str = "netemd"          # netemd | pca-netemd
    explained_variance: float = 0.90
    jumps: tuple = (1, 2)
    sentiment: bool = True
    discordance_min: int = 2
    discordance_max: int = 5
    workers: int | None = None
    heatmap_label_every: int = 1

    def __post_init__(self):
        for name in ("input_path", "output_dir", "window_start", "window_end",
                     "window_span", "window_jump"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise ValueError(f"{name} must be a string, got {value!r}")
        for name in ("orbit_max_size", "discordance_min", "discordance_max",
                     "heatmap_label_every"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not (self.workers is None or _is_int(self.workers)):
            raise ValueError(f"workers must be an integer, got {self.workers!r}")
        if not isinstance(self.sentiment, bool):
            raise ValueError(f"sentiment must be true or false, got {self.sentiment!r}")
        if self.input_format not in ("csv", "jsonl"):
            raise ValueError(f"unknown input format {self.input_format!r}")
        if self.projection not in ("weighted", "plain"):
            raise ValueError(f"unknown projection mode {self.projection!r}")
        if self.comparison not in ("netemd", "pca-netemd"):
            raise ValueError(f"unknown comparison mode {self.comparison!r}")
        if self.orbit_max_size not in ORBITS_BY_SIZE:
            raise ValueError(f"orbit max size must be one of {sorted(ORBITS_BY_SIZE)}")
        ev = self.explained_variance
        if not (isinstance(ev, (int, float)) and not isinstance(ev, bool)
                and 0 < ev <= 1):
            raise ValueError(f"explained variance must be in (0, 1], got {ev!r}")
        if not (isinstance(self.jumps, (list, tuple)) and self.jumps
                and all(_is_int(k) and k >= 1 for k in self.jumps)):
            raise ValueError(
                f"jumps must be a list of positive integers, got {self.jumps!r}")
        # validates span/jump compatibility, discordance windows and heatmap
        # options up front
        self.window_spec()
        DiscordanceParams(self.discordance_min, self.discordance_max)
        HeatmapOptions(label_every=self.heatmap_label_every)

    def window_spec(self) -> WindowSpec:
        return WindowSpec.from_tokens(self.window_start, self.window_end,
                                      self.window_span, self.window_jump)

    @classmethod
    def from_json(cls, text: str, **overrides) -> "PipelineConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid config JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        known = set(cls.__dataclass_fields__)
        extra = set(raw) - known
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        raw.update(overrides)
        if isinstance(raw.get("jumps"), list):
            raw["jumps"] = tuple(raw["jumps"])
        return cls(**raw)


def _write(path: Path, text: str):
    path.write_text(text)


# --- stage functions, shared by run_pipeline and the CLI ---

def read_posts(path: str, fmt: str) -> PostTable:
    with open(path, newline="") as fh:
        return parse_posts(fh, fmt)


def windows_table(windows) -> str:
    """``windows.csv``: post, thread and user counts per window."""
    return "".join(["window,posts,threads,users\n"] + [
        "{},{posts},{threads},{users}\n".format(w.label_str, **window_stats(w))
        for w in windows])


def compare_orbit_matrices(matrices, labels, orbit_max_size: int, mode: str,
                           explained_variance: float,
                           workers: int | None) -> DistanceMatrix:
    """All-pairs NetEmd (``mode`` "netemd") or PCA-NetEmd distances.

    Raises ValueError when a matrix lacks an orbit of the census size.
    """
    oset = OrbitSet(ORBITS_BY_SIZE[orbit_max_size])
    for m, label in zip(matrices, labels):
        missing = set(oset.ids) - set(m.orbit_ids)
        if missing:
            raise ValueError(f"{label}: orbit {min(missing)} not present in matrix "
                             f"(max size {orbit_max_size} needs orbits 0-{max(oset.ids)})")
    if mode == "pca-netemd":
        return pca_netemd_matrix(matrices, oset, explained_variance, labels,
                                 workers)
    return netemd_matrix(matrices, oset, labels, workers)


def sentiment_artifacts(summaries) -> tuple[dict[str, str], int]:
    """Sentiment summaries, Z-scores and flags by artifact name; flag count."""
    ztable = zscore_series(summaries)
    sflags = flag_sentiment_changes(ztable)
    return {
        "sentiment_summaries.csv": summaries_to_csv(summaries),
        "sentiment_zscores.csv": ztable.to_csv(),
        "sentiment_flags.json": sentiment_flags_json(sflags),
    }, len(sflags)


def discordance_table(windows, params: DiscordanceParams) -> str:
    """``discordance.csv``: per-window average and the threads it is over."""
    return discordance_csv([
        (w.label_str, *discordance_window_avg(labeled_threads(w.table, w.rows),
                                              params))
        for w in windows])


def inference_artifacts(table: PostTable, summaries,
                        params: DiscordanceParams) -> dict[str, str]:
    """Mixing matrix and inferred series by artifact name.

    The matrix comes from the labeled posts of the corpus's labeled
    threads and is applied to the windows' post counts; the inferred
    discordance needs a qualifying thread in every class. Raises
    ValueError when a thread class has no labeled posts.
    """
    groups = labeled_threads(table)
    classes = table.thread_label[groups.thread]
    m = label_mixing(classes, groups)
    cols = {f"inferred_{r}": z for r, z in
            inferred_ratio_zscores(infer_post_sentiment(summaries, m)).items()}
    # (score, class, whether its labels fill the smallest window) per thread
    scored = list(zip(discordance_scores(groups, params), classes.tolist(),
                      (groups.sizes >= params.min_window).tolist()))
    per_class = {s: [v for v, c, ok in scored if ok and c == code]
                 for code, s in enumerate(SENTIMENTS)}
    if all(per_class.values()):
        cols["inferred_discordance"] = infer_discordance(
            summaries, {s: sum(v) / len(v) for s, v in per_class.items()})
    return {
        "mixing_matrix.csv": "\n".join(
            ",".join("%.9g" % v for v in row) for row in m) + "\n",
        "inferred.csv": series_csv([s.label for s in summaries], cols),
    }


def _stage_timer():
    """``stage(name)`` ends the running stage, logging its wall seconds at
    info level, and starts stage ``name``; ``stage(None)`` only ends."""
    running = [None, 0.0]

    def stage(name):
        if running[0]:
            log.info("stage %s: %.3f s", running[0],
                     time.perf_counter() - running[1])
        running[:] = [name, time.perf_counter()]
    return stage


def run_pipeline(config: PipelineConfig) -> dict:
    """Execute every stage and persist its artifact; returns the manifest.

    Windows whose interaction graph cannot be built (too few posts or no
    projected edges) are excluded from the structural comparison and
    listed in the manifest, rather than failing the run.
    """
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = []
    stage = _stage_timer()

    def emit(name: str, text: str):
        _write(out / name, text)
        artifacts.append(name)

    stage("ingest")
    try:
        table = read_posts(config.input_path, config.input_format)
    except (OSError, IngestError) as exc:
        raise PipelineError("ingest", exc) from exc
    if not len(table):
        raise PipelineError("ingest", "no posts in input")

    stage("windows")
    try:
        windows = make_windows(table, config.window_spec())
    except IngestError as exc:
        raise PipelineError("windows", exc) from exc
    if len(windows) < 2:
        raise PipelineError("windows", f"only {len(windows)} window(s) in range")
    emit("windows.csv", windows_table(windows))

    stage("networks")
    matrices = []
    labels = []
    skipped = []
    sizes = []  # per-window posts, threads, users and network size
    for w in windows:
        size = {"window": w.label_str, **window_stats(w)}
        sizes.append(size)
        try:
            graph, threshold = project_window(w, config.projection == "weighted")
        except (GraphError, ValueError) as exc:
            skipped.append({"window": w.label_str, "reason": str(exc)})
            log.info("window %s skipped: %s", w.label_str, exc)
            continue
        try:
            om = count_orbits(graph, config.orbit_max_size)
        except Exception as exc:
            raise PipelineError("orbits", f"window {w.label_str}: {exc}") from exc
        size.update(nodes=graph.node_count, edges=graph.edge_count,
                    threshold=threshold, max_degree=int(om.column(0).max()))
        emit(f"network_{w.label_str}.edges", write_edge_list(graph))
        emit(f"orbits_{w.label_str}.csv", om.to_csv())
        matrices.append(om)
        labels.append(w.label_str)
    if len(matrices) < 3:
        raise PipelineError(
            "projection", f"only {len(matrices)} usable windows after projection"
        )

    stage("compare")
    try:
        dmat = compare_orbit_matrices(matrices, labels, config.orbit_max_size,
                                      config.comparison,
                                      config.explained_variance, config.workers)
    except ValueError as exc:
        raise PipelineError("compare", exc) from exc
    emit("distances.csv", dmat.to_csv())
    emit("heatmap.svg", render_heatmap(
        dmat, HeatmapOptions(label_every=config.heatmap_label_every)))
    if config.comparison == "netemd":
        for idx, oid in enumerate(dmat.feature_ids):
            emit(f"distances_orbit{oid}.csv", dmat.per_orbit_csv(idx))

    stage("detect")
    try:
        cflags = flag_changes(dmat, config.jumps)
    except ValueError as exc:
        raise PipelineError("detect", exc) from exc
    emit("change_flags.json", flags_to_json(cflags))

    manifest = {
        "version": __version__,
        "config": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in config.__dict__.items()},
        "windows": [w.label_str for w in windows],
        "skipped_windows": skipped,
        "change_flags": len(cflags),
        "window_sizes": sizes,
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__, "scipy": scipy.__version__},
    }

    if config.sentiment:
        stage("sentiment")
        params = DiscordanceParams(config.discordance_min, config.discordance_max)
        summaries = [sentiment_metrics(w) for w in windows]
        texts, n_flags = sentiment_artifacts(summaries)  # >= 2 windows
        manifest["sentiment_flags"] = n_flags
        stage("discordance")
        texts["discordance.csv"] = discordance_table(windows, params)
        stage("inference")
        try:
            texts.update(inference_artifacts(table, summaries, params))
        except ValueError as exc:
            manifest["inference"] = f"skipped: {exc}"
        for name, text in texts.items():
            emit(name, text)

    manifest["artifacts"] = sorted(artifacts)
    _write(out / "manifest.json", json.dumps(manifest, indent=2) + "\n")
    stage(None)
    return manifest

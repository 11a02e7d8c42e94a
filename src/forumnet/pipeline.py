"""End-to-end orchestration: ingest through reports, with persisted artifacts."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .changes import flag_changes, flags_to_json
from .graphs import Graph, GraphError, write_edge_list
from .ingest import (SENTIMENTS, IngestError, PostRecord, WindowSpec,
                     derive_threads, make_windows, parse_posts, window_stats)
from .netemd import DistanceMatrix, OrbitSet, netemd_matrix, pca_netemd_matrix
from .orbits import ORBITS_BY_SIZE, count_orbits
from .projection import build_bipartite, project_users, sparsify_threshold
from .report import HeatmapOptions, discordance_csv, render_heatmap, series_csv
from .sentiment import (DiscordanceParams, discordance_thread,
                        discordance_window_avg, flag_sentiment_changes,
                        infer_discordance, infer_post_sentiment,
                        inferred_ratio_zscores, labeled_sequences,
                        mixing_matrix, sentiment_flags_json,
                        sentiment_metrics, summaries_to_csv, zscore_series)


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
        if self.input_format not in ("csv", "jsonl"):
            raise ValueError(f"unknown input format {self.input_format!r}")
        if self.projection not in ("weighted", "plain"):
            raise ValueError(f"unknown projection mode {self.projection!r}")
        if self.comparison not in ("netemd", "pca-netemd"):
            raise ValueError(f"unknown comparison mode {self.comparison!r}")
        if self.orbit_max_size not in ORBITS_BY_SIZE:
            raise ValueError(f"orbit max size must be one of {sorted(ORBITS_BY_SIZE)}")
        if not 0 < self.explained_variance <= 1:
            raise ValueError("explained variance must be in (0, 1]")
        if not self.jumps or any(k < 1 for k in self.jumps):
            raise ValueError("jumps must be positive integers")
        # validates span/jump compatibility and discordance windows up front
        self.window_spec()
        DiscordanceParams(self.discordance_min, self.discordance_max)

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
        if "jumps" in raw:
            raw["jumps"] = tuple(raw["jumps"])
        return cls(**raw)


def _write(path: Path, text: str):
    path.write_text(text)


# --- stage functions, shared by run_pipeline and the CLI ---

def read_posts(path: str, fmt: str) -> list[PostRecord]:
    with open(path, newline="") as fh:
        return parse_posts(fh, fmt)


def windows_table(windows) -> str:
    """``windows.csv``: post, thread and user counts per window."""
    rows = ["window,posts,threads,users"]
    for w in windows:
        st = window_stats(w)
        rows.append(f"{w.label_str},{st['posts']},{st['threads']},{st['users']}")
    return "\n".join(rows) + "\n"


def project_window(w, weighted: bool) -> Graph:
    """Sparsified user network; GraphError/ValueError if it has no edges."""
    bip, _, _ = build_bipartite(w)
    return sparsify_threshold(project_users(bip, weighted)).sparsified


def compare_orbit_matrices(matrices, labels, orbit_max_size: int, mode: str,
                           explained_variance: float,
                           workers: int | None) -> DistanceMatrix:
    """All-pairs NetEmd (``mode`` "netemd") or PCA-NetEmd distances."""
    oset = OrbitSet(ORBITS_BY_SIZE[orbit_max_size])
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
    rows = []
    for w in windows:
        sequences = labeled_sequences(w.posts).values()
        counted = sum(map(params.qualifies, sequences))
        rows.append((w.label_str, discordance_window_avg(sequences, params),
                     counted))
    return discordance_csv(rows)


def inference_artifacts(posts, threads, summaries,
                        params: DiscordanceParams) -> dict[str, str]:
    """Mixing matrix and inferred series by artifact name.

    The matrix comes from the labeled posts of the corpus's labeled
    threads and is applied to the windows' post counts; the inferred
    discordance needs a qualifying thread in every class. Raises
    ValueError when a thread class has no labeled posts.
    """
    sequences = {tid: seq for tid, seq in labeled_sequences(posts).items()
                 if threads[tid].sentiment is not None}
    m = mixing_matrix((threads[tid].sentiment, seq)
                      for tid, seq in sequences.items())
    cols = {f"inferred_{r}": z for r, z in
            inferred_ratio_zscores(infer_post_sentiment(summaries, m)).items()}
    per_class: dict[str, list] = {}
    for tid, seq in sequences.items():
        if params.qualifies(seq):
            per_class.setdefault(threads[tid].sentiment, []).append(
                discordance_thread(seq, params))
    if all(per_class.get(s) for s in SENTIMENTS):
        avgs = {s: sum(v) / len(v) for s, v in per_class.items()}
        cols["inferred_discordance"] = infer_discordance(summaries, avgs)
    return {
        "mixing_matrix.csv": "\n".join(
            ",".join("%.9g" % v for v in row) for row in m) + "\n",
        "inferred.csv": series_csv([s.label for s in summaries], cols),
    }


def run_pipeline(config: PipelineConfig) -> dict:
    """Execute every stage and persist its artifact; returns the manifest.

    Windows whose interaction graph cannot be built (too few posts or no
    projected edges) are excluded from the structural comparison and
    listed in the manifest, rather than failing the run.
    """
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = []

    def emit(name: str, text: str):
        _write(out / name, text)
        artifacts.append(name)

    try:
        posts = read_posts(config.input_path, config.input_format)
        threads = derive_threads(posts)
    except (OSError, IngestError) as exc:
        raise PipelineError("ingest", exc) from exc
    if not posts:
        raise PipelineError("ingest", "no posts in input")

    try:
        windows = make_windows(posts, config.window_spec())
    except IngestError as exc:
        raise PipelineError("windows", exc) from exc
    if len(windows) < 2:
        raise PipelineError("windows", f"only {len(windows)} window(s) in range")
    emit("windows.csv", windows_table(windows))

    matrices = []
    labels = []
    skipped = []
    for w in windows:
        try:
            graph = project_window(w, config.projection == "weighted")
        except (GraphError, ValueError) as exc:
            skipped.append({"window": w.label_str, "reason": str(exc)})
            continue
        try:
            om = count_orbits(graph, config.orbit_max_size)
        except Exception as exc:
            raise PipelineError("orbits", f"window {w.label_str}: {exc}") from exc
        emit(f"network_{w.label_str}.edges", write_edge_list(graph))
        emit(f"orbits_{w.label_str}.csv", om.to_csv())
        matrices.append(om)
        labels.append(w.label_str)
    if len(matrices) < 3:
        raise PipelineError(
            "projection", f"only {len(matrices)} usable windows after projection"
        )

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
    }

    if config.sentiment:
        params = DiscordanceParams(config.discordance_min, config.discordance_max)
        summaries = [sentiment_metrics(w) for w in windows]
        texts, n_flags = sentiment_artifacts(summaries)  # >= 2 windows
        manifest["sentiment_flags"] = n_flags
        texts["discordance.csv"] = discordance_table(windows, params)
        try:
            texts.update(inference_artifacts(posts, threads, summaries, params))
        except ValueError as exc:
            manifest["inference"] = f"skipped: {exc}"
        for name, text in texts.items():
            emit(name, text)

    manifest["artifacts"] = sorted(artifacts)
    _write(out / "manifest.json", json.dumps(manifest, indent=2) + "\n")
    return manifest

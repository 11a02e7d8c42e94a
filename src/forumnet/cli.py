"""Command-line entry point.

Exit codes: 0 success, 1 validation error (bad arguments, malformed
input), 2 runtime error. Set FORUMNET_LOG=debug|info|warning for log
verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from contextlib import nullcontext
from pathlib import Path

from .changes import flag_changes, flags_to_json
from .graphs import GraphError, build_graph, read_edge_list, write_edge_list
from .ingest import IngestError, WindowSpec, make_windows, write_posts_csv
from .netemd import distance_matrix_from_csv
from .orbits import count_orbits, orbit_matrix_from_csv
from .pipeline import (PipelineConfig, PipelineError, compare_orbit_matrices,
                       discordance_table, inference_artifacts, read_posts,
                       run_pipeline, sentiment_artifacts, windows_table)
from .projection import project_window
from .report import HeatmapOptions, render_heatmap
from .sentiment import DiscordanceParams, sentiment_metrics
from .synth import RegimeScript, ScriptError, generate_forum

log = logging.getLogger("forumnet")


def _write_out(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _write_posts(posts, out: str | None):
    with open(out, "w", newline="") if out else nullcontext(sys.stdout) as fh:
        write_posts_csv(posts, fh)


def _write_dir(outdir: str, artifacts: dict[str, str]):
    path = Path(outdir)
    path.mkdir(parents=True, exist_ok=True)
    for name, text in artifacts.items():
        (path / name).write_text(text)


def _window_args(p: argparse.ArgumentParser):
    p.add_argument("--input", required=True, help="posts file")
    p.add_argument("--format", default="csv", choices=["csv", "jsonl"])
    p.add_argument("--start", required=True, help="range start (YYYY-MM-DD)")
    p.add_argument("--end", required=True, help="range end (YYYY-MM-DD)")
    p.add_argument("--span", default="1m", help="window span, e.g. 4m")
    p.add_argument("--jump", default="1m", help="window jump, e.g. 2m or halfmonth")


def _load_windows(args, table=None):
    spec = WindowSpec.from_tokens(args.start, args.end, args.span, args.jump)
    posts = read_posts(args.input, args.format) if table is None else table
    return make_windows(posts, spec)


def cmd_synth(args):
    script = RegimeScript.from_json(Path(args.script).read_text())
    posts = generate_forum(script)
    log.info("generated %d posts", len(posts))
    _write_posts(posts, args.out)


def cmd_ingest(args):
    _write_posts(read_posts(args.input, args.format).records(), args.out)


def cmd_windows(args):
    _write_out(windows_table(_load_windows(args)), args.out)


def cmd_project(args):
    networks = {}
    for w in _load_windows(args):
        try:
            graph, _ = project_window(w, not args.plain)
        except (GraphError, ValueError) as exc:
            log.warning("window %s skipped: %s", w.label_str, exc)
            continue
        networks[f"network_{w.label_str}.edges"] = write_edge_list(graph)
    _write_dir(args.outdir, networks)
    log.info("edge lists written to %s", args.outdir)


def cmd_orbits(args):
    n, edges = read_edge_list(Path(args.edges).read_text().splitlines())
    g = build_graph(n, [(u, v) for u, v, *_ in edges])
    om = count_orbits(g, args.max_size)
    _write_out(om.to_csv(), args.out)


def cmd_compare(args):
    mats = [orbit_matrix_from_csv(Path(p).read_text()) for p in args.orbits]
    labels = args.labels or [Path(p).stem for p in args.orbits]
    if len(labels) != len(mats):
        raise ValueError("label count must match orbit file count")
    d = compare_orbit_matrices(mats, labels, args.max_size, args.mode,
                               args.explained_variance, args.workers)
    _write_out(d.to_csv(), args.out)


def cmd_detect(args):
    d = distance_matrix_from_csv(Path(args.distances).read_text())
    flags = flag_changes(d, tuple(args.jumps))
    _write_out(flags_to_json(flags), args.out)


def cmd_sentiment(args):
    summaries = [sentiment_metrics(w) for w in _load_windows(args)]
    texts, n_flags = sentiment_artifacts(summaries)
    _write_dir(args.outdir, texts)
    log.info("%d sentiment flag(s)", n_flags)


def cmd_discordance(args):
    params = DiscordanceParams(args.min_window, args.max_window)
    _write_out(discordance_table(_load_windows(args), params), args.out)


def cmd_infer(args):
    # ingest, windows, sentiment summaries and inference; no structural stage
    table = read_posts(args.input, args.format)
    summaries = [sentiment_metrics(w) for w in _load_windows(args, table)]
    _write_dir(args.outdir, inference_artifacts(table, summaries,
                                                DiscordanceParams()))
    log.info("inference artifacts written to %s", args.outdir)


def cmd_report(args):
    d = distance_matrix_from_csv(Path(args.distances).read_text())
    svg = render_heatmap(d, HeatmapOptions(label_every=args.label_every))
    _write_out(svg, args.out)


def cmd_run(args):
    overrides = {}
    if args.out_dir:
        overrides["output_dir"] = args.out_dir
    config = PipelineConfig.from_json(Path(args.config).read_text(), **overrides)
    manifest = run_pipeline(config)
    log.info("pipeline complete: %d artifact(s)", len(manifest["artifacts"]))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forumnet",
        description="Structural and sentiment change analysis of forum activity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic forum corpus")
    p.add_argument("--script", required=True, help="regime script JSON")
    p.add_argument("--out")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="parse and normalize a posts file")
    p.add_argument("--input", required=True)
    p.add_argument("--format", default="csv", choices=["csv", "jsonl"])
    p.add_argument("--out")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("windows", help="per-window post/thread/user counts")
    _window_args(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_windows)

    p = sub.add_parser("project", help="per-window sparsified user networks")
    _window_args(p)
    p.add_argument("--outdir", required=True)
    p.add_argument("--plain", action="store_true",
                   help="unweighted co-occurrence instead of the weighted form")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("orbits", help="orbit census of an edge-list graph")
    p.add_argument("--edges", required=True)
    p.add_argument("--max-size", type=int, default=4, choices=[2, 3, 4])
    p.add_argument("--out")
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("compare", help="all-pairs distance matrix")
    p.add_argument("--orbits", nargs="+", required=True,
                   help="orbit CSV files, one per network")
    p.add_argument("--labels", nargs="*")
    p.add_argument("--mode", default="netemd", choices=["netemd", "pca-netemd"])
    p.add_argument("--explained-variance", type=float, default=0.90)
    p.add_argument("--max-size", type=int, default=4, choices=[2, 3, 4])
    p.add_argument("--workers", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("detect", help="median-rule change flags")
    p.add_argument("--distances", required=True)
    p.add_argument("--jumps", type=int, nargs="+", default=[1, 2])
    p.add_argument("--out")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("sentiment", help="per-window sentiment metrics and flags")
    _window_args(p)
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_sentiment)

    p = sub.add_parser("discordance", help="per-window average discordance")
    _window_args(p)
    p.add_argument("--min-window", type=int, default=2)
    p.add_argument("--max-window", type=int, default=5)
    p.add_argument("--out")
    p.set_defaults(func=cmd_discordance)

    p = sub.add_parser("infer", help="mixing-matrix inference artifacts")
    _window_args(p)
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("report", help="render a distance-matrix heatmap")
    p.add_argument("--distances", required=True)
    p.add_argument("--label-every", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("run", help="full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", help="override the config output directory")
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("FORUMNET_LOG", "warning").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (IngestError, GraphError, ScriptError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (PipelineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

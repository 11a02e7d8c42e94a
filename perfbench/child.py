"""One measured call into forumnet, run in a fresh interpreter.

Usage: child.py SRC_DIR WORKLOAD INPUT OUT_DIR TRACE(0|1) [SPANS_JSON]

Imports forumnet from SRC_DIR, calls the workload's public entry point once
and prints one JSON line: the wall seconds of the call, the process's peak
resident set (``VmHWM``) and, when TRACE is 1, the per-layer metrics.

Tracing wraps every forumnet function bound in the namespace the entry
point calls through (``forumnet.pipeline`` for pipeline workloads,
``forumnet.cli`` for the orbits CLI) plus ``pipeline._write``, records a
span per call, and restores the originals afterwards.  A span's layer is
the last part of the module its function comes from, so metric names do
not depend on where a function is imported.
"""

from __future__ import annotations

import json
import operator
import sys
import time
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import WORKLOADS  # noqa: E402


def _orbit_counts(om):
    deg = om.counts[:, 0]
    return {"orbits.calls": 1, "orbits.nodes": int(om.counts.shape[0]),
            "orbits.edges": int(deg.sum()) // 2,
            "orbits.max_degree": int(deg.max()) if len(deg) else 0}


def _distance_counts(d):
    pairs = d.size * (d.size - 1) // 2
    return {"netemd.pairs": pairs, "netemd.emd_calls": pairs * len(d.feature_ids)}


# work counts read from the return value (or arguments) of a wrapped call
COUNTERS = {
    "parse_posts": lambda r, a: {"ingest.posts": len(r)},
    "make_windows": lambda r, a: {"ingest.windows": len(r)},
    "project_users": lambda r, a: {"projection.pairs": len(r.weights)},
    "sparsify_threshold": lambda r, a: {
        "projection.kept_edges": len(r.sparsified.edges)},
    "count_orbits": lambda r, a: _orbit_counts(r),
    "netemd_matrix": lambda r, a: _distance_counts(r),
    "pca_netemd_matrix": lambda r, a: _distance_counts(r),
    "flag_changes": lambda r, a: {"changes.flags": len(r)},
    "_write": lambda r, a: {
        "pipeline.artifacts": int(a[0].name != "manifest.json"),
        "pipeline.artifact_bytes": len(a[1].encode())},
}

COUNT_KEYS = ("ingest.posts", "ingest.windows", "projection.pairs",
              "projection.kept_edges", "orbits.calls", "orbits.nodes", "orbits.edges",
              "orbits.max_degree", "netemd.pairs", "netemd.emd_calls", "changes.flags",
              "pipeline.artifacts", "pipeline.artifact_bytes")
LAYERS = ("ingest", "sentiment", "netemd", "orbits", "projection", "graphs",
          "changes", "report")


class Tracer:
    """In-memory spans: [name, layer, start, end, parent index]."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._patched = []

    def call(self, name, layer, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        span = [name, layer, time.perf_counter(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()
        counter = COUNTERS.get(name)
        if counter:
            for key, val in counter(result, args).items():
                merge = max if key.endswith("max_degree") else operator.add
                self.counts[key] = merge(self.counts.get(key, 0), val)
        return result

    def wrap(self, namespace, name, layer):
        fn = getattr(namespace, name)

        def traced(*args, **kwargs):
            return self.call(name, layer, fn, *args, **kwargs)

        setattr(namespace, name, traced)
        self._patched.append((namespace, name, fn))

    def wrap_namespace(self, namespace):
        for name, obj in list(vars(namespace).items()):
            module = getattr(obj, "__module__", "") or ""
            if (isinstance(obj, types.FunctionType) and module.startswith("forumnet.")
                    and module != namespace.__name__):
                self.wrap(namespace, name, module.rsplit(".", 1)[1])

    def restore(self):
        for namespace, name, fn in reversed(self._patched):
            setattr(namespace, name, fn)
        self._patched.clear()

    def metrics(self):
        """(times, counts): per-layer busy and self seconds, and work counts.

        Counts, and ratios of counts, repeat exactly from run to run.
        """
        dur = [s[3] - s[2] for s in self.spans]
        busy = {}
        child_time = [0.0] * len(self.spans)
        for i, (name, layer, _, _, parent) in enumerate(self.spans):
            if parent is not None:
                child_time[parent] += dur[i]
                if self.spans[parent][1] != layer:
                    busy[layer] = busy.get(layer, 0.0) + dur[i]
        times = {f"{layer}.busy_s": busy.get(layer, 0.0) for layer in LAYERS}
        disc = [d for s, d in zip(self.spans, dur) if s[0].startswith("discordance")]
        times["sentiment.discordance_s"] = sum(disc, 0.0)
        times["pipeline.write_s"] = busy.get("pipeline.write", 0.0)
        for root in ("pipeline", "cli"):
            times[f"{root}.self_s"] = sum((dur[i] - child_time[i]
                                           for i, s in enumerate(self.spans)
                                           if s[4] is None and s[1] == root), 0.0)
        counts = {key: self.counts.get(key, 0) for key in COUNT_KEYS}
        counts["sentiment.discordance_calls"] = len(disc)
        counts["projection.keep_ratio"] = (
            counts["projection.kept_edges"] / counts["projection.pairs"]
            if counts["projection.pairs"] else 0.0)
        times["netemd.us_per_emd"] = (
            times["netemd.busy_s"] / counts["netemd.emd_calls"] * 1e6
            if counts["netemd.emd_calls"] else 0.0)
        return times, counts


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM not found in /proc/self/status")


def main(argv):
    src, name, input_path, out_dir = argv[:4]
    traced = argv[4] == "1"
    spans_path = argv[5] if len(argv) > 5 else None
    sys.path.insert(0, src)
    import forumnet
    where = Path(forumnet.__file__).resolve().parent
    if where != (Path(src) / "forumnet").resolve():
        raise SystemExit(f"forumnet imported from {where}, not from {src}")
    from forumnet import cli, pipeline

    workload = WORKLOADS[name]
    out = Path(out_dir)
    if workload.config is None:
        namespace, root = cli, ("main", "cli")
        argv_cli = ["orbits", "--edges", input_path, "--out", str(out / "orbits.csv")]
        out.mkdir(parents=True, exist_ok=True)

        def entry():
            code = cli.main(argv_cli)
            if code != 0:
                raise RuntimeError(f"forumnet orbits exited with {code}")
    else:
        namespace, root = pipeline, ("run_pipeline", "pipeline")
        config = pipeline.PipelineConfig.from_json(json.dumps(
            dict(workload.config, input_path=input_path, output_dir=out_dir)))

        def entry():
            pipeline.run_pipeline(config)

    tracer = Tracer() if traced else None
    if tracer:
        tracer.wrap_namespace(namespace)
        tracer.wrap(pipeline, "_write", "pipeline.write")
    t0 = time.perf_counter()
    try:
        if tracer:
            tracer.call(*root, entry)
        else:
            entry()
        run_s = time.perf_counter() - t0
    finally:
        if tracer:
            tracer.restore()
    result = {"run_s": run_s, "peak_rss_mb": peak_rss_mb()}
    if tracer:
        result["times"], result["counts"] = tracer.metrics()
        if spans_path:
            Path(spans_path).write_text(json.dumps(
                [{"name": s[0], "layer": s[1], "start": s[2] - t0,
                  "end": s[3] - t0, "parent": s[4]} for s in tracer.spans]))
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])

"""forumnet benchmark: end-to-end time and memory, per-layer traced timings.

Usage (from the repository root):

    python3 perfbench/run.py --workload regime-monthly --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all     # every workload, printed as a table

Before every repetition a run generates the workload's input from
``--seed`` and writes it under ``.perfbench_work/`` (set-up: ``setup_s`` is
the median of these times, and every generation must write the same
bytes); the repetition is a fresh ``python3`` process (``child.py``) that
imports ``forumnet`` from ``src/`` and calls a public entry point once.
One warm-up repetition is discarded, then repetitions run while the next
one, expected to take as long as the last, still ends within ``--seconds``
of measuring, and at least three are measured, unless ``MAX_RUN_S`` has
passed (which only ``--workload all`` reaches); with several workloads they
run round-robin.  Every repetition's outputs
are checked (``check.py``); a repetition that raises or fails a check
counts towards ``failed``.

With ``--trace 0`` the last line reports the end-to-end metrics: ``run_s``,
the median wall time of the entry-point call, ``peak_rss_mb``, the median
of the child's ``VmHWM``, and ``setup_s``.  With ``--trace 1`` untraced and
traced repetitions alternate, and the last line reports the per-layer
metrics of the traced ones (see ``child.py``); work counts must repeat
exactly across traced repetitions.  Beside each repetition a fixed
pure-Python kernel is timed (``host.calib_ms``), which shows how fast the
host ran at the time; it is a diagnostic and gates nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from check import check_run, digests, record_reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK = ROOT / ".perfbench_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MIN_REPS = 3            # measured repetitions per run, at the least
CHILD_TIMEOUT_S = 60    # a repetition takes about 10-16 s on a 2-core VM
MAX_RUN_S = 100         # start no repetition after this, so a run ends within 180 s


def calibrate_ms() -> float:
    """Time of a fixed pure-Python loop (about 0.1 s), in milliseconds."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(800_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - t0) * 1e3


class Bench:
    """Set-up, repetitions and results of one workload at one seed."""

    def __init__(self, name: str, seed: int, trace: bool, src: Path, record: bool):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.trace = trace
        self.src = src
        self.record = record
        self.dir = WORK / name
        self.input = self.dir / self.workload.input_name
        self.out = self.dir / "out"
        self.setup_s = []
        self.untraced = []      # child results of measured repetitions
        self.traced = []
        self.calib_ms = []
        self.warmup_s = None
        self.measured_s = 0.0
        self.last_rep_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first_digests = None
        self.first_problems = []
        self.counts = None
        self.input_digest = None

    def generate_input(self):
        """Set-up: write the input from the seed; timed before every repetition."""
        t0 = time.perf_counter()
        self.input.write_text(self.workload.make_input(self.seed))
        self.setup_s.append(time.perf_counter() - t0)
        digest = hashlib.sha256(self.input.read_bytes()).hexdigest()
        if self.input_digest is None:
            self.input_digest = digest
        elif digest != self.input_digest:
            self.problems.append("set-up wrote different inputs for one seed")

    def next_is_traced(self) -> bool:
        return self.trace and len(self.traced) < len(self.untraced)

    def done(self, seconds: float) -> bool:
        """True once another repetition would end past ``seconds`` of measuring."""
        have = self.untraced and (self.traced or not self.trace)
        reps = len(self.untraced) + len(self.traced)
        return (bool(have) and reps >= MIN_REPS
                and self.measured_s + self.last_rep_s > seconds)

    def rep(self, traced: bool, measured: bool):
        self.generate_input()
        self.attempted += 1
        shutil.rmtree(self.out, ignore_errors=True)
        calib = calibrate_ms()
        cmd = [sys.executable, str(HERE / "child.py"), str(self.src),
               self.workload.name, str(self.input), str(self.out),
               "1" if traced else "0"]
        if traced:
            cmd.append(str(self.dir / "spans.json"))
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return self._fail(f"repetition timed out after {CHILD_TIMEOUT_S} s")
        finally:
            wall = time.perf_counter() - t0
            if measured:
                self.measured_s += wall
                self.last_rep_s = wall
            else:
                self.warmup_s = wall
        if proc.returncode != 0:
            return self._fail(f"repetition exited with {proc.returncode}: "
                              + proc.stderr.strip()[-2000:])
        result = json.loads(proc.stdout.splitlines()[-1])
        problems = self._check()
        if traced:
            if self.counts is None:
                self.counts = result["counts"]
            elif result["counts"] != self.counts:
                problems.append(f"work counts differ between traced runs: "
                                f"{result['counts']} vs {self.counts}")
        if measured:
            (self.traced if traced else self.untraced).append(result)
            self.calib_ms.append(calib)
        if problems:
            self._fail("; ".join(problems))

    def _check(self) -> list:
        """Full checks on the first output; later outputs must be identical."""
        got = digests(self.out) if self.out.is_dir() else {}
        if self.first_digests is None:
            self.first_digests = got
            try:
                if self.record:
                    record_reference(self.out, self.workload.config,
                                     self.workload.name, self.seed)
                self.first_problems = check_run(self.out, self.input, self.workload.config,
                                                self.workload.name, self.seed)
            except Exception as exc:    # malformed outputs fail the run, not the benchmark
                self.first_problems = [f"output check raised {exc!r}"]
            return list(self.first_problems)
        if got != self.first_digests:
            diff = sorted(n for n in set(got) | set(self.first_digests)
                          if got.get(n) != self.first_digests.get(n))
            return [f"artifacts differ from the first run of this seed: {diff[:10]}"]
        return list(self.first_problems)

    def _fail(self, message: str):
        self.failed += 1
        self.problems.append(message)
        print(f"{self.workload.name}: {message}", file=sys.stderr)

    def metrics(self) -> dict:
        """Every metric of this run's kind, by name, as BENCHMARK.json lists them."""
        med = statistics.median
        run_s = med(r["run_s"] for r in self.untraced)
        if not self.trace:
            values = {"run_s": run_s, "setup_s": med(self.setup_s),
                      "peak_rss_mb": med(r["peak_rss_mb"] for r in self.untraced)}
            return {m["name"]: (values[m["name"]], m["unit"]) for m in SPEC["end_to_end"]}
        values = dict(self.counts)    # identical in every traced run (checked)
        values.update({k: med(r["times"][k] for r in self.traced)
                       for k in self.traced[0]["times"]})
        values["trace.run_s"] = med(r["run_s"] for r in self.traced)
        values["trace.overhead_s"] = values["trace.run_s"] - run_s
        values["host.calib_ms"] = med(self.calib_ms)
        return {m["name"]: (values[m["name"]], m["unit"]) for m in SPEC["per_layer"]}

    def summary(self) -> str:
        runs = sorted(r["run_s"] for r in self.untraced)
        calib = self.calib_ms or [float("nan")]
        return (f"{self.workload.name} seed {self.seed}: run_s median "
                f"{statistics.median(runs):.3f} s of {len(runs)} "
                f"[{runs[0]:.3f}, {runs[-1]:.3f}], traced runs {len(self.traced)}, "
                f"warm-up {self.warmup_s:.2f} s, setup_s {statistics.median(self.setup_s):.3f} s "
                f"of {len(self.setup_s)}, error_rate {self.failed}/{self.attempted}, "
                f"calib_ms median {statistics.median(calib):.1f} "
                f"[{min(calib):.1f}, {max(calib):.1f}]")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's outputs as the reference outputs")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    src = ROOT / "src"
    if not (src / "forumnet" / "__init__.py").is_file():
        print(f"error: no forumnet sources under {src}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    benches = [Bench(n, args.seed, bool(args.trace), src, args.record) for n in names]
    for b in benches:
        shutil.rmtree(b.dir, ignore_errors=True)
        b.dir.mkdir(parents=True)
    for b in benches:
        b.rep(traced=b.trace, measured=False)
    while time.perf_counter() - started < MAX_RUN_S:
        pending = [b for b in benches if not b.done(args.seconds)]
        if not pending:
            break
        for b in pending:
            b.rep(traced=b.next_is_traced(), measured=True)
    if not all(b.untraced and (b.traced or not b.trace) for b in benches):
        print("error: no repetition of some workload completed", file=sys.stderr)
        return 1
    tables = []
    for b in benches:
        print(b.summary())
        tables.append({**b.metrics(), "error_rate": (b.failed / b.attempted, "ratio")})
    print(f"{'metric':<32}" + "".join(f"{b.workload.name:>16}" for b in benches))
    for key, (_, unit) in tables[0].items():
        print(f"{f'{key} [{unit}]':<32}" + "".join(f"{t[key][0]:>16.6g}" for t in tables))
    metrics = {}
    for b, table in zip(benches, tables):
        prefix = "" if len(benches) == 1 else f"{b.workload.name}/"
        metrics.update({prefix + key: {"value": value, "unit": unit}
                        for key, (value, unit) in table.items()
                        if key != "error_rate" or len(benches) > 1})
    attempted = sum(b.attempted for b in benches)
    failed = sum(b.failed for b in benches)
    problems = [p for b in benches for p in b.problems]
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Monte-Carlo link benchmark for fomlink.

    python3 linkbench/run.py --workload fom-small --seed 1 --seconds 55 --trace 0

Builds the workload's scenario files from ``--seed``, runs them in process
through ``fomlink.cli.main(["simulate", ...])``, checks every output and
prints, last, one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones (trials_per_s,
setup_s, peak_rss_mib); with ``--trace 1`` they are per-function call
counts and self times from a traced run, plus the tracing overhead.  See
README.md beside this file for the workloads and the metric definitions.
Run it from the repository root; fomlink is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import checks
import tracing
from workloads import SEED_STRIDE, WORKLOADS, Point, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".linkbench_out"
# One BLAS thread per engine thread: with --workers 2 on two cores this keeps
# the process at nproc threads, and single matvecs of this size run slower
# split over threads anyway.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 120


@dataclass(frozen=True)
class Call:
    key: str
    kind: str  # one of KINDS
    seconds: float
    csv: str | None
    error: str | None


# Call kind -> (scenario file, engine workers).  "pool-1" and "pool-2" are the
# untimed pair run at the workload's pool_trials.
KINDS = {"timed": ("timed", 1), "traced": ("timed", 1), "pool-1": ("pool", 1), "pool-2": ("pool", 2)}


class Bench:
    """One workload's scenario files, timed calls and output checks."""

    def __init__(self, cli, workload: Workload, seed: int, out: Path) -> None:
        self.cli = cli
        self.workload = workload
        self.out = out
        self.points = workload.points
        trials = {"timed": workload.trials, "warm": 1, "pool": workload.pool_trials}
        self.files: dict[str, dict[str, Path]] = {}
        for i, point in enumerate(self.points):
            self.files[point.key] = {}
            for role, count in trials.items():
                if count is not None:
                    path = self.files[point.key][role] = out / f"point{i:02d}-{role}.json"
                    path.write_text(json.dumps(point.scenario(count, seed), indent=1))
        self.calls: list[Call] = []
        # First output of each point per file role: the timed and the pool run.
        self.first_csv: dict[str, dict[str, str]] = {"timed": {}, "pool": {}}
        self.timed: dict[str, list[float]] = {p.key: [] for p in self.points}
        self.traced: dict[str, list[tuple[float, dict]]] = {p.key: [] for p in self.points}
        self.kept_spans: dict[str, list[tracing.Span]] = {}

    def simulate(self, path: Path, workers: int) -> tuple[float, str | None, str | None]:
        out_csv = self.out / "last.csv"
        out_csv.unlink(missing_ok=True)
        argv = ["simulate", "--config", str(path), "--out", str(out_csv), "--workers", str(workers)]
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception as exc:  # a crash in the program under test is a failed point
            return time.perf_counter() - start, None, f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if code != 0:
            return seconds, None, f"exit code {code}"
        return seconds, out_csv.read_text(encoding="utf-8"), None

    def run_point(self, point: Point, kind: str) -> None:
        role, workers = KINDS[kind]
        tracer = tracing.Tracer() if kind == "traced" else None
        with tracing.installed(tracer) if tracer else nullcontext():
            seconds, csv, error = self.simulate(self.files[point.key][role], workers)
        self.calls.append(Call(point.key, kind, seconds, csv, error))
        if kind in ("timed", "pool-1") and error is None:
            self.first_csv[role].setdefault(point.key, csv)
        if kind == "timed":
            self.timed[point.key].append(seconds)
        elif kind == "traced":
            self.traced[point.key].append((seconds, tracing.self_times(tracer.spans)))
            self.kept_spans.setdefault(point.cell.name, tracer.spans)

    def warm_up(self) -> None:
        for point in self.points:
            self.simulate(self.files[point.key]["warm"], 1)

    def measure(self, seconds: float, traced: bool, probes: int = 0) -> list[float]:
        """Visit the points round-robin until ``seconds`` pass, at least one full round.

        With ``traced`` every visit makes one untraced and one traced call,
        in alternating order, so both see the same host conditions.  The
        ``probes`` set-up probes are spread evenly over the window, so they
        sample the same host conditions as the calls; their times are returned.
        """
        start = time.perf_counter()
        deadline = start + seconds
        due = [start + k * seconds / probes for k in range(probes)]
        setups = []
        rounds = 0
        while rounds == 0 or time.perf_counter() < deadline:
            kinds = ("timed", "traced") if rounds % 2 == 0 else ("traced", "timed")
            for point in self.points:
                now = time.perf_counter()
                if rounds and now >= deadline:
                    break
                if due and now >= due[0]:
                    due.pop(0)
                    setups.append(self.probe_setup())
                for kind in kinds if traced else ("timed",):
                    self.run_point(point, kind)
            rounds += 1
        return setups + [self.probe_setup() for _ in due]

    def probe_setup(self) -> float:
        job = {
            "src": str(SRC),
            "out": str(self.out / "probe.csv"),
            "validate": [str(files["timed"]) for files in self.files.values()],
            "warm": [str(files["warm"]) for files in self.files.values()],
        }
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), json.dumps(job)],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]

    def trials_per_s(self, samples: dict[str, list[float]]) -> float:
        """Trials of one visit to every point over the sum of per-point fastest times.

        The fastest call, not the median: on a shared 2-core VM the CPU ran
        for seconds at a time about 1.7x slower, in CPU time as much as in
        wall time.  Timed calls are short, so each point is sampled many
        times in a run, and its fastest call is the one least slowed by the
        host.
        """
        return len(self.points) * self.workload.trials / sum(min(s) for s in samples.values())

    def check_failures(self, reference: dict) -> dict[str, list[str]]:
        """Failure messages per point key; a point with any message has failed.

        The rate checks run on the first timed output of each point and on
        its --workers 1 pool output; every other output must repeat one of
        those byte for byte.
        """
        reasons: dict[str, list[str]] = {p.key: [] for p in self.points}

        def fail(key: str, message: str) -> None:
            if message not in reasons[key]:
                reasons[key].append(message)

        for role, trials in (("timed", self.workload.trials), ("pool", self.workload.pool_trials)):
            if trials is None:
                continue
            rows = {}
            for point in self.points:
                text = self.first_csv[role].get(point.key)
                if text is None:
                    fail(point.key, f"no {trials}-trial output")
                    continue
                try:
                    rows[point.key] = row = checks.parse_row(text)
                except ValueError as exc:
                    fail(point.key, f"unreadable {trials}-trial CSV: {exc}")
                    continue
                failures = checks.check_noiseless(row)
                ref = reference.get(point.key)
                failures += checks.check_reference(row, ref) if ref else ["no reference rates recorded"]
                for failure in failures:
                    fail(point.key, f"{trials} trials: {failure}")
            for cell_a, cell_b in self.workload.agree:
                for point in self.points:
                    if point.cell.name != cell_a:
                        continue
                    twin = Point(next(c for c in self.workload.cells if c.name == cell_b), point.value)
                    if point.key in rows and twin.key in rows:
                        for failure in checks.check_agreement(rows[point.key], rows[twin.key]):
                            fail(point.key, f"{trials} trials: {failure}")
                            fail(twin.key, f"{trials} trials: {failure}")
        expected_from = {
            "timed": "the first run of this point",
            "traced": "the untraced run",
            "pool-1": "the first pool run of this point",
            "pool-2": "the run with --workers 1",
        }
        for call in self.calls:
            if call.error is not None:
                fail(call.key, f"{call.kind} call {call.error}")
                continue
            expected = self.first_csv[KINDS[call.kind][0]].get(call.key)
            if expected is not None:
                for failure in checks.check_identical(call.csv, expected, expected_from[call.kind]):
                    fail(call.key, failure)
        return reasons

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-function calls and self time for one traced visit to every point.

        Each point contributes its fastest traced call, whole, so the self
        times and the wall time come from the same calls.
        """
        chosen = [min(samples, key=lambda sample: sample[0]) for samples in self.traced.values()]
        metrics: dict[str, tuple[float, str]] = {}
        self_sum = 0.0
        for name in tracing.TRACED:
            calls = sum(stats[name].calls for _, stats in chosen)
            own = sum(stats[name].self_s for _, stats in chosen)
            metrics[f"{name}.calls"] = (calls, "count")
            metrics[f"{name}.self_s"] = (own, "s")
            self_sum += own
        untraced = self.trials_per_s(self.timed)
        traced = self.trials_per_s({key: [s for s, _ in samples] for key, samples in self.traced.items()})
        metrics["trace.untraced_trials_per_s"] = (untraced, "1/s")
        metrics["trace.traced_trials_per_s"] = (traced, "1/s")
        metrics["trace.overhead_trials_per_s"] = (untraced - traced, "1/s")
        metrics["trace.round_wall_s"] = (sum(seconds for seconds, _ in chosen), "s")
        metrics["trace.self_sum_s"] = (self_sum, "s")
        return metrics

    def write_spans(self) -> None:
        with open(self.out / "spans.csv", "w", encoding="utf-8") as out:
            tracing.write_spans([s for spans in self.kept_spans.values() for s in spans], out)


def _git_revision() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _blas(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="non-negative input seed")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (SRC / "fomlink" / "__init__.py").is_file():
        print(f"linkbench: no fomlink sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:  # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import numpy as np

    import fomlink.cli as cli

    if Path(cli.__file__).resolve().parents[1] != SRC.resolve():
        print(f"linkbench: imported fomlink from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    out = OUT_ROOT / workload.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    bench = Bench(cli, workload, SEED_STRIDE * args.seed, out)
    provenance = {
        "workload": workload.name,
        "seed": args.seed,
        "scenario_seed": SEED_STRIDE * args.seed,
        "trials_per_point": workload.trials,
        "pool_trials_per_point": workload.pool_trials,
        "points": len(bench.points),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(np),
        "blas_threads_cap": BLAS_THREADS,
        "git_revision": _git_revision(),
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print("provenance " + json.dumps(provenance), flush=True)

    metrics: dict[str, tuple[float, str]] = {}
    # --seconds covers the untimed pool check as well as the timed window.
    start = time.perf_counter()
    bench.warm_up()
    if workload.pool_trials is not None:
        for point in bench.points:
            bench.run_point(point, "pool-1")
            bench.run_point(point, "pool-2")
    window = max(args.seconds - (time.perf_counter() - start), 0.0)
    setups = bench.measure(window, traced=bool(args.trace), probes=0 if args.trace else SETUP_PROBES)
    if setups:
        metrics["setup_s"] = (statistics.median(setups), "s")
    if args.trace == 0:
        metrics["trials_per_s"] = (bench.trials_per_s(bench.timed), "1/s")
        metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    else:
        metrics.update(bench.layer_metrics())
        bench.write_spans()

    reference = json.loads((BENCH_DIR / "reference.json").read_text())["workloads"]
    reasons = bench.check_failures(reference.get(workload.name, {}))
    attempted = len(bench.points)
    failed = sum(1 for messages in reasons.values() if messages)
    for key, messages in reasons.items():
        for message in messages:
            print(f"failure {key}: {message}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    print(f"metric failed_frac {failed / attempted!r} fraction ({failed} of {attempted} points)")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    samples = {"timed_s": bench.timed, "setup_s": setups}
    (out / "result.json").write_text(json.dumps({"provenance": provenance, **result, "samples": samples}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload in one process: set up, run certified jobs, check every one.

Started by run.py with the BLAS thread count pinned and only the checkout's
``src`` on the import path.  Set-up generates the instances from the seed,
writes the instance files and runs one untimed warm-up round; the worker then
prints READY.  With --setup-only it stops there.  Otherwise it runs whole passes over the instances in a closed loop
with a single caller, and prints one JSON line with the measurements.

A job is ``povmround.cli.main([command, "--in", instance, "--out", report])``
and only that call is timed, by wall clock and by process CPU time.  Each job
writes a new report file, removed once checked: overwriting one file would
make ext4 flush it on every truncate, a disk wait of the benchmark's making.
After the job, outside the timed region, the report is checked: exit code 0,
``"pass": true``, and either the benchmark's own recomputation of the bounds
(first run of an instance) or a byte-identical ``result`` to that first run
(every later run).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
import warnings
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

from povmround import cli
from povmround.io import save_instance

from check import report_failures
from tracing import PER_LAYER, Tracer, span_metrics
from workloads import INSTANCES_PER_COMMAND, WORKLOADS, generate

# End-to-end metrics of an untraced run: (name, unit, better).  run.py adds
# setup_s; this worker measures the rest.
END_TO_END = (
    ("round_p50_ms", "ms", "lower"),
    ("instance_p90_ms", "ms", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("certified_frac", "frac", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
MIN_ROUNDS = 100          # a p90 needs ten samples beyond it
WALL_CAP = 1.5            # a loaded host may stretch a run to this many --seconds, no more
CLIPPED_SCORE = "selection score"
MAX_LISTED_FAILURES = 20


def run_job(argv: list[str]):
    """One in-process CLI call: (cpu s, wall s, exit code, exception, warnings, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    exc = None
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(
        out
    ), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        wall, cpu = perf_counter(), process_time()
        try:
            code = cli.main(argv)
        except Exception as e:  # a job that raises is a failed job, not a failed run
            code, exc = None, e
        cpu, wall = process_time() - cpu, perf_counter() - wall
    return cpu, wall, code, exc, caught, err.getvalue()


def exception_type(argv: list[str]) -> str:
    """Name the error behind a non-zero exit by re-running the job untimed."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.run_command(cli.build_parser().parse_args(argv))
    except Exception as e:
        return type(e).__name__
    return "CertificateFailed"


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


class Runner:
    def __init__(self, workload, pools, workdir: Path):
        self.workload = workload
        self.pools = pools
        self.instance_paths = []
        for c, pool in enumerate(pools):
            paths = []
            for i, inst in enumerate(pool):
                path = workdir / f"instance-{c}-{i}.json"
                save_instance(inst, path)
                paths.append(path)
            self.instance_paths.append(paths)
        self.workdir = workdir
        self.reference: dict[tuple[int, int], str] = {}
        self.cpu = [[] for _ in workload.commands]
        self.wall = [[] for _ in workload.commands]
        self.round_wall: list[float] = []
        self.round_instance: list[int] = []
        self.attempted = 0
        self.failures: list[dict] = []
        self.other_warnings = 0
        self.reset_counters()

    def reset_counters(self) -> None:
        """Zero the per-layer counts gathered from reports and warnings."""
        self.clipped_scores = 0
        self.report_bytes = 0
        self.newton_iterations = 0

    def argv(self, c: int, i: int, report: Path) -> list[str]:
        cmd = self.workload.commands[c]
        return [cmd.name, "--in", str(self.instance_paths[c][i]), "--out", str(report)]

    def warm_up(self) -> None:
        report = self.workdir / "warm-up.json"
        for c in range(len(self.workload.commands)):
            run_job(self.argv(c, 0, report))
            report.unlink(missing_ok=True)

    def run_round(self, i: int, tracer: Tracer | None = None) -> None:
        round_wall = 0.0
        for c in range(len(self.workload.commands)):
            report = self.workdir / f"report-{self.attempted}.json"
            if tracer is not None:
                tracer.job = self.attempted
                tracer.active = True
            cpu, wall, code, exc, caught, err = run_job(self.argv(c, i, report))
            if tracer is not None:
                tracer.active = False
            self.attempted += 1
            self.cpu[c].append(cpu)
            self.wall[c].append(wall)
            round_wall += wall
            for w in caught:
                if issubclass(w.category, RuntimeWarning) and str(w.message).startswith(CLIPPED_SCORE):
                    self.clipped_scores += 1
                else:
                    self.other_warnings += 1
            self.verify(c, i, report, code, exc, err)
            report.unlink(missing_ok=True)
        self.round_wall.append(round_wall)
        self.round_instance.append(i)

    def run_pass(self, tracer: Tracer | None = None) -> float:
        """One round per instance; returns the wall seconds of its jobs."""
        before = len(self.round_wall)
        for i in range(INSTANCES_PER_COMMAND):
            self.run_round(i, tracer)
        return sum(self.round_wall[before:])

    def fail(self, c: int, i: int, kind: str, message: str) -> None:
        self.failures.append(
            {"command": self.workload.commands[c].name, "instance": i, "type": kind, "message": message}
        )

    def verify(self, c: int, i: int, report: Path, code, exc, err: str) -> None:
        cmd = self.workload.commands[c]
        if exc is not None:
            self.fail(c, i, type(exc).__name__, traceback.format_exception_only(type(exc), exc)[-1].strip())
            return
        if code != 0:
            self.fail(c, i, exception_type(self.argv(c, i, report)), f"exit {code}: {err.strip()}")
            return
        try:
            data = report.read_bytes()
            doc = json.loads(data)
        except (OSError, ValueError) as e:
            self.fail(c, i, type(e).__name__, str(e))
            return
        self.report_bytes += len(data)
        if doc.get("pass") is not True:
            self.fail(c, i, "ReportNotPass", "report says pass is not true")
            return
        try:
            if cmd.name == "majorant":
                self.newton_iterations += int(doc["result"].get("newton_iterations", 0))
            digest = hashlib.sha256(json.dumps(doc["result"], sort_keys=True).encode()).hexdigest()
            ref = self.reference.get((c, i))
            misses = report_failures(cmd.name, self.pools[c][i], doc, cmd.tensor_factor) if ref is None else []
        except (KeyError, TypeError, ValueError, IndexError) as e:
            self.fail(c, i, "MalformedReport", repr(e))
            return
        if misses:
            self.fail(c, i, "CheckFailed", ", ".join(misses))
        elif ref is None:
            self.reference[(c, i)] = digest
        elif digest != ref:
            self.fail(c, i, "NotReproducible", "result differs from the first run on this instance")

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures[:MAX_LISTED_FAILURES],
            "other_warnings": self.other_warnings,
        }


def measure(runner: Runner, seconds: float, budget: float) -> dict:
    """Whole passes until `seconds` of timed jobs and MIN_ROUNDS rounds, or
    until the wall-clock cap."""
    cap = min(budget, WALL_CAP * seconds)
    start = perf_counter()
    passes = []
    while True:
        pass_start = perf_counter()
        passes.append(runner.run_pass())
        now = perf_counter()
        if sum(runner.round_wall) >= seconds and len(runner.round_wall) >= MIN_ROUNDS:
            break
        if now - start + (now - pass_start) > cap:
            break
    per_command = {}
    for cmd, cpu, wall in zip(runner.workload.commands, runner.cpu, runner.wall):
        ms = [1e3 * t for t in wall]
        per_command[cmd.metric] = {
            "p50_ms": statistics.median(ms),
            "p90_ms": p90(ms),
            "cpu_p50_ms": 1e3 * statistics.median(cpu),
            "jobs": len(ms),
        }
    rounds_ms = [1e3 * t for t in runner.round_wall]
    instance_ms = [
        statistics.median(t for t, j in zip(rounds_ms, runner.round_instance) if j == i)
        for i in range(INSTANCES_PER_COMMAND)
    ]
    values = {
        "round_p50_ms": statistics.median(rounds_ms),
        "instance_p90_ms": p90(instance_ms),
        "jobs_per_s": INSTANCES_PER_COMMAND * len(runner.workload.commands) / statistics.median(passes),
        "certified_frac": 1.0 - len(runner.failures) / runner.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END if name in values},
        "per_command": per_command,
        "rounds": len(rounds_ms),
        "round_p90_ms": p90(rounds_ms),
        "timed_cpu_s": sum(map(sum, runner.cpu)),
        "timed_wall_s": sum(runner.round_wall),
    }


def measure_traced(runner: Runner, seconds: float, budget: float, trace_path: Path) -> dict:
    """An untraced reference pass, then traced passes for `seconds` of wall clock."""
    start = perf_counter()
    reference = runner.run_pass()
    runner.reset_counters()
    jobs_before = runner.attempted
    tracer = Tracer()
    tracer.install()
    traced = []
    try:
        while True:
            pass_start = perf_counter()
            traced.append(runner.run_pass(tracer))
            now = perf_counter()
            if now - start >= seconds or now - start + (now - pass_start) > budget:
                break
    finally:
        tracer.uninstall()
    jobs = runner.attempted - jobs_before
    per_command = len(traced) * INSTANCES_PER_COMMAND
    commands = [c.name for c in runner.workload.commands]
    majorant_jobs = per_command * commands.count("majorant")
    spans = tracer.summary()
    cholesky = spans.get("linalg.cholesky", {"calls": 0})["calls"]
    newton = runner.newton_iterations
    metrics = span_metrics(spans, tracer.counters, jobs, per_command * commands.count("repair"))
    metrics.update(
        {
            "io.report_kb": runner.report_bytes / 1024.0 / jobs,
            "majorant.newton_iterations": newton / majorant_jobs if majorant_jobs else 0.0,
            "majorant.cholesky_per_newton": cholesky / newton if newton else 0.0,
            "orthogonalize.clipped_scores": runner.clipped_scores / jobs,
            "trace.overhead_frac": statistics.median(traced) / reference - 1.0,
        }
    )
    tracer.save(trace_path, {"workload": runner.workload.name, "jobs": jobs, "passes": len(traced)})
    metrics = {name: {"value": metrics[name], "unit": unit} for name, unit, _ in PER_LAYER}
    return {"metrics": metrics, "absent_spans": tracer.absent, "passes": len(traced), "trace_file": str(trace_path)}


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "blas": blas,
        "python": platform.python_version(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path)
    parser.add_argument("--budget", type=float, default=150.0, help="wall seconds allowed after set-up")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True, exist_ok=False)
    try:
        runner = Runner(workload, generate(workload, args.seed), args.workdir)
        runner.warm_up()
        gc.collect()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            out = measure_traced(runner, args.seconds, args.budget, args.trace_file)
        else:
            out = measure(runner, args.seconds, args.budget)
        out.update(runner.summary())
        out["why"] = workload.why
        out["env"] = environment()
        print(json.dumps(out), flush=True)
        return 0
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

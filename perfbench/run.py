"""Benchmark of povmround's certified jobs.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  A certified job is an in-process call of
``povmround.cli.main([command, "--in", instance, "--out", report])``: load and
validate the instance, solve, check every certified bound, write the JSON
report.  The workloads are defined in workloads.py.  Each run starts its
workload in a worker process of its own, with the BLAS thread count pinned
to BLAS_THREADS before numpy loads and POVMROUND_TOL_OVERRIDES removed, and
with only this checkout's ``src`` on the import path.

--trace 0 measures the end-to-end metrics with no tracing:

    round_p50_ms                median latency of one round (one job of each of
                                the workload's commands, back to back)
    instance_p90_ms             p90 over the workload's instances of each
                                instance's median round latency: the tail over
                                inputs, with bursts of host load filtered out
    jobs_per_s                  certified jobs per second of timed job time,
                                median over the run's passes
    certified_frac              jobs that passed every check, over attempted
    setup_s                     worker spawn to first timed job (import,
                                instance generation, instance files, warm-up),
                                median of SETUP_REPEATS workers
    peak_rss_mb                 peak resident memory of the measuring worker

and also prints, by name, the per-command latencies (<command>_p50_ms,
<command>_p90_ms), the p90 of all rounds (round_p90_ms) and failed_frac.  --trace 1 runs the same jobs with spans
around the package's public functions and numpy's dense kernels and reports
the per-layer metrics listed in tracing.PER_LAYER.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A copy of everything printed, plus the spans
of a traced run, is written under perfbench/.work/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

BLAS_THREADS = 1          # at most nproc; one thread keeps runs comparable across machines
SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0       # the whole run, all workers included
SETUP_LIMIT_S = 60.0
BUDGET_MARGIN_S = 15.0    # kept back from the measuring worker for its set-up and exit


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(BLAS_THREADS)
    env.pop("POVMROUND_TOL_OVERRIDES", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_worker(args, env: dict, limit: float, tag: str, extra: list[str]) -> tuple[float, str]:
    """Start one worker; return the seconds from spawn to READY and the rest
    of its stdout."""
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}-{tag}"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", str(workdir), *extra,
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(limit, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)  # left behind when the worker was killed
    if ready.strip() != "READY" or code != 0:
        raise WorkerError(f"worker {tag} exited with code {code} (limit {limit:.0f} s)")
    return setup, rest


def fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of povmround's certified jobs.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "povmround" / "__init__.py").is_file():
        print(f"run.py: no povmround package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    env = worker_env()
    began = time.perf_counter()
    (WORK / "out").mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_file = (WORK / "out" / f"{stem}.npz").relative_to(ROOT)
    setups = []
    try:
        if not args.trace:
            for r in range(SETUP_REPEATS - 1):
                setups.append(run_worker(args, env, SETUP_LIMIT_S, f"setup{r}", ["--setup-only"])[0])
        remaining = RUN_LIMIT_S - (time.perf_counter() - began)
        extra = ["--budget", str(remaining - BUDGET_MARGIN_S)]
        if args.trace:
            extra += ["--trace-file", str(trace_file)]
        setup, rest = run_worker(args, env, remaining, "run", extra)
    except WorkerError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)
    out = json.loads(rest.strip().splitlines()[-1])

    env_info = out["env"]
    lines = [
        f"workload {args.workload}, seed {args.seed}, trace {args.trace}",
        f"why: {out['why']}",
        "env: " + ", ".join(f"{k}={v}" for k, v in env_info.items()),
    ]
    attempted, failed = out["attempted"], out["failed"]
    metrics = out["metrics"]
    if args.trace:
        lines.append(f"traced passes: {out['passes']}, spans written to {out['trace_file']}")
        if out["absent_spans"]:
            lines.append("absent spans: " + ", ".join(out["absent_spans"]))
    else:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        for cmd, stats in out["per_command"].items():
            lines.append(f"{cmd}_p50_ms = {fmt(stats['p50_ms'])} ms ({stats['jobs']} jobs; "
                         f"CPU time {fmt(stats['cpu_p50_ms'])} ms)")
            lines.append(f"{cmd}_p90_ms = {fmt(stats['p90_ms'])} ms ({stats['jobs']} jobs)")
        lines.append(f"round_p90_ms = {fmt(out['round_p90_ms'])} ms (all rounds, host bursts included)")
        lines.append(f"rounds = {out['rounds']}, timed jobs: {fmt(out['timed_wall_s'])} s wall, "
                     f"{fmt(out['timed_cpu_s'])} s CPU")
        lines.append("set-ups (s): " + ", ".join(fmt(s) for s in setups))
    lines.append(f"failed_frac = {fmt(failed / attempted)} frac ({failed}/{attempted} jobs)")
    for f in out["failures"]:
        lines.append(f"failed job: {f['command']} instance {f['instance']}: {f['type']}: {f['message']}")
    if out["other_warnings"]:
        lines.append(f"other warnings: {out['other_warnings']}")
    lines += [f"{name} = {fmt(v['value'])} {v['unit']}" for name, v in metrics.items()]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    (WORK / "out" / f"{stem}.json").write_text(json.dumps({"lines": lines, **out, "result": result}, indent=1))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""qvirial benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload exact-deep --seed 1 --seconds 20 --trace 0

With --trace 0 it times fresh-interpreter set-up, runs the workload's fixed
number of seeded batches (workloads.BATCHES) through ``qvirial.cli.main`` in a
fresh worker process, times set-up again, and reports the end-to-end metrics.
With --trace 1 it runs the workload's traced batch count twice, untraced and
then traced, and reports the per-layer metrics and the tracing overhead.
--seconds is a safety cap: no batch starts after twice that long, so every run
of a seed executes the same jobs unless the program is about twice as slow as
the batch counts were sized for.  Every job's output is checked by the oracle
outside the timed region.  The last line of stdout is one JSON object:
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden"
OUT = HERE / "out"

DEFAULT_SEED = 0
# Fresh interpreters timed per run, half before the worker and half after it,
# so that the median spans the run's whole window on a shared machine.
SETUP_RUNS = 24
SETUP_CODE = "from qvirial import cli; cli.build_parser(); print('ready')"
TIME_LIMIT_S = 170.0
# Per-job times are printed, not declared: over ten seeds their spread on
# mixed-cli passed the largest bound allowed.  The p90 is printed only for runs
# with at least this many jobs (mixed-cli).
P90_MIN_JOBS = 100

E2E_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


class BenchError(RuntimeError):
    """The program could not be set up or run at all."""


def _env() -> dict[str, str]:
    # a fixed hash seed removes one source of run-to-run timing variance
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def measure_setup(count: int) -> list[float]:
    """Wall time from starting an interpreter until qvirial.cli is imported
    and its parser is built, once per fresh interpreter."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0 or proc.stdout.strip() != "ready":
            raise BenchError(f"set-up failed: {proc.stderr.strip()[-500:]}")
    return times


def run_worker(workload: str, seed: int, batches: int, max_seconds: float, deadline: float,
               trace_out=None) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--batches", str(batches), "--max-seconds", str(max_seconds)]
    if trace_out is not None:
        argv += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(argv, env=_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker for {workload} passed the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker for {workload} exited {proc.returncode}: {proc.stderr.strip()[-1000:]}")
    return json.loads(proc.stdout)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_golden(workload: str, seed: int) -> list:
    """[argv, sha256 of stdout] per job, recorded for the default seed only."""
    path = GOLDEN / f"{workload}.json"
    if seed != DEFAULT_SEED or not path.exists():
        return []
    return json.loads(path.read_text())["jobs"]


def count_failures(jobs: list[dict], golden: list) -> int:
    """Jobs with a nonzero exit code, a failed oracle check or changed bytes."""
    failed = 0
    for index, job in enumerate(jobs):
        problem = None
        if job["code"] != 0:
            problem = f"exit code {job['code']}: {job['stderr'].strip()[-300:]}"
        else:
            try:
                oracle.check(job["argv"], job["stdout"])
            except oracle.OracleError as exc:
                problem = str(exc)
        if problem is None and index < len(golden):
            argv, recorded = golden[index]
            if argv != job["argv"] or recorded != digest(job["stdout"]):
                problem = "stdout differs from the recorded bytes for the default seed"
        if problem is not None:
            failed += 1
            print(f"FAILED {' '.join(job['argv'])}: {problem}", file=sys.stderr)
    return failed


def end_to_end(result: dict, setup: list[float], planned: int) -> dict[str, float]:
    """Wall and CPU time to finish the run's job list, peak memory, and the
    median set-up time.  A run cut at the time cap reports the job-list times
    scaled from its batches to the planned count."""
    return {
        "wall_s": statistics.fmean(result["batch_walls"]) * planned,
        "cpu_s": statistics.fmean(result["batch_cpus"]) * planned,
        "peak_rss_mib": result["peak_rss_kib"] / 1024,
        "setup_s": statistics.median(setup),
    }


def default_seconds() -> int:
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="no batch starts after twice this long (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qvirial" / "cli.py").is_file():
        print(f"run.py: no program source at {SRC / 'qvirial'}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else default_seconds()
    deadline = time.perf_counter() + TIME_LIMIT_S
    golden = load_golden(args.workload, args.seed)

    untraced_batches, traced_batches = workloads.BATCHES[args.workload]
    cap = 2 * seconds
    try:
        if args.trace == 0:
            setup = measure_setup(SETUP_RUNS // 2)
            result = run_worker(args.workload, args.seed, untraced_batches, cap, deadline)
            setup += measure_setup(SETUP_RUNS - SETUP_RUNS // 2)
            jobs = result["jobs"]
            failed = count_failures(jobs, golden)
            metrics = end_to_end(result, setup, untraced_batches)
            units = shown = E2E_UNITS
            ran = len(result["batch_walls"])
            cut = f" (cut at the time cap; wall_s, cpu_s scaled to {untraced_batches})" if ran < untraced_batches else ""
            print(f"jobs {len(jobs)} (the job_s sample count) in {ran} batches{cut}, "
                  f"set-up samples {len(setup)}, failed_ratio {failed / len(jobs):.4f}")
            job_seconds = [job["seconds"] for job in jobs]
            print(f"{args.workload} job_s.p50 {statistics.median(job_seconds):.6g} s (printed only)")
            if len(jobs) >= P90_MIN_JOBS:
                p90 = statistics.quantiles(job_seconds, n=10)[8]
                print(f"{args.workload} job_s.p90 {p90:.6g} s (printed only)")
        else:
            OUT.mkdir(exist_ok=True)
            trace_out = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            plain = run_worker(args.workload, args.seed, traced_batches, cap, deadline)
            traced = run_worker(args.workload, args.seed, traced_batches, cap, deadline, trace_out=trace_out)
            jobs = plain["jobs"] + traced["jobs"]
            failed = count_failures(plain["jobs"], golden) + count_failures(traced["jobs"], golden)
            for a, b in zip(plain["jobs"], traced["jobs"]):
                if a["stdout"] != b["stdout"]:
                    failed += 1
                    print(f"FAILED {' '.join(b['argv'])}: traced output differs", file=sys.stderr)
            if len(plain["batch_walls"]) != len(traced["batch_walls"]):
                raise BenchError("the traced pass was cut at the time cap; its overhead has no base")
            metrics = traced["layers"]["metrics"]
            metrics["trace.overhead_ratio"] = sum(traced["batch_walls"]) / sum(plain["batch_walls"])
            units, shown = tracing.metric_units(), tracing.metric_units(declared_only=False)
            print(f"jobs {len(traced['jobs'])} per pass in {traced_batches} batches, spans in {trace_out.relative_to(ROOT)}")
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    # a metric the run did not measure (a span that never fired) is absent:
    # printed as such and left out of the JSON line, never reported as 0
    for name, unit in shown.items():
        print(f"{args.workload} {name} {metrics[name]:.6g} {unit}" if name in metrics
              else f"{args.workload} {name} absent")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

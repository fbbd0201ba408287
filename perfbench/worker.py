"""Worker process: runs one workload's batches through ``qvirial.cli.main``.

Started by run.py in a fresh interpreter, so import cost, caches and peak
memory belong to this workload alone.  One client, closed loop: each job
starts when the previous one returned.  Prints one JSON object with every
job's exit code, stdout and wall time, and each batch's wall and CPU time.

    python3 perfbench/worker.py --workload exact-deep --seed 1 --batches 3
    python3 perfbench/worker.py --workload mixed-cli --seed 1 --batches 8 --trace-out spans.json

--max-seconds is a safety cap only: past it no further batch starts, so a
program many times slower than today still ends in time.  Below the cap every
run of a seed executes the same jobs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time

import workloads
from qvirial import cli


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_kib() -> int:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children)


def _run_job(argv: list[str]) -> tuple[int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # noqa: BLE001 - a crash is a failed job, not a dead run
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
    return code, out.getvalue(), err.getvalue()


def run(workload: str, seed: int, batches: int, max_seconds: float, recorder=None) -> dict:
    jobs, batch_walls, batch_cpus = [], [], []
    deadline = time.perf_counter() + max_seconds
    for index, batch in enumerate(workloads.batches(workload, seed, batches)):
        if index and time.perf_counter() > deadline:
            break
        cpu0 = _cpu_seconds()
        start = time.perf_counter()
        for argv in batch:
            if recorder is not None:
                recorder.job = len(jobs)
            t0 = time.perf_counter()
            code, out, err = _run_job(argv)
            jobs.append({"argv": argv, "batch": index, "seconds": time.perf_counter() - t0,
                         "code": code, "stdout": out, "stderr": err})
        batch_walls.append(time.perf_counter() - start)
        batch_cpus.append(_cpu_seconds() - cpu0)
    return {
        "jobs": jobs,
        "batch_walls": batch_walls,
        "batch_cpus": batch_cpus,
        "peak_rss_kib": _peak_rss_kib(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--batches", type=int, required=True, help="batches to run")
    parser.add_argument("--max-seconds", type=float, default=600.0, help="start no batch after this long")
    parser.add_argument("--trace-out", default=None, help="record spans and write them to this file")
    args = parser.parse_args(argv)

    recorder = None
    if args.trace_out:
        import tracing

        recorder = tracing.Recorder()
        recorder.install()
    result = run(args.workload, args.seed, args.batches, args.max_seconds, recorder)
    if recorder is not None:
        result["layers"] = recorder.write(args.trace_out, result["jobs"])
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

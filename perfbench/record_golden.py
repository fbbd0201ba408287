"""Record the sha256 of every job's stdout for the default seed.

    python3 perfbench/record_golden.py                  # all workloads
    python3 perfbench/record_golden.py --workloads mixed-cli

It records exactly the batches a run executes (workloads.BATCHES; a traced
run's batches are the first of them).  Each job must pass the oracle first.
run.py then fails any later default-seed job whose bytes differ from the
recorded ones.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import run
import workloads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS), choices=workloads.WORKLOADS)
    args = parser.parse_args(argv)
    run.GOLDEN.mkdir(exist_ok=True)
    for workload in args.workloads:
        batches = workloads.BATCHES[workload][0]
        deadline = time.perf_counter() + 900
        result = run.run_worker(workload, run.DEFAULT_SEED, batches, 900, deadline)
        if len(result["batch_walls"]) != batches:
            print(f"{workload}: only {len(result['batch_walls'])} of {batches} batches ran", file=sys.stderr)
            return 1
        if run.count_failures(result["jobs"], []):
            print(f"{workload}: outputs fail the oracle; nothing recorded", file=sys.stderr)
            return 1
        jobs = [json.dumps([job["argv"], run.digest(job["stdout"])]) for job in result["jobs"]]
        path = run.GOLDEN / f"{workload}.json"
        path.write_text(f'{{"seed": {run.DEFAULT_SEED}, "jobs": [\n' + ",\n".join(jobs) + "\n]}\n")
        print(f"{workload}: {len(jobs)} jobs recorded in {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

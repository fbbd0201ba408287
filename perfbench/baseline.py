"""Run every workload over several seeds and summarise the spread.

    python3 perfbench/baseline.py                       # 10 seeds x 4 workloads + 1 traced run each
    python3 perfbench/baseline.py --workloads exact-deep --seeds 5 --traced 0
    python3 perfbench/baseline.py --traced 0 --compare perfbench/baseline.json

For each workload and end-to-end metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median, next
to the metric's bound from BENCHMARK.json.  With --compare it also prints how
far each median moved from the same metric's median in an earlier --out
file, and flags a move for the worse beyond the bound.  With --out it writes
every run's metrics as JSON.  Runs are sequential, one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, trace: int, seconds: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run.py {workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["seed"], result["trace"], result["elapsed_s"] = seed, trace, time.perf_counter() - start
    return result


def summarise(runs: list[dict], bounds: dict[str, float]) -> dict[str, dict]:
    summary = {}
    for name, bound in bounds.items():
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "bound": bound}
    return summary


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS), choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", type=int, default=10, help="untraced runs per workload, seeds first..first+n-1")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", type=int, default=1, help="traced runs per workload")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", default=None, help="write all runs and summaries to this JSON file")
    parser.add_argument("--compare", default=None, help="an earlier --out file to compare the medians with")
    args = parser.parse_args(argv)
    bounds = {metric["name"]: metric["bound"] for metric in bench["end_to_end"]}
    sign = {metric["name"]: 1 if metric["better"] == "lower" else -1 for metric in bench["end_to_end"]}
    earlier = json.loads(Path(args.compare).read_text())["workloads"] if args.compare else {}

    record = {"run_seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        seeds = range(args.first_seed, args.first_seed + args.seeds)
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, 0, args.seconds))
            print(f"{workload} seed {seed}: {runs[-1]['elapsed_s']:.1f} s, failed {runs[-1]['failed']}", file=sys.stderr)
        traced = [run_once(workload, seed, 1, args.seconds) for seed in seeds[:args.traced]]
        summary = summarise(runs, bounds) if len(runs) >= 2 else {}
        record["workloads"][workload] = {"runs": runs, "traced": traced, "summary": summary}
        failed = sum(run["failed"] for run in runs + traced)
        attempted = sum(run["attempted"] for run in runs + traced)
        print(f"\n{workload}: {len(runs)} runs, failed {failed} of {attempted} jobs")
        for name, row in summary.items():
            flag = "" if row["spread"] < row["bound"] / 3 else "  <-- spread above bound/3"
            before = earlier.get(workload, {}).get("summary", {}).get(name)
            if before:
                row["change"] = row["median"] / before["median"] - 1
                worse = sign[name] * row["change"] > row["bound"]
                flag += f"  change {row['change']:+.3f}" + ("  <-- worse than the bound" if worse else "")
            print(f"  {name:14s} median {row['median']:.6g}  q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  "
                  f"spread {row['spread']:.3f} (bound {row['bound']}){flag}")
        for run in traced:
            layers = {k: v["value"] for k, v in run["metrics"].items()}
            print(f"  traced seed {run['seed']}: overhead {layers['trace.overhead_ratio']:.3f}, "
                  f"compose {layers['series.compose_s']:.3g} s, surd mul {layers['exact.surd_mul_calls']}")
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

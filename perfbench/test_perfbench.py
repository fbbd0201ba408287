"""Self-tests of the benchmark: python3 -m pytest -q perfbench"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _cli(argv: list[str]) -> str:
    from qvirial import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def _run_batches(workload: str, seed: int) -> list[list[list[str]]]:
    return workloads.batches(workload, seed, workloads.BATCHES[workload][0])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_argv_lists(workload):
    assert _run_batches(workload, 7) == _run_batches(workload, 7)
    assert _run_batches(workload, 7) != _run_batches(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_batches_are_the_first_of_a_run(workload):
    untraced, traced = workloads.BATCHES[workload]
    assert traced <= untraced
    assert workloads.batches(workload, 5, traced) == _run_batches(workload, 5)[:traced]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_descriptor_and_k_pair_repeats_within_a_run(workload):
    # every seed the driver may pass must fill the run without running dry
    for seed in range(40):
        keys = [
            workloads.job_key(argv)
            for batch in _run_batches(workload, seed)
            for argv in batch
            if argv[0] != "check-paper"
        ]
        assert len(keys) == len(set(keys))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_batches_keep_their_shape(workload):
    def shape(batch):
        return [(argv[0], argv[argv.index("--K") + 1] if "--K" in argv and workload != "mixed-cli" else "")
                for argv in batch]

    first, *rest = _run_batches(workload, 11)
    assert all(shape(batch) == shape(first) for batch in rest)


def test_golden_digests_cover_exactly_the_default_seed_run():
    for workload in workloads.WORKLOADS:
        recorded = [argv for argv, _ in run.load_golden(workload, run.DEFAULT_SEED)]
        assert recorded == [argv for batch in _run_batches(workload, run.DEFAULT_SEED) for argv in batch]


@pytest.mark.parametrize("argv", [
    ["virial", "--sf", "mu-q:1/4,3/2", "--K", "6"],
    ["virial", "--sf", "q:2/3", "--K", "5", "--format", "json"],
    ["virial", "--sf", "q-mu:3/2,1/4", "--K", "12", "--backend", "decimal:50", "--format", "pretty"],
    ["virial", "--sf", "t:1/2;mu:1/4;q:3/2", "--K", "8", "--backend", "decimal:100"],
    ["virial", "--sf", "q-eps:order=3", "--K", "5"],
    ["series", "--sf", "mu:1/3", "--K", "6", "--format", "pretty"],
    ["sweep", "--sf", "mu-q:0,1/2", "--K", "4", "--sweep", "mu=0:1/2:1/4", "--sweep", "q=1/2:1:1/4"],
    ["eps-expand", "--order", "4"],
    ["eps-expand", "--order", "3", "--n", "6", "--format", "json"],
    ["hamiltonian", "--order", "3", "--format", "pretty"],
    ["hamiltonian", "--order", "3", "--order-mu", "1"],
    ["check-paper"],
    ["check-paper", "--format", "json"],
])
def test_oracle_accepts_the_program_output(argv):
    oracle.check(argv, _cli(argv))


def _tamper_digit(text: str, marker: str) -> str:
    """Change the last digit of the first line that contains `marker`."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if marker in line:
            body = line.rstrip("\n")
            digit = max(j for j, ch in enumerate(body) if ch.isdigit())
            new = "0" if body[digit] != "0" else "1"
            lines[i] = body[:digit] + new + body[digit + 1:] + "\n"
            return "".join(lines)
    raise AssertionError(f"{marker!r} not in output")


@pytest.mark.parametrize("argv, marker", [
    (["virial", "--sf", "mu-q:1/4,3/2", "--K", "6"], "4,"),                        # exact cell
    (["virial", "--sf", "q-mu:3/2,1/4", "--K", "6", "--backend", "decimal:50"], "5,"),  # decimal cell
    (["series", "--sf", "q:3/2", "--K", "5"], "fugacity,x,3,"),
    (["sweep", "--sf", "mu:0", "--K", "3", "--sweep", "mu=0:1:1/2"], "1/2,3,"),
    (["eps-expand", "--order", "3"], "2,3,"),
    (["hamiltonian", "--order", "3"], "2,"),
    (["virial", "--sf", "q-eps:order=2", "--K", "3"], "3,"),
])
def test_oracle_rejects_a_tampered_output(argv, marker):
    with pytest.raises(oracle.OracleError):
        oracle.check(argv, _tamper_digit(_cli(argv), marker))


def test_oracle_rejects_a_tampered_decimal_cell_in_the_twelfth_place():
    argv = ["virial", "--sf", "mu:1/3", "--K", "4"]
    text = _cli(argv)
    row = next(line for line in text.splitlines() if line.startswith("3,"))
    cell = row.split(",")[1]
    bumped = f"{float(cell) + 1e-12:.12f}"
    with pytest.raises(oracle.OracleError):
        oracle.check(argv, text.replace(cell, bumped))


def test_oracle_rejects_a_check_paper_report_without_both_misprints():
    text = _cli(["check-paper", "--format", "json"])
    payload = json.loads(text)
    payload["checks"][-1]["status"] = "UNEXPECTED-AGREEMENT"
    with pytest.raises(oracle.OracleError):
        oracle.check(["check-paper", "--format", "json"], json.dumps(payload))
    pretty = _cli(["check-paper"]).replace("DISCREPANCY (expected misprint)  fugacity", "PASS  fugacity")
    with pytest.raises(oracle.OracleError):
        oracle.check(["check-paper"], pretty)


def test_every_emitted_metric_is_declared_in_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {metric["name"]: metric["unit"] for metric in bench["end_to_end"]}
    declared_layer = {metric["name"]: metric["unit"] for metric in bench["per_layer"]}
    assert run.E2E_UNITS == declared_e2e
    assert tracing.metric_units() == declared_layer
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_self_time_subtracts_direct_children():
    jobs = [{"argv": ["sweep"], "stdout": "ab"}]
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0],
        ["thermo.virial", 1.0, 7.0, 0, 0],
        ["series.compose", 2.0, 6.0, 1, 0],
        ["series.mul", 3.0, 5.0, 2, 0],
        ["exact.to_decimal", 8.0, 9.0, 0, 0],
    ]
    metrics = tracing.layer_metrics(spans, jobs)
    assert metrics["cli.self_s"] == 3.0
    assert metrics["thermo.self_s"] == 2.0
    assert metrics["series.self_s"] == 4.0
    assert metrics["series.compose_s"] == 4.0 and metrics["series.mul_s"] == 2.0
    assert metrics["cli.sweep_overlap"] == 0.6
    assert metrics["cli.output_bytes"] == 2


def test_a_span_that_never_fires_is_absent_not_zero():
    jobs = [{"argv": ["virial"], "stdout": ""}]
    metrics = tracing.layer_metrics([["cli.main", 0.0, 1.0, -1, 0]], jobs)
    assert "series.revert_s" not in metrics and "series.self_s" not in metrics
    assert "cli.sweep_overlap" not in metrics  # no sweep ran
    assert metrics["series.revert_calls"] == 0  # a count of no events is 0
    assert metrics["cli.main_s"] == 1.0


def test_declared_metrics_are_never_absent_on_a_workload():
    # only counts and spans that every workload reaches are declared
    assert not set(tracing.SOMETIMES_ABSENT) & set(tracing.metric_units())


def test_run_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mixed-cli", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""The benchmark's per-layer contract: every declared per-layer metric is
measured on an exact, a decimal and a truncated-polynomial (q-eps) job.

perfbench/tracing.py wraps qvirial's layer functions at the names their
callers look them up by.  A change that stops calling one of them leaves a
declared metric absent, and the benchmark then rejects its own output unless
another of its jobs still calls it: a small exact table, which skips the
series functions, lists exactly the metrics it leaves out.  Each job runs in
a fresh interpreter, because installing the recorder rewires the package for
the whole process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# trace.overhead_ratio is left out: the bench takes it from a paired untraced run.
SCRIPT = """
import contextlib, io, json, sys
import tracing
from qvirial import cli

argv, spans_path = json.loads(sys.argv[1]), sys.argv[2]
recorder = tracing.Recorder()
recorder.install()
recorder.job = 0
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(argv)
metrics = recorder.write(spans_path, [{"argv": argv, "stdout": out.getvalue()}])["metrics"]
declared = set(tracing.metric_units()) - {"trace.overhead_ratio"}
print(json.dumps({"code": code, "missing": sorted(declared - set(metrics)), "metrics": metrics}))
"""


def traced(argv, tmp_path) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(argv), str(tmp_path / "spans.json")],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return json.loads(done.stdout)


# Exact tables up to K=19 come from the partition sum of Lagrange inversion,
# which calls no series function; the benchmark's exact workloads still run
# them through their K=20 tables.
PARTITION_SUM_SKIPS = ["series.compose_s", "series.euler_inverse_s", "series.mul_s", "series.revert_s"]


@pytest.mark.parametrize("argv, missing", [
    (["virial", "--sf", "mu:1/5", "--K", "6"], PARTITION_SUM_SKIPS),
    (["virial", "--sf", "mu:1/5", "--K", "19"], PARTITION_SUM_SKIPS),
    # K=20 is past the partition sum: the series engine runs
    (["virial", "--sf", "mu:1/5", "--K", "20"], []),
    (["virial", "--sf", "q-mu:3/2,1/7", "--K", "10", "--backend", "decimal:20"], []),
    (["virial", "--sf", "q-eps:order=3", "--K", "5"], []),
    # K=20 reverts x(z) to order 10 only, by the direct solve
    (["virial", "--sf", "q-mu:3/2,1/7", "--K", "20", "--backend", "decimal:20"], []),
    # from K=33 the half-order reversion (past order 16) runs Newton steps
    (["virial", "--sf", "q-mu:3/2,1/7", "--K", "40", "--backend", "decimal:20"], []),
], ids=["exact", "exact-k19", "exact-k20", "decimal", "truncpoly", "decimal-k20", "decimal-newton"])
def test_declared_layer_metrics_present(argv, missing, tmp_path):
    result = traced(argv, tmp_path)
    assert result["code"] == 0
    assert result["missing"] == missing, f"declared per-layer metrics absent on {argv}"


def test_phi_is_one_traced_row_per_table(tmp_path):
    # eval_structure returns phi(0..K), so an engine table evaluates it once
    result = traced(["virial", "--sf", "mu:1/5", "--K", "6"], tmp_path)
    assert result["code"] == 0
    assert result["metrics"]["structfn.eval_calls"] == 1


def test_perturb_split_is_traced(tmp_path):
    # perfbench wraps the splits at the names cli looks them up by; a renamed
    # import would leave the count at 0 rather than absent
    result = traced(["hamiltonian", "--order", "4", "--order-mu", "1"], tmp_path)
    assert result["code"] == 0
    assert result["metrics"]["perturb.split_calls"] == 1

"""Command-line interface: golden outputs, determinism, exit codes, schemas."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from qvirial import DecimalBackend, cli, errors, exact, parse_descriptor, particle_series, thermo, virial_coefficients
from qvirial.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN_VIRIAL_CSV = """\
# qvirial 0.1.0
# command=virial
# sf=mu:1/2
# K=3
# backend=exact
# provenance=engine
# mu=1/2
# mu_unit_fraction=true
# m=2
# first_nonpositive_phi=3
k,V_k_decimal,V_k_exact
1,1.000000000000,1
2,-0.088388347648,-1/16*sqrt(2)
3,0.031250000000,1/32
"""


def test_virial_golden_csv(capsys):
    code, out, err = run_cli(capsys, "virial", "--sf", "mu:1/2", "--K", "3", "--format", "csv")
    assert code == 0 and err == ""
    assert out == GOLDEN_VIRIAL_CSV


@pytest.mark.parametrize("sf, backend, tail", [
    ("mu:1/2", "exact", "mu=1/2 mu_unit_fraction=true m=2 first_nonpositive_phi=3"),
    ("mu:2/3", "exact", "mu=2/3 mu_unit_fraction=false first_nonpositive_phi=3"),
    ("mu:-1/3", "exact", "mu=-1/3 mu_unit_fraction=false first_nonpositive_phi=none"),
    ("mu-q:1/3,7/5", "exact", "mu=1/3 mu_unit_fraction=true m=3 first_nonpositive_phi=3"),
    ("q:3/2", "exact", "first_nonpositive_phi=none"),
    ("q-eps:order=2", "exact", "first_nonpositive_phi=none"),
    ("q-mu:3/2,1/7", "decimal:30", "mu=1/7 mu_unit_fraction=true m=7 first_nonpositive_phi=none"),
])
def test_virial_mu_metadata(capsys, sf, backend, tail):
    # the meta lines after provenance=engine, the same in csv and json
    expected = [tuple(item.split("=")) for item in tail.split()]
    argv = ("virial", "--sf", sf, "--K", "4", "--backend", backend)
    _, out, _ = run_cli(capsys, *argv)
    header = [line[2:] for line in out.splitlines() if line.startswith("# ")]
    assert [tuple(line.split("=", 1)) for line in header[header.index("provenance=engine") + 1:]] == expected
    _, out, _ = run_cli(capsys, *argv, "--format", "json")
    meta = list(json.loads(out)["meta"].items())
    assert meta[meta.index(("provenance", "engine")) + 1:] == expected


@pytest.mark.parametrize("sf, order, digest", [
    ("q:5/3", "40", "be6a8b9f4171585891b40b92decc9de4548c879c7c755d37605da4226198074c"),
    ("mu-q:1/3,7/5", "32", "396bd8dd37eb775ec28e62f96efbd0c0477e36c85f157a7a40b7f0ac70ff1bb2"),
    ("mu:-1/3", "32", "d19750ffd6a1b1dbe8a19f68b36b06e7042f746db3a40b5b6e158d109e390081"),
], ids=["q-K40", "mu-q-K32", "mu-K32"])
def test_deep_exact_tables_are_byte_pinned(capsys, sf, order, digest):
    # exact tables past K = 20, where the surd dot sums hundreds of radicands
    code, out, err = run_cli(capsys, "virial", "--sf", sf, "--K", order)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_virial_byte_identical_across_runs(capsys):
    args = ("virial", "--sf", "mu-q:1/4,3/2", "--K", "6", "--format", "csv")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_virial_undeformed_decimal_anchors(capsys):
    code, out, _ = run_cli(capsys, "virial", "--sf", "mu:0", "--K", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-2].startswith("2,-0.176776695297,")
    assert lines[-1].startswith("3,-0.003300059820,")


def test_virial_compensation_point(capsys):
    code, out, _ = run_cli(capsys, "virial", "--sf", "mu:1", "--K", "2", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[-1] == "2,0.000000000000,0"


def test_virial_decimal_backend_drops_exact_column(capsys):
    code, out, _ = run_cli(
        capsys, "virial", "--sf", "q-mu:3/2,1/4", "--K", "3", "--backend", "decimal:30",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert "k,V_k_decimal" in lines
    assert all(not line.startswith("k,V_k_decimal,V_k_exact") for line in lines)
    assert "# backend=decimal:30" in lines


def test_virial_json_schema(capsys):
    code, out, _ = run_cli(capsys, "virial", "--sf", "q:2", "--K", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["sf"] == "q:2"
    assert payload["meta"]["K"] == "2"
    assert payload["columns"] == ["k", "V_k_decimal", "V_k_exact"]
    assert payload["rows"][0]["V_k_exact"] == "1"
    # V2 = -(1+q)/2^(7/2) = -3/16*sqrt(2) at q=2
    assert payload["rows"][1]["V_k_exact"] == "-3/16*sqrt(2)"


def test_exit_codes():
    # descriptor parse error -> 2; unsupported backend -> 3
    assert main(["virial", "--sf", "frob:1", "--K", "3"]) == 2
    assert main(["virial", "--sf", "mu:0.5", "--K", "3"]) == 2
    assert main(["virial", "--sf", "mu:0", "--K", "1"]) == 2
    assert main(["virial", "--sf", "t:1/2;t:1;mu:1/4;q:3/2", "--K", "3"]) == 2
    assert main(["virial", "--sf", "q-mu:3/2,1/4", "--backend", "exact", "--K", "3"]) == 3
    assert main(["virial", "--sf", "q-eps:order=3", "--backend", "decimal:20", "--K", "3"]) == 3


# -- error bytes: every single-fault argv prints what it printed before jobs were
# admitted in one step; an argv with two faults reports the first in admission order
_E, _B = "qvirial: error: ", "qvirial: backend error: "
_QBASIC_Q1 = _E + "QBasic stores q != 1; the undeformed limit is Quadratic(0) or QuadraticOfQBasic(mu, 1)"
_K_FLOOR = _E + "truncation order must be >= 2 (at least one nontrivial virial coefficient)"
_Q_EPS_DECIMAL = _B + "q-eps series are symbolic in eps; use the exact backend"


_PINNED_ERRORS = [  # (argv, exit code, stderr without its newline)
    ("virial --sf frob:1", 2, _E + "unknown structure-function kind 'frob'"),
    ("virial --sf mu:0.5 --K 3", 2, _E + "not a rational number (use p or p/q, not decimals): '0.5'"),
    ("virial --sf mu:1/0", 2, _E + "zero denominator: '1/0'"),
    ("virial --sf mu", 2, _E + "malformed descriptor 'mu'"),
    ("virial --sf t:1/2;t:1;mu:1/4;q:3/2", 2, _E + "t-descriptor repeats the t: part"),
    ("virial --sf t:1/2;mu;q:3/2", 2, _E + "malformed descriptor part 'mu'"),
    ("virial --sf t:1/2;mu:1/4", 2, _E + "t-descriptor needs exactly t:, mu:, q: parts"),
    ("virial --sf q-eps:order=x", 2, _E + "q-eps descriptor takes order=<int>, not 'order=x'"),
    ("virial --sf q-eps:order=-1", 2, _E + "order must be nonnegative"),
    ("virial --sf mu:1,2", 2, _E + "'mu:1,2' is not of the form mu:mu"),
    ("virial --sf q:1", 2, _QBASIC_Q1),
    ("virial --sf mu:1/3 --K 1", 2, _K_FLOOR),
    ("series --sf mu:1/3 --K 101", 2, _E + "--K is 101, above the cap of 100"),
    ("virial --sf mu:1/3 --K x", 2, "usage: qvirial virial [-h] --sf SF [--K ORDER] [--backend BACKEND]\n"
     "                      [--format {csv,json,pretty}] [--out OUT]\n"
     "qvirial virial: error: argument --K: invalid int value: 'x'"),
    ("virial --sf mu:1/3 --backend decimal:0", 2, _E + "bad decimal digit budget '0'"),
    ("virial --sf mu:1/3 --backend decimal:x", 2, _E + "bad decimal digit budget: invalid int value: 'x'"),
    ("series --sf mu:1/3 --backend float", 2, _E + "unknown backend 'float' (use exact or decimal:<digits>)"),
    ("virial --sf mu:1/3 --backend decimal:1001", 2, _E + "decimal digit budget is 1001, above the cap of 1000"),
    ("virial --sf q-eps:order=3 --backend decimal:20", 3, _Q_EPS_DECIMAL),
    ("series --sf q-eps:order=101", 2, _E + "the q-eps order is 101, above the cap of 100"),
    ("virial --sf q-mu:3/2,1/4", 3,
     _B + "q-mu:3/2,1/4 needs the decimal backend: rational powers of q leave the exact ring"),
    ("eps-expand --order 0", 2, _E + "--order must be >= 1"),
    ("eps-expand --order 101", 2, _E + "--order is 101, above the cap of 100"),
    ("eps-expand --n -1", 2, _E + "--n must be nonnegative"),
    (f"eps-expand --order 100 --n 1{'0' * 200}", 2,
     _E + "--order times the digits of --n is 20100, above the cap of 20000"),
    ("hamiltonian --order -1", 2, _E + "--order must be >= 0"),
    ("hamiltonian --order 101", 2, _E + "--order is 101, above the cap of 100"),
    ("hamiltonian --order-mu -1", 2, _E + "--order-mu must be >= 0"),
    ("hamiltonian --order-mu 101", 2, _E + "--order-mu is 101, above the cap of 100"),
    ("sweep --sf mu:0 --K 3", 2, _E + "sweep needs at least one --sweep <param>=<a>:<b>:<step>"),
    ("sweep --sf q-eps:order=3 --K 3 --sweep q=0:1:1", 2, _E + "q-eps:order=3 has no sweepable parameters"),
    ("sweep --sf mu:0 --sweep mu=0:1:0", 2, _E + "sweep step must be nonzero"),
    ("sweep --sf mu:0 --sweep mu=0:1:1 --sweep mu=0:1:1", 2, _E + "each parameter can be swept only once"),
    ("sweep --sf mu-q:0,3/2 --K 2 --sweep mu=1/100:1:1/100 --sweep q=1/2:3/2:1/10", 2,
     _E + "sweep grid size is 1100, above the cap of 1000"),
    ("sweep --sf mu:0 --sweep q=0:1:1", 2, _E + "'q' is not a parameter of mu:0 (has ('mu',))"),
    ("sweep --sf q:1/2 --K 2 --sweep q=1/2:3/2:1/2", 2, _QBASIC_Q1),
    ("sweep --sf mu:0 --sweep mu=0:x:1", 2, _E + "not a rational number (use p or p/q, not decimals): 'x'"),
    ("sweep --sf mu:0 --K 101 --sweep mu=0:1:1", 2, _E + "--K is 101, above the cap of 100"),
    ("sweep --sf mu:0 --K 1 --sweep mu=0:1:1", 2, _K_FLOOR),
    ("sweep --sf mu:0 --backend decimal:0 --sweep mu=0:1:1", 2, _E + "bad decimal digit budget '0'"),
    ("check-paper --format csv", 2, _E + "check-paper reports support pretty or json"),
    # two faults: the first in admission order (descriptor, backend, q-eps
    # order, sweeps, integer flags) is reported
    ("virial --sf q-eps:order=500 --K 500", 2, _E + "the q-eps order is 500, above the cap of 100"),
    ("sweep --sf frob:1 --K 3", 2, _E + "unknown structure-function kind 'frob'"),
    ("sweep --sf q:1/2 --K 1 --sweep q=1:2:1", 2, _K_FLOOR),
    ("sweep --sf mu:0 --backend float --sweep x=0:1:1", 2,
     _E + "unknown backend 'float' (use exact or decimal:<digits>)"),
    ("sweep --sf q-eps:order=3 --backend decimal:20 --sweep q=0:1:1", 3, _Q_EPS_DECIMAL),
    ("eps-expand --order 0 --n -1", 2, _E + "--order must be >= 1"),
]


@pytest.mark.parametrize("argv, code, err", _PINNED_ERRORS, ids=[argv[:60] for argv, _, _ in _PINNED_ERRORS])
def test_error_bytes_are_pinned(capsys, monkeypatch, argv, code, err):
    monkeypatch.setenv("COLUMNS", "80")
    assert outcome(capsys, main, argv.split()) == (code, "", err + "\n")


# -- a grammar fuzz: every argv ends in an exit code, never a traceback ----------
# Each slot draws a valid value three times as often as a malformed one, so that
# many jobs run.  K, digit budgets and parameters stay small, so that every job
# is quick; 10**30 and the values just past the caps probe the input checks.


def _mostly(valid, malformed):
    return st.sampled_from(valid * 3 + malformed)


# q = 1 +- 10**-j: the decimal phi row cancels j digits
_NEAR_ONE = [str(1 + sign * Fraction(1, 10**j)) for j in (1, 8, 16, 20, 28, 40) for sign in (1, -1)]
# past Python's 4,300-digit limit on str -> int conversion (str(10**4399) would hit it too)
_OVERSIZED = "1" + "0" * 4399
_TOKEN = "k" * 3000  # long non-numeric text, which no error line may echo whole
_RATIONALS = _mostly(["0", "1", "-1", "1/2", "-2/7", "5/3", "2"] + _NEAR_ONE,
                     ["1/0", "3.5", str(10**30), _OVERSIZED, "x", "", _TOKEN])
_BOUNDS = _mostly(["0", "1", "-1", "1/2", "-2", "2"], ["1/0", "3.5", str(10**30), _OVERSIZED, "x", _TOKEN])
_DESCRIPTORS = st.one_of(
    st.tuples(st.sampled_from(["q", "mu", "mu-q", "q-mu", "frob", _TOKEN]),
              st.lists(_RATIONALS, min_size=1, max_size=2).map(",".join)).map(":".join),
    st.tuples(_RATIONALS, st.lists(st.tuples(_mostly(["mu", "q"], ["t", "x", _TOKEN]), _RATIONALS),
                                   min_size=1, max_size=3))
    .map(lambda first_rest: "t:" + first_rest[0] + "".join(f";{k}:{v}" for k, v in first_rest[1])),
    _mostly(["order=0", "order=2", "order=5"], ["order=-1", "order=x", "order=", "ord=2", "order=1=2", _TOKEN])
    .map("q-eps:".__add__),
    st.sampled_from(["mu", "", ":", "q:", _TOKEN]),
)
_ORDERS = _mostly(["2", "3", "4", "6"], ["-1", "0", "1", "101", "x", "3.5", _TOKEN])
_BACKENDS = _mostly(["exact", "decimal:1", "decimal:12", "decimal:30"],
                    ["decimal:0", "decimal:-5", "decimal:x", "decimal:1001", "decimal", "float", "",
                     _TOKEN, "decimal:" + _TOKEN])
# what may follow the flags: mostly nothing, else a leftover, a bare flag, or a
# long leftover or abbreviated --<prefix>=<value> that argparse would echo
_TAILS = [[]] * 12 + [["extra"], ["--K"], ["-h"], ["--version"], [_TOKEN]] + [
    [f"{prefix}={_TOKEN}"] for prefix in ("--o", "--s", "--f")]
_SWEEPS = st.one_of(
    st.tuples(_mostly(["mu", "q", "t"], ["x", "", _TOKEN]), _BOUNDS, _BOUNDS, _BOUNDS)
    .map(lambda p: f"{p[0]}={p[1]}:{p[2]}:{p[3]}"),
    st.sampled_from(["mu=0:1", "mu", "=0:1:1", "q=0:1:1:1", _TOKEN]),
)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(cli.COMMANDS + (_TOKEN,)))  # the last one is unknown
    argv = [command]

    def maybe(flag, values):
        if draw(st.sampled_from([True, True, True, False])):
            argv.extend([flag, draw(values)])

    if command in ("virial", "series", "sweep"):
        maybe("--sf", _DESCRIPTORS)
        argv.extend(["--K", draw(_ORDERS)])  # always drawn: the default K is 8
        maybe("--backend", _BACKENDS)
    if command == "sweep":
        for text in draw(st.lists(_SWEEPS, max_size=2)):
            argv.extend(["--sweep", text])
    if command in ("eps-expand", "hamiltonian"):
        maybe("--order", _ORDERS)
    if command == "eps-expand":
        maybe("--n", _mostly(["0", "3", str(10**30)], ["-1", "x"]))
    if command == "hamiltonian":
        maybe("--order-mu", _ORDERS)
    maybe("--format", _mostly(["csv", "json", "pretty"], ["xml", _TOKEN]))
    maybe("--out", st.just(os.devnull))
    argv.extend(draw(st.sampled_from(_TAILS)))
    return argv


@given(_argv())
@example(["virial", "--sf", f"q-mu:{1 + Fraction(1, 10**28)},1/7", "--K", "4", "--backend", "decimal:12"])
@example(["sweep", "--sf", "t:1/2;mu:1/7;q:2", "--K", "3", "--backend", "decimal:1",
          "--sweep", f"q={1 - Fraction(1, 10**20)}:2:1"])
@example(["sweep", "--sf", "mu:0", "--K", "3", "--sweep", f"mu=0:{_OVERSIZED}:1/2"])
@example(["virial", "--sf", f"q:{_TOKEN}", "--K", "3"])
@example(["sweep", "--sf", "mu:0", "--K", "3", "--backend", "decimal:1", "--sweep", f"{_TOKEN}=0:1:1"])
@settings(max_examples=300, deadline=None)
def test_fuzzed_argv_ends_in_an_exit_code(argv):
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3)
    # no line echoes long user text whole
    assert all(len(line) <= 200 for line in stderr.getvalue().splitlines())


_DIGIT_LIMIT = f"5001 digits is above the {sys.get_int_max_str_digits()}-digit limit"


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--sf", "mu:0", "--K", "3", "--sweep", f"mu=0:1{'0' * 5000}:1/2"], _DIGIT_LIMIT),
    (["virial", "--sf", f"q:1{'0' * 5000}", "--K", "3"], _DIGIT_LIMIT),
    (["virial", "--sf", f"q-eps:order=1{'0' * 5000}", "--K", "3"], _DIGIT_LIMIT),
    # each number fits, but the value count 10^4300 + 1 has 4,301 digits
    (["sweep", "--sf", "mu:0", "--K", "3", "--sweep", f"mu=0:10:1/1{'0' * 4299}"],
     "is a number of 4301 digits, above the cap of 1000"),
])
def test_numbers_past_the_int_digit_limit_exit_2(capsys, argv, message):
    # a number int() cannot read or print is a one-line usage error
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err and "set_int_max_str_digits" not in err
    assert message in err


_LONG = "1" + "0" * 4000  # fits int(), past every cap
_TOO_LONG = "1" + "0" * 5000  # past int()'s digit limit
_PAST_LIMIT = f"a number of {_DIGIT_LIMIT} on integer conversion"


@pytest.mark.parametrize("argv, message", [
    (["virial", "--sf", f"q-eps:order=1{'0' * 300}", "--K", "3"],
     "the q-eps order is a number of 301 digits, above the cap of 100"),
    (["virial", "--sf", "q-eps:order=101", "--K", "3"], "the q-eps order is 101, above the cap of 100"),
    (["virial", "--sf", "mu:1/3", "--backend", f"decimal:{_LONG}"],
     "decimal digit budget is a number of 4001 digits, above the cap of 1000"),
    (["virial", "--sf", "mu:1/3", "--backend", f"decimal:{_TOO_LONG}"], _PAST_LIMIT),
    (["virial", "--sf", "mu:1/3", "--K", _LONG], "--K is a number of 4001 digits, above the cap of 100"),
    (["virial", "--sf", "mu:1/3", "--K", _TOO_LONG], f"argument --K: {_PAST_LIMIT}"),
    (["series", "--sf", "mu:1/3", "--K", _TOO_LONG], f"argument --K: {_PAST_LIMIT}"),
    (["eps-expand", "--n", _TOO_LONG], f"argument --n: {_PAST_LIMIT}"),
    (["hamiltonian", "--order-mu", _TOO_LONG], f"argument --order-mu: {_PAST_LIMIT}"),
    # a sweep past 40 characters is named by its parameter, never echoed whole
    (["sweep", "--sf", "mu:0", "--K", "3", "--sweep", f"mu=0:10:1/1{'0' * 4299}"],
     "the value count of sweep on 'mu' is a number of 4301 digits, above the cap of 1000"),
    (["sweep", "--sf", "mu:0", "--K", "3", "--sweep", f"mu=0:{_LONG}:1"],
     "the value count of sweep on 'mu' is a number of 4001 digits, above the cap of 1000"),
    (["sweep", "--sf", "mu:0", "--K", "3", "--sweep", f"mu={_LONG}:0:1"], "sweep on 'mu' produces no values"),
    (["sweep", "--sf", "mu:0", "--K", "3", "--sweep", f"mu=0:{_LONG}"],
     "bad sweep on 'mu'; expected <param>=<start>:<stop>:<step>"),
    (["sweep", "--sf", "mu:0", "--K", "3", "--sweep", f"{'x' * 300}=0:1:1"],
     "<300 characters> is not a parameter of mu:0 (has ('mu',))"),
    # any other user text past 40 characters is named by its length
    (["virial", "--sf", f"q:1{'1' * 2999}x"],
     "not a rational number (use p or p/q, not decimals): <3001 characters>"),
    (["virial", "--sf", f"mu:1/2,{'1' * 3000}"], "<3007 characters> is not of the form mu:mu"),
    (["virial", "--sf", "mu:1/3", "--backend", f"decimal:{'0' * 3000}"], "bad decimal digit budget <3000 characters>"),
    (["sweep", "--sf", f"mu:1{'0' * 3000}", "--K", "3", "--sweep", "q=0:1:1"],
     "'q' is not a parameter of <3004 characters> (has ('mu',))"),
    (["virial", "--sf", f"t:1;{'k' * 300}:1;{'k' * 300}:2"], "t-descriptor repeats the <300 characters>: part"),
    (["virial", "--sf", "mu:1/3", "--K", "k" * 300], "argument --K: invalid int value: <300 characters>"),
    (["virial", "--sf", f"{'k' * 300}:1"], "unknown structure-function kind <300 characters>"),
    (["virial", "--sf", "mu:1/3", "--backend", "k" * 300], "unknown backend <300 characters> (use exact or decimal:<digits>)"),
    # argparse's own choice checks too
    (["virial", "--sf", "mu:0", "--K", "2", "--format", "k" * 300],
     "argument --format: invalid choice: '<300 characters>' (choose from 'csv', 'json', 'pretty')"),
    (["k" * 300], "argument command: invalid choice: '<300 characters>' (choose from "
                  "'virial', 'series', 'eps-expand', 'hamiltonian', 'sweep', 'check-paper')"),
    # and every other argparse line that echoes an argument, or the value of --flag=value
    (["virial", "--sf", "mu:0", "k" * 300], "unrecognized arguments: <300 characters>"),
    (["virial", "--sf", "mu:0", "--" + "k" * 300], "unrecognized arguments: <302 characters>"),
    (["virial", "--sf", "mu:0", "k" * 300, "k" * 301, "extra"],
     "unrecognized arguments: <300 characters> <301 characters> extra"),
    (["hamiltonian", "--ord=" + "k" * 300], "ambiguous option: <306 characters> could match --order, --order-mu"),
    (["sweep", "--sf", "mu:0", "--s=" + "k" * 300], "ambiguous option: <304 characters> could match --sf, --sweep"),
    (["--version=" + "k" * 300], "argument --version: ignored explicit argument '<300 characters>'"),
    (["virial", "--sf", "mu:0", "--format", "k" * 300 + "\\"],  # repr escapes the backslash
     "argument --format: invalid choice: '<301 characters>' (choose from 'csv', 'json', 'pretty')"),
], ids=["q-eps-order", "q-eps-order-101", "decimal", "decimal-past-limit", "K", "K-past-limit",
        "series-K-past-limit", "n-past-limit", "order-mu-past-limit", "sweep-count-step",
        "sweep-count-stop", "sweep-empty", "sweep-bad", "sweep-param", "rational", "form", "decimal-zeros",
        "sweep-sf", "t-repeats", "K-text", "kind", "backend", "format-choice", "command-choice",
        "leftover", "leftover-option", "leftovers", "ambiguous-option", "ambiguous-value", "ignored-value",
        "format-choice-escaped"])
def test_oversized_integers_exit_2_with_a_short_line(capsys, argv, message):
    # an oversized integer is named by its digit count, never echoed whole
    code, out, err = outcome(capsys, main, argv)
    assert (code, out) == (2, "")
    assert err.endswith(message + "\n")
    assert max(map(len, err.splitlines())) <= 200
    if not message.startswith(("argument", "unrecognized", "ambiguous")):  # argparse prints usage first
        assert err.count("\n") == 1


@pytest.mark.parametrize("argv, line", [
    (["hamiltonian", "--ord", "3"],
     "qvirial hamiltonian: error: ambiguous option: --ord could match --order, --order-mu"),
    (["virial", "--sf", "mu:0", "extra"], "qvirial: error: unrecognized arguments: extra"),
    (["virial", "--sf", "mu:0", "--format=" + "k" * 40],
     f"qvirial virial: error: argument --format: invalid choice: '{'k' * 40}' (choose from 'csv', 'json', 'pretty')"),
], ids=["ambiguous", "leftover", "choice-at-40"])
def test_argparse_echoes_a_short_argument_whole(capsys, argv, line):
    code, out, err = outcome(capsys, main, argv)
    assert (code, out, err.splitlines()[-1]) == (2, "", line)


def test_an_unknown_format_is_a_bug_not_a_usage_error():
    # argparse's choices keep every other format out, so main must not report it as exit 2
    with pytest.raises(ValueError, match="unknown format 'xml'") as caught:
        cli._format_table("xml", {}, [], [])
    assert not isinstance(caught.value, (cli.UsageError, errors.DescriptorError))


def test_a_long_descriptor_is_named_by_its_length_on_a_backend_error(capsys):
    code, out, err = run_cli(capsys, "virial", "--sf", f"q-mu:3/2,1/1{'0' * 300}")
    assert (code, out, err) == (3, "", "qvirial: backend error: <312 characters> needs the decimal backend: "
                                       "rational powers of q leave the exact ring\n")


@pytest.mark.parametrize("text, message", [
    ("mu=0:1", "bad sweep 'mu=0:1'; expected <param>=<start>:<stop>:<step>"),
    ("mu=2:0:1", "sweep 'mu=2:0:1' produces no values"),
    ("mu=0:2000:1", "the value count of sweep 'mu=0:2000:1' is 2001, above the cap of 1000"),
    ("t=0:1:1", "'t' is not a parameter of mu:0 (has ('mu',))"),
])
def test_a_short_sweep_is_quoted_whole(capsys, text, message):
    code, out, err = run_cli(capsys, "sweep", "--sf", "mu:0", "--K", "3", "--sweep", text)
    assert (code, out, err) == (2, "", f"qvirial: error: {message}\n")


def test_every_integer_flag_carries_a_floor_and_a_cap(capsys):
    # each integer flag is bounded by its row of the job table; eps-expand's --n
    # is capped with --order, by --order times its digits
    needs = {"virial": ["--sf", "mu:0"], "series": ["--sf", "mu:0"],
             "sweep": ["--sf", "mu:0", "--sweep", "mu=0:1:1"]}
    checked = []
    for command, (_, _, flags) in cli._JOBS.items():
        for flag, spec, *bounds in flags:
            assert bool(bounds) == (spec.get("type") is cli._int_flag), (command, flag)
            for floor, cap, below in bounds:
                argv = [command, *needs.get(command, []), flag]
                assert outcome(capsys, main, argv + [str(floor - 1)]) == (2, "", f"qvirial: error: {below}\n")
                if (command, flag) == ("eps-expand", "--n"):
                    assert cap is None
                    continue
                assert cap == cli.MAX_ORDER
                assert outcome(capsys, main, argv + [str(cap + 1), "--out", os.devnull]) == \
                    (2, "", f"qvirial: error: {flag} is {cap + 1}, above the cap of {cap}\n")
                checked.append((command, flag))
    assert len(checked) == 6  # --K of three model jobs, two --order flags and --order-mu


def test_a_sweep_admits_its_inputs_once_per_job(capsys, monkeypatch):
    parsed, capped = [], []
    parse, check = cli.parse_descriptor, cli._check_cap
    monkeypatch.setattr(cli, "parse_descriptor", lambda text: parsed.append(text) or parse(text))
    monkeypatch.setattr(cli, "_check_cap", lambda value, cap, what: capped.append(what) or check(value, cap, what))
    code, out, err = run_cli(capsys, "sweep", "--sf", "mu:0", "--K", "2", "--sweep", "mu=1/200:1:1/200")
    assert (code, err) == (0, "") and out.count("\n1/200,2,") == 1 and out.count("\n1,2,") == 1
    assert parsed == ["mu:0"]
    assert capped.count("--K") == 1


def test_an_ordinary_bad_integer_keeps_argparse_s_message(capsys):
    code, out, err = outcome(capsys, main, ["virial", "--sf", "mu:1/3", "--K", "3.5"])
    assert (code, out) == (2, "")
    assert err.endswith("qvirial virial: error: argument --K: invalid int value: '3.5'\n")


def test_the_largest_q_eps_order_runs(capsys):
    code, out, err = run_cli(capsys, "virial", "--sf", "q-eps:order=100", "--K", "3")
    assert (code, err) == (0, "")
    assert "# backend=truncpoly[eps<=100]" in out


@pytest.mark.parametrize("digits", [12, 50])
@pytest.mark.parametrize("kind", ["q-mu", "t"])
def test_decimal_tables_near_q_one_meet_their_digit_budget(capsys, kind, digits):
    # q = 1 +- 10**-j: each cell within 10**-D * max(1, |V_k|) of the table at
    # D + j + 150 digits, plus the half unit of the 12th place that printing adds
    for j in (60, 28, 20, 8):
        for q in (1 + Fraction(1, 10**j), 1 - Fraction(1, 10**j)):
            descriptor = f"q-mu:{q},1/7" if kind == "q-mu" else f"t:1/2;mu:1/7;q:{q}"
            code, out, err = run_cli(capsys, "virial", "--sf", descriptor, "--K", "8",
                                     "--backend", f"decimal:{digits}", "--format", "json")
            assert (code, err) == (0, "")
            cells = [Decimal(row["V_k_decimal"]) for row in json.loads(out)["rows"]]
            x = particle_series(parse_descriptor(descriptor), 8, DecimalBackend(digits + j + 150))
            for k, (cell, value) in enumerate(zip(cells, virial_coefficients(x).values), start=1):
                budget = Decimal(10) ** -digits * max(1, abs(value)) + Decimal("0.5e-12")
                assert abs(cell - value) <= budget, (descriptor, k)


def test_q_too_near_one_for_the_digit_cap_exits_3(capsys):
    # 12 + 15 guard + 3990 cancelled digits pass the cap of 4000 working digits
    q = 1 + Fraction(1, 10**3990)
    code, out, err = run_cli(capsys, "virial", "--sf", f"q-mu:{q},1/7", "--K", "4", "--backend", "decimal:12")
    assert (code, out) == (3, "")
    assert err == ("qvirial: backend error: decimal:12 would need 4017 working digits to absorb "
                   "3990 cancelled digits, above the cap of 4000\n")


def test_decimal_overflow_is_a_backend_error(capsys):
    # q**e with e near 10**10 leaves the decimal backend's exponent range
    code, out, err = run_cli(capsys, "virial", "--sf", "q-mu:2,-1000000", "--K", "100",
                             "--backend", "decimal:20")
    assert (code, out) == (3, "")
    assert err.startswith("qvirial: backend error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["virial", "--sf", "q:1" + "0" * 400, "--K", "12"],
    ["virial", "--sf", "q-mu:10,-100", "--K", "10", "--backend", "decimal:20"],
    ["eps-expand", "--order", "30", "--n", "1" + "0" * 500],
])
def test_cells_past_the_int_str_digit_limit(capsys, monkeypatch, argv):
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert max(len(digits) for digits in re.findall(r"\d+", out)) > limit
    # the bytes plain str() gives with the limit lifted
    monkeypatch.setattr(exact, "_text", str)
    sys.set_int_max_str_digits(0)
    try:
        assert run_cli(capsys, *argv) == (0, out, "")
    finally:
        sys.set_int_max_str_digits(limit)


def test_argparse_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["virial"])  # missing --sf
    assert excinfo.value.code == 2


def outcome(capsys, call, argv):
    """(exit code, stdout, stderr) of ``call(argv)``, which may exit."""
    try:
        code = call(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def argv_id(argv):
    return " ".join(argv) or "no-args"


def parsed(capsys, parse, argv):
    """outcome() of ``parse(argv)``, with the parsed arguments in place of the
    exit code when it returns."""
    args = []
    code, out, err = outcome(capsys, lambda argv: args.append(vars(parse(argv))), argv)
    return (args or [code])[0], out, err


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--version"], ["--version", "virial"], ["frob"], ["vir"],
    *[[command, "-h"] for command in cli.COMMANDS],
    # leftover arguments, whose usage line lists all six commands
    ["virial", "--sf", "mu:1/2", "--K", "3", "extra"],
    ["check-paper", "--format", "json", "extra"],
    ["check-paper", "extra"],
    ["virial", "--K", "3"],  # missing --sf
    ["series", "--K", "3"],
    ["virial", "--sf", "mu:1/2", "--format", "xml"],
    ["sweep", "--sf", "mu:0", "--sweep", "mu=0:1:1", "--format", "xml"],
    ["eps-expand", "--order", "x"],
    ["virial", "--sf", "mu:1/2", "--K", "x3"],
    ["virial", "--version"],
    ["virial", "--sf", "mu:1/2", "--K", "3", "--version"],
    ["sweep", "--s", "mu:0"],  # ambiguous: --sf or --sweep
    # arguments that parse: abbreviations, --flag=value, --, repeats, defaults
    ["virial", "--sf", "mu:1/2", "--form", "json"],
    ["hamiltonian", "--order-m", "2", "--form", "pretty"],
    ["virial", "--sf=mu:1/2", "--K=3"],
    ["eps-expand", "--order", "2", "--"],
    ["series", "--sf", "mu:1/2", "--", "--K", "3"],
    ["sweep", "--sf", "mu:0", "--sweep", "mu=0:1:1", "--sweep", "q=1:2:1"],
    ["check-paper"],
], ids=argv_id)
def test_argparse_outcomes_match_the_full_parser(capsys, monkeypatch, argv):
    # a job reads its argv with one flat parser of its subcommand's flags; help,
    # version, every argparse error and the parsed arguments must read exactly
    # as the full parser's
    monkeypatch.setenv("COLUMNS", "80")
    assert parsed(capsys, cli._parse_args, argv) == parsed(capsys, cli.build_parser().parse_args, argv)


def test_a_job_builds_only_its_own_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run_cli(capsys, "eps-expand", "--order", "2")[0] == 0
    assert built == ["qvirial eps-expand"]
    monkeypatch.undo()
    subparsers = [action for action in cli.build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    assert [tuple(action.choices) for action in subparsers] == [cli.COMMANDS]


@pytest.mark.parametrize("argv", [
    ["virial", "--sf", "mu:1/2", "--K", "3"],
    ["virial", "--sf", "mu:1/2", "--format", "xml"],
], ids=argv_id)
def test_python_m_entry_matches_main(capsys, monkeypatch, argv):
    # `python -m qvirial` reads sys.argv, the branch in-process callers skip
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-m", "qvirial", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == outcome(capsys, main, argv)


def test_start_up_imports_every_module_and_no_code_generators():
    # a fresh interpreter's set-up, as every CLI job pays it: no module waits
    # for a handler to import it, and none pulls in dataclasses, inspect or
    # typing (their import and generated methods were a sixth of the set-up)
    package = Path(cli.__file__).resolve().parent
    code = "import sys, qvirial.cli; qvirial.cli.build_parser(); print(*sys.modules)"
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(package.parent)), timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert not loaded & {"dataclasses", "inspect", "typing"}
    submodules = {f"qvirial.{path.stem}" for path in package.glob("*.py") if path.stem not in ("__init__", "__main__")}
    assert submodules and submodules <= loaded


def test_out_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code = main(["virial", "--sf", "mu:1/2", "--K", "3", "--format", "csv", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    assert target.read_text() == GOLDEN_VIRIAL_CSV


def test_unwritable_out_path_exits_2(tmp_path, capsys, monkeypatch):
    # an --out path is user input: a missing directory or a directory as the
    # target is a usage error, not a traceback; a path past 40 characters is named by its length
    monkeypatch.chdir(tmp_path)
    for target, shown in (("missing/table.csv", "missing/table.csv"), (".", "."),
                          (f"{'d' * 250}/table.csv", "<260 characters>")):
        code, out, err = run_cli(capsys, "virial", "--sf", "mu:1/2", "--K", "3", "--out", target)
        assert code == 2 and out == ""
        assert err.startswith(f"qvirial: error: cannot write {shown}: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


# -- sweep ---------------------------------------------------------------------


def test_sweep_quadratic_grid(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--sf", "mu:0", "--K", "2", "--sweep", "mu=0:1:1/2", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert "mu,k,V_k_decimal,V_k_exact" in lines
    data = [line for line in lines if not line.startswith("#") and not line.startswith("mu,")]
    assert data == [
        "0,1,1.000000000000,1",
        "0,2,-0.176776695297,-1/8*sqrt(2)",
        "1/2,1,1.000000000000,1",
        "1/2,2,-0.088388347648,-1/16*sqrt(2)",
        "1,1,1.000000000000,1",
        "1,2,0.000000000000,0",
    ]


def test_sweep_t_endpoints_match_composite_models(capsys):
    _, swept, _ = run_cli(
        capsys, "sweep", "--sf", "t:0;mu:1/4;q:3/2", "--K", "3",
        "--sweep", "t=0:1:1", "--backend", "decimal:50", "--format", "csv",
    )
    rows = [line for line in swept.strip().splitlines() if line[0].isdigit()]
    t0_rows = [row.split(",")[2] for row in rows if row.startswith("0,")]
    t1_rows = [row.split(",")[2] for row in rows if row.startswith("1,")]
    _, direct0, _ = run_cli(
        capsys, "virial", "--sf", "q-mu:3/2,1/4", "--K", "3", "--backend", "decimal:50",
        "--format", "csv",
    )
    _, direct1, _ = run_cli(
        capsys, "virial", "--sf", "mu-q:1/4,3/2", "--K", "3", "--backend", "decimal:50",
        "--format", "csv",
    )
    direct0_rows = [line.split(",")[1] for line in direct0.strip().splitlines() if line[0].isdigit()]
    direct1_rows = [line.split(",")[1] for line in direct1.strip().splitlines() if line[0].isdigit()]
    assert t0_rows == direct0_rows
    assert t1_rows == direct1_rows


def test_sweep_validation_errors():
    assert main(["sweep", "--sf", "mu:0", "--K", "2"]) == 2  # no range
    assert main(["sweep", "--sf", "mu:0", "--K", "2", "--sweep", "mu=1:0:1/2"]) == 2  # empty
    assert main(["sweep", "--sf", "mu:0", "--K", "2", "--sweep", "mu=0:1:0"]) == 2  # zero step
    assert main(["sweep", "--sf", "mu:0", "--K", "2", "--sweep", "q=0:1:1"]) == 2  # foreign param
    assert main(["sweep", "--sf", "q-eps:order=3", "--K", "2", "--sweep", "q=0:1:1"]) == 2


def test_inputs_over_the_caps_exit_2():
    # each request is rejected before any work starts
    assert main(["virial", "--sf", "mu:0", "--K", "101"]) == 2
    assert main(["series", "--sf", "mu:0", "--K", "101"]) == 2
    assert main(["sweep", "--sf", "mu:0", "--K", "101", "--sweep", "mu=0:1:1"]) == 2
    assert main(["virial", "--sf", "mu:0", "--K", "3", "--backend", "decimal:1001"]) == 2
    assert main(["eps-expand", "--order", "101"]) == 2
    assert main(["hamiltonian", "--order", "101"]) == 2
    assert main(["hamiltonian", "--order", "2", "--order-mu", "101"]) == 2
    assert main(["sweep", "--sf", "mu:0", "--K", "2", "--sweep", "mu=0:1:1/2000"]) == 2
    start = time.perf_counter()  # at the largest order, one digit more than the widest accepted --n
    assert main(["eps-expand", "--order", "100", "--n", "1" + "0" * (cli.MAX_LEVEL_DIGITS // 100)]) == 2
    assert time.perf_counter() - start < 0.5
    # 100 x 11 points: each sweep is under the cap, the grid is not
    assert main(["sweep", "--sf", "mu-q:0,3/2", "--K", "2",
                 "--sweep", "mu=1/100:1:1/100", "--sweep", "q=1/2:3/2:1/10"]) == 2


def test_caps_admit_their_limit():
    assert cli._parse_backend_flag(f"decimal:{cli.MAX_DECIMAL_DIGITS}").digits == cli.MAX_DECIMAL_DIGITS
    param, values = cli._parse_sweep_flag(f"mu=1:{cli.MAX_SWEEP_POINTS}:1")
    assert len(values) == cli.MAX_SWEEP_POINTS and values[-1] == cli.MAX_SWEEP_POINTS
    with pytest.raises(cli.UsageError):
        cli._parse_sweep_flag(f"mu=1:{cli.MAX_SWEEP_POINTS + 1}:1")
    assert main(["eps-expand", "--order", "100", "--n", "9" * (cli.MAX_LEVEL_DIGITS // 100), "--out", os.devnull]) == 0


def test_sweep_parameters_are_the_variant_fields(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--sf", "q-mu:3/2,1/4", "--K", "2", "--backend", "decimal:20",
                           "--sweep", "q=3/2:2:1/2", "--sweep", "mu=0:1/4:1/4")
    assert code == 0 and "\nq,mu,k,V_k_decimal\n" in out
    code, out, err = run_cli(capsys, "sweep", "--sf", "q-mu:3/2,1/4", "--K", "2", "--backend", "decimal:20",
                             "--sweep", "t=0:1:1")
    assert (code, out) == (2, "")
    assert err == "qvirial: error: 't' is not a parameter of q-mu:3/2,1/4 (has ('q', 'mu'))\n"


def test_sweep_bounds_follow_descriptor_grammar():
    # bounds are rationals like descriptor parameters: decimals are rejected
    assert main(["sweep", "--sf", "mu:0", "--K", "2", "--sweep", "mu=0.1:0.5:0.1"]) == 2
    assert main(["sweep", "--sf", "mu:0", "--K", "2", "--sweep", "mu=0:1:1/0"]) == 2


def test_negative_q_eps_order_names_its_cause(capsys):
    code, out, err = run_cli(capsys, "virial", "--sf", "q-eps:order=-1", "--K", "3")
    assert (code, out, err) == (2, "", "qvirial: error: order must be nonnegative\n")


def test_sweep_point_rejected_by_model_is_usage_error(capsys):
    # q = 1/2, 1, 3/2: QBasic cannot store q = 1
    code, out, err = run_cli(capsys, "sweep", "--sf", "q:1/2", "--K", "2", "--sweep", "q=1/2:3/2:1/2")
    assert code == 2 and out == ""
    assert "q != 1" in err
    assert main(["sweep", "--sf", "mu:0", "--K", "1", "--sweep", "mu=0:1:1"]) == 2


def test_k_below_two_is_a_usage_error(capsys):
    # the library runs order 1 (V_1 alone); the command line asks for a nontrivial V_k
    for command in ("virial", "series", "sweep"):
        for order in ("1", "0"):
            sweep = ["--sweep", "mu=0:1:1"] if command == "sweep" else []
            code, out, err = run_cli(capsys, command, "--sf", "mu-q:1/3,3/2", "--K", order, *sweep)
            assert (code, out) == (2, "")
            assert err == "qvirial: error: truncation order must be >= 2 (at least one nontrivial virial coefficient)\n"


def test_a_series_job_builds_the_density_series_once(monkeypatch, capsys):
    # the pressure and fugacity dumps are read off the particle series the job built
    calls = []
    build = thermo.particle_series

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(cli, "particle_series", counted)
    monkeypatch.setattr(thermo, "particle_series", counted)
    code, out, err = run_cli(capsys, "series", "--sf", "mu-q:1/3,3/2", "--K", "6")
    assert code == 0 and err == ""
    assert len(calls) == 1


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    def broken(x):
        raise ValueError("arithmetic bug")

    monkeypatch.setattr(cli, "virial_coefficients", broken)
    with pytest.raises(ValueError, match="arithmetic bug"):
        main(["virial", "--sf", "mu:1/4", "--K", "3"])


# Every package error the CLI can meet is either input the user can fix (exit 2
# or 3, see test_exit_codes) or a broken engine invariant, which propagates.
USER_FACING = ["DescriptorError", "UnsupportedBackendError"]
INTERNAL = ["MixedBackendError", "NonzeroConstantTermError", "ZeroLinearCoefficientError",
            "UnsupportedOrderError", "UnboundVariableError"]


def test_every_raised_package_error_is_classified():
    assert set(USER_FACING).isdisjoint(INTERNAL)
    assert sorted([*USER_FACING, *INTERNAL]) == sorted(set(errors.__all__) - {"QVirialError"})
    src = Path(cli.__file__).parent
    raised = {name for path in src.glob("*.py") for name in re.findall(r"raise (\w+)\(", path.read_text())}
    package_errors = {name for name in raised if isinstance(getattr(errors, name, None), type)}
    assert package_errors == {*USER_FACING, *INTERNAL}


@pytest.mark.parametrize("name", INTERNAL)
def test_engine_invariant_errors_propagate(monkeypatch, name):
    def broken(x):
        raise getattr(errors, name)("engine bug")

    monkeypatch.setattr(cli, "virial_coefficients", broken)
    with pytest.raises(getattr(errors, name), match="engine bug"):
        main(["virial", "--sf", "mu:1/4", "--K", "3"])


def test_huge_decimal_cells_exit_3_at_once():
    # q**8000002: rendering such a cell took minutes, the exponent bound stops it first
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    argv = ["virial", "--sf", "q-mu:10,-4000000", "--K", "2", "--backend", "decimal:20"]
    done = subprocess.run([sys.executable, "-m", "qvirial", *argv],
                          capture_output=True, text=True, env=env, timeout=10)
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == "qvirial: backend error: a value leaves the decimal exponent range\n"


# -- other subcommands -----------------------------------------------------------


def test_eps_expand_monomial_table(capsys):
    code, out, _ = run_cli(capsys, "eps-expand", "--order", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert "N_power,eps_power,coefficient" in lines
    assert "1,1,-1/2" in lines
    assert "2,3,11/24" in lines
    assert "3,3,-1/4" in lines


def test_eps_expand_fixed_level(capsys):
    code, out, _ = run_cli(capsys, "eps-expand", "--order", "4", "--n", "3", "--format", "csv")
    assert code == 0
    data = [line for line in out.strip().splitlines() if not line.startswith("#")]
    assert data == [
        "eps_power,coefficient",
        "0,3",
        "1,3",
        "2,1",
        "3,0",
        "4,0",
    ]


def test_hamiltonian_table(capsys):
    code, out, _ = run_cli(capsys, "hamiltonian", "--order", "2", "--format", "csv")
    assert code == 0
    data = [line for line in out.strip().splitlines() if not line.startswith("#")]
    assert data == [
        "eps_power,term",
        "0,1/2 + 1*N",
        "1,1/2*N^2",
        "2,1/12*N - 1/4*N^2 + 1/6*N^3",
    ]


def test_hamiltonian_two_parameter_rows(capsys):
    code, out, _ = run_cli(capsys, "hamiltonian", "--order", "1", "--order-mu", "1", "--format", "csv")
    assert code == 0
    data = [line for line in out.strip().splitlines() if not line.startswith("#")]
    assert data[0] == "eps_power,mu_power,term"
    assert "0,0,1/2 + 1*N" in data
    assert "0,1,-1*N^2" in data


def test_series_dump_columns(capsys):
    # every row names its series and variable: particle and pressure in z, fugacity in x
    expected = [[name, var, str(n)] for name, var in (("particle", "z"), ("pressure", "z"), ("fugacity", "x"))
                for n in range(4)]
    for sf, backend in (("mu:1/4", "exact"), ("q-mu:3/2,1/7", "decimal:20"), ("q-eps:order=2", "exact")):
        for fmt in ("csv", "json", "pretty"):
            code, out, err = run_cli(capsys, "series", "--sf", sf, "--K", "3", "--backend", backend, "--format", fmt)
            assert (code, err) == (0, "")
            if fmt == "json":
                payload = json.loads(out)
                header, rows = payload["columns"], [list(row.values())[:3] for row in payload["rows"]]
            elif fmt == "csv":
                body = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
                header, rows = body[0], [row[:3] for row in body[1:]]
            else:  # pretty: the meta lines, one blank line, then the table
                body = [line.split() for line in out.split("\n\n", 1)[1].splitlines()]
                header, rows = body[0], [row[:3] for row in body[1:]]
            assert header[:3] == ["series", "var", "n"], (sf, fmt)
            assert rows == expected, (sf, fmt)


# -- check-paper ------------------------------------------------------------------


def test_check_paper_flags_exactly_the_two_misprints(capsys):
    code, out, _ = run_cli(capsys, "check-paper")
    assert code == 0
    lines = out.strip().splitlines()
    discrepancies = [line for line in lines if line.startswith("DISCREPANCY")]
    assert len(discrepancies) == 2
    assert any("fifth-virial-third-term" in line for line in discrepancies)
    assert any("fugacity-cubic-exponent" in line for line in discrepancies)
    assert "-0.296300" in discrepancies[0]
    assert "-0.000004" in discrepancies[0]
    assert not any(line.startswith("FAIL") for line in lines)
    assert lines[-1].startswith("result: OK")


def test_check_paper_json(capsys):
    code, out, _ = run_cli(capsys, "check-paper", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    statuses = {check["id"]: check["status"] for check in payload["checks"]}
    assert statuses["fifth-virial-third-term"] == "DISCREPANCY"
    assert statuses["fugacity-cubic-exponent"] == "DISCREPANCY"
    assert sum(1 for s in statuses.values() if s == "DISCREPANCY") == 2
    assert all(s in ("PASS", "DISCREPANCY") for s in statuses.values())


@pytest.mark.parametrize(
    "argv, golden",
    [(["check-paper"], "check_paper.txt"), (["check-paper", "--format", "json"], "check_paper.json")],
    ids=["pretty", "json"],
)
def test_check_paper_output_is_pinned(capsys, argv, golden):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == (Path(__file__).parent / "golden" / golden).read_text(encoding="utf-8")


def test_check_paper_reports_a_failed_anchor_and_an_agreeing_misprint(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_check_t_family_endpoints", lambda: False)
    monkeypatch.setattr(cli, "_fugacity_cubic_discrepancy", lambda: (False, "printed and engine agree"))
    code, out, err = run_cli(capsys, "check-paper")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert "FAIL  t-family-endpoints: interpolated family at t=0/t=1 matches the two composite " \
           "models to 40 digits" in lines
    assert "UNEXPECTED-AGREEMENT  fugacity-cubic-exponent: printed and engine agree" in lines
    assert sum(line.startswith("DISCREPANCY (expected misprint)  ") for line in lines) == 1
    assert lines[-1] == "result: FAILED (6 pass, 1 expected misprints, 2 unexpected)"

    code, out, err = run_cli(capsys, "check-paper", "--format", "json")
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert payload["ok"] is False
    assert [(c["id"], c["status"], c["expected"]) for c in payload["checks"]][-3:] == [
        ("t-family-endpoints", "FAIL", "PASS"),
        ("fifth-virial-third-term", "DISCREPANCY", "DISCREPANCY"),
        ("fugacity-cubic-exponent", "UNEXPECTED-AGREEMENT", "DISCREPANCY"),
    ]
    assert [c["status"] for c in payload["checks"]][:6] == ["PASS"] * 6
    assert payload["checks"][-1]["detail"] == "printed and engine agree"


def test_the_closed_form_check_reverts_at_full_order(monkeypatch):
    # the engine's small exact tables are a Lagrange inversion, as the closed
    # forms are; the check compares the forms with the full-order reversion
    def no_engine(x):
        raise AssertionError("the closed-form check must not read the engine's table")

    orders = []
    monkeypatch.setattr(cli, "virial_coefficients", no_engine)
    monkeypatch.setattr(cli, "revert", lambda f, revert=cli.revert: orders.append(f.order) or revert(f))
    assert cli._check_closed_forms()
    assert orders == [5] * 5


def test_check_paper_rejects_csv():
    assert main(["check-paper", "--format", "csv"]) == 2

"""Batch front door: virial tables, series dumps, expansion tables, parameter
sweeps, and the published-anchor consistency report.

Exit codes: 0 success, 2 argument/descriptor/validation error, 3 value not
representable on the requested backend.  Any other exception is a bug and
propagates.  Output is byte-identical across repeated runs.  `_admit` reads and
bounds a job's inputs before any work: the descriptor, the backend, the q-eps
order, the sweeps, then the integer flags in table order, with their floors and
caps; an argv with two faults reports the first.
"""

from __future__ import annotations

import argparse
import decimal
import json
import math
import sys
from fractions import Fraction

from . import __version__
from .errors import DescriptorError, UnsupportedBackendError
from .exact import (
    Backend,
    DecimalBackend,
    SURD,
    SurdRational,
    TruncPoly,
    TruncPolyBackend,
    _text,
    to_decimal,
)
from .perturb import hamiltonian_split, two_param_split
from .series import PowerSeries, compose, revert
from .structfn import (
    Interpolated,
    QBasicOfQuadratic,
    QBasicSeries,
    Quadratic,
    QuadraticOfQBasic,
    UNDEFORMED,
    _QUOTED_CHARS,
    _over_digit_limit,
    _parse_rational,
    _quoted,
    eval_eps,
    eval_structure,
    monomial_expansion,
    parse_descriptor,
)
from .thermo import (
    closed_form_virial,
    fugacity_of_density,
    particle_series,
    pressure_series,
    second_virial_deviation,
    virial_coefficients,
)

DECIMAL_PLACES = 12

# Caps on input whose cost grows without bound; a larger request exits 2
# at once instead of running for hours or exhausting memory.
MAX_ORDER = 100  # --K, and --order / --order-mu of the expansion commands
MAX_LEVEL_DIGITS = 20_000  # eps-expand: --order times the digits of --n, about the widest cell
MAX_DECIMAL_DIGITS = 1000  # decimal:<digits>
MAX_SWEEP_POINTS = 1000  # values of one --sweep, and points of the whole grid


class UsageError(ValueError):
    """Invalid command-line input beyond what argparse checks."""


def _check_cap(value: int, cap: int, what: str) -> None:
    if value > cap:
        text = _text(value)
        shown = text if len(text) <= _QUOTED_CHARS else f"a number of {len(text)} digits"
        raise UsageError(f"{what} is {shown}, above the cap of {cap}")


def _int_flag(text: str) -> int:
    """int(text) for an integer flag, with argparse's message for a bad value;
    a number int() refuses for its length is named by its digit count instead
    of being echoed whole."""
    try:
        return int(text)
    except ValueError:
        digits = text.strip().lstrip("+-")
        if digits.isdecimal():
            raise argparse.ArgumentTypeError(_over_digit_limit(len(digits))) from None
        raise argparse.ArgumentTypeError(f"invalid int value: {_quoted(text)}") from None


# --------------------------------------------------------------------------
# Rendering helpers
# --------------------------------------------------------------------------


def _value_columns(name: str, backend: Backend) -> list[str]:
    return [f"{name}_decimal"] + ([f"{name}_exact"] if backend.is_exact else [])


def _value_cells(value, backend: Backend) -> list[str]:
    """The decimal cell of a value, then its exact cell on an exact backend."""
    if isinstance(value, TruncPoly):
        decimal = value.render(lambda coeff: to_decimal(coeff, DECIMAL_PLACES))
    else:
        decimal = to_decimal(value, DECIMAL_PLACES)
    return [decimal, str(value)] if backend.is_exact else [decimal]


def _format_table(fmt: str, meta: dict[str, str], columns: list[str], rows: list[list[str]]) -> str:
    if fmt == "csv":
        lines = [f"# qvirial {__version__}"]
        lines.extend(f"# {key}={value}" for key, value in meta.items())
        lines.append(",".join(columns))
        lines.extend(",".join(row) for row in rows)
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = {
            "meta": {"tool": "qvirial", "version": __version__, **meta},
            "columns": columns,
            "rows": [dict(zip(columns, row)) for row in rows],
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "pretty":
        widths = [len(c) for c in columns]
        for row in rows:
            widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
        lines = [f"qvirial {__version__}"]
        lines.extend(f"{key} = {value}" for key, value in meta.items())
        lines.append("")
        lines.append("  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip())
        for row in rows:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")  # argparse's choices admit no other: a bug


def _parse_backend_flag(text: str) -> Backend:
    if text == "exact":
        return SURD
    if text.startswith("decimal:"):
        digits = text.split(":", 1)[1]
        try:
            backend = DecimalBackend(_int_flag(digits))
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"bad decimal digit budget: {exc}") from exc
        except ValueError as exc:
            raise UsageError(f"bad decimal digit budget {_quoted(digits)}") from exc
        _check_cap(backend.digits, MAX_DECIMAL_DIGITS, "decimal digit budget")
        return backend
    raise UsageError(f"unknown backend {_quoted(text)} (use exact or decimal:<digits>)")


def _model_meta(args, table=None) -> dict[str, str]:
    meta = {
        "command": args.command,
        "sf": args.sf.describe(),
        "K": str(args.order),
        "backend": args.backend.describe(),
    }
    if table is not None:
        meta["provenance"] = "engine"
        mu = getattr(args.sf, "mu", None)
        if mu is not None:
            # mu = 1/m: two-constituent composite bosons; any other mu is reported, not refused
            unit_fraction = mu > 0 and mu.numerator == 1
            meta["mu"] = str(mu)
            meta["mu_unit_fraction"] = "true" if unit_fraction else "false"
            if unit_fraction:
                meta["m"] = str(mu.denominator)
        meta["first_nonpositive_phi"] = (
            "none" if table.first_nonpositive_phi is None else str(table.first_nonpositive_phi)
        )
    return meta


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def cmd_virial(args) -> tuple[str, int]:
    backend = args.backend
    table = virial_coefficients(particle_series(args.sf, args.order, backend))
    columns = ["k"] + _value_columns("V_k", backend)
    rows = [[str(k)] + _value_cells(value, backend) for k, value in table]
    return _format_table(args.format, _model_meta(args, table), columns, rows), 0


def cmd_series(args) -> tuple[str, int]:
    backend = args.backend
    x = particle_series(args.sf, args.order, backend)
    dumps: list[tuple[str, str, PowerSeries]] = [  # (name, variable, series)
        ("particle", "z", x),
        ("pressure", "z", pressure_series(x)),
        ("fugacity", "x", fugacity_of_density(x)),
    ]
    columns = ["series", "var", "n"] + _value_columns("c_n", backend)
    rows = [
        [name, var, str(n)] + _value_cells(value, backend)
        for name, var, series in dumps
        for n, value in enumerate(series.coeffs)
    ]
    return _format_table(args.format, _model_meta(args), columns, rows), 0


def cmd_eps_expand(args) -> tuple[str, int]:
    meta = {"command": "eps-expand", "order": str(args.expansion_order)}
    if args.n is not None:
        meta["n"] = str(args.n)
        poly = eval_eps(args.n, args.expansion_order)
        columns = ["eps_power", "coefficient"]
        rows = []
        for i in range(args.expansion_order + 1):
            coeff = poly.coefficient(i)
            rows.append([str(i), coeff.render()])
        return _format_table(args.format, meta, columns, rows), 0
    table = monomial_expansion(args.expansion_order, args.expansion_order + 1)
    columns = ["N_power", "eps_power", "coefficient"]
    rows = [
        [str(k), str(i), str(table[(k, i)])]
        for (k, i) in sorted(table)
    ]
    return _format_table(args.format, meta, columns, rows), 0


def cmd_hamiltonian(args) -> tuple[str, int]:
    meta = {"command": "hamiltonian", "order": str(args.expansion_order)}
    if args.order_mu is None:
        split = hamiltonian_split(args.expansion_order)
        columns = ["eps_power", "term"]
        rows = [[str(i), term.render()] for i, term in enumerate(split)]
    else:
        meta["order_mu"] = str(args.order_mu)
        split = two_param_split(args.expansion_order, args.order_mu)
        columns = ["eps_power", "mu_power", "term"]
        rows = [
            [str(i), str(j), poly.render()]
            for (i, j), poly in sorted(split.items())
        ]
    return _format_table(args.format, meta, columns, rows), 0


def _parse_sweep_flag(text: str) -> tuple[str, list[Fraction]]:
    head, sep, spec = text.partition("=")
    parts = spec.split(":")
    param = head.strip()
    # an error line names a long sweep by its parameter
    label = repr(text) if len(text) <= _QUOTED_CHARS else f"on {_quoted(param)}"
    if not sep or len(parts) != 3:
        raise UsageError(f"bad sweep {label}; expected <param>=<start>:<stop>:<step>")
    start, stop, step = (_parse_rational(p) for p in parts)
    if step == 0:
        raise UsageError("sweep step must be nonzero")
    count = (stop - start) // step + 1
    if count < 1:
        raise UsageError(f"sweep {label} produces no values")
    _check_cap(count, MAX_SWEEP_POINTS, f"the value count of sweep {label}")
    return param, [start + i * step for i in range(count)]


def cmd_sweep(args) -> tuple[str, int]:
    backend, param_names = args.backend, [param for param, _ in args.sweep]
    grid: list[tuple[Fraction, ...]] = [()]
    for _, values in args.sweep:
        grid = [point + (v,) for point in grid for v in values]
    try:  # a point the structure function rejects, such as q = 1, came from the user
        point_sfs = [args.sf.replace(**dict(zip(param_names, point))) for point in grid]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    columns = param_names + ["k"] + _value_columns("V_k", backend)
    rows = [
        [str(v) for v in point] + [str(k)] + _value_cells(value, backend)
        for point, point_sf in zip(grid, point_sfs)
        for k, value in virial_coefficients(particle_series(point_sf, args.order, backend))
    ]
    meta = {**_model_meta(args), "provenance": "engine"}
    for param, values in args.sweep:
        meta[f"sweep_{param}"] = ",".join(str(v) for v in values)
    return _format_table(args.format, meta, columns, rows), 0


# --------------------------------------------------------------------------
# check-paper
# --------------------------------------------------------------------------


def _check_monomial_rows() -> bool:
    table = monomial_expansion(3, 3)
    expected = {
        (1, 0): Fraction(1), (1, 1): Fraction(-1, 2), (1, 2): Fraction(1, 3),
        (1, 3): Fraction(-1, 4),
        (2, 1): Fraction(1, 2), (2, 2): Fraction(-1, 2), (2, 3): Fraction(11, 24),
        (3, 2): Fraction(1, 6), (3, 3): Fraction(-1, 4),
    }
    return all(table.get(key) == value for key, value in expected.items())


def _check_hamiltonian_identity() -> bool:
    for order in range(7):
        split = hamiltonian_split(order)
        for n in range(13):
            for i in range(order + 1):
                expected = Fraction(math.comb(n + 1, i + 1) + math.comb(n, i + 1), 2)
                if split[i](n) != expected:
                    return False
    return True


def _check_undeformed_anchors() -> bool:
    table = virial_coefficients(particle_series(UNDEFORMED, 3))
    return (
        table.coefficient(2) == SurdRational({2: Fraction(-1, 8)})
        and table.coefficient(3) == SurdRational({1: Fraction(1, 8), 3: Fraction(-2, 27)})
    )


def _check_quadratic_second_virial() -> bool:
    for mu in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
        table = virial_coefficients(particle_series(Quadratic(mu), 2))
        if table.coefficient(2) != -SURD.half_power(2, 5) * (1 - mu):
            return False
    return True


def _check_deviation_limits() -> bool:
    qs = [Fraction(1, 2), Fraction(2, 3), Fraction(5, 4), Fraction(2), Fraction(3)]
    mus = [Fraction(-1, 2), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1)]
    for q in qs:
        if second_virial_deviation(QuadraticOfQBasic(Fraction(0), q)) != SURD.half_power(2, 7) * (1 - q):
            return False
    for mu in mus:
        if second_virial_deviation(QuadraticOfQBasic(mu, Fraction(1))) != SURD.half_power(2, 5) * mu:
            return False
    return True


def _check_closed_forms() -> bool:
    pairs = [
        (Fraction(1, 4), Fraction(3, 2)),
        (Fraction(1, 3), Fraction(1, 2)),
        (Fraction(-1, 2), Fraction(2)),
        (Fraction(1), Fraction(5, 4)),
        (Fraction(2, 5), Fraction(7, 3)),
    ]
    for mu, q in pairs:
        # V_k = [x**k] P(z(x)) by the full-order reversion: the engine's small
        # tables and z(x) are a Lagrange inversion too, so they would not check the forms
        sf = QuadraticOfQBasic(mu, q)
        x = particle_series(sf, 5)
        table = compose(pressure_series(x), revert(x)).coeffs
        for k in range(2, 6):
            if table[k] != closed_form_virial(sf, k, SURD):
                return False
    return True


def _check_t_family_endpoints() -> bool:
    backend = DecimalBackend(50)
    mu, q = Fraction(1, 4), Fraction(3, 2)
    for pair in ((Interpolated(1, mu, q), QuadraticOfQBasic(mu, q)),
                 (Interpolated(0, mu, q), QBasicOfQuadratic(q, mu))):
        t_end, direct = (virial_coefficients(particle_series(sf, 5, backend)) for sf in pair)
        for (_, a), (_, b) in zip(t_end, direct):
            if abs(a - b) > max(abs(a), abs(b), 1) * decimal.Decimal("1e-40"):
                return False
    return True


def _printed_fifth_virial(sf) -> SurdRational:
    """V_5 as printed: its third term reads -2*phi(3)^3/3^5 where the reversion forces +2*phi(3)^2/3^5."""
    phi3 = eval_structure(sf, 3, SURD)[3]
    return closed_form_virial(sf, 5, SURD) - (phi3 * phi3 + phi3 * phi3 * phi3) * Fraction(2, 243)


def _fifth_virial_discrepancy() -> tuple[bool, str]:
    verbatim = _printed_fifth_virial(UNDEFORMED)
    engine = virial_coefficients(particle_series(UNDEFORMED, 5)).coefficient(5)
    differs = verbatim != engine
    detail = (
        "printed fifth-order closed form has third term -2*phi(3)^3/3^5 where the "
        "reversion algebra forces +2*phi(3)^2/3^5; at mu=0 the printed form gives "
        f"{to_decimal(verbatim, 6)} while the engine gives {to_decimal(engine, 6)} "
        "(the undeformed-gas value)"
    )
    return differs, detail


def _fugacity_cubic_discrepancy() -> tuple[bool, str]:
    engine = fugacity_of_density(particle_series(UNDEFORMED, 3)).coeffs[3]
    phi2 = SURD.from_fraction(2)
    phi3 = SURD.from_fraction(3)
    printed = phi2 * phi2 * phi2 * Fraction(1, 16) - phi3 * SURD.half_power(3, 5)
    differs = printed != engine
    detail = (
        "printed cubic term of the fugacity-of-density inversion carries phi(2)^3 "
        "where the reversion forces phi(2)^2 (the same power slip appears, the other "
        "way, in the printed third-derivative chain); at mu=0 the printed coefficient "
        f"is {to_decimal(printed, 6)} while the engine gives {to_decimal(engine, 6)}"
    )
    return differs, detail


def _eps_comparison_lines() -> list[str]:
    backend = TruncPolyBackend(3)
    table = virial_coefficients(particle_series(QBasicSeries(3), 3, backend))
    v2, v3 = table.coefficient(2), table.coefficient(3)
    return [
        "this model's basic-number gas, expanded in eps = q - 1 (exact):",
        f"  V2(eps) = {v2.render()}",
        f"  V3(eps) = {v3.render()}",
        "published interacting-gas series (different underlying prescription, recorded for comparison only):",
        "  a2(eps) = -1/(4*sqrt(2)) - 1/(48*sqrt(2))*eps^2*(1-eps)",
        "  a3(eps) = -(2/(9*sqrt(3)) - 1/8) - (1/(18*sqrt(3)) - 1/48)*eps^2*(1-eps)",
        "the two disagree already at the linear term (present here, absent there);",
        "that prescription is external and is not reproduced by this package",
    ]


def cmd_check_paper(args) -> tuple[str, int]:
    if args.format == "csv":
        raise UsageError("check-paper reports support pretty or json")
    report = [  # (id, status, expected status, detail)
        (cid, "PASS" if check() else "FAIL", "PASS", detail)
        for cid, check, detail in (
            ("basic-number-monomials", _check_monomial_rows,
             "nine printed monomial-basis coefficients of the basic-number expansion reproduced exactly"),
            ("hamiltonian-split-identity", _check_hamiltonian_identity,
             "ladder-average split equals (phi(N+1)+phi(N))/2 exactly for orders 0..6, N 0..12"),
            ("undeformed-virial-anchors", _check_undeformed_anchors,
             "V2 = -1/(4*sqrt(2)) and V3 = 1/8 - 2/(9*sqrt(3)) exactly in the undeformed limit"),
            ("quadratic-second-virial", _check_quadratic_second_virial,
             "V2 = -(1-mu)/2^(5/2) on a five-point mu grid, vanishing at mu = 1"),
            ("second-virial-deviation-limits", _check_deviation_limits,
             "deviation limits (1-q)/2^(7/2) at mu=0 and mu/2^(5/2) at q=1 hold exactly"),
            ("closed-forms-match-engine", _check_closed_forms,
             "closed forms V2..V5 (corrected fifth-order term) equal engine reversion exactly"),
            ("t-family-endpoints", _check_t_family_endpoints,
             "interpolated family at t=0/t=1 matches the two composite models to 40 digits"),
        )
    ]
    for cid, misprint in (("fifth-virial-third-term", _fifth_virial_discrepancy),
                          ("fugacity-cubic-exponent", _fugacity_cubic_discrepancy)):
        differs, detail = misprint()
        report.append((cid, "DISCREPANCY" if differs else "UNEXPECTED-AGREEMENT", "DISCREPANCY", detail))
    statuses = [status for _, status, _, _ in report]
    unexpected = sum(status != expected for _, status, expected, _ in report)

    if args.format == "json":
        payload = {
            "meta": {"tool": "qvirial", "version": __version__, "command": "check-paper"},
            "checks": [dict(zip(("id", "status", "expected", "detail"), row)) for row in report],
            "notes": {"eps-virial-comparison": _eps_comparison_lines()},
            "ok": not unexpected,
        }
        return json.dumps(payload, indent=2) + "\n", 1 if unexpected else 0

    lines = [f"qvirial {__version__} check-paper"]
    for cid, status, _, detail in report:
        label = "DISCREPANCY (expected misprint)" if status == "DISCREPANCY" else status
        lines.append(f"{label}  {cid}: {detail}")
    lines.append("NOTE  eps-virial-comparison:")
    lines.extend(f"    {line}" for line in _eps_comparison_lines())
    lines.append(
        f"result: {'FAILED' if unexpected else 'OK'} ({statuses.count('PASS')} pass, "
        f"{statuses.count('DISCREPANCY')} expected misprints, {unexpected} unexpected)"
    )
    return "\n".join(lines) + "\n", 1 if unexpected else 0


# --------------------------------------------------------------------------
# Argument parsing and dispatch
# --------------------------------------------------------------------------


def _output_flags(fmt: str = "csv") -> tuple:
    return (("--format", {"default": fmt, "choices": ["csv", "json", "pretty"], "help": "output format"}),
            ("--out", {"default": None, "help": "write output to this path instead of stdout"}))


_MODEL_FLAGS = (
    ("--sf", {"required": True, "help": "structure-function descriptor, e.g. mu:1/4 or mu-q:1/4,3/2"}),
    ("--K", {"dest": "order", "type": _int_flag, "default": 8, "help": "truncation order (default 8)"},
     (2, MAX_ORDER, "truncation order must be >= 2 (at least one nontrivial virial coefficient)")),
    ("--backend", {"default": "exact", "help": "exact | decimal:<digits> (default exact)"}),
) + _output_flags()

# name: (help, handler, flags in the order help lists them); an integer flag
# also carries its (floor, cap, message below the floor) for _admit
_JOBS = {
    "virial": ("virial coefficients V_1..V_K", cmd_virial, _MODEL_FLAGS),
    "series": ("particle, pressure, and fugacity series", cmd_series, _MODEL_FLAGS),
    "eps-expand": ("basic-number expansion tables in eps = q - 1", cmd_eps_expand, (
        ("--order", {"dest": "expansion_order", "type": _int_flag, "default": 6, "help": "eps order"},
         (1, MAX_ORDER, "--order must be >= 1")),
        ("--n", {"dest": "n", "type": _int_flag, "default": None,
                 "help": "fixed level n for the binomial-basis row"},
         (0, None, "--n must be nonnegative")),  # capped with --order, last
    ) + _output_flags()),
    "hamiltonian": ("ladder-average Hamiltonian split", cmd_hamiltonian, (
        ("--order", {"dest": "expansion_order", "type": _int_flag, "default": 4, "help": "eps order"},
         (0, MAX_ORDER, "--order must be >= 0")),
        ("--order-mu", {"dest": "order_mu", "type": _int_flag, "default": None,
                        "help": "also expand in mu up to this order (two-parameter split)"},
         (0, MAX_ORDER, "--order-mu must be >= 0")),
    ) + _output_flags()),
    "sweep": ("virial tables over a parameter grid", cmd_sweep, _MODEL_FLAGS + (
        ("--sweep", {"action": "append", "default": [],
                     "help": "<param>=<start>:<stop>:<step> (repeatable; rationals)"}),
    )),
    "check-paper": ("re-derive the published closed-form anchors and report misprints",
                    cmd_check_paper, _output_flags("pretty")),
}
COMMANDS = tuple(_JOBS)


class _Parser(argparse.ArgumentParser):
    """argparse's parser; its error line names an argument, or the value of a
    --flag=value argument, past _QUOTED_CHARS by its length."""

    _argv = ()

    def parse_known_args(self, args=None, namespace=None):
        self._argv = sys.argv[1:] if args is None else args
        return super().parse_known_args(args, namespace)

    def error(self, message):
        texts = {text for arg in self._argv for text in (arg, arg.partition("=")[2])
                 if len(text) > _QUOTED_CHARS}
        for text in sorted(texts, key=len, reverse=True):  # an argument before the value inside it
            message = message.replace(repr(text), repr(_quoted(text))).replace(text, _quoted(text))
        super().error(message)


def _add_flags(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    _, handler, flags = _JOBS[command]
    for flag, spec, *_ in flags:
        parser.add_argument(flag, **spec)
    parser.set_defaults(command=command, handler=handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full parser: every subcommand, and the top-level --version."""
    parser = _Parser(
        prog="qvirial",
        description="Exact virial expansions for deformed Bose gas models.",
    )
    parser.add_argument("--version", action="version", version=f"qvirial {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, _) in _JOBS.items():
        _add_flags(sub.add_parser(command, help=help_text), command)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """One job's arguments, read by a flat parser of argv[0]'s flags; any other
    argv, or one with leftover arguments, takes the full parser and its messages."""
    if argv and argv[0] in _JOBS:
        job = _add_flags(_Parser(prog=f"qvirial {argv[0]}"), argv[0])
        args, extra = job.parse_known_args(argv[1:])
        if not extra:
            return args
    return build_parser().parse_args(argv)


def _admit(args: argparse.Namespace) -> None:
    """Read and bound a job's inputs in place on `args`, in the order the module
    docstring gives; eps-expand's --order times the digits of --n comes last."""
    if hasattr(args, "sf"):  # virial, series, sweep
        args.sf = parse_descriptor(args.sf)
        args.backend = _parse_backend_flag(args.backend)
        if isinstance(args.sf, QBasicSeries):  # it rides on a TruncPoly backend in eps
            if isinstance(args.backend, DecimalBackend):
                raise UnsupportedBackendError("q-eps series are symbolic in eps; use the exact backend")
            args.backend = TruncPolyBackend(args.sf.order)
            # V_k has eps-degree k - 1 < K, so a higher order changes no cell
            _check_cap(args.sf.order, MAX_ORDER, "the q-eps order")
    if args.command == "sweep":
        if not args.sweep:
            raise UsageError("sweep needs at least one --sweep <param>=<a>:<b>:<step>")
        allowed = () if isinstance(args.sf, QBasicSeries) else args.sf.__slots__
        if not allowed:
            raise UsageError(f"{args.sf.describe()} has no sweepable parameters")
        args.sweep = [_parse_sweep_flag(text) for text in args.sweep]
        params = [param for param, _ in args.sweep]
        for param in params:
            if param not in allowed:
                raise UsageError(
                    f"{_quoted(param)} is not a parameter of {_quoted(args.sf.describe(), str)} (has {allowed})")
        if len(set(params)) != len(params):
            raise UsageError("each parameter can be swept only once")
        _check_cap(math.prod(len(values) for _, values in args.sweep), MAX_SWEEP_POINTS, "sweep grid size")
    for flag, spec, *bounds in _JOBS[args.command][2]:
        value = getattr(args, spec["dest"]) if bounds else None
        if value is not None:
            floor, cap, below = bounds[0]
            if value < floor:
                raise UsageError(below)
            if cap is not None:
                _check_cap(value, cap, flag)
    if args.command == "eps-expand" and args.n is not None:
        _check_cap(args.expansion_order * len(str(args.n)), MAX_LEVEL_DIGITS, "--order times the digits of --n")


def main(argv: list[str] | None = None) -> int:
    """Run one job."""
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        _admit(args)
        text, code = args.handler(args)
    except UnsupportedBackendError as exc:
        print(f"qvirial: backend error: {exc}", file=sys.stderr)
        return 3
    except decimal.Overflow:
        print("qvirial: backend error: a value leaves the decimal exponent range", file=sys.stderr)
        return 3
    except (DescriptorError, UsageError) as exc:
        print(f"qvirial: error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"qvirial: error: cannot write {_quoted(args.out, str)}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


def entry() -> None:
    raise SystemExit(main())

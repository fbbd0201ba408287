"""Output oracle for every benchmark job.

It shares no code with ``qvirial``.  Structure functions are re-derived from
their documented definitions, and the virial coefficients come from an
independent ``Decimal`` computation.  With h(z) = z / x(z), the reversion of
the density series x(z) is z(x) = sum_n x**n [z**(n-1)] h**n / n (Lagrange),
and since x = z dP/dz the virial coefficients are
V_(n+1) = [z**n] h**n / (n+1) (Lagrange-Buermann).  The package instead
reverts x(z) by a triangular solve and composes the pressure series with it.

Every decimal cell must match the oracle to its 12 printed places, and every
exact cell (a surd sum such as ``1/8 - 2/27*sqrt(3)``) is evaluated and must
match the oracle to 40 significant digits.

    check(argv, stdout)  raises OracleError when the output is wrong
"""

from __future__ import annotations

import json
import math
import re
from decimal import Context, Decimal, localcontext
from fractions import Fraction

DECIMAL_PLACES = 12
_CELL_TOL = Decimal("0.5e-12")
_EXACT_DIGITS = 40
MISPRINTS = {"fifth-virial-third-term", "fugacity-cubic-exponent"}


class OracleError(ValueError):
    """A job's output disagrees with the oracle."""


def _option(argv: list[str], flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


# -- tables ------------------------------------------------------------------


def parse_table(text: str, fmt: str) -> tuple[dict, list[str], list[list[str]]]:
    """(meta, columns, rows) of a csv, json or pretty table."""
    if fmt == "json":
        payload = json.loads(text)
        columns = payload["columns"]
        return payload["meta"], columns, [[row[c] for c in columns] for row in payload["rows"]]
    lines = text.splitlines()
    meta = {}
    body = 1
    if fmt == "csv":
        while body < len(lines) and lines[body].startswith("# "):
            key, _, value = lines[body][2:].partition("=")
            meta[key] = value
            body += 1
        split = lambda line: line.split(",")  # noqa: E731
    elif fmt == "pretty":
        while lines[body]:
            key, _, value = lines[body].partition(" = ")
            meta[key] = value
            body += 1
        body += 1
        split = lambda line: re.split(r" {2,}", line.strip())  # noqa: E731
    else:
        raise OracleError(f"unknown format {fmt!r}")
    if not lines[0].startswith("qvirial ") and not lines[0].startswith("# qvirial "):
        raise OracleError(f"missing banner line: {lines[0]!r}")
    return meta, split(lines[body]), [split(line) for line in lines[body + 1:]]


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise OracleError(message)


# -- numbers -----------------------------------------------------------------


def _frac_dec(value: Fraction) -> Decimal:
    return Decimal(value.numerator) / Decimal(value.denominator)


_SURD_TERM = re.compile(r"^(-?)(\d+)(?:/(\d+))?(?:\*sqrt\((\d+)\))?$")


def surd_value(text: str) -> Decimal:
    """Value of a rendered surd sum such as '-7/16*sqrt(2) + 1/81*sqrt(3)'."""
    total = Decimal(0)
    for term in text.replace(" - ", " + -").split(" + "):
        match = _SURD_TERM.match(term)
        if not match:
            raise OracleError(f"malformed exact value {text!r}")
        sign, num, den, rad = match.groups()
        value = Decimal(int(num)) / Decimal(int(den or 1))
        if rad:
            value *= Decimal(int(rad)).sqrt()
        total += -value if sign else value
    return total


_POLY_TERM = re.compile(r"\(((?:[^()]|\(\d+\))*)\)(?:\*eps(?:\^(\d+))?)?")


def eps_terms(text: str) -> dict[int, str]:
    """Coefficients by eps power of a rendered polynomial '(c0) + (c1)*eps + ...'."""
    if text == "0":
        return {}
    terms = {}
    for match in _POLY_TERM.finditer(text):
        power = 0 if match.group(0).endswith(")") else int(match.group(2) or 1)
        terms[power] = match.group(1)
    _expect(" + ".join(f"({c})" + ("" if p == 0 else "*eps" if p == 1 else f"*eps^{p}")
                       for p, c in terms.items()) == text, f"malformed polynomial {text!r}")
    return terms


# -- structure functions -----------------------------------------------------


def _basic(q: Fraction, n: int) -> Fraction:
    return Fraction(n) if q == 1 else (1 - q**n) / (1 - q)


def _quadratic(mu: Fraction, value):
    return (1 + mu) * value - mu * value * value


def _fractions(text: str) -> list[Fraction]:
    return [Fraction(part) for part in text.split(",")]


class EpsPoly:
    """Polynomial in eps with Decimal coefficients, truncated at a fixed order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs) -> None:
        self.coeffs = tuple(coeffs)

    def __add__(self, other: "EpsPoly") -> "EpsPoly":
        return EpsPoly(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __neg__(self) -> "EpsPoly":
        return EpsPoly(-a for a in self.coeffs)

    def __mul__(self, other) -> "EpsPoly":
        if not isinstance(other, EpsPoly):
            return EpsPoly(a * other for a in self.coeffs)
        a, b = self.coeffs, other.coeffs
        return EpsPoly(sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a)))

    __rmul__ = __mul__


class Model:
    """phi(n) for a descriptor, at the current Decimal precision: a Decimal, or
    an EpsPoly for q-eps descriptors."""

    def __init__(self, descriptor: str) -> None:
        self.descriptor = descriptor
        self.kind, _, rest = descriptor.partition(":")
        if self.kind == "t":
            fields = dict(part.split(":") for part in descriptor.split(";"))
            self.t, self.mu, self.q = (Fraction(fields[key]) for key in ("t", "mu", "q"))
        elif self.kind == "q-eps":
            self.order = int(rest.removeprefix("order="))
        elif self.kind in ("mu", "q"):
            setattr(self, self.kind, Fraction(rest))
        elif self.kind == "mu-q":
            self.mu, self.q = _fractions(rest)
        elif self.kind == "q-mu":
            self.q, self.mu = _fractions(rest)
        else:
            raise OracleError(f"unknown descriptor {descriptor!r}")

    def exact_phi(self, n: int) -> Fraction | None:
        """phi(n) as an exact rational, when the variant has one."""
        if self.kind == "mu":
            return _quadratic(self.mu, Fraction(n))
        if self.kind == "q":
            return _basic(self.q, n)
        if self.kind == "mu-q" or (self.kind == "t" and self.t == 1):
            return _quadratic(self.mu, _basic(self.q, n))
        return None

    def _q_of_quadratic(self, n: int) -> Decimal:
        exponent = _quadratic(self.mu, Fraction(n))
        if exponent.denominator == 1:
            power = _frac_dec(self.q ** int(exponent))
        else:
            power = (_frac_dec(exponent) * _frac_dec(self.q).ln()).exp()
        return (1 - power) / _frac_dec(1 - self.q)

    def constant(self, value: int):
        if self.kind == "q-eps":
            return EpsPoly([Decimal(value)] + [Decimal(0)] * self.order)
        return Decimal(value)

    def phi(self, n: int):
        if self.kind == "q-eps":  # [n]_q at q = 1 + eps is sum_i C(n, i+1) eps**i
            return EpsPoly(Decimal(math.comb(n, i + 1)) for i in range(self.order + 1))
        exact = self.exact_phi(n)
        if exact is not None:
            return _frac_dec(exact)
        if self.kind == "q-mu":
            return self._q_of_quadratic(n)
        t = _frac_dec(self.t)
        return t * _frac_dec(_quadratic(self.mu, _basic(self.q, n))) + (1 - t) * self._q_of_quadratic(n)


def pipeline(model: Model, order: int) -> dict[str, list]:
    """Particle, pressure and fugacity series and V_1..V_K, at the current precision."""
    zero, one = model.constant(0), model.constant(1)
    particle, pressure = [zero, one], [zero, one]  # phi(1) = 1 for every variant
    for n in range(2, order + 1):
        phi = model.phi(n)
        root = Decimal(n).sqrt()
        particle.append(phi * (1 / (n * n * root)))
        pressure.append(phi * (1 / (n * n * n * root)))
    # h = z / x(z) = 1 / u with u_i = x_(i+1) and u_0 = 1
    h = [one]
    for m in range(1, order):
        h.append(-sum((particle[i + 1] * h[m - i] for i in range(1, m + 1)), zero))
    fugacity, virial = [zero], [one]
    power = h  # h**n, to degree K - 1
    for n in range(1, order + 1):
        if n > 1:
            power = [sum((power[i] * h[d - i] for i in range(d + 1)), zero) for d in range(order)]
        fugacity.append(power[n - 1] * (Decimal(1) / n))
        if n < order:
            virial.append(power[n] * (Decimal(1) / (n + 1)))
    return {"particle": particle, "pressure": pressure, "fugacity": fugacity, "virial": virial}


# -- cell checks -------------------------------------------------------------


def _check_scalar(want, cell: str, exact: str | None, label: str) -> None:
    if isinstance(want, EpsPoly):
        cells = eps_terms(cell)
        exacts = eps_terms(exact) if exact is not None else None
        want = want.coeffs
    else:
        cells = {0: cell}
        exacts = {0: exact} if exact is not None else None
        want = (want,)
    for power, value in enumerate(want):
        scale = max(Decimal(1), abs(value))
        text = cells.get(power)
        got = Decimal(text) if text is not None else Decimal(0)
        _expect(abs(got - value) <= _CELL_TOL + scale * Decimal("1e-30"),
                f"{label}: decimal cell {text!r} but the oracle gives {value:.20e}")
        _expect(text is None or len(text.rpartition(".")[2]) == DECIMAL_PLACES,
                f"{label}: decimal cell {text!r} does not carry {DECIMAL_PLACES} places")
        if exacts is not None:
            text = exacts.get(power)
            got = surd_value(text) if text is not None else Decimal(0)
            _expect(abs(got - value) <= scale * Decimal(10) ** -_EXACT_DIGITS,
                    f"{label}: exact cell {text!r} is {got:.20e}, the oracle gives {value:.20e}")


def _working_precision(order: int) -> int:
    # V_k reach 1e35 at K = 80 and the series loses about 40 digits to
    # cancellation there; 60 + K digits leave over 50 to spare at every K used.
    return 60 + order


def _backend_label(model: Model, backend: str) -> str:
    return f"truncpoly[eps<={model.order}]" if model.kind == "q-eps" else backend


def _first_nonpositive(model: Model, order: int) -> str | None:
    """Expected first_nonpositive_phi, or None where the oracle cannot decide exactly."""
    if model.kind == "q-eps":
        return "none"
    for n in range(1, order + 1):
        value = model.exact_phi(n)
        if value is None:
            return None
        if value <= 0:
            return str(n)
    return "none"


def _check_model_meta(meta: dict, argv: list[str], model: Model, order: int, backend: str) -> None:
    _expect(meta.get("command") == argv[0], f"meta command {meta.get('command')!r}")
    _expect(meta.get("sf") == model.descriptor, f"meta sf {meta.get('sf')!r}")
    _expect(meta.get("K") == str(order), f"meta K {meta.get('K')!r}")
    _expect(meta.get("backend") == _backend_label(model, backend), f"meta backend {meta.get('backend')!r}")


def check_virial(argv: list[str], stdout: str) -> None:
    sf, order = _option(argv, "--sf"), int(_option(argv, "--K", "8"))
    backend = _option(argv, "--backend", "exact")
    meta, columns, rows = parse_table(stdout, _option(argv, "--format", "csv"))
    model = Model(sf)
    _check_model_meta(meta, argv, model, order, backend)
    first = _first_nonpositive(model, order)
    _expect(first is None or meta.get("first_nonpositive_phi") == first,
            f"first_nonpositive_phi {meta.get('first_nonpositive_phi')!r}, expected {first}")
    exact = not backend.startswith("decimal")
    _expect(columns == ["k", "V_k_decimal"] + (["V_k_exact"] if exact else []), f"columns {columns}")
    _expect([row[0] for row in rows] == [str(k) for k in range(1, order + 1)], "rows are not k = 1..K")
    with localcontext(Context(prec=_working_precision(order))):
        virial = pipeline(model, order)["virial"]
        for row, want in zip(rows, virial):
            _check_scalar(want, row[1], row[2] if exact else None, f"V_{row[0]}")


def check_series(argv: list[str], stdout: str) -> None:
    sf, order = _option(argv, "--sf"), int(_option(argv, "--K", "8"))
    backend = _option(argv, "--backend", "exact")
    meta, columns, rows = parse_table(stdout, _option(argv, "--format", "csv"))
    model = Model(sf)
    _check_model_meta(meta, argv, model, order, backend)
    exact = not backend.startswith("decimal")
    _expect(columns == ["series", "var", "n", "c_n_decimal"] + (["c_n_exact"] if exact else []),
            f"columns {columns}")
    layout = [(name, var, str(n)) for name, var in (("particle", "z"), ("pressure", "z"), ("fugacity", "x"))
              for n in range(order + 1)]
    _expect([tuple(row[:3]) for row in rows] == layout, "series rows out of layout")
    with localcontext(Context(prec=_working_precision(order))):
        series = pipeline(model, order)
        for row in rows:
            want = series[row[0]][int(row[2])]
            _check_scalar(want, row[3], row[4] if exact else None, f"{row[0]}[{row[2]}]")


def _sweep_values(text: str) -> tuple[str, list[Fraction]]:
    param, _, spec = text.partition("=")
    start, stop, step = (Fraction(part) for part in spec.split(":"))
    count = int((stop - start) / step) + 1
    return param, [start + i * step for i in range(count)]


def _with_params(sf: str, values: dict[str, Fraction]) -> str:
    kind, _, rest = sf.partition(":")
    names = {"mu": ("mu",), "q": ("q",), "mu-q": ("mu", "q")}[kind]
    current = dict(zip(names, _fractions(rest)))
    current.update(values)
    return f"{kind}:" + ",".join(str(current[name]) for name in names)


def check_sweep(argv: list[str], stdout: str) -> None:
    sf, order = _option(argv, "--sf"), int(_option(argv, "--K", "8"))
    backend = _option(argv, "--backend", "exact")
    sweeps = [_sweep_values(argv[i + 1]) for i, flag in enumerate(argv) if flag == "--sweep"]
    meta, columns, rows = parse_table(stdout, _option(argv, "--format", "csv"))
    _expect(meta.get("command") == "sweep" and meta.get("sf") == sf and meta.get("K") == str(order),
            f"sweep meta {meta}")
    for param, values in sweeps:
        _expect(meta.get(f"sweep_{param}") == ",".join(map(str, values)), f"sweep_{param} meta")
    exact = not backend.startswith("decimal")
    names = [param for param, _ in sweeps]
    _expect(columns == names + ["k", "V_k_decimal"] + (["V_k_exact"] if exact else []), f"columns {columns}")
    grid = [()]
    for _, values in sweeps:
        grid = [point + (v,) for point in grid for v in values]
    _expect(len(rows) == len(grid) * order, f"{len(rows)} rows for {len(grid)} points")
    with localcontext(Context(prec=_working_precision(order))):
        for index, point in enumerate(grid):
            model = Model(_with_params(sf, dict(zip(names, point))))
            virial = pipeline(model, order)["virial"]
            for k, want in enumerate(virial, start=1):
                row = rows[index * order + k - 1]
                _expect(row[:len(names) + 1] == [str(v) for v in point] + [str(k)], f"sweep row {row[:3]}")
                _check_scalar(want, row[len(names) + 1], row[len(names) + 2] if exact else None,
                              f"{model.descriptor} V_{k}")


# -- expansion tables --------------------------------------------------------


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_add(a: list[Fraction], b: list[Fraction], sign: int = 1) -> list[Fraction]:
    size = max(len(a), len(b))
    a, b = a + [Fraction(0)] * (size - len(a)), b + [Fraction(0)] * (size - len(b))
    return [x + sign * y for x, y in zip(a, b)]


def _choose_polys(count: int, shift: int = 0) -> list[list[Fraction]]:
    """C(N + shift, k) for k = 1..count, each as coefficients of 1, N, N**2, ..."""
    falling, polys = [1], []
    for k in range(1, count + 1):
        previous = falling  # times (N + shift - k + 1)
        falling = [(shift - k + 1) * c for c in previous] + [0]
        for p in range(1, len(falling)):
            falling[p] += previous[p - 1]
        scale = math.factorial(k)
        polys.append([Fraction(c, scale) for c in falling])
    return polys


def _trim(poly: list[Fraction]) -> list[Fraction]:
    while poly and not poly[-1]:
        poly = poly[:-1]
    return poly


_N_TERM = re.compile(r"^(-?\d+(?:/\d+)?)(?:\*N(?:\^(\d+))?)?$")


def parse_number_poly(text: str) -> list[Fraction]:
    """Coefficients of a rendered polynomial in N such as '1/2 + 1*N - 1/4*N^2'."""
    if text == "0":
        return []
    poly: list[Fraction] = []
    for term in text.replace(" - ", " + -").split(" + "):
        match = _N_TERM.match(term)
        if not match:
            raise OracleError(f"malformed polynomial in N {text!r}")
        coeff, power = Fraction(match.group(1)), 0
        if "*N" in term:
            power = int(match.group(2) or 1)
        poly = _poly_add(poly, [Fraction(0)] * power + [coeff])
    return _trim(poly)


def check_eps_expand(argv: list[str], stdout: str) -> None:
    order = int(_option(argv, "--order", "6"))
    level = _option(argv, "--n")
    meta, columns, rows = parse_table(stdout, _option(argv, "--format", "csv"))
    _expect(meta.get("order") == str(order), "eps-expand meta order")
    if level is not None:
        n = int(level)
        _expect(columns == ["eps_power", "coefficient"], f"columns {columns}")
        want = [[str(i), str(math.comb(n, i + 1))] for i in range(order + 1)]
        _expect(rows == want, f"binomial row for n={n} differs")
        return
    _expect(columns == ["N_power", "eps_power", "coefficient"], f"columns {columns}")
    want = {}
    for i, poly in enumerate(_choose_polys(order + 1)):
        for k, coeff in enumerate(poly):
            if coeff and 1 <= k <= order + 1:
                want[(k, i)] = coeff
    got = [((int(k), int(i)), Fraction(c)) for k, i, c in rows]
    _expect(got == sorted(want.items()), "monomial expansion differs")


def _ladder_rows(order: int, with_mu: bool) -> list[tuple[tuple[int, int], list[Fraction]]]:
    """Nonzero ((eps power, mu power), polynomial in N) terms of the ladder
    average (phi(N+1) + phi(N))/2 with phi = (1+mu)[.]_q - mu [.]_q**2."""
    basic = _choose_polys(order + 1)
    shifted = _choose_polys(order + 1, shift=1)
    rows = [((i, 0), _trim([c / 2 for c in _poly_add(b, s)])) for i, (b, s) in enumerate(zip(basic, shifted))]
    if with_mu:
        def square(polys, i):
            out: list[Fraction] = []
            for a in range(i + 1):
                out = _poly_add(out, _poly_mul(polys[a], polys[i - a]))
            return out

        for i in range(order + 1):
            row = _poly_add(_poly_add(basic[i], square(basic, i), -1),
                            _poly_add(shifted[i], square(shifted, i), -1))
            rows.append(((i, 1), _trim([c / 2 for c in row])))
    return sorted((key, poly) for key, poly in rows if poly)


def check_hamiltonian(argv: list[str], stdout: str) -> None:
    order = int(_option(argv, "--order", "4"))
    order_mu = _option(argv, "--order-mu")
    meta, columns, rows = parse_table(stdout, _option(argv, "--format", "csv"))
    _expect(meta.get("order") == str(order), "hamiltonian meta order")
    if order_mu is None:
        _expect(columns == ["eps_power", "term"], f"columns {columns}")
        want = [(i, poly) for (i, _), poly in _ladder_rows(order, False)]
        got = [(int(i), parse_number_poly(term)) for i, term in rows]
    else:
        _expect(columns == ["eps_power", "mu_power", "term"], f"columns {columns}")
        want = _ladder_rows(order, int(order_mu) >= 1)
        got = [((int(i), int(j)), parse_number_poly(term)) for i, j, term in rows]
    _expect(got == want, "ladder-average split differs")


def check_check_paper(argv: list[str], stdout: str) -> None:
    if _option(argv, "--format", "pretty") == "json":
        payload = json.loads(stdout)
        statuses = {check["id"]: check["status"] for check in payload["checks"]}
        _expect(payload["ok"] is True, "check-paper json reports ok = false")
    else:
        statuses = {}
        for line in stdout.splitlines()[1:]:
            head, sep, _ = line.partition(": ")
            status, _, cid = head.rpartition("  ")
            if sep and status and not line.startswith(" "):
                statuses[cid] = "DISCREPANCY" if status.startswith("DISCREPANCY") else status
        _expect(stdout.splitlines()[-1].startswith("result: OK "), "check-paper result line")
    flagged = {cid for cid, status in statuses.items() if status == "DISCREPANCY"}
    _expect(flagged == MISPRINTS, f"check-paper flags {sorted(flagged)}")
    _expect(all(status == "PASS" for cid, status in statuses.items() if cid not in MISPRINTS),
            f"check-paper statuses {statuses}")


CHECKS = {
    "virial": check_virial,
    "series": check_series,
    "sweep": check_sweep,
    "eps-expand": check_eps_expand,
    "hamiltonian": check_hamiltonian,
    "check-paper": check_check_paper,
}


def check(argv: list[str], stdout: str) -> None:
    """Raise OracleError unless `stdout` is the correct output of `argv`."""
    try:
        CHECKS[argv[0]](argv, stdout)
    except OracleError:
        raise
    except (ValueError, KeyError, IndexError, ArithmeticError) as exc:
        raise OracleError(f"unreadable output: {type(exc).__name__}: {exc}") from exc

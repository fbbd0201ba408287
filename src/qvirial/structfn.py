"""Deformation structure functions phi(n) and their exact evaluation.

A structure function defines a deformed oscillator through the spectrum of
its number operator; every variant here satisfies phi(0) = 0 and phi(1) = 1.
The catalogue:

  QBasic(q)                   phi(n) = 1 + q + ... + q**(n-1)   (the basic
                              number [n]_q)
  Quadratic(mu)               phi(n) = (1+mu)*n - mu*n**2       (composite,
                              two-constituent bosons; mu = 1/m cuts the
                              spectrum off at n = m+1)
  QuadraticOfQBasic(mu, q)    phi(n) = (1+mu)*[n]_q - mu*[n]_q**2
  QBasicOfQuadratic(q, mu)    phi(n) = (1 - q**((1+mu)*n - mu*n**2)) / (1-q);
                              the rational exponent leaves the surd ring, so
                              this variant evaluates on the decimal backend
                              only
  Interpolated(t, mu, q)      t*QuadraticOfQBasic + (1-t)*QBasicOfQuadratic
  QBasicSeries(order)         [n]_q with q = 1 + eps kept as a truncated
                              polynomial in eps

A rational variant's descriptor is its class attribute `kind` and its field
values in field order, `mu-q:1/4,3/2`; Interpolated names each field,
`t:1/2;mu:1/4;q:3/2`.  QBasicSeries is `q-eps:order=N`.

`eval_structure` evaluates any variant on a backend from the record's own
fields, as the row phi(0), ..., phi(K) that the Jackson derivative applies to
a whole series.  One integer route, `_phi_ratio`, forms phi(n) of the rational
variants, and Interpolated's QuadraticOfQBasic leg, as one unreduced integer
ratio, with [n]_q = (b**n - a**n) / (b**(n-1) * (b-a)) for q = a/b, which the
backend converts once.  On the decimal backend the QBasicOfQuadratic leg
splits its exponent e = n*(d + m - m*n)/d, mu = m/d, by integer divmod into
floor(e) and f = frac(e), and takes q**e as q**floor(e) * exp(f*ln q): one ln
per row and one exp per distinct f, kept for that call only.  1 - q**e and
1 - q both cancel the leading digits that |1 - q| lacks, so the row runs with
those digits, counted from the rational q, added to the working precision.
`eval_eps` and `monomial_expansion` expose the eps-expansion of the basic
number in the binomial and monomial bases (the latter by signed Stirling
numbers).
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

from .errors import DescriptorError, Frozen, UnsupportedBackendError
from .exact import (
    Backend,
    DecimalBackend,
    Scalar,
    TruncPoly,
    TruncPolyBackend,
)

__all__ = [
    "QBasic",
    "Quadratic",
    "QuadraticOfQBasic",
    "QBasicOfQuadratic",
    "Interpolated",
    "QBasicSeries",
    "UNDEFORMED",
    "eval_structure",
    "eval_eps",
    "monomial_expansion",
    "parse_descriptor",
]


class _Rational(Frozen):
    """A variant with rational fields; its descriptor is `kind:` and the field values."""

    __slots__ = ()

    def describe(self) -> str:
        return f"{self.kind}:{','.join(map(str, self._values()))}"


class QBasic(_Rational):
    __slots__ = ("q",)
    kind = "q"

    def __init__(self, q: Fraction) -> None:
        self._set(Fraction(q))
        if self.q == 1:
            raise ValueError("QBasic stores q != 1; the undeformed limit is Quadratic(0) or QuadraticOfQBasic(mu, 1)")


class Quadratic(_Rational):
    __slots__ = ("mu",)
    kind = "mu"

    def __init__(self, mu: Fraction) -> None:
        self._set(Fraction(mu))


class QuadraticOfQBasic(_Rational):
    """Quadratic deformation applied on top of the basic number: phi_mu([n]_q)."""

    __slots__ = ("mu", "q")
    kind = "mu-q"

    def __init__(self, mu: Fraction, q: Fraction) -> None:
        self._set(Fraction(mu), Fraction(q))


class QBasicOfQuadratic(_Rational):
    """Basic number applied on top of the quadratic deformation: phi_q([n]_mu)."""

    __slots__ = ("q", "mu")
    kind = "q-mu"

    def __init__(self, q: Fraction, mu: Fraction) -> None:
        self._set(Fraction(q), Fraction(mu))
        if self.q == 1:
            raise ValueError("QBasicOfQuadratic stores q != 1; its q -> 1 limit is Quadratic(mu)")
        if self.q <= 0:
            raise ValueError("QBasicOfQuadratic needs q > 0 (rational powers of q)")


class Interpolated(_Rational):
    """Convex combination t*QuadraticOfQBasic + (1-t)*QBasicOfQuadratic."""

    __slots__ = ("t", "mu", "q")
    kind = "t"

    def __init__(self, t: Fraction, mu: Fraction, q: Fraction) -> None:
        self._set(Fraction(t), Fraction(mu), Fraction(q))
        if self.q == 1:
            raise ValueError("Interpolated stores q != 1 (its QBasicOfQuadratic leg requires it)")
        if self.q <= 0:
            raise ValueError("Interpolated needs q > 0")

    def describe(self) -> str:
        return ";".join(f"{name}:{getattr(self, name)}" for name in self.__slots__)


class QBasicSeries(Frozen):
    """[n]_q with q = 1 + eps, kept as a TruncPoly in eps up to `order`."""

    __slots__ = ("order",)

    def __init__(self, order: int) -> None:
        if order < 0:
            raise ValueError("order must be nonnegative")
        self._set(order)

    def describe(self) -> str:
        return f"q-eps:order={self.order}"


StructureFunction = (
    QBasic | Quadratic | QuadraticOfQBasic | QBasicOfQuadratic | Interpolated | QBasicSeries
)

#: phi(n) = n: the undeformed Bose gas.
UNDEFORMED = Quadratic(Fraction(0))


def _phi_ratio(sf: QBasic | Quadratic | QuadraticOfQBasic | Interpolated, n: int) -> tuple[int, int]:
    """phi(n) as an unreduced integer ratio u/v with v > 0; on Interpolated,
    its QuadraticOfQBasic leg."""
    u, v = n, 1  # [n]_q at q = 1, and the quadratic variant's argument
    if not isinstance(sf, Quadratic) and sf.q != 1 and n:
        a, b = sf.q.as_integer_ratio()  # [n]_q = (b**n - a**n) / (b**(n-1) * (b-a))
        u, v = b**n - a**n, b ** (n - 1) * (b - a)
        u, v = (u, v) if v > 0 else (-u, -v)
    if isinstance(sf, QBasic):
        return u, v
    m, d = sf.mu.as_integer_ratio()  # (1+mu)*u/v - mu*(u/v)**2 with mu = m/d
    return u * ((d + m) * v - m * u), d * v * v


def eval_structure(sf: StructureFunction, order: int, backend: Backend) -> tuple[Scalar, ...]:
    """The row phi(0), ..., phi(order) as scalars of the requested backend.

    QBasicOfQuadratic (and Interpolated with t != 1) raise
    UnsupportedBackendError on exact backends: q**((1+mu)*n - mu*n**2) leaves
    the surd ring for non-integer exponents, and the artifact treats the whole
    variant as decimal-only rather than special-casing lucky exponents.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    levels = range(order + 1)
    if isinstance(sf, QBasicSeries):
        if not isinstance(backend, TruncPolyBackend):
            raise UnsupportedBackendError(
                "QBasicSeries evaluates only on a TruncPoly backend in eps"
            )
        cut = min(sf.order, backend.order)  # no eps power past the series' own order
        return tuple(eval_eps(n, cut) for n in levels)
    if isinstance(sf, QBasicOfQuadratic) or isinstance(sf, Interpolated) and sf.t != 1:
        if not isinstance(backend, DecimalBackend):
            raise UnsupportedBackendError(
                f"{_quoted(sf.describe(), str)} needs the decimal backend: rational powers of q leave the exact ring"
            )
        m, d = sf.mu.as_integer_ratio()  # the exponent (1+mu)*n - mu*n**2 over d
        wide = backend.widened(1 - sf.q)
        with wide.arith():
            q_dec = wide.from_fraction(sf.q)
            ln_q, exps, row = q_dec.ln(), {}, []
            for n in levels:
                whole, rem = divmod(n * (d + m - m * n), d)
                if rem not in exps:  # q**(rem/d) = exp(rem/d * ln q), once per rem
                    exps[rem] = (wide.from_fraction(Fraction(rem, d)) * ln_q).exp()
                row.append((1 - q_dec ** whole * exps[rem]) / (1 - q_dec))
            if isinstance(sf, QBasicOfQuadratic):
                return tuple(row)
            # phi(0) = 0 and phi(1) = 1 exactly from this leg: t*1 + (1-t)*1 can round off 1
            t = backend.from_fraction(sf.t)
            return tuple(row[:2]) + tuple(t * backend.from_ratio(*_phi_ratio(sf, n)) + (1 - t) * row[n]
                                          for n in levels[2:])
    if isinstance(sf, (QBasic, Quadratic, QuadraticOfQBasic, Interpolated)):
        return tuple(backend.from_ratio(*_phi_ratio(sf, n)) for n in levels)
    raise TypeError(f"unknown structure function {type(sf).__name__}")


def eval_eps(n: int, order: int) -> TruncPoly:
    """[n]_q at q = 1 + eps: the exact polynomial sum_i C(n, i+1) * eps**i.

    The polynomial has true degree n - 1; `order` truncates it.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if order < 0:
        raise ValueError("order must be nonnegative")
    coeffs = {i: Fraction(math.comb(n, i + 1)) for i in range(min(order, n - 1) + 1)}
    return TruncPoly(order, coeffs)


def _stirling_rows(m: int) -> list[list[int]]:
    """Rows s(0, .) .. s(m, .), each from the one before: s(n+1, k) = s(n, k-1) - n*s(n, k)."""
    rows = [[1]]
    for n in range(m):
        row = rows[-1]
        rows.append([b - n * a for a, b in zip(row + [0], [0] + row)])
    return rows


def monomial_expansion(order_eps: int, order_n: int) -> dict[tuple[int, int], Fraction]:
    """Coefficients of [N]_q in the monomial basis: (N-power, eps-power) -> rational.

    Obtained from the binomial-basis expansion sum_i eps**i * (N)_(i+1)/(i+1)!
    by converting the falling factorials with signed Stirling numbers of the
    first kind: the coefficient of N**k * eps**i is s(i+1, k)/(i+1)!.
    """
    if order_eps < 1 or order_n < 1:
        raise ValueError("orders must be >= 1")
    table: dict[tuple[int, int], Fraction] = {}
    rows = _stirling_rows(order_eps + 1)
    for i in range(order_eps + 1):
        row = rows[i + 1]
        denom = math.factorial(i + 1)
        for k in range(1, min(i + 1, order_n) + 1):
            value = Fraction(row[k], denom)
            if value:
                table[(k, i)] = value
    return table


# --------------------------------------------------------------------------
# Descriptor grammar (shared by the CLI and by golden files)
# --------------------------------------------------------------------------


_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def _parse_rational(text: str) -> Fraction:
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise DescriptorError(f"not a rational number (use p or p/q, not decimals): {_quoted(text)}")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise DescriptorError(f"zero denominator: {_quoted(text)}") from exc
    except ValueError as exc:  # past the str -> int digit limit, which Python 3.10.7 on enforces
        raise DescriptorError(_over_digit_limit(max(map(len, re.findall(r"\d+", text))))) from exc


def _over_digit_limit(digits: int) -> str:
    """The one-line error for a number int() refuses for its length: its digit
    count, not the number itself."""
    return f"a number of {digits} digits is above the {sys.get_int_max_str_digits()}-digit limit on integer conversion"


# An error line names user text, or a number, of more characters by its length.
_QUOTED_CHARS = 40


def _quoted(text: str, show=repr) -> str:
    """show(text) for an error line, or its length past _QUOTED_CHARS characters."""
    return show(text) if len(text) <= _QUOTED_CHARS else f"<{len(text)} characters>"


_KINDS = {cls.kind: cls for cls in (QBasic, Quadratic, QuadraticOfQBasic, QBasicOfQuadratic, Interpolated)}


def _named_parts(text: str) -> list[str]:
    """The values of `t:...;mu:...;q:...` in Interpolated's field order."""
    fields = {}
    for part in text.split(";"):
        key, _, value = part.partition(":")
        if not value:
            raise DescriptorError(f"malformed descriptor part {_quoted(part)}")
        if key.strip() in fields:
            raise DescriptorError(f"t-descriptor repeats the {_quoted(key.strip(), str)}: part")
        fields[key.strip()] = value
    if set(fields) != set(Interpolated.__slots__):
        raise DescriptorError("t-descriptor needs exactly t:, mu:, q: parts")
    return [fields[name] for name in Interpolated.__slots__]


def parse_descriptor(text: str) -> StructureFunction:
    """Parse `q:3/2`, `mu:1/4`, `mu-q:1/4,3/2`, `q-mu:3/2,1/4`,
    `t:1/2;mu:1/4;q:3/2`, or `q-eps:order=6`."""
    text = text.strip()
    kind, sep, rest = text.partition(":")
    if not sep:
        raise DescriptorError(f"malformed descriptor {_quoted(text)}")
    try:
        if kind == "q-eps":
            key, _, value = rest.partition("=")
            if key.strip() != "order" or not re.fullmatch(r"[+-]?\d+", value.strip()):
                raise DescriptorError(f"q-eps descriptor takes order=<int>, not {_quoted(rest)}")
            return QBasicSeries(_parse_rational(value).numerator)
        cls = _KINDS.get(kind)
        if cls is None:
            raise DescriptorError(f"unknown structure-function kind {_quoted(kind)}")
        parts = _named_parts(text) if cls is Interpolated else rest.split(",")
        if len(parts) != len(cls.__slots__):
            raise DescriptorError(f"{_quoted(text)} is not of the form {kind}:{','.join(cls.__slots__)}")
        return cls(*map(_parse_rational, parts))
    except DescriptorError:
        raise
    except ValueError as exc:
        raise DescriptorError(str(exc)) from exc


"""Exact coefficient rings and the high-precision decimal fallback.

Every series in this package is generic over one scalar backend:

  surd       SurdRational -- finite sums  sum_r c_r*sqrt(r)  with rational c_r
             and square-free radicands r, stored as integer numerators over
             one shared denominator, so each ring operation is integer
             arithmetic plus one gcd.  The ring is closed under addition and
             multiplication, and under division by nonzero rationals, which
             is all the series algebra ever needs.  It hosts every
             coefficient of the form  rational / n^(k/2).
  truncpoly  TruncPoly -- polynomials in the one formal deviation eps = q - 1
             with SurdRational coefficients, truncated at a fixed degree.
  decimal    decimal.Decimal at a stated significant-digit budget (plus
             internal guard digits), for values that leave the surd ring;
             `widened(gap)` is the same backend with the digits added that
             subtracting two order-1 values gap apart cancels.

A scalar enters a ring only through its backend's methods: a rational
through `from_ratio(num, den)` (den > 0, not necessarily reduced), which
`from_fraction` delegates to, and n^(-k/2) through `half_power(n, k)`, which
every backend defines for integers n >= 1 and odd k >= 1 and rejects
otherwise with ValueError.  No backend inverts a scalar: every series it
reverts has the linear coefficient 1.  A SurdRational and a TruncPoly mix
from either side, the surd taken as the constant term; a Decimal mixes with
neither.
Each backend's `dot(xs, ys)` equals the left-to-right operator sum of
xs[i]*ys[i] (inside `arith()`) and raises ValueError unless xs and ys are
equally long; the surd `dot` scales each nonzero term once to the lcm of
their denominator products, sums integer numerators over it and normalizes
once per sum, not once per term.  Its cost is one radicand-product table
lookup per radicand pair of a term, none for radicand 1, with the operand
that has fewer radicands outside.

Values are immutable and the operations are pure functions, so everything
here is safe to share between threads.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Iterable, Mapping
from contextlib import nullcontext
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from itertools import starmap

from .errors import (
    Frozen,
    MixedBackendError,
    UnboundVariableError,
    UnsupportedBackendError,
)

__all__ = [
    "radical_normalize",
    "SurdRational",
    "TruncPoly",
    "SurdBackend",
    "TruncPolyBackend",
    "DecimalBackend",
    "SURD",
    "to_decimal",
]

# Guard digits carried by the decimal backend above its stated budget.  The
# high-order virial coefficients arise from ~5-digit cancellations between
# O(0.1) terms, so the stated budget alone would not survive a 40-digit
# cross-check against the exact ring.
_GUARD_DIGITS = 15

# Working digits past which the decimal backend refuses a computation instead
# of running it; one ln at the cap takes about 1.5 s (Python 3.11, one core).
_MAX_WORKING_DIGITS = 4000

# The decimal backend's exponent range: past it a value overflows (or rounds to
# zero) instead of becoming a cell whose quadratic-time rendering takes minutes.
_MAX_EXPONENT = 2 * 10**4


@lru_cache(maxsize=None)
def radical_normalize(n: int) -> tuple[int, int]:
    """Split a positive integer as n = s**2 * r with r square-free.

    Deterministic trial division; idempotent on the r output.
    """
    if n < 1:
        raise ValueError(f"radicand must be a positive integer, got {n}")
    s, r, m = 1, 1, n
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                r *= d
        d += 1 if d == 2 else 2
    return s, r * m


def _half_power_exponent(n: int, k: int) -> int:
    """(k+1)/2, so that n**(-k/2) = sqrt(n) / n**((k+1)/2), for n >= 1 and odd k >= 1."""
    if n < 1:
        raise ValueError(f"base must be a positive integer, got {n}")
    if k < 1 or k % 2 == 0:
        raise ValueError(f"exponent numerator must be an odd positive integer, got {k}")
    return (k + 1) // 2


# The radicand-product table r1 -> {r2: (r, g)}, sqrt(r1)*sqrt(r2) = g*sqrt(r) for square-free
# r1, r2, filled on first use: facts about radicands, never a result, kept for the process.
_RADICAND_PRODUCTS: dict[int, dict[int, tuple[int, int]]] = {}


def _surd(num: dict[int, int], den: int) -> "SurdRational":
    """The canonical sum_r num[r]*sqrt(r) / den for square-free r and den > 0;
    `num` is the caller's fresh dict, which the result may keep."""
    if len(num) > 1:  # one radicand needs no sorting
        num = {r: n for r, n in sorted(num.items()) if n}
    g = math.gcd(den, *num.values())
    if g != 1 or 0 in num.values():
        num = {r: n // g for r, n in num.items() if n}
        den //= g
    out = object.__new__(SurdRational)
    out._num, out._den = num, den
    return out


class SurdRational:
    """Element of Q[sqrt(r) : r square-free]: sum_r _num[r]*sqrt(r) / _den.

    Canonical form: `_den` > 0, radicands ascend, no numerator is zero and
    gcd(_den, *numerators) == 1, so 0 is ({}, 1) and equal values have equal
    fields.  Radicand 1 carries the pure-rational part.  sqrt(a)*sqrt(b)
    normalizes via ab = s**2 * r with r square-free, keeping the ring closed.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, terms: Mapping[int, Fraction | int] | None = None) -> None:
        acc: dict[int, Fraction] = {}
        for rad, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff:
                s, r = radical_normalize(rad)
                acc[r] = acc.get(r, 0) + coeff * s
        den = math.lcm(*(c.denominator for c in acc.values()))
        out = _surd({r: c.numerator * (den // c.denominator) for r, c in acc.items()}, den)
        self._num, self._den = out._num, out._den

    @property
    def terms(self) -> dict[int, Fraction]:
        return {r: Fraction(n, self._den) for r, n in self._num.items()}

    def is_rational(self) -> bool:
        return all(r == 1 for r in self._num)

    def rational_part(self) -> Fraction:
        """The whole value as a Fraction; raises if any surd term is present."""
        if not self.is_rational():
            raise ValueError(f"{self.render()} is not rational")
        return Fraction(self._num.get(1, 0), self._den)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: object) -> "SurdRational":
        if isinstance(other, (int, Fraction)):
            other = SURD.from_fraction(other)
        if isinstance(other, SurdRational):
            d1, d2 = self._den, other._den
            if d1 == d2:
                num = dict(self._num)
                for r, n in other._num.items():
                    num[r] = num.get(r, 0) + n
                return _surd(num, d1)
            g = math.gcd(d1, d2)
            s1, s2 = d2 // g, d1 // g
            num = {r: n * s1 for r, n in self._num.items()}
            for r, n in other._num.items():
                num[r] = num.get(r, 0) + n * s2
            return _surd(num, d1 * s1)
        if isinstance(other, Decimal):
            raise MixedBackendError("cannot mix SurdRational with Decimal")
        return NotImplemented  # a TruncPoly embeds the surd as its constant term

    __radd__ = __add__

    def __neg__(self) -> "SurdRational":
        out = object.__new__(SurdRational)
        out._num, out._den = {r: -n for r, n in self._num.items()}, self._den
        return out

    def __sub__(self, other: object) -> "SurdRational":
        return self.__add__(-other if isinstance(other, (int, Fraction, SurdRational)) else other)

    def __rsub__(self, other: object) -> "SurdRational":
        return (-self).__add__(other)

    def __mul__(self, other: object) -> "SurdRational":
        if isinstance(other, (int, Fraction)):
            n, d = other.as_integer_ratio()
            return _surd({r: c * n for r, c in self._num.items()}, self._den * d)
        if isinstance(other, SurdRational):
            return SURD.dot((self,), (other,))
        if isinstance(other, Decimal):
            raise MixedBackendError("cannot mix SurdRational with Decimal")
        return NotImplemented  # a TruncPoly embeds the surd as its constant term

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "SurdRational":
        if isinstance(other, (int, Fraction)):
            n, d = other.as_integer_ratio()
        elif isinstance(other, SurdRational) and other.is_rational():
            n, d = other._num.get(1, 0), other._den
        elif isinstance(other, SurdRational):
            raise ValueError("general surd inversion is not supported; divisors must be rational")
        else:
            raise MixedBackendError(f"SurdRational can only be divided by a nonzero rational, got {type(other).__name__}")
        if not n:
            raise ZeroDivisionError("division of SurdRational by zero")
        sign = -1 if n < 0 else 1  # the sign moves into the numerators: _den stays positive
        return _surd({r: sign * d * c for r, c in self._num.items()}, self._den * abs(n))

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = SURD.from_fraction(other)
        if isinstance(other, SurdRational):
            return self._den == other._den and self._num == other._num
        return NotImplemented

    def __hash__(self) -> int:
        # a rational value equals its Fraction, so it must hash like one
        if self.is_rational():
            return hash(self.rational_part())
        return hash((self._den, tuple(self._num.items())))

    # -- rendering and numeric evaluation -----------------------------------

    def render(self) -> str:
        """Canonical text form: terms by ascending radicand, e.g. '-7/16*sqrt(2) + 1/81*sqrt(3)'."""
        den = self._den
        return _signed_sum((n, den, "" if r == 1 else f"*sqrt({r})") for r, n in self._num.items())

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"SurdRational({self.render()!r})"


class TruncPoly:
    """Polynomial in eps = q - 1 with SurdRational coefficients, truncated at `order`.

    Powers above `order` are dropped (arithmetic truncates to the smaller
    order, never grows it); zero coefficients are never stored.
    """

    __slots__ = ("_order", "_coeffs")

    def __init__(
        self, order: int, coeffs: Mapping[int, SurdRational | Fraction | int] | None = None
    ) -> None:
        if order < 0:
            raise ValueError("order must be nonnegative")
        self._order = order
        clean = {}
        for power, c in sorted((coeffs or {}).items()):
            if power < 0:
                raise ValueError(f"bad eps power {power}")
            if power <= order and c:
                clean[power] = c if isinstance(c, SurdRational) else SURD.from_fraction(c)
        self._coeffs = clean

    @property
    def order(self) -> int:
        return self._order

    @property
    def coeffs(self) -> dict[int, SurdRational]:
        return dict(self._coeffs)

    def coefficient(self, power: int) -> SurdRational:
        return self._coeffs.get(power, SurdRational())

    def _as_poly(self, value) -> "TruncPoly | None":
        if isinstance(value, (int, Fraction, SurdRational)):
            return TruncPoly(self._order, {0: value})
        if isinstance(value, TruncPoly):
            return value
        if isinstance(value, Decimal):
            raise MixedBackendError("cannot mix TruncPoly with Decimal")
        return None

    def __add__(self, other: object) -> "TruncPoly":
        other = self._as_poly(other)
        if other is None:
            return NotImplemented
        merged = dict(self._coeffs)
        for e, c in other._coeffs.items():
            merged[e] = merged[e] + c if e in merged else c
        return TruncPoly(min(self._order, other._order), merged)

    __radd__ = __add__

    def __neg__(self) -> "TruncPoly":
        return TruncPoly(self._order, {e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other: object) -> "TruncPoly":
        other = self._as_poly(other)
        if other is None:
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other: object) -> "TruncPoly":
        return (-self).__add__(other)

    def __mul__(self, other: object) -> "TruncPoly":
        if isinstance(other, (int, Fraction, SurdRational)):
            return TruncPoly(self._order, {e: c * other for e, c in self._coeffs.items()})
        if isinstance(other, TruncPoly):
            order = min(self._order, other._order)
            acc: dict[int, SurdRational] = {}
            for e1, c1 in self._coeffs.items():
                for e2, c2 in other._coeffs.items():
                    e = e1 + e2
                    if e <= order:
                        acc[e] = acc[e] + c1 * c2 if e in acc else c1 * c2
            return TruncPoly(order, acc)
        if isinstance(other, Decimal):
            raise MixedBackendError("cannot mix TruncPoly with Decimal")
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "TruncPoly":
        if not isinstance(other, (int, Fraction, SurdRational)):
            raise MixedBackendError("TruncPoly can only be divided by a nonzero rational")
        coeffs = self._coeffs or {0: SurdRational()}  # zero still rejects a bad divisor
        return TruncPoly(self._order, {e: c / other for e, c in coeffs.items()})

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, SurdRational)):
            other = TruncPoly(self._order, {0: other})
        if isinstance(other, TruncPoly):
            return self._order == other._order and self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        # a constant polynomial equals its coefficient, so it must hash like it
        if self._coeffs.keys() <= {0}:
            return hash(self.coefficient(0))
        return hash((self._order, tuple(self._coeffs.items())))

    def render(self, coeff_fmt: Callable[[SurdRational], str] | None = None) -> str:
        """Canonical text form: '(c0) + (c1)*eps + (c2)*eps^2 + ...' by ascending power.

        `coeff_fmt` renders each coefficient in place of the exact form; with
        it, the zero polynomial renders as its one zero coefficient, '(0...)'.
        """
        if not self._coeffs and coeff_fmt is None:
            return "0"
        fmt = coeff_fmt or SurdRational.render
        parts = []
        for e, c in (self._coeffs or {0: SurdRational()}).items():
            power = "" if e == 0 else "*eps" if e == 1 else f"*eps^{e}"
            parts.append(f"({fmt(c)}){power}")
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"TruncPoly({self._order}, {self.render()!r})"


Scalar = Fraction | SurdRational | TruncPoly | Decimal
_ZERO, _ONE = _surd({}, 1), _surd({1: 1}, 1)  # shared: values are immutable


# --------------------------------------------------------------------------
# Backends
# --------------------------------------------------------------------------


class _Backend(Frozen):
    """What every backend shares: no arithmetic context, rationals through
    `from_ratio`, and `dot` as the left-to-right operator sum."""

    __slots__ = ()

    def arith(self):
        return nullcontext()

    def from_fraction(self, value):
        return self.from_ratio(*Fraction(value).as_integer_ratio())

    def dot(self, xs, ys):
        return sum(starmap(operator.mul, zip(xs, ys, strict=True)), self.zero)


class SurdBackend(_Backend):
    """SurdRational scalars: the default exact backend for all series work."""

    __slots__ = ()
    is_exact = True
    zero, one = _ZERO, _ONE

    def from_ratio(self, num: int, den: int) -> SurdRational:
        return _surd({1: num}, den)

    def half_power(self, n: int, k: int) -> SurdRational:
        """Exact n**(-k/2), as sqrt(n) / n**((k+1)/2)."""
        e = _half_power_exponent(n, k)
        s, r = radical_normalize(n)
        return _surd({r: s}, n**e)

    def dot(self, xs, ys) -> SurdRational:
        """sum_i xs[i]*ys[i] for equally long xs, ys, over the lcm of the
        nonzero terms' denominator products, normalized once.  Per term the operand
        with fewer radicands runs outside; an outer radicand 1 adds n1*n2
        straight into the inner key, any other fetches its row of the
        radicand-product table once and adds n1*n2*g per pair."""
        terms = [(x._num, y._num, x._den * y._den) for x, y in zip(xs, ys, strict=True) if x._num and y._num]
        den = math.lcm(*[d for _, _, d in terms])
        acc = {}
        get = acc.get
        for xn, yn, d in terms:
            if len(xn) > len(yn):
                xn, yn = yn, xn
            s = den // d
            for r1, n1 in xn.items():
                n1 *= s
                if r1 == 1:
                    for r2, n2 in yn.items():
                        acc[r2] = get(r2, 0) + n1 * n2
                    continue
                row = _RADICAND_PRODUCTS.setdefault(r1, {})
                for r2, n2 in yn.items():
                    try:
                        rad, g = row[r2]
                    except KeyError:
                        g = math.gcd(r1, r2)
                        rad, g = row[r2] = (r1 // g) * (r2 // g), g
                    acc[rad] = get(rad, 0) + n1 * n2 * g
        return _surd(acc, den)

    def describe(self) -> str:
        return "exact"


class TruncPolyBackend(_Backend):
    """TruncPoly scalars: polynomials in eps = q - 1 truncated at `order`."""

    __slots__ = ("order",)
    is_exact = True

    def __init__(self, order: int) -> None:
        self._set(order)

    @property
    def zero(self) -> TruncPoly:
        return TruncPoly(self.order)

    @property
    def one(self) -> TruncPoly:
        return TruncPoly(self.order, {0: 1})

    def from_ratio(self, num: int, den: int) -> TruncPoly:
        return self.from_surd(SURD.from_ratio(num, den))

    def from_surd(self, value: SurdRational) -> TruncPoly:
        return TruncPoly(self.order, {0: value})

    def half_power(self, n: int, k: int) -> TruncPoly:
        return self.from_surd(SURD.half_power(n, k))

    def describe(self) -> str:
        return f"truncpoly[eps<={self.order}]"


class DecimalBackend(_Backend):
    """decimal.Decimal scalars at `digits` significant digits (+ guard digits)."""

    __slots__ = ("digits",)
    is_exact = False
    zero, one = Decimal(0), Decimal(1)

    def __init__(self, digits: int = 50) -> None:
        if digits < 1:
            raise ValueError("digit budget must be >= 1")
        self._set(digits)

    @property
    def context(self) -> Context:
        return Context(prec=self.digits + _GUARD_DIGITS, Emax=_MAX_EXPONENT, Emin=-_MAX_EXPONENT)

    def arith(self):
        return localcontext(self.context)

    def widened(self, gap: Fraction) -> DecimalBackend:
        """This backend with floor(log10(1/|gap|)) more digits for 0 < |gap| < 1:
        the leading digits that cancel when two values of order 1 that differ
        by gap are subtracted; itself when none cancel.  Past
        _MAX_WORKING_DIGITS working digits it raises UnsupportedBackendError."""
        num, den = abs(gap.numerator), gap.denominator
        lost = len(_text(den // num)) - 1 if num < den else 0
        if not lost:
            return self
        prec = self.digits + _GUARD_DIGITS + lost
        if prec > _MAX_WORKING_DIGITS:
            raise UnsupportedBackendError(
                f"{self.describe()} would need {prec} working digits to absorb {lost} cancelled digits,"
                f" above the cap of {_MAX_WORKING_DIGITS}"
            )
        return DecimalBackend(self.digits + lost)

    def from_ratio(self, num: int, den: int) -> Decimal:
        with self.arith():
            return Decimal(num) / Decimal(den)

    def half_power(self, n: int, k: int) -> Decimal:
        e = _half_power_exponent(n, k)
        with self.arith():
            return Decimal(n).sqrt() / Decimal(n) ** e

    def describe(self) -> str:
        return f"decimal:{self.digits}"


SURD = SurdBackend()

Backend = SurdBackend | TruncPolyBackend | DecimalBackend


# --------------------------------------------------------------------------
# Decimal rendering
# --------------------------------------------------------------------------


def _text(n: int) -> str:
    """str(n), also past the interpreter's int-to-str digit limit: Decimal(int) is exact."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def _signed_sum(terms: Iterable[tuple[int, int, str]]) -> str:
    """'-a*s + b*t' from (numerator, denominator > 0, suffix) triples, zeros skipped; '0' if none."""
    parts = []
    for n, d, s in terms:
        if n:  # n/d in lowest terms
            g = math.gcd(n, d)
            parts.append(f"{'-' if n < 0 else '+'} {_text(abs(n) // g)}{f'/{_text(d // g)}' if d > g else ''}{s}")
    text = " ".join(parts)
    if not text:
        return "0"
    return text[2:] if text[0] == "+" else "-" + text[2:]


def _round_fixed(num: int, den: int, digits: int) -> str:
    """num/den (den > 0) rounded half-even to `digits` >= 1 places, never '-0.0...'."""
    q, r = divmod(num * 10**digits, den)
    if 2 * r > den or (2 * r == den and q % 2):
        q += 1
    text = _text(abs(q)).rjust(digits + 1, "0")
    return f"{'-' if q < 0 else ''}{text[:-digits]}.{text[-digits:]}"


def _round_surd(value: SurdRational, digits: int) -> str:
    """Certified rounding of an irrational surd sum.

    At scale S = 10**(digits+extra) each n*sqrt(r)*S lies between consecutive
    integers (isqrt of its square), so the value times S*_den lies in
    [lo, lo + #terms].  Rounding is monotone: once both ends round alike, that
    is the rounding of the value itself.  An irrational value is never a tie,
    so raising `extra` always ends the loop.
    """
    extra = 20
    while True:
        scale = 10 ** (digits + extra)
        lo = 0
        for r, n in value._num.items():
            m = math.isqrt(n * n * scale * scale * r)
            lo += m if n > 0 else -m - 1
        low = _round_fixed(lo, scale * value._den, digits)
        if low == _round_fixed(lo + len(value._num), scale * value._den, digits):
            return low
        extra += 20


def to_decimal(scalar: Scalar, digits: int) -> str:
    """Correctly rounded fixed-point rendering with `digits` digits after the point.

    Every scalar is rounded half-even from its exact value by one integer
    routine: a Decimal or Fraction is an exact rational, and an irrational
    surd sum is bracketed between integers until the rounding is certain
    (surds with distinct radicands are linearly independent over Q, so such a
    sum is never exactly a tie).  A TruncPoly has no single value: render its
    coefficients instead.
    """
    if digits < 1:
        raise ValueError("digit budget must be >= 1")
    if isinstance(scalar, TruncPoly):
        raise UnboundVariableError(
            f"{scalar.render()} is a polynomial in eps; render its coefficients decimally"
        )
    if isinstance(scalar, SurdRational):
        if not scalar.is_rational():
            return _round_surd(scalar, digits)
        scalar = scalar.rational_part()  # may sit exactly on a tie
    if isinstance(scalar, (int, Fraction, Decimal)):
        return _round_fixed(*scalar.as_integer_ratio(), digits)
    raise TypeError(f"unsupported scalar type {type(scalar).__name__}")

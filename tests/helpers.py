"""Shared test utilities: independent decimal oracles, comparison helpers and
a Horner reference for series composition."""

from decimal import Context, Decimal, localcontext
from fractions import Fraction
import random

from qvirial import PowerSeries


def surd_oracle_decimal(terms: dict[int, Fraction], prec: int = 60) -> Decimal:
    """Independent numeric value of sum_r c_r*sqrt(r), straight from the decimal module."""
    with localcontext(Context(prec=prec)):
        total = Decimal(0)
        for r, c in terms.items():
            total += Decimal(c.numerator) / Decimal(c.denominator) * Decimal(r).sqrt()
        return +total


def sig_agree(a: Decimal, b: Decimal, sig: int) -> bool:
    """True when a and b agree to `sig` significant digits (scale-relative)."""
    if a == b:
        return True
    with localcontext(Context(prec=sig + 30)):
        scale = max(abs(a), abs(b))
        return abs(a - b) <= scale * Decimal(10) ** (-sig)


def rand_fraction(rng: random.Random, lo: int = -3, hi: int = 3, max_den: int = 12) -> Fraction:
    den = rng.randint(1, max_den)
    num = rng.randint(lo * den, hi * den)
    return Fraction(num, den)


def rand_positive_q(rng: random.Random, max_den: int = 12) -> Fraction:
    """Random rational q with 0 < q <= 3 and q != 1."""
    while True:
        den = rng.randint(1, max_den)
        num = rng.randint(1, 3 * den)
        q = Fraction(num, den)
        if q != 1:
            return q


def horner_compose(outer: PowerSeries, inner: PowerSeries) -> PowerSeries:
    """outer(inner) by Horner's rule, truncated at min(K_outer, K_inner): a
    reference for compose's power-sum form (the inner needs c_0 = 0)."""
    k = min(outer.order, inner.order)
    backend = outer.backend
    with backend.arith():
        inner_k = PowerSeries(inner.var, backend, inner.coeffs[: k + 1])
        acc = PowerSeries.from_terms(inner.var, backend, k, {0: outer.coeffs[k]})
        for j in range(k - 1, -1, -1):
            acc = acc * inner_k
            acc = PowerSeries(
                inner.var, backend,
                (acc.coeffs[0] + outer.coeffs[j],) + acc.coeffs[1:],
            )
        return acc

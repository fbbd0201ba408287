"""Shared test utilities: independent decimal oracles, comparison helpers, the
identity series, operator-per-term references for series products, reversion
and composition (Horner), a Fraction-per-term reference for the surd ring, a
Lagrange-Buermann virial oracle on it, a hypothesis strategy for one-radicand
surds, and Fraction-list references for the ladder splits, the rational
structure functions and polynomial evaluation."""

from decimal import Context, Decimal, localcontext
from fractions import Fraction
from itertools import zip_longest
import math
import random

from hypothesis import strategies as st

from qvirial import (
    PowerSeries,
    QBasic,
    Quadratic,
    QuadraticOfQBasic,
    SURD,
    SurdRational,
    radical_normalize,
)


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


surd_coeff_st = st.fractions(min_value=-2, max_value=2, max_denominator=6).flatmap(
    lambda c: st.sampled_from([1, 2, 3, 5]).map(lambda r: SurdRational({r: c}))
)


def identity_series(var: str, order: int) -> PowerSeries:
    """The surd series var + 0*var**2 + ... + 0*var**order."""
    return PowerSeries(var, SURD, [SURD.zero, SURD.one] + [SURD.zero] * (order - 1))


def horner_compose(outer: PowerSeries, inner: PowerSeries) -> PowerSeries:
    """outer(inner) by Horner's rule, truncated at min(K_outer, K_inner): a
    reference for compose's power-sum form (the inner needs c_0 = 0)."""
    k = min(outer.order, inner.order)
    backend = outer.backend
    with backend.arith():
        inner_k = PowerSeries(inner.var, backend, inner.coeffs[: k + 1])
        acc = PowerSeries(inner.var, backend, [outer.coeffs[k]] + [backend.zero] * k)
        for j in range(k - 1, -1, -1):
            acc = acc * inner_k
            acc = PowerSeries(
                inner.var, backend,
                (acc.coeffs[0] + outer.coeffs[j],) + acc.coeffs[1:],
            )
        return acc


def convolve(left: PowerSeries, right: PowerSeries) -> PowerSeries:
    """left * right truncated at the smaller order by the double loop over
    nonzero coefficient pairs, one ring operation per term: a reference for
    PowerSeries.__mul__'s dot products."""
    k = min(left.order, right.order)
    a, b = left.coeffs, right.coeffs
    backend = left.backend
    with backend.arith():
        out = [backend.zero] * (k + 1)
        for i in range(k + 1):
            if not a[i]:
                continue
            for j in range(k - i + 1):
                if b[j]:
                    out[i + j] = out[i + j] + a[i] * b[j]
        return PowerSeries(left.var, backend, out)


def loop_revert(f: PowerSeries, var: str = "x") -> PowerSeries:
    """The compositional inverse of f (c_0 = 0, invertible c_1) by the power
    table filled one ring operation per term: a reference for revert's dot
    products."""
    k, backend = f.order, f.backend
    zero = backend.zero
    inv_c1 = backend.invert_unit(f.coeffs[1])
    with backend.arith():
        g = [zero, inv_c1]
        power = [[], g]  # power[j][m] = [x^m] g**j; power[1] aliases g
        for m in range(2, k + 1):
            power.append([zero] * m)
            residual = zero
            for j in range(2, m + 1):
                coeff = zero
                for i in range(j - 1, m):
                    if power[j - 1][i]:
                        coeff = coeff + power[j - 1][i] * g[m - i]
                power[j].append(coeff)
                if f.coeffs[j]:
                    residual = residual + f.coeffs[j] * coeff
            g.append(-residual * inv_c1)
        return PowerSeries(var, backend, g)


class FractionSurd:
    """sum_r c_r*sqrt(r) as a map radicand -> Fraction: the surd ring one
    Fraction per term, kept as the reference for SurdRational's integer form."""

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for rad, coeff in terms.items():
                coeff = Fraction(coeff)
                if not coeff:
                    continue
                s, r = radical_normalize(rad)
                clean[r] = clean.get(r, Fraction(0)) + coeff * s
        self.terms = {r: c for r, c in sorted(clean.items()) if c}

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FractionSurd({1: other})
        merged = dict(self.terms)
        for r, c in other.terms.items():
            merged[r] = merged.get(r, Fraction(0)) + c
        return FractionSurd(merged)

    def __neg__(self):
        return FractionSurd({r: -c for r, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, FractionSurd) else -Fraction(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FractionSurd({r: c * other for r, c in self.terms.items()})
        acc = {}
        for r1, c1 in self.terms.items():
            for r2, c2 in other.terms.items():
                # r1, r2 square-free: r1*r2 = g**2 * (r1/g)*(r2/g) with g = gcd
                g = math.gcd(r1, r2)
                rad = (r1 // g) * (r2 // g)
                acc[rad] = acc.get(rad, Fraction(0)) + c1 * c2 * g
        return FractionSurd(acc)

    def __truediv__(self, other):
        return self * (1 / Fraction(other))

    def __pow__(self, exponent):
        out = FractionSurd({1: 1})
        for _ in range(exponent):
            out = out * self
        return out

    def __eq__(self, other):
        return self.terms == other.terms

    def render(self):
        if not self.terms:
            return "0"
        parts = []
        for i, (r, c) in enumerate(self.terms.items()):
            body = str(abs(c)) if r == 1 else f"{abs(c)}*sqrt({r})"
            if i == 0:
                parts.append(("-" if c < 0 else "") + body)
            else:
                parts.append(("- " if c < 0 else "+ ") + body)
        return " ".join(parts)


def _convolve_surd(p: list, q: list) -> list:
    """p*q truncated to len(p), one FractionSurd product per term."""
    out = [FractionSurd() for _ in p]
    for i, a in enumerate(p):
        for j in range(len(p) - i):
            out[i + j] = out[i + j] + a * q[j]
    return out


def lagrange_virials(sf, order: int) -> list:
    """V_1..V_order as FractionSurds by Lagrange-Buermann inversion, sharing no
    code with series.py or SurdRational: with x(z) = z*a(z),
    a = sum_n phi(n) z**(n-1) / n**(5/2) and H = z/x(z) = 1/a,
    V_k = [z**(k-1)] H**(k-1) / k, the powers by plain convolutions."""
    # n**(-5/2) = sqrt(n)/n**3; H = 1/a needs a_0 = phi(1) = 1
    a = [FractionSurd({n: fraction_phi(sf, n) / n**3}) for n in range(1, order + 1)]
    assert a[0] == FractionSurd({1: 1})
    h = [FractionSurd({1: 1})]
    for m in range(1, order):
        total = FractionSurd()
        for i in range(1, m + 1):
            total = total + a[i] * h[m - i]
        h.append(-total)
    values, power = [FractionSurd({1: 1})], h  # power = H**(k-1)
    for k in range(2, order + 1):
        values.append(power[k - 1] / k)
        if k < order:
            power = _convolve_surd(power, h)
    return values


# Polynomials in N as plain coefficient lists [c_0, c_1, ...] of Fractions,
# with their own arithmetic, as references for perturb's integer splits.


def poly_add(p: list, q: list) -> list:
    return [a + b for a, b in zip_longest(p, q, fillvalue=Fraction(0))]


def poly_scale(p: list, c) -> list:
    return [a * c for a in p]


def poly_mul(p: list, q: list) -> list:
    out = [Fraction(0)] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_shift(p: list) -> list:
    """p(N+1) by Horner's rule in N+1."""
    out: list = []
    for c in reversed(p):
        out = poly_add(poly_mul(out, [1, 1]), [c])
    return out


def poly_trim(p: list) -> tuple:
    """The coefficients without trailing zeros: a NumberPoly's canonical `coeffs`."""
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return tuple(p)


def binomial_poly(k: int) -> list:
    """C(N, k) as a polynomial in N: N(N-1)...(N-k+1)/k!, by list products."""
    poly = [Fraction(1)]
    for j in range(k):
        poly = poly_mul(poly, [-j, 1])
    return poly_scale(poly, Fraction(1, math.factorial(k)))


def fraction_hamiltonian_terms(order: int) -> tuple[tuple, ...]:
    """The coefficients of hamiltonian_split's terms by list products:
    (2N+1-i)/(2*(i+1)!) times the falling factorial, one Fraction per
    coefficient operation."""
    terms = [[Fraction(1, 2), Fraction(1)]]
    falling = [Fraction(1)]
    for i in range(1, order + 1):
        falling = poly_mul(falling, [-(i - 1), 1])  # now N(N-1)...(N-i+1)
        prefactor = poly_scale([1 - i, 2], Fraction(1, 2 * math.factorial(i + 1)))
        terms.append(poly_mul(prefactor, falling))
    return tuple(poly_trim(t) for t in terms)


def fraction_two_param_terms(order_eps: int, order_mu: int) -> dict[tuple[int, int], tuple]:
    """The coefficients of two_param_split's nonzero terms by list products,
    shifts and squares."""
    basic = [binomial_poly(i + 1) for i in range(order_eps + 1)]
    shifted = [poly_shift(poly) for poly in basic]

    def square(rows: list) -> list:
        out: list = [[] for _ in range(order_eps + 1)]
        for a in range(order_eps + 1):
            for b in range(order_eps + 1 - a):
                out[a + b] = poly_add(out[a + b], poly_mul(rows[a], rows[b]))
        return out

    half = Fraction(1, 2)
    terms = {(i, 0): poly_scale(poly_add(basic[i], shifted[i]), half) for i in range(order_eps + 1)}
    if order_mu >= 1:
        # eps**i rows of [N]_q**2 + [N+1]_q**2
        squares = [poly_add(a, b) for a, b in zip(square(basic), square(shifted))]
        for i in range(order_eps + 1):
            row = poly_add(poly_add(basic[i], shifted[i]), poly_scale(squares[i], -1))
            terms[(i, 1)] = poly_scale(row, half)
    return {key: poly_trim(p) for key, p in terms.items() if poly_trim(p)}


def fraction_phi(sf, n: int) -> Fraction:
    """phi(n) of QBasic, Quadratic or QuadraticOfQBasic in Fractions, with
    [n]_q summed term by term as 1 + q + ... + q**(n-1)."""
    if isinstance(sf, Quadratic):
        return (1 + sf.mu) * n - sf.mu * n * n
    base = sum((sf.q**k for k in range(n)), Fraction(0))
    if isinstance(sf, QBasic):
        return base
    assert isinstance(sf, QuadraticOfQBasic)
    return (1 + sf.mu) * base - sf.mu * base * base


def fraction_horner(coeffs, n) -> Fraction:
    """sum_k coeffs[k]*n**k by Horner's rule in Fractions."""
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * Fraction(n) + c
    return total

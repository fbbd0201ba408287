"""Shared test utilities: independent decimal oracles, comparison helpers, the
identity series, operator-per-term references for series products, reversion
and composition (Horner), a Fraction-per-term reference for the surd ring, a
Lagrange-Buermann virial oracle on it, the same oracle on images of the surd
ring in F_{P^2} for deep tables, a hypothesis strategy for one-radicand surds,
and Fraction-list references for the ladder splits, the rational structure
functions and polynomial evaluation."""

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


def identity_series(order: int) -> PowerSeries:
    """The surd series x + 0*x**2 + ... + 0*x**order."""
    return PowerSeries(SURD, [SURD.zero, SURD.one] + [SURD.zero] * (order - 1))


def horner_compose(outer: PowerSeries, inner: PowerSeries) -> PowerSeries:
    """outer(inner) by Horner's rule, truncated at min(K_outer, K_inner): a
    reference for compose's power-sum form (the inner needs c_0 = 0)."""
    k = min(outer.order, inner.order)
    backend = outer.backend
    with backend.arith():
        inner_k = PowerSeries(backend, inner.coeffs[: k + 1])
        acc = PowerSeries(backend, [outer.coeffs[k]] + [backend.zero] * k)
        for j in range(k - 1, -1, -1):
            acc = acc * inner_k
            acc = PowerSeries(backend, (acc.coeffs[0] + outer.coeffs[j],) + acc.coeffs[1:])
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
        return PowerSeries(backend, out)


def loop_revert(f: PowerSeries) -> PowerSeries:
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
        return PowerSeries(backend, g)


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


# Images of surd tables in F_{P^2}: a randomized identity test (Schwartz) for
# exact tables past the reach of lagrange_virials.

#: Mersenne primes, each 3 mod 4: -1 is a non-residue, so F_{P^2} = F_P[t]/(t**2 + 1).
FP2_PRIMES = (2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1)


class Fp2Embedding:
    """A ring map from the surd ring into F_{P^2}, elements as pairs a + b*t.

    sqrt(p) for a prime p goes to +-p**((P+1)/4) when p is a residue mod P, and
    to +-t*(-p)**((P+1)/4) when it is not, each sign drawn once from `rng`; a
    rational goes to num * den**-1, raising ZeroDivisionError when P | den."""

    def __init__(self, prime: int, rng: random.Random) -> None:
        self.prime, self.rng, self.roots = prime, rng, {}

    def add(self, x, y):
        return (x[0] + y[0]) % self.prime, (x[1] + y[1]) % self.prime

    def mul(self, x, y):
        return (x[0] * y[0] - x[1] * y[1]) % self.prime, (x[0] * y[1] + x[1] * y[0]) % self.prime

    def rational(self, c: Fraction):
        if c.denominator % self.prime == 0:
            raise ZeroDivisionError(f"{self.prime} divides the denominator of {c}")
        return c.numerator * pow(c.denominator, -1, self.prime) % self.prime, 0

    def prime_root(self, p: int):
        if p not in self.roots:
            P, sign = self.prime, self.rng.choice((1, -1))
            if pow(p, (P - 1) // 2, P) == 1:
                self.roots[p] = sign * pow(p, (P + 1) // 4, P) % P, 0
            else:
                self.roots[p] = 0, sign * pow(-p, (P + 1) // 4, P) % P
        return self.roots[p]

    def sqrt(self, n: int):
        """The image of sqrt(n), n >= 1, as the product over n's prime factors."""
        out, p = (1, 0), 2
        while n > 1:
            while n % p == 0:
                out, n = self.mul(out, self.prime_root(p)), n // p
            p += 1
        return out

    def image(self, terms: dict[int, Fraction]):
        """sum_r c_r*sqrt(r) from a surd's `terms` map."""
        total = (0, 0)
        for r, c in terms.items():
            total = self.add(total, self.mul(self.rational(c), self.sqrt(r)))
        return total


def fp2_virials(sf, order: int, emb: Fp2Embedding) -> list:
    """Images of V_1..V_order under `emb`, sharing no code with qvirial:
    a_i = phi(i+1)/(i+1)**(5/2) with phi from fraction_phi, H = 1/a and
    V_k = [z**(k-1)] H**(k-1) / k, the powers by plain convolutions."""
    a = [emb.mul(emb.rational(fraction_phi(sf, n) / n**3), emb.sqrt(n)) for n in range(1, order + 1)]
    assert a[0] == (1, 0)
    h = [(1, 0)]
    for m in range(1, order):
        total = (0, 0)
        for i in range(1, m + 1):
            total = emb.add(total, emb.mul(a[i], h[m - i]))
        h.append((-total[0] % emb.prime, -total[1] % emb.prime))
    values, power = [(1, 0)], h  # power = H**(k-1)
    for k in range(2, order + 1):
        values.append(emb.mul(power[k - 1], emb.rational(Fraction(1, k))))
        if k < order:
            product = [(0, 0)] * len(h)
            for i, x in enumerate(power):
                for j in range(len(h) - i):
                    product[i + j] = emb.add(product[i + j], emb.mul(x, h[j]))
            power = product
    return values


def fp2_table_images(sf, tables: list, rng: random.Random) -> tuple[list, list]:
    """(images of the `terms` maps in `tables`, fp2_virials) under one embedding
    drawn from `rng`, the prime redrawn from FP2_PRIMES while it divides a
    denominator."""
    for prime in FP2_PRIMES:
        emb = Fp2Embedding(prime, rng)
        try:
            return [emb.image(terms) for terms in tables], fp2_virials(sf, len(tables), emb)
        except ZeroDivisionError:
            continue
    raise ZeroDivisionError("every prime in FP2_PRIMES divides a denominator")


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

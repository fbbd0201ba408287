"""Engine virial coefficients against an independent sympy computation.

The oracle shares no code with qvirial: phi(n) is written out here, x(z) is
built with exact sympy.sqrt(n), z(x) comes from Lagrange inversion
[x^n] z = [z^(n-1)] (z/x(z))^n / n, and V_k = [x^k] P(z(x)) is read off the
pressure P(z) = sum_n phi(n) z^n / n^(7/2) composed with z(x)."""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from qvirial import QuadraticOfQBasic, particle_series, virial_coefficients

ORDER = 8  # checks V_2..V_8


def _mul(a, b):
    """Product of two coefficient lists, truncated to their common length."""
    out = [sympy.S.Zero] * len(a)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j in range(len(a) - i):
            out[i + j] += ai * b[j]
    return [sympy.expand(c) for c in out]


def sympy_virials(mu: Fraction, q: Fraction) -> list:
    """V_1..V_ORDER for phi(n) = (1+mu)[n]_q - mu [n]_q^2."""
    mu, q = sympy.Rational(mu), sympy.Rational(q)
    size = ORDER + 1  # coefficients of x^0..x^ORDER

    def phi(n):
        basic = sum(q**i for i in range(n))
        return (1 + mu) * basic - mu * basic**2

    # x(z)/z = sum_n phi(n) z^(n-1) / n^(5/2), and its reciprocal z/x(z)
    w = [phi(n) / sympy.sqrt(n) ** 5 for n in range(1, size + 1)]
    recip = [1 / w[0]]
    for n in range(1, size):
        recip.append(sympy.expand(-sum(w[i] * recip[n - i] for i in range(1, n + 1)) / w[0]))

    z_of_x = [sympy.S.Zero] * size
    power = [sympy.S.One] + [sympy.S.Zero] * (size - 1)
    for n in range(1, size):
        power = _mul(power, recip)  # (z/x(z))^n
        z_of_x[n] = power[n - 1] / n

    pressure = [sympy.S.Zero] * size
    z_power = [sympy.S.One] + [sympy.S.Zero] * (size - 1)
    for n in range(1, size):
        z_power = _mul(z_power, z_of_x)  # z(x)^n
        p_n = phi(n) / sympy.sqrt(n) ** 7
        pressure = [sympy.expand(a + p_n * b) for a, b in zip(pressure, z_power)]
    return pressure[1:]


def as_sympy(value):
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * sympy.sqrt(r) for r, c in value.terms.items()),
        sympy.S.Zero,
    )


@pytest.mark.parametrize(
    "mu, q",
    [(Fraction(1, 3), Fraction(7, 5)), (Fraction(-1, 2), Fraction(1, 2)), (Fraction(1, 4), Fraction(1))],
    ids=["mu-q:1/3,7/5", "mu-q:-1/2,1/2", "mu-q:1/4,1"],
)
def test_engine_matches_sympy_reversion(mu, q):
    table = virial_coefficients(particle_series(QuadraticOfQBasic(mu, q), ORDER))
    expected = sympy_virials(mu, q)
    assert expected[0] == 1
    for k in range(2, ORDER + 1):
        assert sympy.expand(expected[k - 1] - as_sympy(table.coefficient(k))) == 0, k

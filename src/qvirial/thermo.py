"""The deformed Bose gas pipeline, in reduced units.

Everything is computed per V/lambda**3 (lambda the thermal wavelength), with
the oscillator energy scale treated as a unit scalar, so no dimensional
constants appear.  For a structure function phi and fugacity z:

  log-partition density      sum_n z**n / n**(5/2)
  particle density  x(z)   = sum_n phi(n) * z**n / n**(5/2)     (x = lambda**3/v)
  pressure series          = sum_n phi(n) * z**n / n**(7/2)     (P*v/kT numerator)
  fugacity of density z(x) = reversion of x(z)
  virial expansion         = pressure(z(x)) / x = sum_k V_k x**(k-1)

A model enters once, as `particle_series(sf, K, backend)`; the pressure, the
fugacity and the virial table are functions of that x(z) alone, reading K off
x.order and the ring off x.backend.

The engine reverts x(z) only to order n = ceil(K/2), as h, and composes once:
V_k = L_(k-1) - (k-1)*Q_k, Q = pressure(h), L = x*h'/h.  Exact to order K since
z(x) - h lies in x**(n+1): Taylor and one Newton step give pressure(z(x)) = Q - x*Q' + x*L.

Closed forms for V_2..V_5 as polynomials in phi(2)..phi(5) come from Lagrange
inversion: with x = z*a(z), V_k = [z**(k-1)] a(z)**(1-k) / k, the power taken
by J. C. P. Miller's recurrence with ring operators only, so they share no code
with the series engine they cross-check.  The source publication's printed
fifth-order form differs from them by a misprint; `qvirial check-paper`
reports it.
"""

from __future__ import annotations

from .errors import Frozen, UnsupportedOrderError
from .exact import (
    Backend,
    SURD,
    Scalar,
    SurdRational,
    TruncPolyBackend,
    radical_normalize,
)
from .series import PowerSeries, compose, euler_inverse, jackson_apply, revert
from .structfn import StructureFunction, eval_structure

__all__ = [
    "VirialTable",
    "log_partition_series",
    "particle_series",
    "pressure_series",
    "fugacity_of_density",
    "virial_coefficients",
    "closed_form_virial",
    "second_virial_deviation",
]

CLOSED_FORM_MAX_ORDER = 5


def log_partition_series(order: int, backend: Backend = SURD) -> PowerSeries:
    """Reduced log-partition series sum_{n>=1} z**n / n**(5/2)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    coeffs: list[Scalar] = [backend.zero]
    coeffs.extend(backend.half_power(n, 5) for n in range(1, order + 1))
    return PowerSeries(backend, coeffs)


def particle_series(sf: StructureFunction, order: int, backend: Backend = SURD) -> PowerSeries:
    """Reduced particle-number series x(z) = sum_n phi(n) z**n / n**(5/2) to z**order."""
    return jackson_apply(sf, log_partition_series(order, backend))


def pressure_series(x: PowerSeries) -> PowerSeries:
    """Reduced pressure series sum_n phi(n) z**n / n**(7/2) of the density series x(z)."""
    return euler_inverse(x)


def fugacity_of_density(x: PowerSeries) -> PowerSeries:
    """z as a series in the reduced density x = lambda**3/v (reversion of x(z))."""
    return revert(x)


class VirialTable(Frozen):
    """Virial coefficients V_1..V_K of the engine, with admissibility metadata.

    first_nonpositive_phi flags the smallest n with phi(n) <= 0 (the quadratic
    deformation at mu = 1/m cuts the spectrum at n = m+1); the series is still
    computed formally, physical admissibility being the caller's judgement.
    """

    __slots__ = ("values", "first_nonpositive_phi")

    def __init__(self, values: tuple[Scalar, ...], first_nonpositive_phi: int | None = None) -> None:
        self._set(values, first_nonpositive_phi)

    def coefficient(self, k: int) -> Scalar:
        if not 1 <= k <= len(self.values):
            raise IndexError(f"k must be in 1..{len(self.values)}")
        return self.values[k - 1]

    def __iter__(self):
        return iter(enumerate(self.values, start=1))


def _first_nonpositive_phi(x: PowerSeries) -> int | None:
    """The first n with phi(n) <= 0, read off x_n = phi(n) * n**(-5/2): a
    decimal x_n has the sign of phi(n), and so has a surd x_n's term on the
    radicand of n."""
    if isinstance(x.backend, TruncPolyBackend):
        return None  # sign is undefined for symbolic deviations
    for n in range(1, x.order + 1):
        value = x.coeffs[n]
        if isinstance(value, SurdRational):
            value = value.terms.get(radical_normalize(n)[1], 0)
        if value <= 0:
            return n
    return None


def virial_coefficients(x: PowerSeries) -> VirialTable:
    """Virial table V_1..V_K of the density series x(z), K = x.order: revert
    x(z) to order n = ceil(K/2) only, as h, and compose the pressure P with it
    once; V_k = L_(k-1) - (k-1)*Q_k with Q = P(h), L = x*h'/h.  Mod x**(K+1), z(x) = h + d with d in x**(n+1), so P(z(x)) =
    Q + P'(h)*d, and P'(h) = x(h)/h = Q'/h' with Newton's d = -(x(h) - x)/x'(h)
    gives Q - x*Q' + x*L.  L_m = ((m+1)*u_m - sum_{i>=1} u_i*L_(m-i)) / u_0, u = h/x."""
    backend, k, n = x.backend, x.order, (x.order + 1) // 2
    h = revert(PowerSeries(backend, x.coeffs[:n + 1]))
    pad = (backend.zero,) * (k - n)
    q = compose(euler_inverse(x), PowerSeries(backend, h.coeffs + pad)).coeffs
    with backend.arith():
        # u_0 = 1/c_1, so L_m = -c_1 * dot([u_m, u_1, .., u_t], [-(m+1), L_(m-1), .., L_(m-t)]), t = min(m, n-1)
        u, minus_c1, logd = h.coeffs[1:] + pad, -x.coeffs[1], [backend.one]
        for m in range(1, k):
            t = min(m, n - 1)
            ys = [backend.from_ratio(-m - 1, 1)] + logd[m - t:][::-1]
            logd.append(backend.dot((u[m],) + u[1:t + 1], ys) * minus_c1)
        values = tuple(logd[j] - j * q[j + 1] for j in range(k))
    return VirialTable(values, _first_nonpositive_phi(x))


def closed_form_virial(sf: StructureFunction, k: int, backend: Backend = SURD) -> Scalar:
    """V_k (k = 2..5) as an explicit polynomial in phi(2)..phi(5).

    Lagrange inversion of x = z*a(z), a = 1 + sum_{n>=2} phi(n) z**(n-1) / n**(5/2),
    gives V_k = h_(k-1) / k with h = a**(1-k); Miller's recurrence (Knuth, TAOCP
    vol. 2, 4.7) builds it as h_0 = 1, m*h_m = sum_{i=1..m} ((2-k)*i - m)*a_i*h_(m-i).
    """
    if not 2 <= k <= CLOSED_FORM_MAX_ORDER:
        raise UnsupportedOrderError(
            f"closed forms exist for k = 2..{CLOSED_FORM_MAX_ORDER}; use the engine for k = {k}"
        )
    phi = eval_structure(sf, k, backend)
    with backend.arith():
        a = [backend.one] + [phi[n] * backend.half_power(n, 5) for n in range(2, k + 1)]
        h = [backend.one]
        for m in range(1, k):
            h.append(sum((((2 - k) * i - m) * a[i] * h[m - i] for i in range(1, m + 1)), backend.zero) / m)
        return h[k - 1] / k


def second_virial_deviation(sf: StructureFunction, backend: Backend = SURD) -> Scalar:
    """V_2(sf) - V_2(undeformed) = (2 - phi(2)) / 2**(7/2).

    Reduces to (1-q)/2**(7/2) when mu = 0 and to mu/2**(5/2) when q = 1.
    """
    phi2 = eval_structure(sf, 2, backend)[2]
    with backend.arith():
        return (2 - phi2) * backend.half_power(2, 7)

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

The table and z(x) come from Lagrange inversion: with x = z*a(z),
V_k = [z**(k-1)] a(z)**(1-k) / k and [x**k] z = [z**(k-1)] a(z)**(-k) / k.
Surd series up to K = 19 sum both over the partitions of k - 1 in integer
arithmetic, with no series products at all; the two sums differ only in one
binomial weight.  Longer, decimal and eps-polynomial series revert x(z) by
`series.revert` for z(x), and their tables take the series engine, which
reverts x(z) only to order n = ceil(K/2), as h, and composes once:
V_k = L_(k-1) - (k-1)*Q_k, Q = pressure(h), L = x*h'/h.  Exact to order K
since z(x) - h lies in x**(n+1): Taylor and one Newton step give
pressure(z(x)) = Q - x*Q' + x*L.

Closed forms for V_2..V_5 as polynomials in phi(2)..phi(5) take the same
inversion with the power built by J. C. P. Miller's recurrence from ring
operators only.  `qvirial check-paper` cross-checks them against the
full-order reversion, pressure(z(x)), with which they share no code, and
reports the misprint by which the source publication's printed fifth-order
form differs from them.
"""

from __future__ import annotations

import math

from .errors import Frozen, UnsupportedOrderError
from .exact import (
    Backend,
    SURD,
    Scalar,
    SurdBackend,
    SurdRational,
    TruncPolyBackend,
    _surd,
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
# The walk beats the engine up to about K = 40, and a common-denominator power
# table would overtake it from K = 20-28.  K = 20 stays on the engine: perfbench's
# exact K = 20 jobs time its series layers until named stages (ROADMAP item 17) do.
_PARTITION_MAX_ORDER = 19


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
    """z as a series in the reduced density x = lambda**3/v (reversion of x(z),
    which needs c_0 = 0 and c_1 = 1): the partition sum of Lagrange inversion
    where the virial table takes it, `revert` otherwise, with the same
    canonical values."""
    if _takes_partition_sum(x):
        return PowerSeries(x.backend, (x.backend.zero,) + _partition_sum(x, 1))
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
    """Virial table V_1..V_K of the density series x(z), K = x.order, which
    needs c_0 = 0 and c_1 = 1 as every `particle_series` has.

    A surd x(z) of order K <= 19 with one radicand in each coefficient (every
    exact `particle_series`) takes the partition sum of Lagrange inversion,
    `_partition_sum(x, 0)`; any other takes the series engine,
    `_series_virials`.  Both give the same canonical values."""
    values = _partition_sum(x, 0) if _takes_partition_sum(x) else _series_virials(x)
    return VirialTable(values, _first_nonpositive_phi(x))


def _takes_partition_sum(x: PowerSeries) -> bool:
    c = x.coeffs
    return (
        isinstance(x.backend, SurdBackend) and 1 <= x.order <= _PARTITION_MAX_ORDER
        and not c[0] and c[1] == SURD.one and all(len(v._num) <= 1 for v in c)
    )


def _partition_sum(x: PowerSeries, s: int) -> tuple[SurdRational, ...]:
    """[z**n] (1+A)**(-(n+s)) / (n+1) for n = 0..K-1, by Lagrange inversion
    summed over partitions (Comtet, Advanced Combinatorics, 1974, 3.8):
    V_(n+1) for s = 0 and [x**(n+1)] z(x) for s = 1.  With x = z*(1 + A),
    A = sum_i c_(i+1) z**i,

      [z**n] (1+A)**(-(n+s)) = sum over partitions of n, with l parts and
            part i m_i times, of (-1)**l * C(n+l-1+s, l) * l!/prod(m_i!) * prod(c_(i+1)**m_i).

    A depth-first walk adds parts in nonincreasing order, so every node is a
    partition of some n < K, built from its parent by integer products; each
    c_(i+1) is one radicand r_i with an integer numerator and denominator, so
    each node is too.  Each sum is one lcm of its nodes' denominators and one
    normalization."""
    k_max = x.order
    parts = [(i, r, v, x.coeffs[i + 1]._den)  # (i, r_i, numerator, denominator > 0), ascending i
             for i in range(1, k_max) for r, v in x.coeffs[i + 1]._num.items()]
    nodes: list[list[tuple[int, int, int]]] = [[(1, 1, 1)]] + [[] for _ in range(k_max - 1)]  # (num, r, den) by n

    def walk(n, top, length, top_count, multinomial, num, rad, den):
        # the children of a partition of n into `length` parts, the smallest
        # part `top` occurring `top_count` times; multinomial = length!/prod(m_i!)
        for i, r, v, d in parts:
            if i > top or n + i >= k_max:
                break
            count = top_count + 1 if i == top else 1
            m, g = multinomial * (length + 1) // count, math.gcd(rad, r)
            num_i, rad_i, den_i = num * v * g, (rad // g) * (r // g), den * d
            term = math.comb(n + i + length + s, length + 1) * m * num_i
            nodes[n + i].append((term if length % 2 else -term, rad_i, den_i))
            walk(n + i, i, length + 1, count, m, num_i, rad_i, den_i)

    walk(0, k_max, 0, 0, 1, 1, 1, 1)
    values = []
    for n in range(k_max):
        den = math.lcm(*[d for _, _, d in nodes[n]])
        acc: dict[int, int] = {}
        for num, r, d in nodes[n]:
            acc[r] = acc.get(r, 0) + num * (den // d)
        values.append(_surd(acc, den * (n + 1)))
    return tuple(values)


def _series_virials(x: PowerSeries) -> tuple[Scalar, ...]:
    """V_1..V_K by the series engine: revert x(z) to order n = ceil(K/2) only,
    as h, and compose the pressure P with it once; V_k = L_(k-1) - (k-1)*Q_k
    with Q = P(h), L = x*h'/h.  Mod x**(K+1), z(x) = h + d with d in x**(n+1), so P(z(x)) =
    Q + P'(h)*d, and P'(h) = x(h)/h = Q'/h' with Newton's d = -(x(h) - x)/x'(h)
    gives Q - x*Q' + x*L.  L_m = (m+1)*u_m - sum_{i>=1} u_i*L_(m-i), u = h/x, u_0 = 1."""
    backend, k, n = x.backend, x.order, (x.order + 1) // 2
    h = revert(PowerSeries(backend, x.coeffs[:n + 1]))
    pad = (backend.zero,) * (k - n)
    q = compose(euler_inverse(x), PowerSeries(backend, h.coeffs + pad)).coeffs
    with backend.arith():
        # L_m = -dot([u_m, u_1, .., u_t], [-(m+1), L_(m-1), .., L_(m-t)]), t = min(m, n-1)
        u, logd = h.coeffs[1:] + pad, [backend.one]
        for m in range(1, k):
            t = min(m, n - 1)
            ys = [backend.from_ratio(-m - 1, 1)] + logd[m - t:][::-1]
            logd.append(-backend.dot((u[m],) + u[1:t + 1], ys))
        return tuple(logd[j] - j * q[j + 1] for j in range(k))


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

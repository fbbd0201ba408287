"""Truncated formal power series: products, composition, reversion, and the
generalized Jackson / Euler operators.

A PowerSeries is its backend and exactly K+1 coefficients c_0..c_K (zeros
stored explicitly, so order bookkeeping stays honest; ints and Fractions are
converted to backend scalars).  It names no variable: whether a series is in
the fugacity z or the density x is the caller's reading, and `revert` maps
one to the other.  Operations never extend K; a product or composition of
series of different K truncates to the smaller.  The series carry no sum or
scalar product: the gas pipeline needs only the operations below.

The two operators that drive the gas pipeline:

  jackson_apply(sf, f)   c_n -> phi(n) * c_n      (the z-multiplied deformed
                         derivative z*D_z; the undeformed case is the Euler
                         operator z d/dz)
  euler_inverse(f)       c_n -> c_n / n           (its undeformed inverse,
                         defined for series with no constant term)

`compose` cuts outer into blocks of m = isqrt(K) + 1 coefficients and adds
the blocks by Horner's rule in inner**m (Paterson & Stockmeyer, SIAM J.
Comput. 2, 1973; Brent & Kung, J. ACM 25, 1978, section 2): at most m*K**2/2
ring products build the baby powers and K**3/(6m) the giant steps, against
K**3/6 for the power sum sum_j o_j * inner**j.  Up to order 16, `revert` is a
triangular solve for the coefficients (about K**3/6 products); above it, one
Newton step g - g'*(f(g) - x) doubles the order of the inverse of f's first
half for one `compose` and one half-length product, exactly on exact backends.

Cost model: each inner loop (a product's output coefficient, an entry or the
residual of revert's power table) is one backend `dot`: the ring products of
one operator per term, but on surds one normalization per sum, not per term.
A product's dots span only the factors' first to last nonzero coefficients
(Newton's inner is zero-padded), and an even baby power u**(2r) squares u**r
by one dot over each coefficient's lower half.  Past its small exact tables,
the gas pipeline reverts x(z) to order ceil(K/2) only, as h, and composes
once: V_k = L_(k-1) - (k-1)*Q_k, Q = pressure(h), L = x*h'/h, exact as Taylor
and one Newton step show (see `thermo`).  Its K=80 `q-mu:3/2,1/7` table on
decimal:50 makes dots of 34,155 terms in all (61,645 with a full reversion;
78,409 also without span cuts).
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import isqrt

from .errors import (
    MixedBackendError,
    NonzeroConstantTermError,
    ZeroLinearCoefficientError,
)
from .exact import Backend, Scalar
from .structfn import StructureFunction, eval_structure

__all__ = [
    "PowerSeries",
    "compose",
    "revert",
    "jackson_apply",
    "euler_inverse",
]

_DIRECT_REVERT_ORDER = 16  # revert solves longer series by Newton steps


class PowerSeries:
    """sum_{n=0}^{K} c_n * x**n with all coefficients on one backend."""

    __slots__ = ("backend", "coeffs")

    def __init__(self, backend: Backend, coeffs: Sequence[Scalar]) -> None:
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        self.backend = backend
        self.coeffs = tuple(  # type(), not isinstance(): Fraction's ABC check is slow
            backend.from_fraction(c) if type(c) in (int, Fraction) else c for c in coeffs
        )

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.backend == other.backend and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"PowerSeries({self.backend.describe()}, K={self.order})"

    def _align(self, other: "PowerSeries") -> int:
        if not isinstance(other, PowerSeries):
            raise TypeError(f"expected a PowerSeries, got {type(other).__name__}")
        if self.backend != other.backend:
            raise MixedBackendError(
                f"cannot combine {self.backend.describe()} with {other.backend.describe()} series"
            )
        return min(self.order, other.order)

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        k = self._align(other)
        a, b = self.coeffs, other.coeffs
        (lo_a, hi_a), (lo_b, hi_b) = _span(a[:k + 1]), _span(b[:k + 1])
        rb, backend = b[k::-1], self.backend  # rb[k - j] = b[j]
        with backend.arith():
            # [x^n] = sum_i a[i]*b[n-i] by ascending i; terms outside a span add nothing
            out = [backend.zero] * min(lo_a + lo_b, k + 1)
            for n in range(lo_a + lo_b, min(k, hi_a + hi_b) + 1):
                low, top = max(lo_a, n - hi_b), min(hi_a, n - lo_b) + 1
                out.append(backend.dot(a[low:top], rb[k - n + low:k - n + top]))
            return PowerSeries(backend, out + [backend.zero] * (k + 1 - len(out)))


def _span(c: Sequence[Scalar]) -> tuple[int, int]:
    """First and last index of a nonzero coefficient, or (len(c), -1) if none."""
    nonzero = [i for i, x in enumerate(c) if x]
    return (nonzero[0], nonzero[-1]) if nonzero else (len(c), -1)


def _square(p: Sequence[Scalar], backend: Backend) -> tuple[Scalar, ...]:
    """p**2 to the order of p, inside arith(): [x^n] is one dot over the lower
    half, 2*p[i]*p[n-i] for i < n/2, plus p[n/2]**2 for even n."""
    (lo, hi), k = _span(p), len(p) - 1
    twice, rp = [c + c for c in p], p[::-1]  # rp[k - j] = p[j]
    out = [backend.zero] * min(2 * lo, k + 1)
    for n in range(2 * lo, min(k, 2 * hi) + 1):
        low, half = max(lo, n - hi), (n + 1) // 2
        xs, ys = twice[low:half], rp[k - n + low:k - n + half]
        if n % 2 == 0:
            xs, ys = xs + [p[half]], ys + (p[half],)
        out.append(backend.dot(xs, ys))
    return tuple(out) + (backend.zero,) * (k + 1 - len(out))


def compose(outer: PowerSeries, inner: PowerSeries) -> PowerSeries:
    """outer(inner), truncated at min(K_outer, K_inner); inner needs c_0 = 0.

    With u = inner/x, acc_i = B_i + x**m u**m acc_(i+1) for the blocks
    B_i = sum_{r<m} o_{im+r} x**r u**r, each cut to the order it still needs.
    """
    if outer.backend != inner.backend:
        raise MixedBackendError(
            f"cannot compose {outer.backend.describe()} with {inner.backend.describe()} series"
        )
    if inner.coeffs[0]:
        raise NonzeroConstantTermError("compose needs an inner series with zero constant term")
    k = min(outer.order, inner.order)
    m = isqrt(k) + 1
    backend, o = outer.backend, outer.coeffs
    zero, dot = backend.zero, backend.dot
    with backend.arith():
        # pw[r] = u**r to order k - r, the last order at which x**r u**r counts
        pw = [(backend.one,) + (zero,) * k, inner.coeffs[1:k + 1]]
        for r in range(2, min(m, k) + 1):  # u**(2j) = (u**j)**2, u**(2j+1) = u * u**(2j)
            if r % 2 == 0:
                pw.append(_square(pw[r // 2][:k - r + 1], backend))
            else:
                u = PowerSeries(backend, pw[1][:k - r + 1])
                pw.append((u * PowerSeries(backend, pw[-1])).coeffs)
        acc: list[Scalar] = []
        for i in range(k // m, -1, -1):
            low, top = m * i, k - m * i  # B_i starts at o_low; acc_i is needed to x**top
            block = [dot(o[low:low + min(m, n + 1)], [pw[r][n - r] for r in range(min(m, n + 1))])
                     for n in range(top + 1)]
            if acc:
                giant = PowerSeries(backend, pw[m]) * PowerSeries(backend, acc)
                block[m:] = [b + c for b, c in zip(block[m:], giant.coeffs)]
            acc = block
        return PowerSeries(backend, acc)


def revert(f: PowerSeries) -> PowerSeries:
    """Compositional inverse g with compose(f, g) = identity to order K.

    Needs c_0 = 0 and c_1 = 1, as every density series x(z) has (c_1 = phi(1)).
    Up to order 16, solved coefficient by coefficient: the power table
    P[j][m] = [x^m] g**j is filled from known lower-order coefficients, and
    each new g_m makes [x^m] f(g) vanish.  Above it, the inverse g to order
    n = ceil(K/2) becomes g - g'*(f(g) - x), exact to order 2n.
    """
    if f.coeffs[0]:
        raise NonzeroConstantTermError("revert needs a series with zero constant term")
    k = f.order
    if k < 1 or f.coeffs[1] != 1:  # 1, not backend.one: a TruncPoly compares its order too
        raise ZeroLinearCoefficientError("revert needs the linear coefficient 1")
    backend = f.backend
    zero, dot = backend.zero, backend.dot
    if k > _DIRECT_REVERT_ORDER:
        n = (k + 1) // 2
        half = revert(PowerSeries(backend, f.coeffs[:n + 1])).coeffs
        with backend.arith():
            f_half = compose(f, PowerSeries(backend, half + (zero,) * (k - n))).coeffs
            residual = PowerSeries(backend, [-c for c in f_half[n + 1:]])  # from x**(n+1)
            slope = PowerSeries(backend, [a * half[a] for a in range(1, k - n + 1)])
            return PowerSeries(backend, half + (residual * slope).coeffs)
    with backend.arith():
        g: list[Scalar] = [zero, backend.one]
        # power[j] holds [x^m] g**j for the g known so far; power[1] aliases g
        power: list[list[Scalar]] = [[], g]
        for m in range(2, k + 1):
            power.append([zero] * m)  # row for j = m, filled below
            for j in range(2, m + 1):
                # [x^m] g**j = sum_{i = j-1}^{m-1} [x^i] g**(j-1) * g[m - i]
                power[j].append(dot(power[j - 1][j - 1:m], g[m - j + 1:0:-1]))
            residual = dot(f.coeffs[2:m + 1], [row[m] for row in power[2:]])
            g.append(-residual)
        return PowerSeries(backend, g)


def jackson_apply(sf: StructureFunction, f: PowerSeries) -> PowerSeries:
    """Apply the z-multiplied generalized Jackson derivative: c_n -> phi(n)*c_n."""
    backend = f.backend
    phi = eval_structure(sf, f.order, backend)
    with backend.arith():
        return PowerSeries(backend, [p * c for p, c in zip(phi, f.coeffs)])


def euler_inverse(f: PowerSeries) -> PowerSeries:
    """Invert the undeformed Euler operator z d/dz: c_n -> c_n / n (needs c_0 = 0)."""
    if f.coeffs[0]:
        raise NonzeroConstantTermError("euler_inverse needs a series with zero constant term")
    backend = f.backend
    with backend.arith():
        out = [backend.zero]
        out.extend(c / n for n, c in enumerate(f.coeffs) if n >= 1)
        return PowerSeries(backend, out)

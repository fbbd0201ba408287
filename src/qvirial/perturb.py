"""Perturbative view of the deformations: the single-mode ladder Hamiltonian
H = (phi(N+1) + phi(N))/2 split into a free part plus interaction terms.

For the basic number with q = 1 + eps the split is exact and term i is a
polynomial in the number operator N:

  term 0 = N + 1/2                  (free oscillator, energy scale = 1)
  term i = (2N + 1 - i)/(2*(i+1)!) * N(N-1)...(N-i+1)      for i >= 1

so that sum_i eps**i * term_i(N) = ([N+1]_q + [N]_q)/2 as a polynomial
identity in eps.  With signed Stirling numbers of the first kind (Comtet,
Advanced Combinatorics, 1974, sec. 5.5) the N**k coefficient of term i is
((1-i)*s(i,k) + 2*s(i,k-1)) / (2*(i+1)!).  The two-parameter deformation adds
a row linear in mu (the quadratic deformation enters the ladder average
linearly), the exact expansion of (phi(N+1) + phi(N))/2 for
phi = (1+mu)*[.]_q - mu*[.]_q**2 with [N]_q = sum_i eps**i * C(N, i+1): the
shift is Pascal's rule C(N+1, i+1) = C(N, i+1) + C(N, i), and the square is
one integer convolution of Stirling rows.  Coefficients stay integer
numerators over one denominator until each becomes a Fraction, once, for a
NumberPoly: a value that compares, evaluates and renders, with no arithmetic.
A split is its terms: a tuple by eps power, or a dict by (eps, mu) powers.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .exact import _signed_sum
from .structfn import _stirling_rows

__all__ = [
    "NumberPoly",
    "hamiltonian_split",
    "two_param_split",
]


class NumberPoly:
    """Polynomial in the number operator N with rational coefficients (a value, not a ring)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Fraction | int] = ()) -> None:
        cleaned = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cleaned and not cleaned[-1]:
            cleaned.pop()
        self.coeffs = tuple(cleaned)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = NumberPoly([other])
        if not isinstance(other, NumberPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        # a constant polynomial equals its coefficient, so it must hash like it
        return hash(self.coeffs[0] if len(self.coeffs) == 1 else self.coeffs or 0)

    def __call__(self, n: int | Fraction) -> Fraction:
        """p(a/b) by one integer Horner pass: sum_k c_k*a**k*b**(d-k) / b**d."""
        a, b = n.as_integer_ratio()
        den = math.lcm(*(c.denominator for c in self.coeffs))
        total, scale = 0, 1
        for c in reversed(self.coeffs):
            total = total * a + c.numerator * (den // c.denominator) * scale
            scale *= b
        return Fraction(total * b, den * scale)  # scale = b**(d+1)

    def render(self) -> str:
        """Canonical text form: '1/2 + 1*N + 3/4*N^2' (ascending powers)."""
        return _signed_sum(
            (c.numerator, c.denominator, "" if p == 0 else "*N" if p == 1 else f"*N^{p}")
            for p, c in enumerate(self.coeffs)
        )

    __str__ = render

    def __repr__(self) -> str:
        return f"NumberPoly({self.render()!r})"


def hamiltonian_split(order: int) -> tuple[NumberPoly, ...]:
    """Split ([N+1]_q + [N]_q)/2, q = 1 + eps, into its terms 0..order per eps power.

    Term i for i >= 1 is (2N+1-i)/(2*(i+1)!) times the falling factorial
    N(N-1)...(N-i+1); term 0 is the free part N + 1/2.  Each term i has
    degree i+1 (degree 1 for i = 0).
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    terms = []
    for i, row in enumerate(_stirling_rows(order)):  # row[k] = s(i, k)
        den = 2 * math.factorial(i + 1)
        terms.append(NumberPoly([Fraction((1 - i) * a + 2 * b, den) for a, b in zip(row + [0], [0] + row)]))
    return tuple(terms)


def two_param_split(order_eps: int, order_mu: int) -> dict[tuple[int, int], NumberPoly]:
    """Exact bivariate truncation of ((phi(N+1) + phi(N))/2 for the combined
    deformation phi = (1+mu)*[.]_q - mu*[.]_q**2, q = 1 + eps.

    Entry (i, j) is the polynomial in N multiplying eps**i * mu**j.  The
    structure function is linear in mu, so only the rows j = 0 and j = 1 are
    ever present; the (0, 0) entry is the free part N + 1/2.  The mu-row at
    eps = 0 is the direct quadratic-deformation average minus the free part;
    the eps-row at mu = 0 reproduces hamiltonian_split.
    """
    if order_eps < 0 or order_mu < 0:
        raise ValueError("orders must be nonnegative")
    terms = {(i, 0): poly for i, poly in enumerate(hamiltonian_split(order_eps))}
    if order_mu >= 1:
        # numerators over (i+1)! of C(N, i+1) and of C(N+1, i+1) = C(N, i+1) + C(N, i)
        rows = _stirling_rows(order_eps + 1)
        basic = rows[1:]
        shifted = [[b + (i + 1) * a for a, b in zip(rows[i] + [0], basic[i])] for i in range(order_eps + 1)]
        for i in range(order_eps + 1):
            # basic + shifted - their squares over (i+2)!, where the eps**i
            # coefficient of the square, sum_{a+b=i} C(N,a+1)*C(N,b+1), weighs
            # each product of rows by C(i+2, a+1); every row is nonzero
            row = [(i + 2) * (x + y) for x, y in zip(basic[i], shifted[i])] + [0]
            for a in range(i + 1):
                weight = math.comb(i + 2, a + 1)
                for left, right in ((basic[a], basic[i - a]), (shifted[a], shifted[i - a])):
                    for j, x in enumerate(left):
                        for k, y in enumerate(right):
                            row[j + k] -= weight * x * y
            den = 2 * math.factorial(i + 2)
            terms[(i, 1)] = NumberPoly([Fraction(n, den) for n in row])
    return terms

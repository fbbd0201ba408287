"""Ladder-average Hamiltonian splits: exact polynomial identities against the
basic-number expansion and the two-parameter structure function."""

import math
import random
from fractions import Fraction

import pytest

from qvirial import (
    NumberPoly,
    QuadraticOfQBasic,
    SURD,
    eval_structure,
    hamiltonian_split,
    two_param_split,
)

from helpers import (
    fraction_hamiltonian_terms,
    fraction_horner,
    fraction_two_param_terms,
    rand_fraction,
    rand_positive_q,
)


def ladder_average_eps_coeff(n: int, i: int) -> Fraction:
    # oracle: ([N+1]_q + [N]_q)/2 at q = 1 + eps has eps^i coefficient
    # (C(N+1, i+1) + C(N, i+1))/2 at integer N = n
    return Fraction(math.comb(n + 1, i + 1) + math.comb(n, i + 1), 2)


def test_free_term():
    split = hamiltonian_split(0)
    assert split == (NumberPoly([Fraction(1, 2), 1]),)


def test_first_interaction_term_is_half_n_squared():
    split = hamiltonian_split(1)
    assert split[1] == NumberPoly([0, 0, Fraction(1, 2)])


def test_second_interaction_term_at_two():
    split = hamiltonian_split(2)
    assert split[2](2) == Fraction(1, 2)
    assert split[2](2) == ladder_average_eps_coeff(2, 2)


def test_term_degrees():
    # up to the CLI cap: no top numerator of a split term cancels to zero
    split = hamiltonian_split(100)
    assert len(split[0].coeffs) - 1 == 1
    for i in range(1, 101):
        assert len(split[i].coeffs) - 1 == i + 1
    terms = two_param_split(100, 1)
    for i in range(101):
        assert len(terms[(i, 1)].coeffs) - 1 == i + 2


def test_split_identity_polynomial():
    # exact identity in eps for every order <= 6 and N <= 12
    for order in range(0, 7):
        split = hamiltonian_split(order)
        for n in range(0, 13):
            for i in range(order + 1):
                assert split[i](n) == ladder_average_eps_coeff(n, i), (order, n, i)


def test_rejects_negative_order():
    with pytest.raises(ValueError):
        hamiltonian_split(-1)
    with pytest.raises(ValueError):
        two_param_split(2, -1)


# -- two-parameter split ---------------------------------------------------------


def test_two_param_free_term():
    split = two_param_split(3, 1)
    assert split[(0, 0)] == NumberPoly([Fraction(1, 2), 1])
    assert sorted(split) == [(i, j) for i in range(4) for j in range(2)]


def test_two_param_eps_row_matches_single_split():
    split = two_param_split(6, 1)
    single = hamiltonian_split(6)
    for i in range(7):
        assert split[(i, 0)] == single[i]


def test_two_param_mu_row_at_eps_zero():
    # (phi_mu(N+1) + phi_mu(N))/2 - free part = (mu/2)(2N + 1 - N^2 - (N+1)^2) = -mu*N^2
    split = two_param_split(2, 1)
    assert split[(0, 1)] == NumberPoly([0, 0, -1])


def test_two_param_mu_degree_is_one():
    split = two_param_split(4, 3)
    assert all(j <= 1 for (_, j) in split)


def test_two_param_full_evaluation_cutoff_case():
    # N = 1, eps = 1 (q = 2), mu = 1/2: average of phi(2) = 0 and phi(1) = 1
    split = two_param_split(4, 2)
    eps, mu = 1, Fraction(1, 2)
    assert sum(eps**i * mu**j * poly(1) for (i, j), poly in split.items()) == Fraction(1, 2)


def test_two_param_matches_direct_ladder_average():
    rng = random.Random(31)
    for _ in range(15):
        mu = rand_fraction(rng)
        q = rand_positive_q(rng)
        n = rng.randint(0, 5)
        sf = QuadraticOfQBasic(mu, q)
        direct = (
            eval_structure(sf, n + 1, SURD)[n + 1] + eval_structure(sf, n, SURD)[n]
        ) / 2
        split = two_param_split(2 * (n + 1), 1)  # enough eps orders for exactness at N = n
        eps = q - 1
        value = sum(eps**i * mu**j * poly(n) for (i, j), poly in split.items())
        assert value == direct, (mu, q, n)


# -- integer Stirling-row splits against the Fraction-list references -------------


def test_hamiltonian_split_matches_fraction_reference():
    for order in range(41):
        coeffs = tuple(poly.coeffs for poly in hamiltonian_split(order))
        assert coeffs == fraction_hamiltonian_terms(order), order


def test_two_param_split_matches_fraction_reference():
    for order_eps in range(15):
        for order_mu in range(4):
            split = two_param_split(order_eps, order_mu)
            coeffs = {key: poly.coeffs for key, poly in split.items()}
            assert coeffs == fraction_two_param_terms(order_eps, order_mu), (order_eps, order_mu)


def test_number_poly_hashes_like_the_number_it_equals():
    for value in (0, 3, -2, Fraction(5, 7)):
        poly = NumberPoly([value])
        assert poly == value and hash(poly) == hash(value)
        assert len({poly, value}) == 1
    assert NumberPoly() == 0 and len({NumberPoly(), 0}) == 1
    assert hash(NumberPoly([1, 2])) == hash(NumberPoly([Fraction(1), Fraction(2)]))


def test_number_poly_call_matches_fraction_horner():
    rng = random.Random(5)
    polys = [NumberPoly(), NumberPoly([Fraction(-3, 4)]), *hamiltonian_split(9)]
    polys += [NumberPoly([rand_fraction(rng) for _ in range(rng.randint(1, 8))]) for _ in range(20)]
    args = [0, 1, -1, -7, 12, 10**6, -(10**6), Fraction(-5, 3), Fraction(7, 2), Fraction(0)]
    for poly in polys:
        for n in args:
            value = poly(n)
            assert type(value) is Fraction and value == fraction_horner(poly.coeffs, n), (poly, n)

"""Acceptance criteria for the package, one test per criterion.

Each test prints a single PASS/FAIL line with its runtime (visible with
`pytest tests/test_acceptance.py -v -s`).  Budgets and tolerances are fixed
here, not calibrated after the fact.
"""

import random
import time
from contextlib import contextmanager
from decimal import Context, Decimal, localcontext
from fractions import Fraction

from qvirial import (
    DecimalBackend,
    Interpolated,
    PowerSeries,
    Quadratic,
    QuadraticOfQBasic,
    SURD,
    SurdRational,
    UNDEFORMED,
    closed_form_virial,
    compose,
    hamiltonian_split,
    monomial_expansion,
    particle_series,
    revert,
    second_virial_deviation,
    virial_coefficients,
)
from qvirial.cli import _printed_fifth_virial, main

from helpers import identity_series, rand_fraction, rand_positive_q, sig_agree, surd_oracle_decimal

DEC50 = DecimalBackend(50)


@contextmanager
def criterion(number: int, budget_seconds: float, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {number:2d} FAIL ({elapsed:6.2f}s): {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.2f}s"
    )
    print(f"ACCEPTANCE {number:2d} PASS ({elapsed:6.2f}s): {description}")


def test_criterion_01_undeformed_limit():
    with criterion(1, 1.0, "undeformed limit reproduces the ideal Bose gas V2, V3"):
        table = virial_coefficients(particle_series(UNDEFORMED, 3))
        # exact-symbolic anchors: V2 = -1/(4*sqrt(2)), V3 = -(2/(9*sqrt(3)) - 1/8)
        assert table.coefficient(2) == SurdRational({2: Fraction(-1, 8)})
        assert table.coefficient(3) == SurdRational({1: Fraction(1, 8), 3: Fraction(-2, 27)})
        with localcontext(Context(prec=40)):
            v2_oracle = -1 / (4 * Decimal(2).sqrt())
            v3_oracle = -(2 / (9 * Decimal(3).sqrt()) - Decimal(1) / 8)
        assert sig_agree(surd_oracle_decimal(table.coefficient(2).terms, 40), v2_oracle, 10)
        assert sig_agree(surd_oracle_decimal(table.coefficient(3).terms, 40), v3_oracle, 10)


def test_criterion_02_quadratic_second_virial():
    with criterion(2, 1.0, "V2(quadratic) = -(1-mu)/2^(5/2) exactly; vanishes at mu = 1"):
        rng = random.Random(20260201)
        for _ in range(20):
            mu = rand_fraction(rng)
            table = virial_coefficients(particle_series(Quadratic(mu), 2))
            assert table.coefficient(2) == -SURD.half_power(2, 5) * (1 - mu)
        at_one = virial_coefficients(particle_series(Quadratic(Fraction(1)), 2))
        assert at_one.coefficient(2) == SURD.zero


def test_criterion_03_engine_equals_closed_forms():
    with criterion(3, 30.0, "engine V2..V5 equal corrected closed forms on 100 random triples"):
        rng = random.Random(20260303)
        for case in range(100):
            mu = rand_fraction(rng, lo=-1, hi=1)
            q = rand_positive_q(rng)
            if case < 30:
                # exact path: t = 1 collapses onto the surd ring
                sf = Interpolated(Fraction(1), mu, q)
                table = virial_coefficients(particle_series(sf, 5))
                for k in range(2, 6):
                    assert table.coefficient(k) == closed_form_virial(sf, k, SURD)
            else:
                t = rand_fraction(rng, lo=0, hi=1)
                if t == 1:
                    t = Fraction(1, 2)
                sf = Interpolated(t, mu, q)
                table = virial_coefficients(particle_series(sf, 5, DEC50))
                for k in range(2, 6):
                    closed = closed_form_virial(sf, k, DEC50)
                    assert sig_agree(table.coefficient(k), closed, 40), (sf, k)


def test_criterion_04_second_virial_deviation_limits():
    with criterion(4, 1.0, "second-virial deviation limits (1-q)/2^(7/2) and mu/2^(5/2)"):
        rng = random.Random(20260404)
        for _ in range(20):
            q = rand_positive_q(rng)
            assert second_virial_deviation(QuadraticOfQBasic(Fraction(0), q)) == \
                SURD.half_power(2, 7) * (1 - q)
        for _ in range(20):
            mu = rand_fraction(rng)
            assert second_virial_deviation(QuadraticOfQBasic(mu, Fraction(1))) == \
                SURD.half_power(2, 5) * mu


def test_criterion_05_monomial_expansion_rows():
    with criterion(5, 1.0, "monomial-basis rows of the basic-number expansion"):
        table = monomial_expansion(order_eps=3, order_n=3)
        assert [table[(1, i)] for i in range(4)] == [
            Fraction(1), Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 4)
        ]
        assert [table[(2, i)] for i in range(1, 4)] == [
            Fraction(1, 2), Fraction(-1, 2), Fraction(11, 24)
        ]
        assert [table[(3, i)] for i in range(2, 4)] == [Fraction(1, 6), Fraction(-1, 4)]


def test_criterion_06_hamiltonian_split_identity():
    import math

    with criterion(6, 1.0, "ladder split equals (phi(N+1)+phi(N))/2 for order <= 6, N <= 12"):
        for order in range(7):
            split = hamiltonian_split(order)
            for n in range(13):
                for i in range(order + 1):
                    expected = Fraction(math.comb(n + 1, i + 1) + math.comb(n, i + 1), 2)
                    assert split[i](n) == expected


def test_criterion_07_errata_reproduction(capsys):
    with criterion(7, 5.0, "misprinted fifth-order term flagged; engine keeps the true value"):
        verbatim = _printed_fifth_virial(UNDEFORMED)  # the form check-paper reports
        engine = virial_coefficients(particle_series(UNDEFORMED, 5)).coefficient(5)
        verbatim_value = surd_oracle_decimal(verbatim.terms, 30)
        engine_value = surd_oracle_decimal(engine.terms, 30)
        # printed form collapses to ~ -0.2963; the true coefficient is a few 1e-6
        assert abs(verbatim_value - Decimal("-0.2963")) < Decimal("0.0001")
        assert Decimal("-0.000004") < engine_value < Decimal("-0.000003")
        assert engine == SurdRational({
            1: Fraction(317, 1728), 2: Fraction(1, 8), 3: Fraction(-1, 6), 5: Fraction(-4, 125)
        })
        code = main(["check-paper"])
        out = capsys.readouterr().out
        discrepancy_lines = [line for line in out.splitlines() if line.startswith("DISCREPANCY")]
        assert code == 0
        assert len(discrepancy_lines) == 2
        assert any("fifth-virial-third-term" in line for line in discrepancy_lines)
        assert any("fugacity-cubic-exponent" in line for line in discrepancy_lines)


def test_criterion_08_reversion_round_trip():
    with criterion(8, 10.0, "compose(f, revert(f)) = identity at K = 12 for 50 random exact series"):
        rng = random.Random(20260808)
        radicands = [1, 2, 3, 5]
        for _ in range(50):
            coeffs = [SURD.zero, SURD.one]
            for _ in range(11):
                coeffs.append(SurdRational({rng.choice(radicands): rand_fraction(rng, lo=-2, hi=2, max_den=6)}))
            f = PowerSeries(SURD, coeffs)
            g = revert(f)
            assert compose(f, g) == identity_series(12)
            assert compose(g, f) == identity_series(12)


def test_criterion_09_backend_cross_validation():
    with criterion(9, 30.0, "exact vs 50-digit decimal virial tables agree to >= 40 digits (K=8, 5x5 grid)"):
        mus = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
        qs = [Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(3, 2), Fraction(2)]
        for mu in mus:
            for q in qs:
                sf = QuadraticOfQBasic(mu, q)
                exact = virial_coefficients(particle_series(sf, 8))
                approx = virial_coefficients(particle_series(sf, 8, DEC50))
                for k in range(1, 9):
                    exact_value = surd_oracle_decimal(exact.coefficient(k).terms, 60)
                    assert sig_agree(exact_value, approx.coefficient(k), 40), (mu, q, k)


def test_criterion_10_performance_envelope():
    with criterion(10, 250.0, "exact K=12 table < 10 s; K=20 benchmark < 2 min (soft gate 2x)"):
        sf = QuadraticOfQBasic(Fraction(1, 3), Fraction(7, 5))
        start = time.perf_counter()
        table12 = virial_coefficients(particle_series(sf, 12))
        elapsed12 = time.perf_counter() - start
        assert table12.coefficient(1) == SURD.one
        assert elapsed12 < 10.0, f"K=12 took {elapsed12:.2f}s"
        start = time.perf_counter()
        table20 = virial_coefficients(particle_series(sf, 20))
        elapsed20 = time.perf_counter() - start
        assert table20.coefficient(1) == SURD.one
        # benchmark target is 120 s; only a 2x regression is a hard failure
        assert elapsed20 < 240.0, f"K=20 took {elapsed20:.2f}s"
        print(f"    [benchmark] K=12: {elapsed12:.2f}s, K=20: {elapsed20:.2f}s (target 120s)")
        for k in range(2, 6):
            assert table20.coefficient(k) == closed_form_virial(sf, k, SURD)

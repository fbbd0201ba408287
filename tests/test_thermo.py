"""Deformed gas pipeline: series coefficients, engine virial tables against
closed forms, deviation limits, limit consistency, and backend agreement."""

import functools
import math
import random
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from qvirial import (
    DecimalBackend,
    Interpolated,
    PowerSeries,
    QBasic,
    QBasicOfQuadratic,
    QBasicSeries,
    Quadratic,
    QuadraticOfQBasic,
    SURD,
    SurdBackend,
    SurdRational,
    TruncPoly,
    TruncPolyBackend,
    UNDEFORMED,
    UnsupportedBackendError,
    UnsupportedOrderError,
    closed_form_virial,
    eval_structure,
    fugacity_of_density,
    log_partition_series,
    parse_descriptor,
    particle_series,
    pressure_series,
    second_virial_deviation,
    to_decimal,
    virial_coefficients,
)

from qvirial import cli, series, thermo
from qvirial.errors import NonzeroConstantTermError, ZeroLinearCoefficientError

from helpers import (
    FractionSurd,
    fp2_table_images,
    horner_compose,
    lagrange_virials,
    loop_revert,
    rand_fraction,
    rand_positive_q,
    sig_agree,
    surd_coeff_st,
    surd_oracle_decimal,
)

DEC50 = DecimalBackend(50)

# Exact undeformed virial coefficients, derived independently: the classical
# reversion coefficients A2..A5 applied to a_n = n^(-3/2), p_n = n^(-5/2),
# cross-checked against the cluster-integral combinatorics
# a5 = 112 b2^4 - 144 b2^2 b3 + 32 b2 b4 + 18 b3^2 - 4 b5 with b_l = l^(-5/2).
UNDEFORMED_EXACT = {
    2: SurdRational({2: Fraction(-1, 8)}),
    3: SurdRational({1: Fraction(1, 8), 3: Fraction(-2, 27)}),
    4: SurdRational({1: Fraction(-3, 32), 2: Fraction(-5, 64), 6: Fraction(1, 12)}),
    5: SurdRational(
        {1: Fraction(317, 1728), 2: Fraction(1, 8), 3: Fraction(-1, 6), 5: Fraction(-4, 125)}
    ),
}


def frac(n, d=1):
    return Fraction(n, d)


# -- the three series ----------------------------------------------------------


def test_log_partition_coefficients():
    series = log_partition_series(4, SURD)
    assert series.coeffs[0] == SURD.zero
    assert series.coeffs[1] == SURD.one
    assert series.coeffs[2] == SurdRational({2: frac(1, 8)})
    assert series.coeffs[4] == SURD.from_fraction(frac(1, 32))


def test_particle_series_quadratic():
    series = particle_series(Quadratic(frac(1, 3)), 4)
    # c2 = [2]_mu / 2^(5/2) = (1 - mu) * sqrt(2)/4
    assert series.coeffs[2] == SurdRational({2: (1 - frac(1, 3)) * frac(1, 4)})


def test_particle_series_undeformed_single_terms():
    series = particle_series(UNDEFORMED, 6)
    for n in range(1, 7):
        assert series.coeffs[n] == SURD.half_power(n, 3)


def test_particle_series_qbasic_third_coefficient():
    q = frac(3, 2)
    series = particle_series(QuadraticOfQBasic(frac(0), q), 3)
    expected = SURD.half_power(3, 5) * (1 + q + q * q)
    assert series.coeffs[3] == expected


def test_pressure_series_coefficients():
    mu = frac(1, 4)
    series = pressure_series(particle_series(Quadratic(mu), 5))
    phi = lambda n: (1 + mu) * n - mu * n * n
    assert series.coeffs[2] == SURD.half_power(2, 7) * phi(2)
    assert series.coeffs[5] == SURD.half_power(5, 7) * phi(5)


def test_pressure_series_undeformed_recovers_log_partition():
    assert pressure_series(particle_series(UNDEFORMED, 6)) == log_partition_series(6, SURD)


def test_fugacity_of_density_leading_terms():
    mu = frac(1, 5)
    series = fugacity_of_density(particle_series(Quadratic(mu), 4))
    assert series.coeffs[1] == SURD.one
    assert series.coeffs[2] == -SURD.half_power(2, 3) * (1 - mu)  # -[2]/2^(5/2)


def test_fugacity_undeformed_cubic_term():
    series = fugacity_of_density(particle_series(UNDEFORMED, 3))
    # [2]^2/2^4 - [3]/3^(5/2) with [n] = n: 1/4 - 1/(3*sqrt(3))
    assert series.coeffs[3] == SurdRational({1: frac(1, 4), 3: frac(-1, 9)})


# -- virial tables ---------------------------------------------------------------


def test_undeformed_virial_exact_anchors():
    table = virial_coefficients(particle_series(UNDEFORMED, 5))
    assert table.coefficient(1) == SURD.one
    for k in range(2, 6):
        assert table.coefficient(k) == UNDEFORMED_EXACT[k], k
    assert to_decimal(table.coefficient(2), 6) == "-0.176777"
    assert to_decimal(table.coefficient(3), 6) == "-0.003300"
    assert to_decimal(table.coefficient(4), 10) == "-0.0001112893"
    assert to_decimal(table.coefficient(5), 10) == "-0.0000035405"


def test_second_virial_closed_form_random_mu():
    rng = random.Random(5)
    for _ in range(20):
        mu = rand_fraction(rng)
        table = virial_coefficients(particle_series(Quadratic(mu), 2))
        assert table.coefficient(2) == -SURD.half_power(2, 5) * (1 - mu)


def test_second_virial_compensation_point():
    table = virial_coefficients(particle_series(Quadratic(frac(1)), 2))
    assert table.coefficient(2) == SURD.zero


def test_engine_matches_corrected_closed_forms_exactly():
    rng = random.Random(17)
    for _ in range(100):
        sf = QuadraticOfQBasic(rand_fraction(rng), rand_positive_q(rng))
        table = virial_coefficients(particle_series(sf, 5))
        for k in range(2, 6):
            assert table.coefficient(k) == closed_form_virial(sf, k, SURD), (sf, k)


def test_paper_verbatim_fifth_coefficient_differs():
    # check-paper builds the printed form and reports both values
    verbatim = cli._printed_fifth_virial(UNDEFORMED)
    engine = virial_coefficients(particle_series(UNDEFORMED, 5)).coefficient(5)
    differs, detail = cli._fifth_virial_discrepancy()
    assert differs and "printed form gives -0.296300 while the engine gives -0.000004" in detail
    assert to_decimal(verbatim, 6) == "-0.296300"
    assert to_decimal(engine, 6) == "-0.000004"
    # the two differ exactly by the misprinted third term: -2*phi3^3/3^5 vs +2*phi3^2/3^5
    phi3 = SURD.from_fraction(3)
    delta = phi3**3 * frac(2, 243) + phi3**2 * frac(2, 243)
    assert engine - verbatim == delta


def test_closed_form_rejects_unsupported_order():
    with pytest.raises(UnsupportedOrderError):
        closed_form_virial(UNDEFORMED, 6)
    with pytest.raises(UnsupportedOrderError):
        closed_form_virial(UNDEFORMED, 1)


def test_closed_form_quadratic_third_coefficient_example():
    # mu = 1/2: phi(2) = 1, phi(3) = 0, so V3 = 1/32
    value = closed_form_virial(Quadratic(frac(1, 2)), 3, SURD)
    assert value == SURD.from_fraction(frac(1, 32))


def test_paper_verbatim_differs_from_corrected_only_by_the_fifth_order_misprint():
    rng = random.Random(23)
    for _ in range(40):
        mu, q = rand_fraction(rng), rand_positive_q(rng)
        sf = QuadraticOfQBasic(mu, q)
        basic3 = 1 + q + q * q
        phi3 = (1 + mu) * basic3 - mu * basic3 * basic3
        delta = closed_form_virial(sf, 5) - cli._printed_fifth_virial(sf)
        assert delta == frac(2, 243) * (phi3**2 + phi3**3), sf


def test_closed_forms_share_no_code_with_the_series_engine(monkeypatch):
    # the engine cross-check means something only while the closed forms sum
    # with ring operators: no qvirial.series call and no fused multi-term dot
    # (a surd product is itself a one-term SURD.dot)
    cases = [
        (QuadraticOfQBasic(frac(1, 3), frac(7, 5)), SURD),
        (QBasicSeries(3), TruncPolyBackend(3)),
        (Interpolated(frac(1, 3), frac(1, 4), frac(3, 2)), DEC50),
    ]
    expected = [closed_form_virial(sf, k, b) for sf, b in cases for k in range(2, 6)]

    def forbidden(*args, **kwargs):
        raise AssertionError("closed forms must not call qvirial.series")

    for name, obj in vars(series).items():
        if callable(obj) and getattr(obj, "__module__", None) == "qvirial.series":
            monkeypatch.setattr(series, name, forbidden)
            if getattr(thermo, name, None) is obj:
                monkeypatch.setattr(thermo, name, forbidden)
    for cls in (SurdBackend, TruncPolyBackend, DecimalBackend):
        def one_term_dot(self, xs, ys, dot=cls.dot):
            assert len(xs) == 1, "closed forms must not sum through a multi-term dot"
            return dot(self, xs, ys)
        monkeypatch.setattr(cls, "dot", one_term_dot)
    with pytest.raises(AssertionError):
        virial_coefficients(particle_series(UNDEFORMED, 3))
    got = [closed_form_virial(sf, k, b) for sf, b in cases for k in range(2, 6)]
    assert got == expected


@given(st.fractions(min_value=-2, max_value=2, max_denominator=8))
@settings(max_examples=40, deadline=None)
def test_first_virial_always_one(mu):
    table = virial_coefficients(particle_series(Quadratic(mu), 3))
    assert table.coefficient(1) == SURD.one


def test_limit_consistency_tables():
    mu, q = frac(1, 3), frac(7, 5)
    via_limit = virial_coefficients(particle_series(QuadraticOfQBasic(mu, frac(1)), 6))
    direct = virial_coefficients(particle_series(Quadratic(mu), 6))
    assert via_limit.values == direct.values
    via_zero_mu = virial_coefficients(particle_series(QuadraticOfQBasic(frac(0), q), 6))
    pure_q = virial_coefficients(particle_series(QBasic(q), 6))
    assert via_zero_mu.values == pure_q.values


def test_interpolated_endpoint_tables_decimal():
    mu, q = frac(1, 4), frac(3, 2)
    order = 5
    t1 = virial_coefficients(particle_series(Interpolated(frac(1), mu, q), order, DEC50))
    composite = virial_coefficients(particle_series(QuadraticOfQBasic(mu, q), order, DEC50))
    for k in range(1, order + 1):
        assert sig_agree(t1.coefficient(k), composite.coefficient(k), 45)
    t0 = virial_coefficients(particle_series(Interpolated(frac(0), mu, q), order, DEC50))
    swapped = virial_coefficients(particle_series(QBasicOfQuadratic(q, mu), order, DEC50))
    for k in range(1, order + 1):
        assert sig_agree(t0.coefficient(k), swapped.coefficient(k), 45)


def test_engine_matches_closed_forms_on_decimal_backend():
    sf = Interpolated(frac(1, 3), frac(1, 4), frac(3, 2))
    table = virial_coefficients(particle_series(sf, 5, DEC50))
    for k in range(2, 6):
        closed = closed_form_virial(sf, k, DEC50)
        assert sig_agree(table.coefficient(k), closed, 40), k


def test_exact_vs_decimal_backend_agreement_smoke():
    sf = QuadraticOfQBasic(frac(1, 4), frac(3, 2))
    exact = virial_coefficients(particle_series(sf, 6))
    approx = virial_coefficients(particle_series(sf, 6, DEC50))
    for k in range(1, 7):
        exact_dec = Decimal(to_decimal(exact.coefficient(k), 45))
        assert sig_agree(exact_dec, approx.coefficient(k), 40), k


@pytest.fixture(scope="module")
def exact_budget_table():
    """mu-q:1/3,7/5 at K=30 on the exact backend, as 100-digit decimals."""
    sf = QuadraticOfQBasic(frac(1, 3), frac(7, 5))
    table = virial_coefficients(particle_series(sf, 30))
    return sf, [surd_oracle_decimal(value.terms, 100) for value in table.values]


@pytest.mark.parametrize("digits", [12, 20, 50])
def test_decimal_backend_meets_its_digit_budget(exact_budget_table, digits):
    sf, exact = exact_budget_table
    approx = virial_coefficients(particle_series(sf, 30, DecimalBackend(digits)))
    for k, (a, e) in enumerate(zip(approx.values, exact), start=1):
        assert abs(a - e) < Decimal(10) ** -digits, k


@pytest.mark.parametrize("descriptor, order, digits", [
    pytest.param("q-mu:3/2,1/7", 80, 200, id="q-mu:3/2,1/7-80"),
    pytest.param("t:1/2;mu:1/7;q:3/2", 70, 200, id="t:1/2;mu:1/7;q:3/2-70"),
    pytest.param("q-mu:3/2,1/7", 80, 50, id="q-mu:3/2,1/7-80-decimal:50"),
    pytest.param("t:1/2;mu:1/7;q:3/2", 70, 100, id="t:1/2;mu:1/7;q:3/2-70-decimal:100"),
])
def test_decimal_backend_meets_its_digit_budget_at_bench_scale(descriptor, order, digits, monkeypatch):
    # the reference runs revert's per-term power table and Horner's rule 150
    # digits higher; the bound is relative, since |V_k| reaches 1e15 here
    sf = parse_descriptor(descriptor)
    approx = virial_coefficients(particle_series(sf, order, DecimalBackend(digits)))
    monkeypatch.setattr(thermo, "revert", loop_revert)
    monkeypatch.setattr(thermo, "compose", horner_compose)
    exact = virial_coefficients(particle_series(sf, order, DecimalBackend(digits + 150)))
    for k, (a, e) in enumerate(zip(approx.values, exact.values), start=1):
        assert abs(a - e) <= Decimal(10) ** -digits * max(1, abs(e)), k


def test_decimal_pipeline_dot_work(monkeypatch):
    # total length of the backend dot products of one K=80 table: a half-order
    # reversion, squared baby powers and products cut to both factors' nonzero
    # spans (61,645 with a full-order reversion, 78,409 also without the cuts)
    lengths = []
    dot = DecimalBackend.dot
    monkeypatch.setattr(
        DecimalBackend, "dot", lambda self, xs, ys: lengths.append(len(xs)) or dot(self, xs, ys)
    )
    sf = QBasicOfQuadratic(Fraction(3, 2), Fraction(1, 7))
    virial_coefficients(particle_series(sf, 80, DecimalBackend(50)))
    assert sum(lengths) <= 36_000


def test_exact_table_radicand_pairs(monkeypatch):
    # exact work as radicand pairs of the surd dots, sum of len(x._num) * len(y._num)
    # over nonzero terms: a host-independent gate.  With generic parameters the
    # count is a function of K alone; a vanishing phi(n) can only remove terms.
    pairs = []
    dot = SurdBackend.dot

    def counted(self, xs, ys):
        pairs.append(sum(len(x._num) * len(y._num) for x, y in zip(xs, ys) if x and y))
        return dot(self, xs, ys)

    monkeypatch.setattr(SurdBackend, "dot", counted)

    def count(descriptor, order):
        pairs.clear()
        virial_coefficients(particle_series(parse_descriptor(descriptor), order))
        return sum(pairs)

    generic = count("q:5/3", 24)
    assert generic <= 61_573
    assert count("q:5/3", 32) <= 305_962
    for descriptor in ("mu:1/2", "mu:1/3", "mu:1/4", "q:-1"):
        assert count(descriptor, 24) <= generic, descriptor


# -- second-virial deviation -----------------------------------------------------


def test_deviation_pure_interaction_limit():
    rng = random.Random(11)
    for _ in range(20):
        q = rand_positive_q(rng)
        deviation = second_virial_deviation(QuadraticOfQBasic(frac(0), q))
        assert deviation == SURD.half_power(2, 7) * (1 - q)


def test_deviation_pure_compositeness_limit():
    rng = random.Random(12)
    for _ in range(20):
        mu = rand_fraction(rng)
        deviation = second_virial_deviation(QuadraticOfQBasic(mu, frac(1)))
        assert deviation == SURD.half_power(2, 5) * mu
    assert second_virial_deviation(QuadraticOfQBasic(frac(0), frac(1))) == SURD.zero


# -- metadata --------------------------------------------------------------------


def test_mu_unit_fraction_metadata():
    # the table keeps the cutoff; the CLI reports mu itself (tests/test_cli.py)
    table = virial_coefficients(particle_series(Quadratic(frac(1, 2)), 4))
    assert table.first_nonpositive_phi == 3  # phi(3) = 0 at mu = 1/2
    flat = virial_coefficients(particle_series(UNDEFORMED, 4))
    assert flat.first_nonpositive_phi is None


@pytest.mark.parametrize("descriptor, backend, flag", [
    ("q-mu:3/2,1/3", DecimalBackend(30), 4),  # the exponent (1+mu)*n - mu*n**2 is 0 at n = 4
    ("q-mu:1/2,2/7", DecimalBackend(30), 5),  # q < 1: phi(n) <= 0 once the exponent is, n >= 1 + 1/mu
    ("t:1/2;mu:1/3;q:3/2", DecimalBackend(30), 3),
    ("q-mu:3/2,1/7", DecimalBackend(30), 8),
    ("q-mu:3/2,-1/3", DecimalBackend(30), None),
    # on surds the flag reads x_n's term on the square-free part of n
    ("mu:2/7", SURD, 5), ("mu:1/5", SURD, 6), ("mu:1/3", SURD, 4), ("q:-2", SURD, 2),
    ("mu-q:-1/3,3/2", SURD, None),
])
def test_flag_is_the_first_nonpositive_phi(descriptor, backend, flag):
    sf = parse_descriptor(descriptor)
    row = eval_structure(sf, 10, backend)
    signs = [value.rational_part() if backend is SURD else value for value in row]
    assert next((n for n in range(1, 11) if signs[n] <= 0), None) == flag
    assert virial_coefficients(particle_series(sf, 10, backend)).first_nonpositive_phi == flag


@pytest.mark.parametrize("descriptor, backend", [
    ("mu-q:1/3,7/5", SURD), ("q-mu:3/2,1/7", DecimalBackend(20)), ("q-eps:order=3", TruncPolyBackend(3)),
], ids=["surd", "decimal", "truncpoly"])
def test_a_table_evaluates_phi_once(descriptor, backend):
    calls = []

    def counted(sf, order, backend):
        calls.append(order)
        return eval_structure(sf, order, backend)

    with mock.patch.object(series, "eval_structure", counted), mock.patch.object(thermo, "eval_structure", counted):
        virial_coefficients(particle_series(parse_descriptor(descriptor), 12, backend))
    assert calls == [12]


def test_an_order_one_table_is_v1_alone():
    # the library's lower bound is the log-partition series' order 1; K >= 2 is the CLI's rule
    for descriptor, backend in (("mu-q:1/3,7/5", SURD), ("q-mu:3/2,1/7", DEC50), ("q-eps:order=2", TruncPolyBackend(2))):
        assert virial_coefficients(particle_series(parse_descriptor(descriptor), 1, backend)).values == (backend.one,)
    with pytest.raises(ValueError):
        particle_series(UNDEFORMED, 0)


# -- symbolic eps backend ---------------------------------------------------------


def test_eps_virial_table_polynomials():
    backend = TruncPolyBackend(2)
    table = virial_coefficients(particle_series(QBasicSeries(2), 5, backend))
    v2 = table.coefficient(2)
    # V2(eps) = -(2 + eps)/2^(7/2)
    assert v2 == TruncPoly(2, {0: SurdRational({2: frac(-1, 8)}), 1: SurdRational({2: frac(-1, 16)})})
    v3 = table.coefficient(3)
    assert v3.coefficient(0) == UNDEFORMED_EXACT[3]
    assert v3.coefficient(1) == UNDEFORMED_EXACT[3]  # eps-slope equals the flat value
    assert v3.coefficient(2) == SurdRational({1: frac(1, 32), 3: frac(-2, 81)})
    assert table.first_nonpositive_phi is None
    # closed forms evaluate on the same backend and must agree
    assert closed_form_virial(QBasicSeries(2), 3, backend) == v3
    for k in range(2, 6):
        assert closed_form_virial(QBasicSeries(2), k, backend) == table.coefficient(k), k


@pytest.mark.parametrize("order, q", [(8, frac(5, 3)), (10, frac(-2, 7)), (12, frac(3))])
def test_eps_tables_at_eps_q_minus_one_are_the_surd_tables(order, q):
    # V_k has degree at most k - 1 in q, so the eps table truncated at K - 1
    # evaluated at eps = q - 1 is the q: table exactly: the TruncPoly and surd
    # rings checked against each other
    backend = TruncPolyBackend(order - 1)
    eps_table = virial_coefficients(particle_series(QBasicSeries(order - 1), order, backend))
    surd_table = virial_coefficients(particle_series(QBasic(q), order))
    eps = q - 1
    evaluated = tuple(sum((c * eps**i for i, c in poly.coeffs.items()), SURD.zero) for poly in eps_table.values)
    assert evaluated == surd_table.values


def test_qbasic_of_quadratic_rejected_on_exact_backend():
    with pytest.raises(UnsupportedBackendError):
        virial_coefficients(particle_series(QBasicOfQuadratic(frac(3, 2), frac(1, 4)), 3))


# -- deep exact oracle --------------------------------------------------------------


@pytest.mark.parametrize("descriptor, order", [("mu-q:1/3,7/5", 16), ("q:5/3", 20)])
def test_engine_matches_the_lagrange_buermann_oracle(descriptor, order):
    # K=20 is past _DIRECT_REVERT_ORDER, so there revert takes its Newton step
    sf = parse_descriptor(descriptor)
    table = virial_coefficients(particle_series(sf, order))
    assert [FractionSurd(v.terms) for v in table.values] == lagrange_virials(sf, order)


# -- deeper still: images in F_{P^2} ----------------------------------------------------

# the tables that tests/test_cli.py byte-pins, past lagrange_virials' K = 20
DEEP_TABLES = [("q:5/3", 40), ("mu-q:1/3,7/5", 32), ("mu:-1/3", 32)]


@functools.cache
def deep_table(descriptor: str, order: int) -> tuple:
    return virial_coefficients(particle_series(parse_descriptor(descriptor), order)).values


@pytest.mark.parametrize("descriptor, order", DEEP_TABLES, ids=[d for d, _ in DEEP_TABLES])
def test_deep_tables_equal_the_fp2_oracle_under_two_embeddings(descriptor, order):
    sf, rng = parse_descriptor(descriptor), random.Random(order)
    tables = [v.terms for v in deep_table(descriptor, order)]
    first, second = fp2_table_images(sf, tables, rng), fp2_table_images(sf, tables, rng)
    assert first[0] == first[1]
    assert second[0] == second[1]
    assert first[0] != second[0]  # the two embeddings differ


@pytest.mark.parametrize("descriptor, order", DEEP_TABLES, ids=[d for d, _ in DEEP_TABLES])
def test_fp2_oracle_detects_one_changed_numerator(descriptor, order):
    # V_K + 1/den on its largest radicand, den the common denominator of V_K
    tables = [v.terms for v in deep_table(descriptor, order)]
    last = tables[-1]
    last[max(last)] += Fraction(1, math.lcm(*(c.denominator for c in last.values())))
    engine, oracle = fp2_table_images(parse_descriptor(descriptor), tables, random.Random(order))
    assert engine[:-1] == oracle[:-1]
    assert engine[-1] != oracle[-1]


small_rationals = st.fractions(min_value=-2, max_value=3, max_denominator=7)


@given(st.one_of(
           small_rationals.filter(lambda q: q != 1).map(QBasic),
           small_rationals.map(Quadratic),
           st.builds(QuadraticOfQBasic, small_rationals, small_rationals)),
       st.integers(2, 24), st.randoms(use_true_random=False))
@example(QuadraticOfQBasic(Fraction(1, 3), Fraction(7, 5)), 19, random.Random(19))  # the walk's last K
@settings(max_examples=25, deadline=None)
def test_exact_tables_equal_the_fp2_oracle(sf, order, rng):
    tables = [v.terms for v in virial_coefficients(particle_series(sf, order)).values]
    engine, oracle = fp2_table_images(sf, tables, rng)
    assert engine == oracle


# -- half-order reversion: the table equals P(z(x)) / x exactly ------------------------


def full_reversion_table(x):
    """V_1..V_K as [x**k] P(z(x)) with z(x) reverted to the full order K."""
    return series.compose(series.euler_inverse(x), series.revert(x)).coeffs[1:]


@given(
    st.builds(Fraction, st.integers(min_value=-6, max_value=6).filter(bool), st.integers(min_value=1, max_value=5)),
    st.sampled_from(range(2, 25)).flatmap(lambda k: st.lists(surd_coeff_st, min_size=k - 1, max_size=k - 1)),
)
@settings(max_examples=60, deadline=None)
def test_half_order_reversion_table_equals_the_full_composition(c1, tail):
    # any density series with a rational c_1 != 0, at even and odd K up to 24
    x = PowerSeries(SURD, [SURD.zero, c1] + tail)
    assert virial_coefficients(x).values == full_reversion_table(x)


@pytest.mark.parametrize(
    "descriptor, order, backend",
    # at K=34 the half-order reversion (n = 17) itself takes a Newton step
    [("mu-q:1/3,7/5", 34, SURD), ("q-eps:order=2", 12, TruncPolyBackend(2))],
    ids=["mu-q-34", "q-eps-12"],
)
def test_half_order_reversion_table_equals_the_full_composition_on_models(descriptor, order, backend):
    x = particle_series(parse_descriptor(descriptor), order, backend)
    assert virial_coefficients(x).values == full_reversion_table(x)


# -- small exact tables: the partition sum of Lagrange inversion ---------------------


# mu = 1/m and q = -1 make a phi(n) vanish; the third pool has 100-digit numbers
_model_params = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=9),
    st.integers(1, 8).map(lambda m: Fraction(1, m)),
    st.builds(Fraction, st.integers(-10**100, 10**100), st.integers(10**99, 10**100)),
)


# every kind with an exact phi (t only at t = 1)
_exact_models = st.one_of(
    _model_params.filter(lambda q: q != 1).map(QBasic),
    _model_params.map(Quadratic),
    st.builds(QuadraticOfQBasic, _model_params, _model_params),
    st.builds(Interpolated, st.just(Fraction(1)), _model_params,
              _model_params.filter(lambda q: q > 0 and q != 1)),
)


@given(_exact_models, st.integers(2, 19))
@example(Quadratic(Fraction(1)), 19)
@example(QBasic(Fraction(-1)), 19)
@settings(max_examples=60, deadline=None)
def test_small_exact_tables_equal_the_full_composition(sf, order):
    x = particle_series(sf, order)
    full = full_reversion_table(x)
    assert virial_coefficients(x).values == full
    assert thermo._series_virials(x) == full  # the engine, which these tables no longer take


@given(_exact_models, st.integers(1, 19))
@example(Quadratic(Fraction(1)), 19)
@example(QBasic(Fraction(-1)), 19)
@example(Quadratic(Fraction(1, 3)), 9)
@settings(max_examples=80, deadline=None)
def test_small_exact_fugacity_series_equal_the_reversion(sf, order):
    x = particle_series(sf, order)
    assert fugacity_of_density(x) == series.revert(x)


@given(
    st.builds(Fraction, st.integers(min_value=-6, max_value=6).filter(bool), st.integers(min_value=1, max_value=5))
    .filter(lambda c1: c1 != 1),
    st.integers(1, 19).flatmap(lambda k: st.lists(surd_coeff_st, min_size=k - 1, max_size=k - 1)),
)
@settings(max_examples=60, deadline=None)
def test_the_fugacity_walk_equals_the_reversion_for_any_rational_c1(c1, tail):
    # the walk takes c_1 = 1, as in every particle_series; any other c_1 takes revert
    for lead, walks in ((1, True), (c1, False)):
        x = PowerSeries(SURD, [SURD.zero, lead] + tail)
        assert thermo._takes_partition_sum(x) == walks
        assert fugacity_of_density(x) == series.revert(x)


def test_fugacity_off_the_partition_sum_takes_revert(monkeypatch):
    reverted = []
    monkeypatch.setattr(thermo, "revert", lambda f, revert=thermo.revert: reverted.append(f.order) or revert(f))
    sf = parse_descriptor("mu-q:1/5,3/2")
    fugacity_of_density(particle_series(sf, 19))
    assert reverted == []
    for x in (
        particle_series(sf, 20),
        PowerSeries(SURD, [0, 1, SurdRational({1: Fraction(1, 3), 2: Fraction(-1, 5)}), SurdRational({3: 2})]),
        particle_series(sf, 6, DEC50),
        particle_series(parse_descriptor("q-eps:order=2"), 5, TruncPolyBackend(2)),
    ):
        fugacity_of_density(x)
    assert reverted == [20, 3, 6, 5]


def series_calls(monkeypatch):
    """A list that records the inner order of each `compose` call of the series engine."""
    orders = []
    monkeypatch.setattr(thermo, "compose", lambda f, g, compose=thermo.compose: orders.append(g.order) or compose(f, g))
    return orders


def test_the_partition_sum_takes_exact_tables_up_to_k19(monkeypatch):
    orders = series_calls(monkeypatch)
    for order in (2, 19):
        virial_coefficients(particle_series(parse_descriptor("mu-q:1/5,3/2"), order))
    assert orders == []
    virial_coefficients(particle_series(parse_descriptor("mu-q:1/5,3/2"), 20))
    assert orders == [20]


def test_a_multi_radicand_density_series_takes_the_series_engine(monkeypatch):
    orders = series_calls(monkeypatch)
    x = PowerSeries(SURD, [0, 1, SurdRational({1: Fraction(1, 3), 2: Fraction(-1, 5)}), SurdRational({3: 2})])
    assert virial_coefficients(x).values == full_reversion_table(x)
    assert orders == [3]


@pytest.mark.parametrize("c0, c1, error", [
    (SURD.one, SURD.one, NonzeroConstantTermError),
    (SURD.zero, SURD.zero, ZeroLinearCoefficientError),
    (SURD.zero, SURD.half_power(2, 1), ZeroLinearCoefficientError),
], ids=["c0", "c1-zero", "c1-irrational"])
def test_a_density_series_off_the_partition_sum_raises_the_engines_error(c0, c1, error):
    with pytest.raises(error):
        virial_coefficients(PowerSeries(SURD, [c0, c1, SURD.half_power(2, 5), SURD.half_power(3, 5)]))


# -- metamorphic identities of the engine ------------------------------------------


@pytest.mark.parametrize("q", [frac(5, 3), frac(-2, 7), frac(3)])
def test_inverting_q_scales_v_k_by_q_to_the_one_minus_k(q):
    # [n]_(1/q) = q**(1-n) [n]_q, and V_k has weight k-1 in phi(2), phi(3), ...
    table = virial_coefficients(particle_series(parse_descriptor(f"q:{q}"), 10))
    inverse = virial_coefficients(particle_series(parse_descriptor(f"q:{1 / q}"), 10))
    for k in range(1, 11):
        assert inverse.coefficient(k) == q ** (1 - k) * table.coefficient(k), k


@pytest.mark.parametrize("descriptor", ["mu:{}", "mu-q:{},3/2"])
def test_kth_finite_difference_in_mu_of_v_k_vanishes(descriptor):
    # phi(n) is linear in mu, so V_k is a polynomial of degree <= k-1 in mu
    tables = [
        virial_coefficients(particle_series(parse_descriptor(descriptor.format(frac(j, 3))), 10))
        for j in range(11)
    ]
    for k in range(1, 11):
        difference = sum((-1) ** (k - j) * math.comb(k, j) * tables[j].coefficient(k) for j in range(k + 1))
        assert difference == 0, k


@pytest.mark.parametrize(
    "descriptor, backend",
    [("mu-q:1/3,7/5", SURD), ("q:-2/7", SURD), ("mu:2/5", SURD), ("q-eps:order=2", TruncPolyBackend(2))],
    ids=["mu-q", "q", "mu", "q-eps"],
)
def test_gibbs_duhem_reads_the_table_off_ln_of_z_over_x(descriptor, backend):
    # V_k = (k-1)/k [x**(k-1)] ln(z(x)/x); the log of the unit series u = z/x
    # by m*l_m = m*u_m - sum_{i=1..m-1} i*l_i*u_(m-i)
    x = particle_series(parse_descriptor(descriptor), 10, backend)
    u = series.revert(x).coeffs[1:]  # not the walk the table takes
    log = [backend.zero]
    for m in range(1, len(u)):
        log.append(u[m] - sum((i * log[i] * u[m - i] for i in range(1, m)), backend.zero) / m)
    table = virial_coefficients(x)
    for k in range(2, 11):
        assert table.coefficient(k) == log[k - 1] * frac(k - 1, k), k


# -- the identities at K=14: exact, and on decimal:50 within the digit budget --------
# Only well-conditioned models: each of these tables uses under 1e-10 of the
# budget |err| <= 10**-D * max(1, |V_k|) against the exact table.


DEEP_BACKENDS = pytest.mark.parametrize("backend", [SURD, DEC50], ids=["exact", "decimal:50"])


def agree(value, reference, backend, size=None):
    """value == reference on an exact backend; on the decimal one within
    10**-D * size, where size defaults to max(1, |reference|)."""
    if backend.is_exact:
        return value == reference
    size = max(1, abs(reference)) if size is None else size
    return abs(value - reference) <= Decimal(10) ** -backend.digits * size


@DEEP_BACKENDS
@pytest.mark.parametrize("q", [frac(5, 3), frac(-2, 7), frac(3)])
def test_inverting_q_scales_v_k_at_k14(q, backend):
    table = virial_coefficients(particle_series(QBasic(q), 14, backend))
    inverse = virial_coefficients(particle_series(QBasic(1 / q), 14, backend))
    with backend.arith():
        for k in range(1, 15):
            expected = backend.from_fraction(q ** (1 - k)) * table.coefficient(k)
            assert agree(inverse.coefficient(k), expected, backend), k


@DEEP_BACKENDS
@pytest.mark.parametrize("model", [Quadratic, lambda mu: QuadraticOfQBasic(mu, frac(3, 2))], ids=["mu", "mu-q"])
def test_kth_finite_difference_in_mu_vanishes_at_k14(model, backend):
    tables = [virial_coefficients(particle_series(model(frac(j, 3)), 14, backend)) for j in range(15)]
    with backend.arith():
        for k in range(1, 15):
            values = [tables[j].coefficient(k) for j in range(k + 1)]
            difference = sum(((-1) ** (k - j) * math.comb(k, j) * v for j, v in enumerate(values)), backend.zero)
            # each V_k(mu_j) carries its own budget, so the difference carries their weighted sum
            size = None if backend.is_exact else sum(math.comb(k, j) * max(1, abs(v)) for j, v in enumerate(values))
            assert agree(difference, backend.zero, backend, size), k


@DEEP_BACKENDS
@pytest.mark.parametrize("descriptor", ["mu-q:1/3,7/5", "q:-2/7", "mu:2/5"])
def test_gibbs_duhem_reads_the_table_off_ln_of_z_over_x_at_k14(descriptor, backend):
    x = particle_series(parse_descriptor(descriptor), 14, backend)
    u = series.revert(x).coeffs[1:]  # not the walk the table takes
    table = virial_coefficients(x)
    with backend.arith():
        log = [backend.zero]
        for m in range(1, len(u)):
            log.append(u[m] - sum((i * log[i] * u[m - i] for i in range(1, m)), backend.zero) / m)
        for k in range(2, 15):
            assert agree(table.coefficient(k), log[k - 1] * backend.from_fraction(frac(k - 1, k)), backend), k

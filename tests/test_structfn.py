"""Structure functions: exact evaluation, eps expansions, monomial table,
limit degeneracies, and the descriptor grammar."""

import math
import random
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from qvirial import (
    DecimalBackend,
    DescriptorError,
    Interpolated,
    QBasic,
    QBasicOfQuadratic,
    QBasicSeries,
    Quadratic,
    QuadraticOfQBasic,
    SURD,
    SurdRational,
    TruncPoly,
    TruncPolyBackend,
    UNDEFORMED,
    UnsupportedBackendError,
    eval_eps,
    eval_structure,
    monomial_expansion,
    parse_descriptor,
)

from qvirial import errors, exact, structfn
from qvirial.structfn import _stirling_rows

from helpers import fraction_phi, rand_positive_q, sig_agree

DEC50 = DecimalBackend(50)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=10)
q_values = st.fractions(min_value=Fraction(1, 10), max_value=3, max_denominator=10).filter(
    lambda q: q != 1
)


# -- eval --------------------------------------------------------------------


def test_eval_zero_is_zero_for_every_variant():
    variants = [
        QBasic(Fraction(2)),
        Quadratic(Fraction(1, 2)),
        QuadraticOfQBasic(Fraction(1, 3), Fraction(3, 2)),
        QBasicSeries(4),
    ]
    for sf in variants:
        backend = TruncPolyBackend(4) if isinstance(sf, QBasicSeries) else SURD
        value = eval_structure(sf, 0, backend)[0]
        assert not value if isinstance(value, TruncPoly) else value == 0
    assert eval_structure(QBasicOfQuadratic(Fraction(3, 2), Fraction(1, 4)), 0, DEC50)[0] == 0


def test_phi_keeps_no_state_between_calls():
    # a row's ln q and exps live for one call, so no job reuses another's
    assert [name for name, value in vars(structfn).items() if hasattr(value, "cache_info")] == []


def test_eval_qbasic_geometric_sum():
    assert eval_structure(QBasic(Fraction(2)), 3, SURD)[3] == 7


def test_eval_quadratic_cutoff():
    assert eval_structure(Quadratic(Fraction(1, 2)), 3, SURD)[3] == 0


def test_eval_combined_example():
    # [2]_q = 3 at q = 2, then (3/2)*3 - (1/2)*9 = 0
    assert eval_structure(QuadraticOfQBasic(Fraction(0), Fraction(2)), 2, SURD)[2] == 3
    assert eval_structure(QuadraticOfQBasic(Fraction(1, 2), Fraction(2)), 2, SURD)[2] == 0


def test_basic_number_is_the_geometric_sum():
    # [n]_q is QuadraticOfQBasic at mu = 0, the one variant that takes q = 1
    for q in (Fraction(0), Fraction(1), Fraction(-2, 3), Fraction(3, 2), Fraction(7, 5)):
        for n in range(13):
            expected = sum((q**i for i in range(n)), Fraction(0))
            assert eval_structure(QuadraticOfQBasic(Fraction(0), q), n, SURD)[n] == expected, (q, n)


def test_qbasic_of_quadratic_decimal_follows_q_and_the_digit_budget():
    # q**e = q**floor(e) * exp(frac(e) * ln q), the fractional factors computed
    # once per table; a new q, mu or digit budget must not reuse them
    cases = [
        (Fraction(3, 2), Fraction(1, 7), 20), (Fraction(3, 2), Fraction(1, 7), 60),
        (Fraction(2, 5), Fraction(1, 7), 60), (Fraction(2, 5), Fraction(3, 7), 60),
        (Fraction(3, 2), Fraction(1, 7), 20),
    ]
    for q, mu, digits in cases:
        backend = DecimalBackend(digits)
        for n in (2, 3, 5):
            with backend.arith():
                q_dec = Decimal(q.numerator) / Decimal(q.denominator)
                e = (1 + mu) * n - mu * n * n
                f = e - math.floor(e)
                fraction = (Decimal(f.numerator) / Decimal(f.denominator) * q_dec.ln()).exp()
                power = q_dec ** math.floor(e) * fraction
                expected = (1 - power) / (1 - q_dec)
            assert eval_structure(QBasicOfQuadratic(q, mu), n, backend)[n] == expected, (q, mu, digits, n)


@given(st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=12).filter(lambda q: q != 1),
       st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
       st.integers(0, 40), st.sampled_from([DecimalBackend(20), DecimalBackend(50)]))
@settings(max_examples=60, deadline=None)
def test_qbasic_of_quadratic_splits_negative_and_positive_exponents(q, mu, n, backend):
    # e = (1+mu)*n - mu*n**2 in Fractions, negative for mu > 0 at large n;
    # the same Decimal steps as the engine, in the context of the backend widened
    # by the digits that 1 - q cancels
    e = (1 + mu) * n - mu * n * n
    whole = math.floor(e)
    wide = backend.widened(1 - q)
    with wide.arith():
        q_dec = wide.from_fraction(q)
        power = q_dec ** whole * (wide.from_fraction(e - whole) * q_dec.ln()).exp()
        expected = (1 - power) / (1 - q_dec)
    assert eval_structure(QBasicOfQuadratic(q, mu), n, backend)[n] == expected


def test_decimal_legs_build_no_records(monkeypatch):
    # phi reads q, mu and t from the record it is given: evaluating builds
    # no other structure function (nor any other Frozen record)
    models = [
        Interpolated(Fraction(1, 3), Fraction(1, 4), Fraction(3, 2)),
        Interpolated(Fraction(1), Fraction(1, 4), Fraction(3, 2)),
        QBasicOfQuadratic(Fraction(3, 2), Fraction(1, 4)),
    ]
    calls = []
    original = errors.Frozen._set
    monkeypatch.setattr(errors.Frozen, "_set", lambda self, *values: calls.append(self) or original(self, *values))
    for sf in models:
        for n in range(21):
            eval_structure(sf, n, DEC50)[n]
    assert calls == []


@pytest.mark.parametrize("digits", [50, 200])
def test_qbasic_of_quadratic_decimal_meets_its_digit_budget(digits):
    # against exp(e * ln q) 150 digits higher; |e| reaches 15,000 at mu = -3/2
    backend = DecimalBackend(digits)
    mus = [Fraction(c, 7) for c in (1, 3, 6)] + [Fraction(999, 1000), Fraction(-3, 2)]
    for mu in mus:
        for q in (Fraction(3, 2), Fraction(2, 5)):
            row = eval_structure(QBasicOfQuadratic(q, mu), 100, backend)
            with localcontext(Context(prec=digits + 150)):
                q_ref = Decimal(q.numerator) / Decimal(q.denominator)
                ln_q = q_ref.ln()
                for n in range(101):
                    e = (1 + mu) * n - mu * n * n
                    power = (Decimal(e.numerator) / Decimal(e.denominator) * ln_q).exp()
                    reference = (1 - power) / (1 - q_ref)
                    error = abs(row[n] - reference)
                    assert error <= abs(reference) * Decimal(10) ** -(digits + 5), (mu, q, n)


# q within 10**-j of 1: 1 - q**e and 1 - q each lose j leading digits
NEAR_ONE = [(j, 1 + sign * Fraction(1, 10**j)) for j in (8, 20, 28, 60) for sign in (1, -1)]


@pytest.mark.parametrize("digits", [12, 50])
@pytest.mark.parametrize("kind", ["q-mu", "t"])
def test_decimal_phi_near_q_one_meets_its_digit_budget(kind, digits):
    # against the reference form at D + j + 150 digits, |err| <= 10**-D * max(1, |phi(n)|)
    backend = DecimalBackend(digits)
    for mu in (Fraction(1, 7), Fraction(-1, 3)):
        for j, q in NEAR_ONE:
            sf = QBasicOfQuadratic(q, mu) if kind == "q-mu" else Interpolated(Fraction(1, 2), mu, q)
            row = eval_structure(sf, 8, backend)
            with localcontext(Context(prec=digits + j + 150)):
                q_ref = Decimal(q.numerator) / Decimal(q.denominator)
                ln_q = q_ref.ln()
                for n in range(9):
                    e = (1 + mu) * n - mu * n * n
                    reference = (1 - (Decimal(e.numerator) / Decimal(e.denominator) * ln_q).exp()) / (1 - q_ref)
                    if kind == "t":
                        rational = fraction_phi(QuadraticOfQBasic(mu, q), n)
                        reference = (Decimal(rational.numerator) / Decimal(rational.denominator) + reference) / 2
                    error = abs(row[n] - reference)
                    assert error <= Decimal(10) ** -digits * max(1, abs(reference)), (mu, j, q > 1, n)


def test_decimal_phi_too_near_q_one_is_refused(monkeypatch):
    # D + 15 guard digits + j cancelled digits must fit the working-digit cap
    monkeypatch.setattr(exact, "_MAX_WORKING_DIGITS", 100)
    sf = QBasicOfQuadratic(1 + Fraction(1, 10**73), Fraction(1, 7))
    assert eval_structure(sf, 4, DecimalBackend(12))[1] == 1
    with pytest.raises(UnsupportedBackendError, match="101 working digits"):
        eval_structure(sf, 4, DecimalBackend(13))
    with pytest.raises(UnsupportedBackendError):
        eval_structure(sf.replace(q=1 - Fraction(1, 10**74)), 4, DecimalBackend(12))
    assert [DecimalBackend(12).widened(1 - q).digits for q in (Fraction(3, 2), Fraction(9, 10), Fraction(101, 100))] == [12, 13, 14]


def test_eval_on_surd_backend_wraps_rational():
    value = eval_structure(QBasic(Fraction(3, 2)), 2, SURD)[2]
    assert value == SURD.from_fraction(Fraction(5, 2))


def test_qbasic_of_quadratic_needs_decimal_backend():
    sf = QBasicOfQuadratic(Fraction(3, 2), Fraction(1, 4))
    with pytest.raises(UnsupportedBackendError):
        eval_structure(sf, 2, SURD)[2]
    with pytest.raises(UnsupportedBackendError):
        eval_structure(sf, 2, TruncPolyBackend(2))[2]
    # on decimal: exponent [2]_{1/4} = 3/2, so phi(2) = (1 - q^(3/2))/(1 - q)
    value = eval_structure(sf, 2, DEC50)[2]
    with localcontext(Context(prec=70)):
        q = Decimal(3) / 2
        expected = (1 - (q * q * q).sqrt()) / (1 - q)
    assert sig_agree(value, expected, 40)


def test_interpolated_t1_stays_exact():
    sf = Interpolated(Fraction(1), Fraction(1, 3), Fraction(3, 2))
    exact = eval_structure(sf, 3, SURD)[3]
    assert exact == eval_structure(QuadraticOfQBasic(Fraction(1, 3), Fraction(3, 2)), 3, SURD)[3]
    with pytest.raises(UnsupportedBackendError):
        eval_structure(Interpolated(Fraction(1, 2), Fraction(1, 3), Fraction(3, 2)), 3, SURD)[3]


def test_interpolated_is_convex_combination():
    t, mu, q = Fraction(1, 3), Fraction(1, 4), Fraction(3, 2)
    blend = eval_structure(Interpolated(t, mu, q), 4, DEC50)[4]
    part_a = eval_structure(QuadraticOfQBasic(mu, q), 4, DEC50)[4]
    part_b = eval_structure(QBasicOfQuadratic(q, mu), 4, DEC50)[4]
    with localcontext(Context(prec=70)):
        t_dec = Decimal(1) / 3
        expected = t_dec * part_a + (1 - t_dec) * part_b
    assert sig_agree(blend, expected, 40)


def test_stored_q_never_one():
    with pytest.raises(ValueError):
        QBasic(Fraction(1))
    with pytest.raises(ValueError):
        QBasicOfQuadratic(Fraction(1), Fraction(1, 4))
    with pytest.raises(ValueError):
        Interpolated(Fraction(1, 2), Fraction(1, 4), Fraction(1))
    # the q -> 1 limit lives in the combined variant, by exact substitution
    assert eval_structure(QuadraticOfQBasic(Fraction(1, 4), Fraction(1)), 5, SURD)[5] == \
        eval_structure(Quadratic(Fraction(1, 4)), 5, SURD)[5]


@given(rationals, st.integers(0, 8))
@settings(max_examples=80)
def test_quadratic_normalization_properties(mu, n):
    sf = Quadratic(mu)
    assert eval_structure(sf, 0, SURD)[0] == 0
    assert eval_structure(sf, 1, SURD)[1] == 1


@given(rationals, q_values, st.sampled_from([0, 1]))
@settings(max_examples=80)
def test_phi_normalization_all_variants(mu, q, n):
    expected = n  # phi(0) = 0 and phi(1) = 1
    assert eval_structure(QBasic(q), n, SURD)[n] == expected
    assert eval_structure(Quadratic(mu), n, SURD)[n] == expected
    assert eval_structure(QuadraticOfQBasic(mu, q), n, SURD)[n] == expected
    if q > 0:
        assert eval_structure(QBasicOfQuadratic(q, mu), n, DEC50)[n] == expected
        assert eval_structure(Interpolated(Fraction(1, 3), mu, q), n, DEC50)[n] == expected


@given(q_values, st.integers(0, 10))
@settings(max_examples=60)
def test_limit_degeneracies(q, n):
    mu = Fraction(0)
    assert eval_structure(QuadraticOfQBasic(mu, q), n, SURD)[n] == eval_structure(
        QBasic(q), n, SURD
    )[n]


def test_qbasic_of_quadratic_mu_zero_limit_matches_qbasic():
    q = Fraction(3, 2)
    for n in range(0, 7):
        lhs = eval_structure(QBasicOfQuadratic(q, Fraction(0)), n, DEC50)[n]
        rhs = DEC50.from_fraction(sum((q**i for i in range(n)), Fraction(0)))
        assert sig_agree(lhs, rhs, 45) or lhs == rhs


def test_interpolated_endpoints_pointwise():
    t0 = Interpolated(Fraction(0), Fraction(1, 4), Fraction(3, 2))
    t1 = Interpolated(Fraction(1), Fraction(1, 4), Fraction(3, 2))
    for n in range(0, 9):
        a = eval_structure(t0, n, DEC50)[n]
        b = eval_structure(QBasicOfQuadratic(Fraction(3, 2), Fraction(1, 4)), n, DEC50)[n]
        assert a == b or sig_agree(a, b, 45)
        c = eval_structure(t1, n, DEC50)[n]
        d = DEC50.from_fraction(
            eval_structure(QuadraticOfQBasic(Fraction(1, 4), Fraction(3, 2)), n, SURD)[n].rational_part()
        )
        assert c == d or sig_agree(c, d, 45)


def test_quadratic_unit_fraction_cutoff():
    for m in range(1, 8):
        sf = Quadratic(Fraction(1, m))
        assert eval_structure(sf, m + 1, SURD)[m + 1] == 0


# -- eps expansion ------------------------------------------------------------


def test_eval_eps_examples():
    assert eval_eps(1, 5) == TruncPoly(5, {0: 1})
    assert eval_eps(2, 3) == TruncPoly(3, {0: 2, 1: 1})
    assert eval_eps(3, 2) == TruncPoly(2, {0: 3, 1: 3, 2: 1})


def test_eval_eps_zero():
    assert not eval_eps(0, 4)
    assert eval_eps(0, 4) == TruncPoly(4)


def test_eval_eps_substitution_matches_qbasic():
    rng = random.Random(8)
    for _ in range(25):
        q = rand_positive_q(rng)
        n = rng.randint(0, 9)
        poly = eval_eps(n, order=max(n - 1, 0))
        value = sum((c * (q - 1) ** i for i, c in poly.coeffs.items()), SurdRational())
        assert value == SURD.from_fraction(sum((q**i for i in range(n)), Fraction(0)))


def test_eval_eps_via_eval_structure_backend():
    backend = TruncPolyBackend(2)
    value = eval_structure(QBasicSeries(6), 3, backend)[3]
    assert value == TruncPoly(2, {0: 3, 1: 3, 2: 1})
    with pytest.raises(UnsupportedBackendError):
        eval_structure(QBasicSeries(6), 3, SURD)[3]


def test_eps_row_lives_on_the_backend_order_and_the_series_cut():
    # QBasicSeries(2) on TruncPolyBackend(4): order-4 polynomials truncated at eps**2
    row = eval_structure(QBasicSeries(2), 6, TruncPolyBackend(4))
    assert len(row) == 7
    for n, value in enumerate(row):
        assert value.order == 4
        assert value == TruncPoly(4, {i: math.comb(n, i + 1) for i in range(3)}), n


def test_rational_phi_matches_fraction_reference():
    # one unreduced integer ratio per phi(n), against Fraction arithmetic and
    # conversions that do not go through from_ratio
    qs = [Fraction(0), Fraction(-3, 2), Fraction(-1), Fraction(2, 5), Fraction(7, 3), Fraction(5)]
    mus = [Fraction(-3, 4), Fraction(0), Fraction(1, 3), Fraction(5, 2)]
    models = [QBasic(q) for q in qs] + [Quadratic(mu) for mu in mus]
    models += [QuadraticOfQBasic(mu, q) for mu in mus for q in qs + [Fraction(1)]]
    poly_backend, dec = TruncPolyBackend(3), DecimalBackend(30)
    for sf in models:
        for n in range(31):
            value = fraction_phi(sf, n)
            assert eval_structure(sf, n, SURD)[n] == SurdRational({1: value}), (sf, n)
            assert eval_structure(sf, n, poly_backend)[n] == TruncPoly(3, {0: SurdRational({1: value})})
            with localcontext(dec.context):
                expected = Decimal(value.numerator) / Decimal(value.denominator)
            assert eval_structure(sf, n, dec)[n].as_tuple() == expected.as_tuple(), (sf, n)


def test_from_ratio_takes_unreduced_ratios():
    for backend in (SURD, TruncPolyBackend(2), DecimalBackend(20)):
        for num, den in ((6, 4), (-10, 15), (0, 7), (7, 1)):
            a, b = backend.from_ratio(num, den), backend.from_fraction(Fraction(num, den))
            assert a == b and str(a) == str(b), (backend, num, den)


# -- monomial expansion --------------------------------------------------------


def test_stirling_rows_match_the_falling_factorial():
    # coefficients of x(x-1)...(x-m+1), expanded one linear factor at a time
    coeffs = [1]
    for m in range(31):
        assert _stirling_rows(m)[m] == coeffs, m
        coeffs = [0] + coeffs  # times x
        for k in range(len(coeffs) - 1):
            coeffs[k] -= m * coeffs[k + 1]
    table, rows = monomial_expansion(30, 31), _stirling_rows(31)
    for i in range(31):
        for k in range(1, i + 2):
            value = Fraction(rows[i + 1][k], math.factorial(i + 1))
            assert table.get((k, i), Fraction(0)) == value


def test_stirling_first_small_table():
    # rows m = 0..4 of signed Stirling numbers of the first kind, s(m, 0..m)
    assert _stirling_rows(4) == [
        [1],
        [0, 1],
        [0, -1, 1],
        [0, 2, -3, 1],
        [0, -6, 11, -6, 1],
    ]


def test_monomial_expansion_printed_rows():
    table = monomial_expansion(order_eps=3, order_n=3)
    assert table[(1, 0)] == 1
    assert table[(1, 1)] == Fraction(-1, 2)
    assert table[(1, 2)] == Fraction(1, 3)
    assert table[(1, 3)] == Fraction(-1, 4)
    assert table[(2, 1)] == Fraction(1, 2)
    assert table[(2, 2)] == Fraction(-1, 2)
    assert table[(2, 3)] == Fraction(11, 24)
    assert table[(3, 2)] == Fraction(1, 6)
    assert table[(3, 3)] == Fraction(-1, 4)
    assert (2, 0) not in table  # N^2 starts at eps^1


def test_monomial_expansion_resums_to_eval_eps():
    order = 6
    table = monomial_expansion(order_eps=order, order_n=order + 1)
    for n in range(0, order + 2):
        for i in range(order + 1):
            resummed = sum(
                (coeff * Fraction(n) ** k for (k, j), coeff in table.items() if j == i),
                Fraction(0),
            )
            expected = eval_eps(n, order).coefficient(i).rational_part()
            assert resummed == expected, (n, i)


# -- descriptors ---------------------------------------------------------------


def test_parse_descriptor_round_trips():
    cases = [
        ("q:3/2", QBasic(Fraction(3, 2))),
        ("mu:1/4", Quadratic(Fraction(1, 4))),
        ("mu-q:1/4,3/2", QuadraticOfQBasic(Fraction(1, 4), Fraction(3, 2))),
        ("q-mu:3/2,1/4", QBasicOfQuadratic(Fraction(3, 2), Fraction(1, 4))),
        ("t:1/2;mu:1/4;q:3/2", Interpolated(Fraction(1, 2), Fraction(1, 4), Fraction(3, 2))),
        ("q-eps:order=6", QBasicSeries(6)),
    ]
    for text, expected in cases:
        sf = parse_descriptor(text)
        assert sf == expected
        assert sf.describe() == text


@given(st.sampled_from([QBasic, Quadratic, QuadraticOfQBasic, QBasicOfQuadratic, Interpolated]),
       st.lists(st.fractions(max_denominator=10**30) | st.just(Fraction(0)), min_size=3, max_size=3))
def test_parse_descriptor_round_trips_any_rationals(cls, values):
    try:
        sf = cls(*values[: len(cls.__slots__)])
    except ValueError:  # q = 1, or q <= 0 where q is raised to rational powers
        assume(False)
    assert parse_descriptor(sf.describe()) == sf


def test_parse_descriptor_rejects_garbage():
    for bad in ["", "frob:1", "q:", "mu-q:1/4", "t:1;mu:2", "q:1.5", "q-eps:order=x", "q:1",
                "t:1/2;t:1;mu:1/4;q:3/2", "mu-q:1,2,3", "q-mu:1", "mu:1,2"]:
        with pytest.raises(DescriptorError):
            parse_descriptor(bad)
    with pytest.raises(DescriptorError, match="repeats the mu: part"):
        parse_descriptor("t:1;mu:1/4;q:3/2; mu :1/3")


def test_undeformed_constant():
    for n in range(8):
        assert eval_structure(UNDEFORMED, n, SURD)[n] == n

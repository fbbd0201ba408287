"""Exact coefficient rings: radical normalization, surds, truncated polynomials,
decimal rendering, and ring axioms."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qvirial import (
    DecimalBackend,
    MixedBackendError,
    NumberPoly,
    PowerSeries,
    SURD,
    SurdRational,
    TruncPoly,
    TruncPolyBackend,
    UnboundVariableError,
    ZeroLinearCoefficientError,
    radical_normalize,
    revert,
    to_decimal,
)
from qvirial.cli import main

from helpers import FractionSurd, sig_agree, surd_oracle_decimal


def brute_square_split(n: int) -> tuple[int, int]:
    # oracle: largest square divisor by direct search
    best = 1
    for s in range(1, math.isqrt(n) + 1):
        if n % (s * s) == 0:
            best = s
    return best, n // (best * best)


# -- radical_normalize -------------------------------------------------------


def test_radical_normalize_identity():
    assert radical_normalize(1) == (1, 1)


def test_radical_normalize_examples():
    assert radical_normalize(12) == brute_square_split(12) == (2, 3)
    assert radical_normalize(18) == brute_square_split(18) == (3, 2)


def test_radical_normalize_matches_brute_force():
    for n in range(1, 500):
        assert radical_normalize(n) == brute_square_split(n)


def test_radical_normalize_idempotent_on_squarefree_part():
    for n in range(1, 200):
        _, r = radical_normalize(n)
        assert radical_normalize(r) == (1, r)


def test_radical_normalize_rejects_nonpositive():
    with pytest.raises(ValueError):
        radical_normalize(0)


# -- half_power --------------------------------------------------------------


def test_half_power_examples():
    assert SURD.half_power(1, 5) == SURD.from_fraction(1)
    assert SURD.half_power(2, 5) == SurdRational({2: Fraction(1, 8)})
    assert SURD.half_power(3, 7) == SurdRational({3: Fraction(1, 81)})
    assert SURD.half_power(4, 5) == SURD.from_fraction(Fraction(1, 32))


def test_half_power_square_is_exact_inverse_power():
    for n in range(1, 30):
        for k in (1, 3, 5, 7, 17):
            value = SURD.half_power(n, k)
            assert value * value == SURD.from_fraction(Fraction(1, n**k))


def test_half_power_rejects_even_or_nonpositive_k():
    with pytest.raises(ValueError):
        SURD.half_power(2, 4)
    with pytest.raises(ValueError):
        SURD.half_power(0, 5)


@pytest.mark.parametrize("backend", [SURD, TruncPolyBackend(3), DecimalBackend(50)], ids=lambda b: b.describe())
def test_every_backend_keeps_the_half_power_and_unit_contract(backend):
    for n, k in ((0, 5), (4, 2), (4, 0), (4, -1)):
        with pytest.raises(ValueError):
            backend.half_power(n, k)
    for n in range(1, 13):
        for k in (1, 3, 5, 7):
            exact, value = SURD.half_power(n, k), backend.half_power(n, k)
            if isinstance(backend, TruncPolyBackend):
                assert value == backend.from_surd(exact)
            else:
                assert to_decimal(value, 40) == to_decimal(exact, 40), (n, k)
    # the unit contract: a series reverts on its backend when its c_1 is 1, and only then
    for c1 in (backend.zero, backend.from_ratio(2, 1), backend.half_power(2, 1)):
        with pytest.raises(ZeroLinearCoefficientError, match="^revert needs the linear coefficient 1$"):
            revert(PowerSeries(backend, [backend.zero, c1, backend.one]))
    lead = TruncPoly(1, {0: 1}) if isinstance(backend, TruncPolyBackend) else backend.one  # of lower eps order too
    assert revert(PowerSeries(backend, [backend.zero, lead, lead])).coeffs[1:] == (1, -1)


# -- surd ring ---------------------------------------------------------------


def test_sqrt_two_squared():
    root2 = SurdRational({2: 1})
    assert root2 * root2 == SURD.from_fraction(2)


def test_difference_of_squares():
    root2, root3 = SurdRational({2: 1}), SurdRational({3: 1})
    product = (root2 + root3) * (root2 - root3)
    assert product == SURD.from_fraction(-1)
    # decimal cross-check of the factors themselves
    left = surd_oracle_decimal({2: Fraction(1), 3: Fraction(1)})
    right = surd_oracle_decimal({2: Fraction(1), 3: Fraction(-1)})
    assert sig_agree(left * right, Decimal(-1), 40)


def test_radicand_product_normalizes():
    root6 = SurdRational({2: 1}) * SurdRational({3: 1})
    assert root6 == SurdRational({6: 1})
    root12 = SurdRational({6: 1}) * SurdRational({2: 1})
    assert root12 == SurdRational({3: 2})  # sqrt(12) = 2*sqrt(3)


def test_constructor_normalizes_radicands_and_drops_zeros():
    value = SurdRational({8: Fraction(1, 2), 2: Fraction(-1), 5: 0})
    assert value == SurdRational({2: 0}) == SurdRational()
    assert not value


def test_division_by_rational_and_zero():
    root2 = SurdRational({2: 1})
    assert root2 / Fraction(2) == SurdRational({2: Fraction(1, 2)})
    assert root2 / 2 == SurdRational({2: Fraction(1, 2)})
    with pytest.raises(ZeroDivisionError):
        root2 / 0
    with pytest.raises(ValueError):
        root2 / SurdRational({3: 1})  # general surd inversion is out of scope


def test_truncpoly_division_by_a_rational():
    poly = TruncPoly(3, {0: SurdRational({1: Fraction(3, 4), 2: -5}), 2: SurdRational({3: Fraction(7, 9)}), 3: 2})
    divisors = [3, -4, Fraction(5, 7), Fraction(-2, 9)]
    divisors += [SURD.from_fraction(Fraction(6, 5)), SURD.from_fraction(-11)]
    for r in divisors:
        value = Fraction(r) if not isinstance(r, SurdRational) else r.rational_part()
        expected = {e: {rad: c / value for rad, c in coeff.terms.items()} for e, coeff in poly.coeffs.items()}
        quotient = poly / r
        assert quotient.order == 3 and {e: c.terms for e, c in quotient.coeffs.items()} == expected, r
        assert TruncPoly(3) / r == TruncPoly(3)
    for p in (poly, TruncPoly(3)):
        for zero in (0, Fraction(0), SurdRational()):
            with pytest.raises(ZeroDivisionError):
                p / zero
        for other in (Decimal(2), TruncPoly(3, {0: 2})):
            with pytest.raises(MixedBackendError):
                p / other
        with pytest.raises(ValueError):
            p / SurdRational({2: 1})


def test_mixed_backend_rejected():
    with pytest.raises(MixedBackendError):
        SurdRational({2: 1}) + Decimal("1.5")
    with pytest.raises(MixedBackendError):
        SurdRational({2: 1}) * Decimal("1.5")
    # a TruncPoly embeds a surd as its constant term from either side; only division refuses it
    s, p = SurdRational({2: 1}), TruncPoly(2, {0: 3, 1: SurdRational({3: 1})})
    assert SurdRational({2: 1}) * TruncPoly(2, {1: 1}) == TruncPoly(2, {1: 1}) * SurdRational({2: 1})
    assert s * p == p * s == TruncPoly(2, {0: SurdRational({2: 3}), 1: SurdRational({6: 1})})
    assert s + p == p + s == TruncPoly(2, {0: 3 + s, 1: SurdRational({3: 1})})
    assert s - p == -(p - s)
    with pytest.raises(MixedBackendError):
        s / p


def test_hash_agrees_with_eq():
    half = SURD.from_fraction(Fraction(1, 2))
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    assert len({half, Fraction(1, 2)}) == 1
    assert SurdRational() == 0 and hash(SurdRational()) == hash(0)
    assert SURD.from_fraction(3) == 3 and hash(SURD.from_fraction(3)) == hash(3)
    assert SurdRational({8: 1}) == SurdRational({2: 2})
    assert hash(SurdRational({8: 1})) == hash(SurdRational({2: 2}))
    for value in (half, SurdRational({2: Fraction(-1, 8)}), SurdRational()):
        poly = TruncPoly(2, {0: value})
        assert poly == value and hash(poly) == hash(value)
    zero_poly = TruncPoly(2)
    assert zero_poly == 0 and hash(zero_poly) == hash(0)
    assert len({TruncPoly(2, {0: half}), half, Fraction(1, 2)}) == 1
    linear = TruncPoly(2, {0: 1, 1: half})  # non-constant: hashed by order and coefficients
    square = TruncPoly(2, {2: Fraction(1, 4), 1: 1, 0: 1})
    assert linear * linear == square and hash(linear * linear) == hash(square)
    assert len({linear * linear, square, linear, TruncPoly(3, {0: 1, 1: half})}) == 3


def test_rational_part_accessors():
    value = SURD.from_fraction(Fraction(-7, 3))
    assert value.is_rational()
    assert value.rational_part() == Fraction(-7, 3)
    with pytest.raises(ValueError):
        SurdRational({2: 1}).rational_part()


# -- rendering ---------------------------------------------------------------


def test_render_matches_contract_example():
    value = SurdRational({2: Fraction(-7, 16), 3: Fraction(1, 81)})
    assert value.render() == "-7/16*sqrt(2) + 1/81*sqrt(3)"


def test_render_ordering_and_signs():
    value = SurdRational({1: Fraction(317, 1728), 2: Fraction(1, 8), 3: Fraction(-1, 6), 5: Fraction(-4, 125)})
    assert value.render() == "317/1728 + 1/8*sqrt(2) - 1/6*sqrt(3) - 4/125*sqrt(5)"
    assert SurdRational().render() == "0"
    assert SURD.from_fraction(2).render() == "2"
    assert SurdRational({1: -2, 3: Fraction(1, 9)}).render() == "-2 + 1/9*sqrt(3)"
    # NumberPoly renders through the same signed-sum join
    assert NumberPoly().render() == "0"
    assert NumberPoly([0, Fraction(-3, 2), 0, 0, 5]).render() == "-3/2*N + 5*N^4"
    assert NumberPoly([-1, 0, 1]).render() == "-1 + 1*N^2"


# -- truncated polynomials ---------------------------------------------------


def test_truncpoly_truncates_on_multiply():
    two_plus_eps = TruncPoly(1, {0: 2, 1: 1})
    squared = two_plus_eps * two_plus_eps
    assert squared == TruncPoly(1, {0: 4, 1: 4})
    assert TruncPoly(1, {0: 1, 2: 5}) == TruncPoly(1, {0: 1})  # powers above the order drop


def test_truncpoly_render():
    poly = TruncPoly(3, {0: SurdRational({2: Fraction(-1, 8)}), 1: Fraction(1, 2), 3: -2})
    assert poly.render() == "(-1/8*sqrt(2)) + (1/2)*eps + (-2)*eps^3"
    assert TruncPoly(2).render() == "0"
    assert TruncPoly(2).render(lambda c: to_decimal(c, 3)) == "(0.000)"


# -- to_decimal --------------------------------------------------------------


def test_to_decimal_second_virial_anchor():
    assert to_decimal(SurdRational({2: Fraction(-1, 8)}), 6) == "-0.176777"


def test_to_decimal_zero():
    assert to_decimal(SurdRational(), 6) == "0.000000"


def test_to_decimal_third_virial_anchor():
    value = SurdRational({1: Fraction(1, 8), 3: Fraction(-2, 27)})  # 1/8 - 2/(9*sqrt(3))
    assert to_decimal(value, 6) == "-0.003300"


def test_to_decimal_fraction_and_decimal_inputs():
    assert to_decimal(Fraction(1, 8), 3) == "0.125"
    assert to_decimal(Fraction(1, 8), 2) == "0.12"  # half-even
    assert to_decimal(Decimal("-1.25"), 1) == "-1.2"
    # a rational surd may sit exactly on a tie, and must still round half-even
    assert to_decimal(SURD.from_fraction(Fraction(1, 8)), 2) == "0.12"
    assert to_decimal(SURD.from_fraction(Fraction(-1, 8)), 2) == "-0.12"
    # values in (-0.5e-3, 0) round to zero and never render as "-0.000"
    tiny = Fraction(-1, 10**4)
    for value in (
        tiny,
        Decimal("-0.0001"),
        SURD.from_fraction(tiny),
        SurdRational({1: Fraction(1414213, 10**6), 2: -1}),  # about -5.6e-7
    ):
        assert to_decimal(value, 3) == "0.000"


def test_to_decimal_certified_near_a_tie():
    # p/q is a Pell convergent of sqrt(2) with p**2 - 2*q**2 = 1, so
    # 0 < p/q - sqrt(2) < 1e-73: both values lie within 1e-73 of a rounding
    # tie at 12 places, on the side that rounds to 1e-12.
    p, q = 1, 1
    while q <= 10**36:
        p, q = p + 2 * q, p + q
    assert p * p - 2 * q * q == 1
    gap = SurdRational({1: Fraction(p, q), 2: -1})
    assert to_decimal(gap + Fraction(5, 10**13), 12) == "0.000000000001"
    assert to_decimal(Fraction(15, 10**13) - gap, 12) == "0.000000000001"
    # with p**2 - 2*q**2 = -1 the gap is negative, about -1e-101 once q > 1e50,
    # so the sum lies just below a tie.  Its sqrt(2) term is negative: a lower
    # bound for it that rounds up, not down, lifts the bracket above the tie.
    while not (q > 10**50 and p * p - 2 * q * q == -1):
        p, q = p + 2 * q, p + q
    gap = SurdRational({1: Fraction(p, q), 2: -1})
    assert to_decimal(Fraction(15, 10**13) + gap, 12) == "0.000000000001"


def test_to_decimal_requires_substituted_poly():
    with pytest.raises(UnboundVariableError):
        to_decimal(TruncPoly(1, {1: 1}), 6)


def test_to_decimal_survives_cancellation():
    # ~1e-6 value assembled from O(0.1) terms; 12 places must all be right
    value = (
        SurdRational({1: Fraction(317, 1728), 2: Fraction(1, 8)})
        + SurdRational({3: Fraction(-1, 6), 5: Fraction(-4, 125)})
    )
    oracle = surd_oracle_decimal(value.terms, prec=80)
    assert to_decimal(value, 12) == f"{oracle:.12f}"


# -- backends ----------------------------------------------------------------


def test_decimal_backend_half_power_matches_surd():
    backend = DecimalBackend(50)
    for n, k in [(2, 5), (3, 7), (4, 5), (12, 3)]:
        exact = surd_oracle_decimal(SURD.half_power(n, k).terms, prec=70)
        assert sig_agree(backend.half_power(n, k), exact, 48)


def test_every_decimal_backend_value_renders_short():
    # rendering a cell is quadratic in its integer digits; the exponent range
    # bounds them, so even the extreme values render in milliseconds
    context = DecimalBackend(1000).context
    largest = context.next_minus(Decimal("Infinity"))
    assert len(to_decimal(-largest, 12)) < 21_000
    assert to_decimal(context.next_plus(Decimal(0)), 12) == "0.000000000000"


def test_truncpoly_backend_scalars():
    backend = TruncPolyBackend(3)
    assert TruncPolyBackend.__slots__ == ("order",)
    assert backend.describe() == "truncpoly[eps<=3]"
    assert backend.zero == TruncPoly(3) and backend.one == TruncPoly(3, {0: 1})
    assert backend.half_power(2, 5) == TruncPoly(3, {0: SurdRational({2: Fraction(1, 8)})})


# -- ring axioms (property-based) --------------------------------------------

RADICANDS = [1, 2, 3, 5, 6, 7, 10, 11, 13, 15]

fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=12)

surds_st = st.dictionaries(st.sampled_from(RADICANDS), fractions_st, max_size=3).map(SurdRational)


# coefficient lists may run past the order and hold zeros
coeff_lists_st = st.lists(st.one_of(st.just(SurdRational()), surds_st), max_size=5)


def truncpolys_st(order: int = 3):
    return coeff_lists_st.map(lambda coeffs: TruncPoly(order, dict(enumerate(coeffs))))


@given(surds_st, surds_st, surds_st)
@settings(max_examples=150)
def test_surd_ring_axioms(a, b, c):
    zero, one = SurdRational(), SURD.from_fraction(1)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + zero == a
    assert a * one == a
    assert a + (-a) == zero


@given(truncpolys_st(), truncpolys_st(), truncpolys_st())
@settings(max_examples=100)
def test_truncpoly_ring_axioms(a, b, c):
    zero, one = TruncPoly(3), TruncPoly(3, {0: 1})
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + zero == a
    assert a * one == a
    assert a + (-a) == zero


@given(st.integers(0, 4), coeff_lists_st, st.integers(0, 4), coeff_lists_st)
@settings(max_examples=150, deadline=None)
def test_truncpoly_product_is_truncated_convolution(m, a, n, b):
    order = min(m, n)
    expected = [SurdRational()] * (order + 1)
    for i, x in enumerate(a[: m + 1]):
        for j, y in enumerate(b[: n + 1]):
            if i + j <= order:
                expected[i + j] = expected[i + j] + x * y
    product = TruncPoly(m, dict(enumerate(a))) * TruncPoly(n, dict(enumerate(b)))
    assert product.order == order
    assert product.coeffs == {i: c for i, c in enumerate(expected) if c}


# -- exact vs decimal expression agreement ------------------------------------

_leaf_const = fractions_st.map(lambda f: ("const", f))
_leaf_halfpow = st.tuples(st.integers(1, 12), st.sampled_from([1, 3, 5])).map(
    lambda nk: ("halfpow", nk)
)
_trees = st.recursive(
    st.one_of(_leaf_const, _leaf_halfpow),
    lambda children: st.one_of(
        st.tuples(st.sampled_from(["add", "sub", "mul"]), children, children),
        st.tuples(
            st.just("divq"),
            children,
            fractions_st.filter(lambda f: f != 0),
        ),
    ),
    max_leaves=8,
)


def _eval_tree(tree, backend):
    kind = tree[0]
    if kind == "const":
        return backend.from_fraction(tree[1])
    if kind == "halfpow":
        n, k = tree[1]
        return backend.half_power(n, k)
    if kind == "divq":
        with backend.arith():
            return _eval_tree(tree[1], backend) / backend.from_fraction(tree[2])
    left, right = _eval_tree(tree[1], backend), _eval_tree(tree[2], backend)
    with backend.arith():
        if kind == "add":
            return left + right
        if kind == "sub":
            return left - right
        return left * right


@given(_trees)
@settings(max_examples=120, deadline=None)
def test_exact_and_decimal_backends_agree_within_one_ulp(tree):
    digits = 12
    exact_str = to_decimal(_eval_tree(tree, SURD), digits)
    decimal_str = to_decimal(_eval_tree(tree, DecimalBackend(40)), digits)
    ulp = abs(Decimal(exact_str) - Decimal(decimal_str))
    assert ulp <= Decimal(1).scaleb(-digits)


# -- integer form against the Fraction-per-term reference ----------------------

# zero, negative and non-square-free radicands: the last two must be rejected
# alike (unless their coefficient is zero) and repeated square-free parts merged
_raw_st = st.dictionaries(st.integers(-2, 75), fractions_st, max_size=4)
_scalars_st = st.one_of(st.integers(-6, 6), fractions_st)


def _build(terms):
    try:
        ref = FractionSurd(terms)
    except ValueError:
        with pytest.raises(ValueError):
            SurdRational(terms)
        return None
    return SurdRational(terms), ref


def _assert_matches(value, ref):
    assert list(value.terms.items()) == list(ref.terms.items())
    assert value.render() == ref.render()
    num, den = value._num, value._den
    assert den > 0 and math.gcd(den, *num.values()) == 1
    assert 0 not in num.values() and list(num) == sorted(num)


@given(_raw_st, _raw_st, _scalars_st)
@settings(max_examples=200, deadline=None)
def test_integer_form_matches_fraction_reference(a_terms, b_terms, k):
    built_a, built_b = _build(a_terms), _build(b_terms)
    if built_a is None or built_b is None:
        return
    (a, ra), (b, rb) = built_a, built_b
    rk = FractionSurd({1: k})
    _assert_matches(a, ra)
    for value, ref in [
        (a + b, ra + rb),
        (a - b, ra - rb),
        (a * b, ra * rb),
        (-a, -ra),
        (a + k, ra + rk),
        (k + a, ra + rk),
        (a - k, ra - rk),
        (k - a, rk - ra),
        (a * k, ra * k),
        (k * a, ra * k),
    ]:
        _assert_matches(value, ref)
    if k:
        _assert_matches(a / k, ra / k)
        _assert_matches(a / SURD.from_fraction(k), ra / k)
    assert (a == b) == (ra == rb)
    assert (a == k) == (ra == rk)
    assert a * b == b * a and hash(a * b) == hash(b * a)
    assert a == SurdRational(a.terms) and hash(a) == hash(SurdRational(a.terms))


# -- backend dot products against the left-to-right operator sum ---------------


def _operator_sum(zero, xs, ys):
    total = zero
    for x, y in zip(xs, ys):
        total = total + x * y
    return total


def _pairs_st(elements):
    # empty lists included; the two sides always have equal length
    return st.lists(st.tuples(elements, elements), max_size=7).map(
        lambda pairs: ([x for x, _ in pairs], [y for _, y in pairs])
    )


# multi-radicand sums with zeros; radicands 2, 3, 6, 10, 15 merge in products
# (sqrt(6)*sqrt(2) = 2*sqrt(3)), and denominators up to 12 include pairs such
# as 8 and 12 where neither divides the other, so their lcm exceeds both
@given(_pairs_st(st.one_of(st.just(SurdRational()), surds_st)))
@example(([], []))
@example((  # denominators 8 then 12, sqrt(6)*sqrt(2) = 2*sqrt(3), a zero term, and a
    # last term that cancels the sqrt(3) part, so the sum must be reduced to 3/8*sqrt(2)
    [SurdRational({1: Fraction(1, 8)}), SurdRational({6: Fraction(1, 3)}), SurdRational(),
     SurdRational({3: Fraction(-1, 6)})],
    [SurdRational({2: 3}), SurdRational({2: Fraction(1, 4)}), SurdRational({1: 5}),
     SurdRational({1: 1})],
))
# a rational term times a dense one, and the reverse: the shorter operand runs
# outside, so the second example swaps them, and both take the radicand-1 path
@example(([SurdRational({1: Fraction(2, 3)})],
          [SurdRational({2: 1, 3: Fraction(-1, 2), 5: Fraction(1, 4)})]))
@example(([SurdRational({2: 1, 3: Fraction(-1, 2), 5: Fraction(1, 4)})],
          [SurdRational({1: Fraction(2, 3)})]))
# radicands that share a prime: sqrt(6)*sqrt(10) = 2*sqrt(15), sqrt(15)*sqrt(35) = 5*sqrt(21)
@example(([SurdRational({6: Fraction(1, 2)}), SurdRational({15: 1})],
          [SurdRational({10: Fraction(1, 3)}), SurdRational({35: Fraction(-2, 7)})]))
# one-radicand terms over 8, 12 and 5, each scaled to their lcm 120; the later
# terms add into the same sqrt(2) key, once by the radicand-1 path and once by
# a table row (sqrt(3)*sqrt(6) = 3*sqrt(2))
@example(([SurdRational({1: Fraction(1, 8)}), SurdRational({1: Fraction(1, 12)}),
           SurdRational({3: Fraction(1, 5)})],
          [SurdRational({2: 1}), SurdRational({2: 1}), SurdRational({6: 1})]))
# total cancellation: sqrt(2)/2 * 2*sqrt(3) - sqrt(6) = 0
@example(([SurdRational({2: Fraction(1, 2)}), SurdRational({1: 1})],
          [SurdRational({3: 2}), SurdRational({6: -1})]))
@settings(max_examples=120, deadline=None)
def test_surd_dot_matches_operator_sum(pair):
    xs, ys = pair
    value = SURD.dot(xs, ys)
    assert value == _operator_sum(SURD.zero, xs, ys)
    # SurdRational * is a one-term dot, so the Fraction-per-term ring is the
    # reference that shares no code with it
    ref_xs, ref_ys = ([FractionSurd(v.terms) for v in side] for side in pair)
    _assert_matches(value, _operator_sum(FractionSurd(), ref_xs, ref_ys))


def _fields(values):
    return [(dict(v._num), list(v._num), v._den) for v in values]


# SURD.zero and SURD.one are shared values: no operation may write to an operand
@given(_pairs_st(st.one_of(st.just(SURD.zero), st.just(SURD.one), surds_st)), fractions_st)
@settings(max_examples=60, deadline=None)
def test_surd_operations_leave_their_operands_unchanged(pair, k):
    xs, ys = pair
    before = _fields(xs + ys)
    SURD.dot(xs, ys)
    for x, y in zip(xs, ys):
        _ = x + y, x - y, x * y, -x, x + k, x - k, x * k, k - x
        if k:
            _ = x / k, x / SURD.from_fraction(k)
    assert _fields(xs + ys) == before


def test_shared_zero_and_one_survive_table_jobs(capsys):
    assert main(["virial", "--sf", "q:5/3", "--K", "12"]) == 0
    assert main(["series", "--sf", "mu-q:1/3,7/5", "--K", "8"]) == 0
    capsys.readouterr()
    assert SURD.zero == SurdRational() and (SURD.zero._num, SURD.zero._den) == ({}, 1)
    assert SURD.one == 1 and (SURD.one._num, SURD.one._den) == ({1: 1}, 1)


def test_surd_dot_rejects_unequal_lengths():
    # every backend, not only the surd one: a dropped tail would be a silent wrong sum
    for backend in (SURD, TruncPolyBackend(3), DecimalBackend(20)):
        one = backend.one
        for xs, ys in (([one, one], [one]), ([one], [one, one]), ([one], [])):
            with pytest.raises(ValueError), backend.arith():
                backend.dot(xs, ys)


@given(_pairs_st(truncpolys_st()))
@settings(max_examples=25, deadline=None)
def test_truncpoly_dot_matches_operator_sum(pair):
    backend = TruncPolyBackend(3)
    xs, ys = pair
    assert backend.dot(xs, ys) == _operator_sum(backend.zero, xs, ys)


@given(_pairs_st(st.one_of(st.just(0), fractions_st)))
@settings(max_examples=60, deadline=None)
def test_decimal_dot_matches_operator_sum(pair):
    backend = DecimalBackend(50)
    xs, ys = ([backend.from_fraction(v) for v in side] for side in pair)
    with backend.arith():
        assert backend.dot(xs, ys) == _operator_sum(backend.zero, xs, ys)

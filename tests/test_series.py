"""Power series engine: products, composition, reversion, Jackson and Euler
operators, with classical reversion formulas as the independent oracle."""

import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qvirial import (
    MixedBackendError,
    NonzeroConstantTermError,
    PowerSeries,
    QBasic,
    Quadratic,
    DecimalBackend,
    SURD,
    SurdRational,
    TruncPoly,
    TruncPolyBackend,
    UNDEFORMED,
    ZeroLinearCoefficientError,
    compose,
    euler_inverse,
    jackson_apply,
    revert,
)

from helpers import (
    convolve,
    horner_compose,
    identity_series,
    loop_revert,
    rand_fraction,
    surd_coeff_st,
    surd_oracle_decimal,
)


def surd_series(coeffs):
    out = []
    for c in coeffs:
        out.append(c if isinstance(c, SurdRational) else SURD.from_fraction(c))
    return PowerSeries(SURD, out)


# -- arithmetic ----------------------------------------------------------------


def test_mul_truncates():
    one_plus = surd_series([1, 1])
    one_minus = surd_series([1, -1])
    assert one_plus * one_minus == surd_series([1, 0])
    padded = surd_series([1, 1, 0]) * surd_series([1, -1, 0])
    assert padded == surd_series([1, 0, -1])


def test_rational_coefficients_become_backend_scalars():
    # int and Fraction coefficients are converted once, so every operation,
    # revert's invert_unit included, sees SurdRationals
    plain = PowerSeries(SURD, [0, 1, Fraction(1, 2), 3])
    built = surd_series([0, 1, Fraction(1, 2), 3])
    assert plain * plain == built * built
    assert compose(plain, plain) == compose(built, built)
    assert revert(plain) == revert(built)
    assert all(isinstance(c, SurdRational) for c in plain.coeffs)


def test_mul_requires_same_backend():
    # the product is the series operation that checks the backend
    with pytest.raises(MixedBackendError):
        surd_series([1, 2]) * PowerSeries(DecimalBackend(20), [Decimal(1), Decimal(2)])


def test_compose_identity_inner():
    f = surd_series([0, 1, 1])
    assert compose(f, identity_series(2)) == f


def test_compose_doubling():
    outer = surd_series([0, 0, 1, 0])  # z^2
    inner = surd_series([0, 2, 0, 0])  # 2z
    assert compose(outer, inner) == surd_series([0, 0, 4, 0])


def test_compose_rejects_nonzero_constant():
    with pytest.raises(NonzeroConstantTermError):
        compose(surd_series([0, 1]), surd_series([1, 1]))


# -- reversion -----------------------------------------------------------------


def test_revert_identity():
    f = identity_series(5)
    assert revert(f).coeffs == f.coeffs


def test_revert_catalan_numbers():
    f = surd_series([0, 1, -1, 0, 0])  # z - z^2
    g = revert(f)
    assert g.coeffs == (0, 1, 1, 2, 5)
    assert compose(f, g) == identity_series(4)


def test_revert_undeformed_density_series():
    # x(z) = sum z^n/n^(3/2): the x^2 coefficient of z(x) must be -2^(-3/2)
    coeffs = [SURD.zero] + [SURD.half_power(n, 3) for n in range(1, 3)]
    g = revert(PowerSeries(SURD, coeffs))
    assert g.coeffs[1] == SURD.from_fraction(1)
    assert g.coeffs[2] == -SURD.half_power(2, 3)


def test_revert_classical_formulas():
    # independent oracle: the corrected classical reversion coefficients
    rng = random.Random(20260810)
    for _ in range(50):
        a2, a3, a4, a5 = (rand_fraction(rng) for _ in range(4))
        f = surd_series([0, 1, a2, a3, a4, a5])
        g = revert(f)
        assert g.coeffs[1] == 1
        assert g.coeffs[2] == -a2
        assert g.coeffs[3] == 2 * a2**2 - a3
        assert g.coeffs[4] == -5 * a2**3 + 5 * a2 * a3 - a4
        assert g.coeffs[5] == 14 * a2**4 - 21 * a2**2 * a3 + 6 * a2 * a4 + 3 * a3**2 - a5


def test_revert_nonunit_rational_linear_coefficient():
    rng = random.Random(7)
    for _ in range(10):
        c1 = Fraction(0)
        while not c1:
            c1 = rand_fraction(rng)
        f = surd_series([0, c1, rand_fraction(rng), rand_fraction(rng)])
        g = revert(f)
        assert compose(f, g) == identity_series(3)


def test_revert_requires_invertible_linear_term():
    with pytest.raises(ZeroLinearCoefficientError):
        revert(surd_series([0, 0, 1]))
    with pytest.raises(NonzeroConstantTermError):
        revert(surd_series([1, 1]))
    with pytest.raises(ZeroLinearCoefficientError):
        revert(surd_series([0, SurdRational({2: 1}), 1]))


@given(st.lists(surd_coeff_st, min_size=3, max_size=7))
@settings(max_examples=60, deadline=None)
def test_revert_round_trip_property(tail):
    coeffs = [SURD.zero, SURD.one] + list(tail)
    f = PowerSeries(SURD, coeffs)
    g = revert(f)
    k = f.order
    assert compose(f, g) == identity_series(k)
    assert compose(g, f) == identity_series(k)


# -- compose against Horner's rule -----------------------------------------------


maybe_zero_st = st.one_of(st.just(SURD.zero), surd_coeff_st)


@given(
    st.lists(maybe_zero_st, min_size=1, max_size=8),
    st.lists(maybe_zero_st, min_size=0, max_size=8),
)
@settings(max_examples=80, deadline=None)
def test_compose_matches_horner(outer_coeffs, inner_tail):
    # the inner's linear term is drawn like the rest: zero, 1 or a non-unit surd
    outer = PowerSeries(SURD, outer_coeffs)
    inner = PowerSeries(SURD, [SURD.zero] + inner_tail)
    result = compose(outer, inner)
    assert result == horner_compose(outer, inner)
    assert result.order == min(outer.order, inner.order)


def _rand_surds(rng, count):
    # multi-radicand sums over radicands 1, 2, 3, 6; about a third of them zero
    def draw():
        radicands = rng.sample([1, 2, 3, 6], 2)
        return {r: Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for r in radicands}
    return [SurdRational(draw()) if rng.random() > 0.3 else SURD.zero for _ in range(count)]


# compose cuts outer into blocks of m = isqrt(K) + 1: K < m (0, 1), K a multiple
# of m (6, 12, 20), K = m**2 - 1 (3, 8, 15, 24), K a square where m steps up
# (4, 9, 16, 25) and a partial last block (10, 13, 22)
@pytest.mark.parametrize("k", [0, 1, 3, 4, 6, 8, 9, 10, 12, 13, 15, 16, 20, 22, 24, 25])
def test_compose_matches_horner_at_block_boundaries(k):
    rng = random.Random(k)
    # odd K: outer is longer than the inner; even K: the inner is longer
    outer = PowerSeries(SURD, _rand_surds(rng, k + 1 + k % 2))
    inner = PowerSeries(SURD, [SURD.zero] + _rand_surds(rng, k + 1 - k % 2))
    result = compose(outer, inner)
    assert result == horner_compose(outer, inner)
    assert result.order == k


# the Newton shape: revert composes with an inverse of order n = ceil(K/2)
# padded by K - n zeros, so u = inner/x and its baby powers end in zeros
@pytest.mark.parametrize("k", [3, 4, 6, 8, 9, 10, 12, 13, 15, 16, 20, 22, 24, 25, 33])
def test_compose_matches_horner_on_zero_padded_inners(k):
    rng = random.Random(200 + k)
    n = (k + 1) // 2
    outer = PowerSeries(SURD, _rand_surds(rng, k + 1))
    half = [SURD.one] + _rand_surds(rng, n - 1)
    inner = PowerSeries(SURD, [SURD.zero] + half + [SURD.zero] * (k - n))
    assert compose(outer, inner) == horner_compose(outer, inner)


def test_compose_makes_few_series_products(monkeypatch):
    # at K=80, m = 9: baby powers u**2..u**9 and one giant step for each of the
    # 8 blocks under the top one; a power sum makes K - 1 = 79 products
    calls = []
    product = PowerSeries.__mul__
    monkeypatch.setattr(PowerSeries, "__mul__", lambda a, b: calls.append(1) or product(a, b))
    rng = random.Random(80)
    backend = DecimalBackend(20)
    tail = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(160)]
    outer = PowerSeries(backend, [0] + tail[:80])
    inner = PowerSeries(backend, [0] + tail[80:])
    compose(outer, inner)
    assert len(calls) <= 2 * math.isqrt(80) + 2


def test_compose_matches_horner_on_truncpoly():
    backend = TruncPolyBackend(3)
    eps = TruncPoly(3, {1: 1})
    surd = backend.from_surd
    outer = PowerSeries(backend, [
        backend.one, eps, backend.zero, surd(SurdRational({2: Fraction(-1, 3)})) * eps * eps,
        backend.from_fraction(Fraction(5, 7)), eps + surd(SurdRational({3: 1})),
    ])
    inner = PowerSeries(backend, [
        backend.zero, backend.one + eps, surd(SURD.half_power(2, 5)), backend.zero, eps * eps * eps,
    ])
    result = compose(outer, inner)
    assert result == horner_compose(outer, inner)
    assert result.order == 4
    assert result.coeffs[1] == eps + eps * eps


def test_compose_order_zero():
    outer = surd_series([Fraction(3, 4), 1, 2])
    constant = surd_series([Fraction(3, 4)])
    assert compose(outer, surd_series([0])) == constant
    assert compose(constant, surd_series([0, 1])) == constant


# -- dot-product loops against the per-term references --------------------------


# multi-radicand sums, zero included; sqrt(6)*sqrt(2) = 2*sqrt(3) merges radicands
multi_surd_st = st.dictionaries(
    st.sampled_from([1, 2, 3, 6]),
    st.fractions(min_value=-2, max_value=2, max_denominator=12),
    max_size=3,
).map(SurdRational)


def _padded_series_st():
    # leading zeros, then coefficients that are often zero; all-zero series included
    coeffs = st.lists(st.one_of(st.just(SURD.zero), multi_surd_st), min_size=1, max_size=8)
    return st.tuples(st.integers(0, 3), coeffs).map(
        lambda t: PowerSeries(SURD, [SURD.zero] * t[0] + t[1])
    )


@given(_padded_series_st(), _padded_series_st())
@settings(max_examples=100, deadline=None)
def test_mul_matches_convolve(left, right):
    product = left * right
    assert product == convolve(left, right)
    assert product.order == min(left.order, right.order)


def _trailing_zeros_series_st():
    # coefficients that are often zero, then up to four trailing zeros
    coeffs = st.lists(st.one_of(st.just(SURD.zero), multi_surd_st), min_size=1, max_size=8)
    return st.tuples(coeffs, st.integers(0, 4)).map(
        lambda t: PowerSeries(SURD, t[0] + [SURD.zero] * t[1])
    )


@given(_trailing_zeros_series_st(), _trailing_zeros_series_st())
@settings(max_examples=100, deadline=None)
def test_mul_with_trailing_zeros_matches_convolve(left, right):
    product = left * right
    assert product == convolve(left, right)
    assert product.order == min(left.order, right.order)


nonzero_rational_st = st.fractions(min_value=-3, max_value=3, max_denominator=7).filter(bool)


@given(nonzero_rational_st, st.lists(st.one_of(st.just(SURD.zero), multi_surd_st), max_size=8))
@settings(max_examples=100, deadline=None)
def test_revert_matches_loop_revert(c1, tail):
    f = PowerSeries(SURD, [0, c1] + tail)
    assert revert(f) == loop_revert(f)


# above order 16 revert takes Newton steps on compose: 17 -> 9, 18 -> 9,
# 33 -> 17 -> 9 and 40 -> 20 -> 10, with c_2 = 0 and a non-unit c_1
@pytest.mark.parametrize("k", [17, 18, 23, 33, 40])
def test_revert_newton_branch_matches_loop_revert(k):
    rng = random.Random(100 + k)
    c1 = Fraction(-3, 2) if k % 2 else Fraction(2, 5)
    f = PowerSeries(SURD, [0, c1, 0] + _rand_surds(rng, k - 2))
    g = revert(f)
    assert g.order == k
    assert g == loop_revert(f)


def test_revert_newton_branch_on_truncpoly_and_decimal():
    backend = TruncPolyBackend(2)
    eps = TruncPoly(2, {1: 1})
    rng = random.Random(7)
    tail = [backend.from_surd(c) + eps * rng.randint(-2, 2) for c in _rand_surds(rng, 18)]
    f = PowerSeries(backend, [backend.zero, backend.from_fraction(Fraction(3, 4))] + tail)
    assert revert(f) == loop_revert(f)

    # decimal:50 against the exact inverse of the same rational series
    coeffs = [0, Fraction(5, 3), 0]
    coeffs += [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(19)]
    decimal = DecimalBackend(50)
    approx = revert(PowerSeries(decimal, coeffs))
    exact = loop_revert(PowerSeries(SURD, coeffs))
    assert approx.order == exact.order == 21
    for a, e in zip(approx.coeffs, exact.coeffs):
        e = surd_oracle_decimal(e.terms, 120)
        assert abs(a - e) <= Decimal(10) ** -50 * max(1, abs(e))


def test_loops_match_references_on_truncpoly_and_decimal():
    backend = TruncPolyBackend(3)
    eps = TruncPoly(3, {1: 1})
    surd = backend.from_surd
    f = PowerSeries(backend, [
        backend.zero, backend.from_fraction(Fraction(2, 3)), eps, backend.zero,
        surd(SurdRational({2: Fraction(-1, 3)})) * eps + surd(SURD.half_power(3, 1)), eps * eps,
    ])
    h = PowerSeries(backend, [backend.zero, 0, backend.one + eps, surd(SURD.half_power(2, 5))])
    assert f * h == convolve(f, h)
    assert revert(f) == loop_revert(f)

    decimal = DecimalBackend(50)
    coeffs = [0, Fraction(3, 7), Fraction(-1, 3), 0, Fraction(5, 11), Fraction(2, 9)]
    f = PowerSeries(decimal, coeffs + [Fraction(-7, 13)] + [Fraction(1, 17)] * 6)
    h = PowerSeries(decimal, [0, 0] + coeffs[::-1])
    assert f * h == convolve(f, h)
    assert f * f == convolve(f, f)
    assert revert(f) == loop_revert(f)


def test_series_loops_call_no_per_term_surd_operators(monkeypatch):
    # a silent fallback to one SurdRational * and + per term would show here
    tail = [SurdRational({n: Fraction(1, n), 1: -1}) for n in range(2, 9)]
    f = PowerSeries(SURD, [SURD.zero, SURD.one] + tail)
    calls = {"mul": 0, "add": 0}

    def counted(kind, fn):
        def wrapper(*args):
            calls[kind] += 1
            return fn(*args)
        return wrapper

    for kind in ("mul", "add"):
        for attr in (f"__{kind}__", f"__r{kind}__"):
            monkeypatch.setattr(SurdRational, attr, counted(kind, getattr(SurdRational, attr)))
    g = revert(f)
    # only g_m = -residual / c_1, once per coefficient after the linear one
    assert calls == {"mul": f.order - 1, "add": 0}
    calls.update(mul=0, add=0)
    f * PowerSeries(SURD, g.coeffs)
    assert calls == {"mul": 0, "add": 0}
    monkeypatch.undo()
    assert g == loop_revert(f)


# -- operators -----------------------------------------------------------------


def test_jackson_on_monomials():
    q = Fraction(2)
    for k in range(5):
        monomial = surd_series([int(n == k) for n in range(5)])
        image = jackson_apply(QBasic(q), monomial)
        assert image == surd_series([2**k - 1 if n == k else 0 for n in range(5)])  # [k]_2 = 2^k - 1


def test_jackson_quadratic_kills_cutoff_mode():
    cubed = surd_series([0, 0, 0, 1])
    assert jackson_apply(Quadratic(Fraction(1, 2)), cubed) == surd_series([0, 0, 0, 0])


def test_jackson_undeformed_is_euler_operator():
    f = surd_series([3, 1, 4, 1, 5])
    image = jackson_apply(UNDEFORMED, f)
    assert image == surd_series([0, 1, 8, 3, 20])


def test_jackson_is_linear_and_diagonal():
    rng = random.Random(99)
    sf = QBasic(Fraction(3, 2))
    for _ in range(20):
        f = [rand_fraction(rng) for _ in range(6)]
        g = [rand_fraction(rng) for _ in range(6)]
        scalar = rand_fraction(rng)
        image_f, image_g = jackson_apply(sf, surd_series(f)), jackson_apply(sf, surd_series(g))
        combined = jackson_apply(sf, surd_series([a + scalar * b for a, b in zip(f, g)]))
        assert combined.coeffs == tuple(a + scalar * b for a, b in zip(image_f.coeffs, image_g.coeffs))


def test_euler_inverse_examples():
    assert euler_inverse(surd_series([0, 1])) == surd_series([0, 1])
    f = surd_series([0, 2, 6, 12])
    assert euler_inverse(f) == surd_series([0, 2, 3, 4])
    with pytest.raises(NonzeroConstantTermError):
        euler_inverse(surd_series([1, 1]))


def test_euler_inverse_undoes_undeformed_jackson():
    rng = random.Random(4)
    for _ in range(20):
        coeffs = [Fraction(0)] + [rand_fraction(rng) for _ in range(5)]
        f = surd_series(coeffs)
        assert euler_inverse(jackson_apply(UNDEFORMED, f)) == f
        assert jackson_apply(UNDEFORMED, euler_inverse(f)) == f


def test_pressure_euler_pair_on_surds():
    coeffs = [SURD.zero] + [SURD.half_power(n, 5) for n in range(1, 6)]
    f = PowerSeries(SURD, coeffs)
    stepped = euler_inverse(jackson_apply(UNDEFORMED, f))
    assert stepped == f

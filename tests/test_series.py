from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import given

from zetaroutes.series import (
    LaurentSeries,
    OutOfTrustedRange,
    ZeroSeries,
    exp_series,
)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@st.composite
def laurent(draw, max_len=6):
    val = draw(st.integers(-3, 3))
    coeffs = draw(st.lists(rationals, min_size=1, max_size=max_len))
    return LaurentSeries(val, tuple(coeffs), val + len(coeffs) - 1)


@st.composite
def laurent_unit(draw, max_len=6):
    """Series with nonzero lowest coefficient (invertible)."""
    val = draw(st.integers(-3, 3))
    lead = draw(rationals.filter(lambda q: q != 0))
    rest = draw(st.lists(rationals, min_size=0, max_size=max_len - 1))
    return LaurentSeries(val, (lead, *rest), val + len(rest))


def agrees_through(a: LaurentSeries, b: LaurentSeries) -> bool:
    """Coefficientwise equality over the shared trusted window."""
    lo = min(a.valuation, b.valuation)
    hi = min(a.order, b.order)
    return all(a.coeff(m) == b.coeff(m) for m in range(lo, hi + 1))


def bernoulli_recurrence(n_max):
    """Oracle: sum_{k<=n} C(n+1,k) B_k = 0, with binomials by Pascal rows."""
    values = [F(1)]
    for n in range(1, n_max + 1):
        row = [1]
        for _ in range(n + 1):
            row = [a + b for a, b in zip([0] + row, row + [0])]
        acc = sum(F(row[k]) * values[k] for k in range(n))
        values.append(-acc / (n + 1))
    return values


def invert_by_long_division(a: LaurentSeries) -> LaurentSeries:
    """Oracle: b_0 = 1/a_0, b_k = -(sum_{i=1..k} a_i b_{k-i}) / a_0, in Fractions."""
    c = a.coeffs
    b = [1 / c[0]]
    for k in range(1, len(c)):
        acc = F(0)
        for i in range(1, k + 1):
            acc += c[i] * b[k - i]
        b.append(-acc / c[0])
    return LaurentSeries(-a.valuation, tuple(b), -a.valuation + len(c) - 1)


class TestExpSeries:
    def test_exp_zero_is_one(self):
        s = exp_series(0, 5)
        assert s.coeff(0) == 1
        assert all(s.coeff(m) == 0 for m in range(1, 6))

    @given(
        st.fractions(min_value=-3, max_value=3, max_denominator=6),
        st.fractions(min_value=-3, max_value=3, max_denominator=6),
        st.integers(0, 8),
    )
    def test_homomorphism(self, a, b, order):
        lhs = exp_series(a, order) * exp_series(b, order)
        assert agrees_through(lhs, exp_series(a + b, order))

    def test_exp_one(self):
        s = exp_series(1, 3)
        assert [s.coeff(m) for m in range(4)] == [1, 1, F(1, 2), F(1, 6)]

    def test_exp_two(self):
        s = exp_series(2, 2)
        assert [s.coeff(m) for m in range(3)] == [1, 2, 2]

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            exp_series(1, -1)


class TestAdd:
    def test_pole_cancellation(self):
        a = LaurentSeries.monomial(1, -1, 4)
        b = LaurentSeries.monomial(-1, -1, 4)
        assert (a + b).is_zero()

    def test_constants(self):
        a = LaurentSeries(0, (1, 1), 1)
        b = LaurentSeries(0, (1, -1), 1)
        s = a + b
        assert s.coeff(0) == 2 and s.coeff(1) == 0

    def test_even_bernoulli_series(self):
        # z/(e^z-1) + z/2 is even: 1 + z^2/12 - z^4/720 through order 4
        gen = (exp_series(1, 5) - LaurentSeries.constant(1, 5)).shifted(-1).invert()
        even = gen + LaurentSeries.monomial(F(1, 2), 1, gen.order)
        assert even.coeff(0) == 1
        assert even.coeff(1) == 0
        assert even.coeff(2) == F(1, 12)
        assert even.coeff(3) == 0
        assert even.coeff(4) == F(-1, 720)


class TestMul:
    def test_difference_of_squares(self):
        a = LaurentSeries(0, (1, 1, 0, 0), 3)
        b = LaurentSeries(0, (1, -1, 0, 0), 3)
        p = a * b
        assert p.coeff(0) == 1 and p.coeff(1) == 0 and p.coeff(2) == -1

    def test_valuation_arithmetic(self):
        a = LaurentSeries.monomial(1, -1, -1)
        b = LaurentSeries.monomial(1, 1, 1)
        p = a * b
        assert p.coeff(0) == 1 and p.valuation == 0 and p.order == 0

    def test_inverse_exponentials(self):
        p = exp_series(1, 4) * exp_series(-1, 4)
        assert p.coeff(0) == 1
        assert all(p.coeff(m) == 0 for m in range(1, 5))


class TestInvert:
    def test_geometric(self):
        inv = LaurentSeries(0, (1, -1, 0, 0, 0, 0), 5).invert()
        assert all(inv.coeff(m) == 1 for m in range(6))

    def test_bernoulli_generating_function(self):
        oracle = bernoulli_recurrence(6)
        gen = (exp_series(1, 7) - LaurentSeries.constant(1, 7)).shifted(-1).invert()
        fact = F(1)
        for n in range(7):
            if n:
                fact *= n
            assert gen.coeff(n) * fact == oracle[n]
        # spot values: 1 - z/2 + z^2/12 - z^4/720 + z^6/30240
        assert gen.coeff(2) == F(1, 12)
        assert gen.coeff(4) == F(-1, 720)
        assert gen.coeff(6) == F(1, 30240)

    def test_monomial(self):
        inv = LaurentSeries.monomial(1, 2, 2).invert()
        assert inv.valuation == -2 and inv.coeff(-2) == 1

    def test_zero_series_rejected(self):
        with pytest.raises(ZeroSeries):
            LaurentSeries(0, (0,) * 6, 5).invert()

    @pytest.mark.parametrize(
        "series",
        [
            # non-integer lead, negative valuation, zero interior coefficients
            LaurentSeries(
                -3, (F(-7, 6), 0, 0, F(5, 4), 0, F(-2, 9), 0, 0, F(11, 35), 3) + (0,) * 6, 12
            ),
            (exp_series(1, 61) - LaurentSeries.constant(1, 61)).shifted(-1),
            LaurentSeries.constant(1, 40) + exp_series(F(-3, 5), 40),
        ],
        ids=["sparse", "bernoulli", "exp"],
    )
    def test_matches_long_division(self, series):
        assert series.invert() == invert_by_long_division(series)

    @given(laurent_unit(max_len=10))
    def test_matches_long_division_on_random_series(self, a):
        assert a.invert() == invert_by_long_division(a)

    @given(laurent_unit())
    def test_invert_is_involutive(self, a):
        assert agrees_through(a.invert().invert(), a)

    @given(laurent_unit(), laurent_unit())
    def test_product_with_inverse_is_one(self, a, b):
        one = a * a.invert()
        assert one.coeff(0) == 1
        assert all(
            one.coeff(m) == 0
            for m in range(one.valuation, one.order + 1)
            if m != 0
        )


class TestCoeff:
    def test_simple(self):
        assert LaurentSeries(0, (1, 3), 1).coeff(1) == 3

    def test_pole_coefficient(self):
        # 1/(e^{-z}-1) begins -1/z - 1/2 - z/12 + z^3/720
        em1 = exp_series(-1, 8) - LaurentSeries.constant(1, 8)
        gen = em1.shifted(-1).invert().shifted(-1)
        assert gen.coeff(-1) == -1
        assert gen.coeff(0) == F(-1, 2)
        assert gen.coeff(1) == F(-1, 12)
        assert gen.coeff(2) == 0
        assert gen.coeff(3) == F(1, 720)

    def test_beyond_order_rejected(self):
        s = LaurentSeries(0, (1, 2), 1)
        with pytest.raises(OutOfTrustedRange):
            s.coeff(5)
        assert s.coeff(-1) == 0  # below the valuation every coefficient is zero


class TestRingAxioms:
    @given(laurent(), laurent(), laurent())
    def test_add_associative(self, a, b, c):
        assert agrees_through((a + b) + c, a + (b + c))

    @given(laurent(), laurent(), laurent())
    def test_mul_associative(self, a, b, c):
        assert agrees_through((a * b) * c, a * (b * c))

    @given(laurent(), laurent())
    def test_mul_commutative(self, a, b):
        assert agrees_through(a * b, b * a)

    @given(laurent(), laurent(), laurent())
    def test_distributive(self, a, b, c):
        assert agrees_through(a * (b + c), a * b + a * c)


def test_trust_tightening_never_loosens():
    a = LaurentSeries(0, (1, 1, 0, 0, 0, 0, 0), 6)
    b = LaurentSeries(0, (1, 1, 0, 0), 3)
    assert (a + b).order == 3
    assert (a * b).order == 3


def test_generating_identity_matches_alternating_bernoulli_form():
    # 1/(e^{-z}-1) + 1/z == sum_m (-1)^m B_{m+1}/(m+1) z^m/m! through order 20
    oracle = bernoulli_recurrence(21)
    work = 24
    em1 = exp_series(-1, work) - LaurentSeries.constant(1, work)
    gen = em1.shifted(-1).invert().shifted(-1)
    gen = gen + LaurentSeries.monomial(1, -1, gen.order)
    fact = F(1)
    for m in range(21):
        if m:
            fact *= m
        sign = -1 if m % 2 else 1
        assert gen.coeff(m) == sign * oracle[m + 1] / (m + 1) / fact


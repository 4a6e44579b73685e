import math
from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import given

from zetaroutes.series import (
    LaurentSeries,
    OutOfTrustedRange,
    ZeroSeries,
    exp_series,
    invert_exponential,
)
from zetaroutes.zeta_exact import zeta_neg_via_G

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)


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

    @given(st.fractions(min_value=-3, max_value=3, max_denominator=6), st.integers(0, 8))
    def test_scaled_coefficients_are_powers(self, a, order):
        s = exp_series(a, order)
        assert all(math.factorial(k) * s.coeff(k) == a**k for k in range(order + 1))

    def test_exp_one(self):
        s = exp_series(1, 3)
        assert [s.coeff(m) for m in range(4)] == [1, 1, F(1, 2), F(1, 6)]

    def test_exp_two(self):
        s = exp_series(2, 2)
        assert [s.coeff(m) for m in range(3)] == [1, 2, 2]

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            exp_series(1, -1)


class TestInvert:
    def test_geometric(self):
        inv = LaurentSeries(0, (1, -1, 0, 0, 0, 0), 5).invert()
        assert all(inv.coeff(m) == 1 for m in range(6))

    def test_bernoulli_generating_function(self):
        oracle = bernoulli_recurrence(6)
        expm1_over_z = LaurentSeries(0, tuple(F(1, math.factorial(k + 1)) for k in range(7)), 6)
        gen = expm1_over_z.invert()
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
        inv = LaurentSeries(2, (F(1),), 2).invert()
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
            LaurentSeries(0, tuple(F(1, math.factorial(k + 1)) for k in range(61)), 60),
            LaurentSeries(0, (2, *exp_series(F(-3, 5), 40).coeffs[1:]), 40),
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


class TestInvertExponential:
    @given(rationals.filter(lambda q: q != 0), st.lists(rationals, max_size=11))
    def test_matches_long_division_on_random_series(self, lead, rest):
        # beta_k / k! are the ordinary coefficients of the inverse of
        # sum alpha_k z^k / k!
        alpha = [lead, *rest]
        ordinary = tuple(c / math.factorial(k) for k, c in enumerate(alpha))
        inverse = invert_by_long_division(LaurentSeries(0, ordinary, len(rest)))
        beta = invert_exponential(alpha)
        assert [b / math.factorial(k) for k, b in enumerate(beta)] == list(inverse.coeffs)

    @pytest.mark.parametrize("alpha", [[], [0, 1, 2], [F(0)]])
    def test_zero_lead_rejected(self, alpha):
        with pytest.raises(ZeroSeries):
            invert_exponential(alpha)


class TestCoeff:
    def test_simple(self):
        assert LaurentSeries(0, (1, 3), 1).coeff(1) == 3

    def test_pole_coefficient(self):
        # 1/(e^{-z}-1) begins -1/z - 1/2 - z/12 + z^3/720
        em1 = LaurentSeries(1, tuple(F((-1) ** k, math.factorial(k)) for k in range(1, 9)), 8)
        gen = em1.invert()
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


def test_generating_identity_matches_alternating_bernoulli_form():
    # 1/(e^{-z}-1) + 1/z == sum_m (-1)^m B_{m+1}/(m+1) z^m/m!
    oracle = bernoulli_recurrence(61)
    expected = [(-1) ** m * oracle[m + 1] / (m + 1) for m in range(61)]
    assert zeta_neg_via_G(61) == expected

import sys
from fractions import Fraction as F
from math import comb

import hypothesis.strategies as st
import pytest
from hypothesis import given

from zetaroutes import abel
from zetaroutes.abel import (
    Poly,
    RationalFunction,
    abel_closed_form,
    abel_numeric_estimate,
    abel_sum_exact,
    apply_euler_operator,
    em_alternating_value,
    one_over_one_plus_x,
    operator_genfun_check,
    poly_from_coeffs,
    zeta_neg_via_abel,
)
from zetaroutes.bernoulli import bernoulli_via_recurrence

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=8)


def rf(num_coeffs, den_coeffs) -> RationalFunction:
    return RationalFunction(poly_from_coeffs(*num_coeffs), poly_from_coeffs(*den_coeffs))


class TestEulerOperator:
    def test_power_zero_is_identity(self):
        f = one_over_one_plus_x()
        assert apply_euler_operator(f, 0) == f

    def test_single_application(self):
        # hand derivative: x * d/dx 1/(1+x) = -x/(1+x)^2
        got = apply_euler_operator(one_over_one_plus_x(), 1)
        assert got == rf([0, -1], [1, 2, 1])

    def test_double_application(self):
        # x/(1+x) -> x/(1+x)^2 -> x(1-x)/(1+x)^3, by repeated quotient rule
        f = rf([0, 1], [1, 1])
        got = apply_euler_operator(f, 2)
        assert got == rf([0, 1, -1], [1, 3, 3, 1])

    @given(
        st.lists(rationals, min_size=1, max_size=3),
        st.lists(rationals, min_size=1, max_size=3),
        st.integers(0, 4),
    )
    def test_iteration_composes(self, num, den, m):
        if all(c == 0 for c in den):
            den = [F(1)]
        f = rf(num, den)
        lhs = apply_euler_operator(f, m + 1)
        rhs = apply_euler_operator(apply_euler_operator(f, m), 1)
        assert lhs == rhs


class TestIntegerChain:
    @pytest.mark.parametrize("m", range(9))
    def test_matches_operator_calculus(self, m):
        # theta^m 1/(1+x) = P_m(x)/(1+x)^{m+1}, read off the integer chain
        num = Poly(tuple(abel._theta_numerator(m)))
        den = Poly(tuple(comb(m + 1, i) for i in range(m + 2)))
        expected = apply_euler_operator(one_over_one_plus_x(), m)
        assert RationalFunction(num, den) == expected

    def test_pinned_third_power(self):
        assert abel._theta_numerator(3) == [0, -1, 4, -1]  # x(-1 + 4x - x^2)

    def test_concurrent_growth_stores_each_power_once(self, monkeypatch, concurrently):
        expected = [list(abel._theta_numerator(m)) for m in range(101)]
        monkeypatch.setattr(abel, "_THETA_NUMERATORS", [[1]])
        ms = [100, 3, 57, 11, 100, 29, 73, 7]
        got = concurrently(abel._theta_numerator, ms)
        assert got == [expected[m] for m in ms]

    def test_completes_past_a_low_recursion_limit(self):
        # a chain that recursed once per power of theta would hit the limit
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(150)
        try:
            value = abel_sum_exact(300)
        finally:
            sys.setrecursionlimit(limit)
        assert value == abel_closed_form(300)


class TestAbelSumExact:
    def test_listed_values(self):
        assert abel_sum_exact(0) == F(1, 2)
        assert abel_sum_exact(1) == F(1, 4)
        assert abel_sum_exact(2) == 0

    def test_m3_is_minus_one_eighth(self):
        # x(1 - 4x + x^2)/(1+x)^4 at x = 1 gives -2/16; the closed form and
        # the numeric limit below agree; +1/8 appears in some quoted tables
        # but is not reproducible by any route here.
        assert apply_euler_operator(one_over_one_plus_x(), 3) == rf(
            [0, -1, 4, -1], [1, 4, 6, 4, 1]
        )
        assert abel_sum_exact(3) == F(-1, 8)

    def test_matches_closed_form_through_30(self):
        for m in range(31):
            assert abel_sum_exact(m) == abel_closed_form(m)


class TestNumericEstimate:
    @pytest.mark.parametrize("m", range(9))
    def test_matches_exact_to_1e6(self, m):
        est = abel_numeric_estimate(m)
        assert abs(est - float(abel_sum_exact(m))) <= 1e-6

    def test_m3_sign(self):
        assert abs(abel_numeric_estimate(3) - (-0.125)) <= 1e-6

    def test_large_m_rejected(self):
        with pytest.raises(ValueError):
            abel_numeric_estimate(9)

    def test_steps_must_be_positive(self):
        with pytest.raises(ValueError):
            abel_numeric_estimate(1, steps=0)


class TestAlternatingEulerMaclaurin:
    def test_listed_values(self):
        assert em_alternating_value(1) == F(1, 4)
        assert em_alternating_value(2) == 0
        assert em_alternating_value(3) == F(-1, 8)

    def test_matches_abel_sum_for_positive_m(self):
        for m in range(1, 31):
            assert em_alternating_value(m) == abel_sum_exact(m)

    def test_m0_anomaly(self):
        # at m = 0 the x^0 term at x = 0 joins the expansion; the two routes
        # legitimately differ there
        assert em_alternating_value(0) == F(-1, 2)
        assert abel_sum_exact(0) == F(1, 2)


class TestZetaViaAbel:
    def test_listed_values(self):
        assert zeta_neg_via_abel(0) == F(-1, 2)
        assert zeta_neg_via_abel(1) == F(-1, 12)
        assert zeta_neg_via_abel(2) == 0

    def test_matches_bernoulli_closed_form_through_30(self):
        table = bernoulli_via_recurrence(31)
        for m in range(31):
            sign = -1 if m % 2 else 1
            assert zeta_neg_via_abel(m) == sign * table[m + 1] / (m + 1)


def test_operator_generating_identity_through_20():
    assert operator_genfun_check(20) is True


def test_rational_function_reduces_and_normalizes():
    f = rf([0, 2], [2, 2])  # 2x/(2+2x) -> x/(1+x)
    assert f == rf([0, 1], [1, 1])
    assert f.den.coeffs[-1] == 1


def test_rational_function_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        rf([1], [0])


def test_evaluation_at_pole_rejected():
    with pytest.raises(ZeroDivisionError):
        one_over_one_plus_x()(-1)

import sys
from fractions import Fraction as F
from math import comb

import hypothesis.strategies as st
import pytest
from hypothesis import given

from zetaroutes import abel
from zetaroutes.abel import (
    abel_closed_form,
    abel_numeric_estimate,
    abel_sum_exact,
    operator_genfun_check,
    zeta_neg_via_abel,
)
from zetaroutes.bernoulli import bernoulli_via_recurrence

# The operator-route oracle: a rational function is an unreduced (num, den)
# pair of coefficient lists, low degree first; two are the same function
# when num_f den_g - num_g den_f = 0, so no gcd is ever needed.


def _mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _sub(p, q):
    n = max(len(p), len(q))
    return [a - b for a, b in zip(p + [0] * (n - len(p)), q + [0] * (n - len(q)))]


def _deriv(p):
    return [i * c for i, c in enumerate(p)][1:] or [0]


def theta(f, m):
    """(x d/dx)^m f by the quotient rule, without reducing."""
    num, den = f
    for _ in range(m):
        num, den = [0] + _sub(_mul(_deriv(num), den), _mul(num, _deriv(den))), _mul(den, den)
    return num, den


def same(f, g):
    return not any(_sub(_mul(f[0], g[1]), _mul(g[0], f[1])))


ONE_OVER_ONE_PLUS_X = ([1], [1, 1])
rationals = st.fractions(min_value=-4, max_value=4, max_denominator=8)
nonzero_polys = st.lists(rationals, min_size=1, max_size=3).filter(any)


class TestEulerOperator:
    def test_power_zero_is_identity(self):
        assert same(theta(ONE_OVER_ONE_PLUS_X, 0), ONE_OVER_ONE_PLUS_X)

    def test_single_application(self):
        # hand derivative: x * d/dx 1/(1+x) = -x/(1+x)^2
        assert same(theta(ONE_OVER_ONE_PLUS_X, 1), ([0, -1], [1, 2, 1]))

    def test_double_application(self):
        # x/(1+x) -> x/(1+x)^2 -> x(1-x)/(1+x)^3, by repeated quotient rule
        assert same(theta(([0, 1], [1, 1]), 2), ([0, 1, -1], [1, 3, 3, 1]))

    @given(
        st.lists(rationals, min_size=1, max_size=3),
        nonzero_polys,
        nonzero_polys,
        st.integers(0, 4),
    )
    def test_common_factor_does_not_change_the_result(self, num, den, h, m):
        # what reducing each result to lowest terms used to guarantee
        g = (_mul(num, h), _mul(den, h))
        assert same(theta((num, den), m), theta(g, m))


class TestIntegerChain:
    @pytest.mark.parametrize("m", range(9))
    def test_matches_operator_calculus(self, m):
        # theta^m 1/(1+x) = P_m(x)/(1+x)^{m+1}, read off the integer chain
        den = [comb(m + 1, i) for i in range(m + 2)]
        assert same((abel._theta_numerator(m), den), theta(ONE_OVER_ONE_PLUS_X, m))

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
        # theta^3 1/(1+x) = x(-1 + 4x - x^2)/(1+x)^4 is 2/16 at x = 1, so
        # A_3 = -1/8; the closed form and the numeric limit below agree; +1/8
        # appears in some quoted tables but no route here reproduces it.
        f3 = theta(ONE_OVER_ONE_PLUS_X, 3)
        assert same(f3, ([0, -1, 4, -1], [1, 4, 6, 4, 1]))
        assert not same(f3, ([0, 1, -4, 1], [1, 4, 6, 4, 1]))  # the +1/8 sign
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


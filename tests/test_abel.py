import math
import os
import subprocess
import sys
from fractions import Fraction as F
from math import comb

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from zetaroutes import abel
from zetaroutes.abel import (
    abel_closed_form,
    abel_numeric_estimate,
    abel_sum_exact,
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

    def test_a_call_keeps_no_chain(self):
        # the whole chain P_0..P_400 is 19 MB; a call keeps only its value
        code = (
            "import tracemalloc\n"
            "from zetaroutes.abel import abel_sum_exact\n"
            "tracemalloc.start()\n"
            "value = abel_sum_exact(400)\n"
            "print(tracemalloc.get_traced_memory()[0])\n"
        )
        src = os.path.dirname(os.path.dirname(abel.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 100_000

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

    @pytest.mark.parametrize("fn", [abel_sum_exact, abel_closed_form])
    @pytest.mark.parametrize("m", [-1, -2])
    def test_negative_m_rejected(self, fn, m):
        with pytest.raises(ValueError, match="^m must be nonnegative$"):
            fn(m)


def term_by_term(m, j):
    """The partial sum at x = 1 - 2^-j as a loop over every term, in the same
    truncating 2^256 fixed point as the blocked sum."""
    lam = -math.log1p(-(2.0**-j))
    p = (1 << j) - 1
    t = p << (256 - j)  # x^1
    acc = 0
    for k in range(1, abel._partial_sum_terms(m, lam) + 1):
        term = k**m * t
        acc += term if k & 1 else -term
        t = (t * p) >> j
    return acc / (1 << 256)


# The parent's doubles, bit for bit; the golden `abel 8 --numeric-oracle`
# residual is the last one.
PINNED_ESTIMATES = [
    0.5,
    0.25,
    -2.7124329017426803e-17,
    -0.125,
    1.7754619423656523e-16,
    0.2500000000000002,
    -1.1832603900172052e-15,
    -1.0625000000000036,
    1.0878456424951104e-14,
]

# terms K of the blocked sum: any K, and the squares and one past them,
# where the block length isqrt(K) steps
block_terms = st.one_of(
    st.integers(1, 3000),
    st.integers(1, 54).map(lambda b: b * b),
    st.integers(1, 54).map(lambda b: b * b + 1),
)


class TestNumericEstimate:
    @pytest.mark.parametrize("m", range(9))
    def test_matches_exact_to_1e6(self, m):
        est = abel_numeric_estimate(m)
        assert abs(est - float(abel_sum_exact(m))) <= 1e-6

    @pytest.mark.parametrize("m", range(9))
    def test_bits_are_pinned(self, m):
        assert abel_numeric_estimate(m) == PINNED_ESTIMATES[m]

    @pytest.mark.parametrize("j", [8, 9])
    @pytest.mark.parametrize("m", range(9))
    def test_blocks_match_term_by_term_loop(self, m, j):
        assert abel._alternating_power_sum(m, j) == term_by_term(m, j)

    @given(st.integers(0, 8), st.integers(1, 12), block_terms)
    @example(8, 12, 1)
    @example(8, 12, 2)
    @example(8, 12, 2916)
    @example(8, 12, 2917)
    def test_blocked_sum_is_within_its_bound(self, m, j, terms):
        # the exact sum is num / 2^{j K}, with x^k = p^k / 2^{j k}
        p = (1 << j) - 1
        num, p_k = 0, 1
        for k in range(1, terms + 1):
            p_k *= p
            term = k**m * p_k << j * (terms - k)
            num += term if k & 1 else -term
        fixed = abel._blocked_power_sum(m, j, terms)
        # |fixed / 2^256 - num / 2^{jK}| <= K^{m+2} 2^{j-256}
        assert abs((fixed << j * terms) - (num << 256)) <= terms ** (m + 2) << j * (terms + 1)

    def test_independent_of_the_exact_routes(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the numeric oracle called an exact route")

        for name in ("_theta_numerator", "_tangent_entry", "abel_closed_form"):
            monkeypatch.setattr(abel, name, refuse)
        assert abel_numeric_estimate(8) == PINNED_ESTIMATES[8]

    @pytest.mark.parametrize("m", range(9))
    def test_truncated_tail_is_below_1e14(self, m):
        # the first omitted term lies past the peak k = m/lam of k^m x^k, so
        # the terms fall from there on
        for j in abel._ABEL_NODES:
            lam = -math.log1p(-(2.0**-j))
            k = abel._partial_sum_terms(m, lam) + 1
            assert k > m / lam
            assert math.exp(m * math.log(k) - k * lam) < 1e-14

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

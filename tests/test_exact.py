import math
from fractions import Fraction as F

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from zetaroutes.exact import (
    MixedPiPowers,
    PiValue,
    binomial,
    factorial,
    format_rational,
    parse_rational,
)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=30)


def pascal_row(n):
    """Oracle: row n of Pascal's triangle by repeated addition."""
    row = [1]
    for _ in range(n):
        row = [a + b for a, b in zip([0] + row, row + [0])]
    return row


def zeta2_numeric_oracle():
    """Oracle: sum of 1/n^2 to n = 10^6 plus the integral tail correction."""
    n = np.arange(1, 10**6 + 1, dtype=np.float64)
    partial = float(np.sum((1.0 / (n * n))[::-1]))  # ascending magnitudes
    big_n = 10**6
    return partial + 1.0 / big_n - 1.0 / (2 * big_n**2)


class TestBinomial:
    def test_small_case(self):
        assert binomial(5, 2) == 10
        assert type(binomial(5, 2)) is int

    def test_identity_case(self):
        assert binomial(7, 0) == 1

    def test_k_above_n_is_zero(self):
        assert binomial(3, 5) == 0

    def test_against_pascal_oracle(self):
        row = pascal_row(30)
        assert row[15] == 155117520
        assert binomial(30, 15) == F(155117520)
        assert all(binomial(30, k) == row[k] for k in range(31))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)


class TestFactorial:
    def test_zero(self):
        assert factorial(0) == 1

    def test_small(self):
        assert factorial(5) == 120
        assert type(factorial(5)) is int

    def test_against_iterated_multiplication(self):
        acc = 1
        for k in range(1, 21):
            acc *= k
        assert acc == 2432902008176640000
        assert factorial(20) == F(acc)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            factorial(-2)


class TestPiValue:
    def test_mul_identity(self):
        assert PiValue(F(1, 6), 2) * PiValue(F(1)) == PiValue(F(1, 6), 2)

    def test_mul_componentwise(self):
        assert PiValue(F(1, 6), 2) * PiValue(F(1, 6), 2) == PiValue(F(1, 36), 4)
        assert PiValue(F(-1, 2), 1) * PiValue(F(4), 1) == PiValue(F(-2), 2)

    def test_add_cancellation_is_canonical_zero(self):
        z = PiValue(F(1, 6), 2) + PiValue(F(-1, 6), 2)
        assert z == PiValue(F(0), 0)
        assert z.pi_exp == 0

    def test_add_zero(self):
        assert PiValue(F(1, 6), 2) + PiValue(F(0)) == PiValue(F(1, 6), 2)
        assert PiValue(F(0)) + PiValue(F(1, 6), 2) == PiValue(F(1, 6), 2)

    def test_add_mixed_powers_raises(self):
        with pytest.raises(MixedPiPowers):
            PiValue(F(1, 6), 2) + PiValue(F(1), 4)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            PiValue(F(1), -1)

    def test_to_float_zeta2(self):
        value = PiValue(F(1, 6), 2).to_float()
        assert abs(value - zeta2_numeric_oracle()) < 2e-12
        assert value == pytest.approx(1.6449340668482264, rel=1e-15)

    def test_to_float_zero(self):
        assert PiValue(F(0)).to_float() == 0.0

    def test_to_float_plain_rational(self):
        assert PiValue(F(-1, 12)).to_float() == -0.08333333333333333

    def test_pi_squared_against_library_pi(self):
        value = PiValue(F(1), 2).to_float()
        assert abs(value - math.pi**2) <= 1e-14 * math.pi**2

    @given(rationals, rationals, st.integers(0, 6), st.integers(0, 6))
    def test_mul_commutative(self, a, b, p, q):
        x, y = PiValue(a, p), PiValue(b, q)
        assert x * y == y * x

    @given(rationals, rationals, rationals, st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
    def test_mul_associative(self, a, b, c, p, q, r):
        x, y, z = PiValue(a, p), PiValue(b, q), PiValue(c, r)
        assert (x * y) * z == x * (y * z)


class TestFieldAxioms:
    @given(rationals, rationals, rationals)
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(st.integers(-1000, 1000), st.integers(1, 1000), st.integers(1, 50))
    def test_canonicalization_idempotent(self, p, q, k):
        once = F(p * k, q * k)
        twice = F(once.numerator, once.denominator)
        assert (once.numerator, once.denominator) == (twice.numerator, twice.denominator)
        assert math.gcd(abs(once.numerator), once.denominator) == 1


class TestSerialization:
    def test_format(self):
        assert format_rational(F(-1, 12)) == "-1/12"
        assert format_rational(F(10)) == "10"
        assert format_rational(F(0)) == "0"

    @given(rationals)
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q

    def test_pivalue_json_round_trip(self):
        v = PiValue(F(1, 90), 4)
        assert PiValue.from_json(v.to_json()) == v
        assert v.to_json() == {"coeff": "1/90", "pi_exp": 4}


def test_pi_literal_matches_library():
    assert PiValue(F(1), 1).to_float() == math.pi

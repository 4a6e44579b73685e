import math
from fractions import Fraction as F

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from zetaroutes.exact import PiValue

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=30)
nonzero_rationals = rationals.filter(bool)


def zeta2_numeric_oracle():
    """Oracle: sum of 1/n^2 to n = 10^6 plus the integral tail correction."""
    n = np.arange(1, 10**6 + 1, dtype=np.float64)
    partial = float(np.sum((1.0 / (n * n))[::-1]))  # ascending magnitudes
    big_n = 10**6
    return partial + 1.0 / big_n - 1.0 / (2 * big_n**2)


class TestPiValue:
    # Zero and pi^0 values are rationals, so they are Fractions, never PiValues.
    def test_zero_coeff_rejected(self):
        with pytest.raises(ValueError):
            PiValue(F(0), 2)

    def test_pi_exp_zero_rejected(self):
        with pytest.raises(ValueError):
            PiValue(F(-1, 12), 0)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            PiValue(F(1), -1)

    def test_to_float_zeta2(self):
        value = PiValue(F(1, 6), 2).to_float()
        assert abs(value - zeta2_numeric_oracle()) < 2e-12
        assert value == 1.6449340668482264  # the double nearest pi^2/6

    def test_pi_squared_against_library_pi(self):
        value = PiValue(F(1), 2).to_float()
        assert abs(value - math.pi**2) <= 1e-14 * math.pi**2


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
        assert str(PiValue(F(1, 6), 2)) == "1/6*pi^2"
        assert str(PiValue(F(-3), 1)) == "-3*pi"

    @given(nonzero_rationals, st.integers(1, 6))
    def test_round_trip(self, q, p):
        obj = PiValue(q, p).to_json()
        assert PiValue(F(obj["coeff"]), obj["pi_exp"]) == PiValue(q, p)

    def test_pivalue_json_round_trip(self):
        v = PiValue(F(1, 90), 4)
        assert v.to_json() == {"coeff": "1/90", "pi_exp": 4}
        assert PiValue(F(v.to_json()["coeff"]), 4) == v


def test_pi_literal_matches_library():
    assert PiValue(F(1), 1).to_float() == math.pi

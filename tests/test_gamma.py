import cmath
import functools
import math

import hypothesis.strategies as st
import pytest
from hypothesis import given

from zetaroutes import gammafn
from zetaroutes.errors import OutOfValidatedRange
from zetaroutes.gammafn import PoleAtNonpositiveInteger, gamma_complex


class TestKnownValues:
    def test_integer_factorials(self):
        for n in range(1, 12):
            assert abs(gamma_complex(n) - math.factorial(n - 1)) <= 1e-12 * math.factorial(n - 1)

    def test_half(self):
        # independent oracle: Gamma(1/2)^2 = pi (Gauss/duplication at z = 1/2)
        assert abs(gamma_complex(0.5) - math.sqrt(math.pi)) <= 1e-13

    def test_three_halves(self):
        assert abs(gamma_complex(1.5) - math.sqrt(math.pi) / 2) <= 1e-13

    def test_pole_rejected(self):
        with pytest.raises(PoleAtNonpositiveInteger):
            gamma_complex(-3)
        with pytest.raises(PoleAtNonpositiveInteger):
            gamma_complex(0)
        with pytest.raises(PoleAtNonpositiveInteger):
            gamma_complex(-5 + 1e-14j)

    # A pole is named by its integer; every double from 2^53 in size is an
    # integer, and is named by its repr instead of all of its digits.
    @pytest.mark.parametrize(
        "z, name",
        [
            (-3, "-3"),
            (-(2.0**53) + 2, "-9007199254740990"),
            (-(2.0**53), "-9007199254740992.0"),
            (-1e300, "-1e+300"),
        ],
    )
    def test_pole_message_names_the_pole(self, z, name):
        with pytest.raises(PoleAtNonpositiveInteger) as info:
            gamma_complex(z)
        assert str(info.value) == f"Gamma pole at z = {name}"

    def test_overflow_names_z_with_gamma_complex_rebound(self, monkeypatch):
        # The benchmark's tracer rebinds the module's gamma_complex to a
        # functools.wraps wrapper; the reflection still names the caller's z,
        # not 1 - z, as the untraced call does.
        original = gammafn.gamma_complex

        @functools.wraps(original)
        def traced(z):
            return original(z)

        message = "gamma_complex exceeds double precision at s = -200.5"
        for gamma in (original, traced):
            monkeypatch.setattr(gammafn, "gamma_complex", gamma)
            with pytest.raises(OutOfValidatedRange) as info:
                gammafn.gamma_complex(-200.5)
            assert str(info.value) == message


class TestIdentities:
    @given(
        st.floats(min_value=-35, max_value=35),
        st.floats(min_value=-35, max_value=35),
    )
    def test_multiplicative_property(self, re, im):
        z = complex(re, im)
        if abs(z) > 49 or abs(z + 1) > 49:
            return
        nearest = round(z.real)
        if nearest <= 0 and abs(z - nearest) < 1e-2:
            return
        if abs(z.real + 1 - round(z.real + 1)) < 1e-2 and round(z.real + 1) <= 0:
            return
        lhs = gamma_complex(z + 1)
        rhs = z * gamma_complex(z)
        assert abs(lhs - rhs) <= 1e-11 * abs(lhs)

    def test_duplication_formula(self):
        # Gamma(z) Gamma(z + 1/2) = 2^{1-2z} sqrt(pi) Gamma(2z)
        for z in (0.75, 1.3, 2.5 + 1j, 0.2 - 3j):
            lhs = gamma_complex(z) * gamma_complex(z + 0.5)
            rhs = 2 ** (1 - 2 * complex(z)) * math.sqrt(math.pi) * gamma_complex(2 * complex(z))
            assert abs(lhs - rhs) <= 1e-11 * abs(rhs)

    def test_reflection_consistency(self):
        # Gamma(z) Gamma(1-z) = pi / sin(pi z), sampled off the poles
        for z in (0.3, -1.7, 0.25 + 2j, -2.2 - 1.5j):
            z = complex(z)
            lhs = gamma_complex(z) * gamma_complex(1 - z)
            rhs = math.pi / cmath.sin(math.pi * z)
            assert abs(lhs - rhs) <= 1e-11 * abs(rhs)

    def test_conjugate_symmetry(self):
        z = 1.7 + 2.3j
        a = gamma_complex(z)
        b = gamma_complex(z.conjugate())
        assert abs(a - b.conjugate()) <= 1e-12 * abs(a)

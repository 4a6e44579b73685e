"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Exact criteria use zero tolerance; numeric criteria use the
thresholds listed next to each check.
"""

from fractions import Fraction as F

from genfun_identities import (
    faulhaber_sum,
    finite_G_check,
    odd_genfun_check,
    operator_genfun_check,
)
from zetaroutes.abel import abel_numeric_estimate, abel_sum_exact, zeta_neg_via_abel
from zetaroutes.bernoulli import bernoulli_via_recurrence, bernoulli_via_series
from zetaroutes.exact import PiValue
from zetaroutes.numeric import (
    ContourSpec,
    _hankel,
    cotangent_check,
    funceq_residual,
    inverted_contour_check,
    zeta_em,
    zeta_hankel,
)
from zetaroutes.zeta_exact import (
    funceq_exact_check,
    zeta_even_positive,
    zeta_neg_via_G,
    zeta_neg_via_residue,
    zeta_nonpositive,
)

import math


def _report(num: int, text: str) -> None:
    print(f"PASS criterion {num}: {text}")


def test_criterion_01_bernoulli_cross_method():
    a = bernoulli_via_series(32)
    b = bernoulli_via_recurrence(32)
    assert a == b
    assert a[1] == F(-1, 2)
    for n in range(3, 33, 2):
        assert a[n] == 0
    _report(1, "bernoulli series == recurrence through 32, B_1 = -1/2, odd zeros (exact)")


def test_criterion_02_four_route_agreement():
    via_g = zeta_neg_via_G(31)
    for m in range(31):
        closed = zeta_nonpositive(m)
        assert zeta_neg_via_residue(m) == closed
        assert via_g[m] == closed
        assert zeta_neg_via_abel(m) == closed
    _report(2, "closed = residue = genfun = abel for zeta(-m), m = 0..30 (exact)")


def test_criterion_03_abel_sum_table():
    assert abel_sum_exact(0) == F(1, 2)
    assert abel_sum_exact(1) == F(1, 4)
    assert abel_sum_exact(2) == 0
    # A_3 = -1/8 on every route; the occasionally-quoted +1/8 is not
    # reproducible (see README).
    assert abel_sum_exact(3) == F(-1, 8)
    assert abs(abel_numeric_estimate(3) - (-0.125)) <= 1e-6
    _report(3, "Abel sums 1/2, 1/4, 0 exact; A_3 = -1/8 with numeric limit within 1e-6")


def test_criterion_04_closed_form_even_values():
    assert zeta_even_positive(1) == PiValue(F(1, 6), 2)
    assert zeta_even_positive(2) == PiValue(F(1, 90), 4)
    assert zeta_even_positive(3) == PiValue(F(1, 945), 6)
    _report(4, "zeta(2), zeta(4), zeta(6) = pi^2/6, pi^4/90, pi^6/945 (exact)")


def test_criterion_05_exact_functional_equation():
    for n in range(1, 16):
        assert funceq_exact_check(2 * n) is True
    _report(5, "funceq exact at s = 2..30, which is Euler's odd form at m = 0..14 (exact)")


def test_criterion_06_generating_function_identities():
    for n in (1, 5, 30):
        assert finite_G_check(n, 10) is True
    assert odd_genfun_check(21) is True
    assert operator_genfun_check(20) is True
    _report(6, "finite-sum, odd, and operator generating identities hold (exact)")


def test_criterion_07_numeric_continuation():
    worst_grid = 0.0
    for re in (-2.5, -1.5, -0.5, 0.25, 0.5, 2.5):
        for im in (0.0, 1.0, 3.0, 10.0):
            s = complex(re, im)
            worst_grid = max(worst_grid, abs(zeta_hankel(s) - zeta_em(s)))
    assert worst_grid <= 1e-8
    worst_exact = 0.0
    for n in range(9):
        exact = float(zeta_nonpositive(n))
        worst_exact = max(worst_exact, abs(zeta_hankel(-n) - exact))
    assert worst_exact <= 1e-8
    s = -0.5 + 1j
    a = _hankel(s, ContourSpec(radius=math.pi / 2))
    b = _hankel(s, ContourSpec(radius=3.0))
    assert abs(a - b) <= 2e-9
    _report(
        7,
        f"hankel vs em <= 1e-8 on 24-point grid (worst {worst_grid:.2e}); "
        f"exact values n = 0..8 (worst {worst_exact:.2e}); "
        f"contour independence {abs(a - b):.2e} <= 2e-9",
    )


def test_criterion_08_functional_equation_residual():
    worst = 0.0
    points = [complex(re, im)
              for re in (0.1, 0.3, 0.5, 0.7, 0.9)
              for im in (0.0, 2.5, 5.0, 7.5, 10.0)]
    points.append(complex(1.5, 0.0))
    assert complex(0.5, 0.0) in points
    for s in points:
        worst = max(worst, funceq_residual(s))
    assert worst <= 1e-9
    _report(8, f"funceq residual <= 1e-9 on the critical-band grid incl. 1/2, 3/2 (worst {worst:.2e})")


def test_criterion_09_inside_out_inversion():
    diff, _ = inverted_contour_check(-2.5, 10**5)
    assert diff <= 1e-6
    _report(9, f"inverted contour at s = -2.5 with 1e5 poles: {diff:.2e} <= 1e-6")


def test_criterion_10_cotangent_identity():
    diff, bound = cotangent_check(F(1, 4), 10**4)
    assert diff <= bound
    _report(10, f"cotangent identity at x = 1/4, 1e4 terms: {diff:.2e} <= {bound:.2e}")


def test_criterion_11_faulhaber_exactness():
    for m in range(11):
        acc = F(0)
        for n in range(1, 201):
            acc += F(n) ** m
            assert faulhaber_sum(m, n) == acc
    _report(11, "faulhaber_sum == brute force for all m <= 10, n <= 200 (exact)")

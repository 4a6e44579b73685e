"""Exact classical zeta values by every route, and the functional equation.

Classical points are the nonpositive integers, where zeta(K) is a
``Fraction``, and the positive even integers, where it is a ``PiValue``
q*pi^K. ``ROUTES`` names each route's functions and the primitives it
reads. The generating-function identities the routes read from are checked
in the tests, in ``genfun_identities.py``.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

from .abel import zeta_neg_via_abel
from .bernoulli import _series_entry, _tangent_entry
from .errors import ArgumentNotEvenPositive, DomainError, PoleArgument, require_index
from .exact import PiValue
from .series import LaurentSeries, exp_series


class Route(str, Enum):
    CLOSED_FORM = "closed"
    RESIDUE_SERIES = "residue"
    GENERATING_FUNCTION = "genfun"
    ABEL_SUMMATION = "abel"
    FUNCTIONAL_EQUATION = "funceq"


# Each route: its function at K <= 0, called with m = -K, its function at
# even K >= 2, called with n = K/2 (None where it does not apply), and the
# primitives it reads: the "tangent" and "series" Bernoulli tables,
# series.invert_exponential ("invert") and abel's "theta" chain. Functions
# are named, not held, and looked up when called, so a rebound one is.
ROUTES = {
    Route.CLOSED_FORM: ("zeta_nonpositive", "zeta_even_positive", ("tangent",)),
    Route.RESIDUE_SERIES: ("zeta_neg_via_residue", None, ("series",)),
    Route.GENERATING_FUNCTION: ("_zeta_neg_via_genfun", None, ("invert",)),
    Route.ABEL_SUMMATION: ("zeta_neg_via_abel", None, ("theta",)),
    Route.FUNCTIONAL_EQUATION: (None, "zeta_even_via_funceq", ("series",)),
}


# -- nonpositive integers ----------------------------------------------------


def zeta_nonpositive(n: int) -> Fraction:
    """zeta(-n) = (-1)^n B_{n+1}/(n+1)."""
    require_index("n", n)
    b = _tangent_entry(n + 1)
    sign = -1 if n % 2 else 1
    return Fraction(sign * b.numerator, b.denominator * (n + 1))


def sin_gamma_limit_exact(n: int) -> PiValue:
    """lim_{x -> -n} sin(pi x) Gamma(x) = pi/n!, resolved by peeling the
    Gamma recurrence n times."""
    return PiValue(Fraction(1, math.factorial(require_index("n", n))), 1)


def zeta_neg_via_residue(n: int) -> Fraction:
    """zeta(-n) from the loop integral around the origin.

    The loop picks up 2*pi*i * (-1)^{n-1} * c, with c = [x^{n+1}] x/(e^x - 1)
    = B_{n+1}/(n+1)! read off the series table, and equals -2i * (pi/n!) *
    zeta(-n); both sides sit at the same power of pi, so the quotient is
    exact. The overall orientation sign is pinned by agreement with the Abel
    route, which has no contour to orient.
    """
    require_index("n", n)
    c = _series_entry(n + 1) / math.factorial(n + 1)
    branch = -1 if (n - 1) % 2 else 1  # (-1)^{n-1}
    # Loop integral = 2 pi i * branch * c; it equals -2i * (pi/n!) * zeta(-n).
    # Both sides carry one power of pi and one of i, so the quotient of the
    # rational parts is zeta(-n) itself.
    return 2 * branch * c / (-2 * sin_gamma_limit_exact(n).coeff)


def zeta_neg_via_G(order: int) -> list[Fraction]:
    """zeta(-m) for m = 0..order-1 from 1/(e^{-z} - 1) + 1/z.

    Adding 1/z cancels the pole and leaves sum_m zeta(-m) z^m / m!, so the
    coefficients of z^m, m >= 0, of 1/(e^{-z} - 1) are already zeta(-m) / m!.
    """
    work = require_index("order", order, least=1) + 2
    em1 = LaurentSeries(1, exp_series(-1, work).coeffs[1:], work)  # e^{-z} - 1
    gen = em1.invert()  # 1/(e^{-z} - 1), valuation -1
    return [math.factorial(m) * gen.coeff(m) for m in range(order)]


# -- positive even integers ---------------------------------------------------


def zeta_even_positive(n: int) -> PiValue:
    """zeta(2n) = (-1)^{n-1} (2 pi)^{2n} B_{2n} / (2 (2n)!)."""
    require_index("n", n, least=1)
    b = _tangent_entry(2 * n)
    sign = 1 if (n - 1) % 2 == 0 else -1
    # (2 pi)^{2n} / 2 = 2^{2n-1} pi^{2n}; one Fraction, so one gcd
    coeff = Fraction(sign * b.numerator << (2 * n - 1), b.denominator * math.factorial(2 * n))
    return PiValue(coeff, 2 * n)


def zeta_even_via_funceq(n: int) -> PiValue:
    """zeta(2n) transported from zeta(1-2n) = -B_2n/(2n), read off the series
    table, across 2 cos(pi n) Gamma(2n) zeta(2n) = (2 pi)^{2n} zeta(1-2n)."""
    require_index("n", n, least=1)
    b = _series_entry(2 * n)
    sign = 1 if n % 2 == 0 else -1  # cos(pi n) = (-1)^n
    # 2^{2n} zeta(1-2n) / (2 (-1)^n (2n-1)!) with zeta(1-2n) = -B_2n/(2n),
    # built as one Fraction, so one gcd
    gamma = math.factorial(2 * n - 1)  # Gamma(2n)
    coeff = Fraction(-sign * b.numerator << (2 * n - 1), b.denominator * 2 * n * gamma)
    return PiValue(coeff, 2 * n)


def funceq_exact_check(s: int) -> bool:
    """Check 2 cos(pi s/2) Gamma(s) zeta(s) = (2 pi)^s zeta(1-s) at even s >= 2.

    cos(pi n) = (-1)^n and Gamma(2n) = (2n-1)! keep it exact: both sides over
    2 (-1)^n (2n-1)! give zeta_even_via_funceq's transport at n = s/2, so the
    check compares zeta(s) on the tangent table with that transport. Euler's
    odd-argument form 2 zeta(-2m-1)/(2m+1)! = (-1)^{m+1} zeta(2m+2)/(2^{2m}
    pi^{2m+2}) differs from it at s = 2m+2 only by a nonzero exact factor, so
    it is the same comparison.
    """
    if require_index("s", s, least=None) < 2 or s % 2:
        raise ArgumentNotEvenPositive(f"s = {s}: check requires even s >= 2")
    return zeta_even_positive(s // 2) == zeta_even_via_funceq(s // 2)


# -- route dispatch (CLI-facing) ----------------------------------------------


def _zeta_neg_via_genfun(m: int) -> Fraction:
    return zeta_neg_via_G(m + 1)[m]


def _half(argument: int) -> int:
    """The ``ROUTES`` column of a classical argument: 0 at K <= 0, 1 at even K >= 2."""
    if require_index("argument", argument, least=None) == 1:
        raise PoleArgument("zeta(1) is a pole")
    if argument > 0 and argument % 2:
        raise DomainError("positive classical arguments must be even")
    return int(argument > 0)


def zeta_classical(argument: int, route: Route) -> Fraction | PiValue:
    """zeta(argument) by one named route: a Fraction at argument <= 0, a
    PiValue at even argument >= 2. The route is a Route or its name."""
    try:
        route = Route(route)
    except ValueError:
        raise DomainError(f"unknown route {route!r}") from None
    half = _half(argument)
    name = ROUTES[route][half]
    if name is None:
        raise DomainError(f"route {route.value} does not apply at argument {argument}")
    return globals()[name](argument // 2 if half else -argument)


def routes_for_argument(argument: int) -> tuple[Route, ...]:
    """The routes that apply at a classical argument, in ``ROUTES`` order."""
    half = _half(argument)
    return tuple(route for route, row in ROUTES.items() if row[half] is not None)

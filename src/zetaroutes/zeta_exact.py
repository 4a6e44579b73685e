"""Exact classical zeta values by every route, and the functional equation.

Classical points are the nonpositive integers, where zeta(K) is a
``Fraction``, and the positive even integers, where it is a ``PiValue``
q*pi^K. Each route value, the function behind it and the primitive it reads:

route    function                    primitive
-------  --------------------------  -----------------------------------------
closed   zeta_nonpositive (K <= 0)   the cached integer tangent-number table,
         zeta_even_positive (K >= 2) bernoulli_via_recurrence
residue  zeta_neg_via_residue        the cached series-inversion table of
                                     (e^z - 1)/z, bernoulli_via_series
genfun   zeta_neg_via_G              the inversion of (e^{-z} - 1)/z
abel     abel.zeta_neg_via_abel      the integer theta = x d/dx chain, checked
                                     against the tangent-number table
funceq   zeta_even_via_funceq        the cached series-inversion table of
                                     (e^z - 1)/z, bernoulli_via_series,
                                     through zeta(1 - 2n)

At K <= 0 the four routes read three different primitives, and at K >= 2
the two routes read two. funceq_exact_check restates the funceq transport up
to a nonzero exact factor: it compares zeta(2n) on the tangent table with
zeta_even_via_funceq's value from the series table. ``verify funceq`` reports
each comparison twice, as the functional equation at s = 2n and as Euler's
odd-argument form at m = n - 1. The generating-function identities these
routes read from are checked in the tests, in ``genfun_identities.py``.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

from . import abel
from .bernoulli import bernoulli_via_recurrence, bernoulli_via_series
from .errors import ArgumentNotEvenPositive, DomainError, PoleArgument, require_index
from .exact import PiValue
from .series import LaurentSeries, exp_series


class Route(str, Enum):
    CLOSED_FORM = "closed"
    RESIDUE_SERIES = "residue"
    GENERATING_FUNCTION = "genfun"
    ABEL_SUMMATION = "abel"
    FUNCTIONAL_EQUATION = "funceq"


# -- nonpositive integers ----------------------------------------------------


def zeta_nonpositive(n: int) -> Fraction:
    """zeta(-n) = (-1)^n B_{n+1}/(n+1)."""
    require_index("n", n)
    b = bernoulli_via_recurrence(n + 1)[n + 1]
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
    c = bernoulli_via_series(n + 1)[n + 1] / math.factorial(n + 1)
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
    b = bernoulli_via_recurrence(2 * n)[2 * n]
    sign = 1 if (n - 1) % 2 == 0 else -1
    # (2 pi)^{2n} / 2 = 2^{2n-1} pi^{2n}; one Fraction, so one gcd
    coeff = Fraction(sign * b.numerator << (2 * n - 1), b.denominator * math.factorial(2 * n))
    return PiValue(coeff, 2 * n)


def zeta_even_via_funceq(n: int) -> PiValue:
    """zeta(2n) transported from zeta(1-2n) = -B_2n/(2n), read off the series
    table, across 2 cos(pi n) Gamma(2n) zeta(2n) = (2 pi)^{2n} zeta(1-2n)."""
    require_index("n", n, least=1)
    b = bernoulli_via_series(2 * n)[2 * n]
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

NEGATIVE_ROUTES = (
    Route.CLOSED_FORM,
    Route.RESIDUE_SERIES,
    Route.GENERATING_FUNCTION,
    Route.ABEL_SUMMATION,
)
POSITIVE_ROUTES = (Route.CLOSED_FORM, Route.FUNCTIONAL_EQUATION)


def zeta_classical(argument: int, route: Route) -> Fraction | PiValue:
    """zeta(argument) by one named route: a Fraction at argument <= 0, a
    PiValue at even argument >= 2. The route is a Route or its name."""
    try:
        route = Route(route)
    except ValueError:
        raise DomainError(f"unknown route {route!r}") from None
    if require_index("argument", argument, least=None) == 1:
        raise PoleArgument("zeta(1) is a pole")
    if argument > 0 and argument % 2:
        raise DomainError("positive classical arguments must be even")
    if route not in routes_for_argument(argument):
        raise DomainError(f"route {route.value} does not apply at argument {argument}")
    m, n = -argument, argument // 2
    if route is Route.CLOSED_FORM:
        return zeta_nonpositive(m) if argument <= 0 else zeta_even_positive(n)
    if route is Route.RESIDUE_SERIES:
        return zeta_neg_via_residue(m)
    if route is Route.GENERATING_FUNCTION:
        return zeta_neg_via_G(m + 1)[m]
    if route is Route.ABEL_SUMMATION:
        return abel.zeta_neg_via_abel(m)
    return zeta_even_via_funceq(n)


def routes_for_argument(argument: int) -> tuple[Route, ...]:
    return NEGATIVE_ROUTES if argument <= 0 else POSITIVE_ROUTES

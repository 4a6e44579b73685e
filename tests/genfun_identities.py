"""Euler's generating-function identities behind the exact routes, each
checked coefficient by coefficient in exact rationals. No route computes
them, so they live with the tests."""

import math
from fractions import Fraction

from zetaroutes.abel import _theta_numerator
from zetaroutes.bernoulli import bernoulli_via_recurrence
from zetaroutes.series import LaurentSeries, exp_series
from zetaroutes.zeta_exact import zeta_nonpositive


def bernoulli_generating_series(order: int) -> LaurentSeries:
    """z/(e^z - 1) through z^order, computed as the inverse of (e^z - 1)/z."""
    expm1 = exp_series(1, order + 1) - LaurentSeries.constant(1, order + 1)
    return expm1.shifted(-1).invert()


def finite_G_check(n: int, max_m: int) -> bool:
    """(1 - e^{nz})/(e^{-z} - 1) = sum_m S_m(n) z^m / m! through max_m, with
    the power sums S_m(n) by brute force (n >= 1, max_m >= 1)."""
    work = max_m + 2
    num = LaurentSeries.constant(1, work) - exp_series(n, work)
    den = exp_series(-1, work) - LaurentSeries.constant(1, work)
    gen = num * den.invert()
    for m in range(max_m + 1):
        brute = sum(k**m for k in range(1, n + 1))
        if gen.coeff(m) * math.factorial(m) != brute:
            return False
    return True


def odd_genfun_check(order: int) -> bool:
    """(e^{-z} + 1)/(e^{-z} - 1) + 2/z = 2 sum_m zeta(-2m-1) z^{2m+1}/(2m+1)!
    through z^order, every even coefficient zero (order >= 3)."""
    work = order + 2
    num = exp_series(-1, work) + LaurentSeries.constant(1, work)
    den = exp_series(-1, work) - LaurentSeries.constant(1, work)
    gen = num * den.invert() + LaurentSeries.monomial(2, -1, work - 2)
    for m in range(0, order + 1):
        c = gen.coeff(m)
        if m % 2 == 0:
            if c != 0:
                return False
        else:
            expected = 2 * zeta_nonpositive(m) / math.factorial(m)
            if c != expected:
                return False
    return True


def even_part_check(order: int) -> bool:
    """z/(e^z - 1) + z/2 has no odd coefficient through z^order (order >= 2),
    which is why every odd Bernoulli number past B_1 vanishes."""
    even = bernoulli_generating_series(order) + LaurentSeries.monomial(
        Fraction(1, 2), 1, order
    )
    return all(even.coeff(m) == 0 for m in range(1, order + 1, 2))


def faulhaber_sum(m: int, n: int) -> Fraction:
    """S_m(n) = 1^m + 2^m + ... + n^m (m >= 0, n >= 1) from the Bernoulli
    expansion, which terminates for f = x^m:
    (1/(m+1)) sum_j (-1)^j C(m+1, j) B_j n^{m+1-j}."""
    table = bernoulli_via_recurrence(m)
    acc = Fraction(0)
    for j in range(m + 1):
        sign = -1 if j % 2 else 1
        acc += sign * math.comb(m + 1, j) * table[j] * n ** (m + 1 - j)
    return acc / (m + 1)


def operator_genfun_check(order: int) -> bool:
    """sum_m z^{m+1}/m! * (theta^m 1/(1+x))|_{x=1} = z/(1+e^z) through
    z^order (order >= 1): the operator route's values at x = 1 against the
    series engine, which ties the Abel sums to the Bernoulli generating
    function."""
    rhs = (LaurentSeries.constant(1, order) + exp_series(1, order)).invert().shifted(1)
    for m in range(order):
        lhs_coeff = Fraction(sum(_theta_numerator(m)), 2 ** (m + 1) * math.factorial(m))
        if lhs_coeff != rhs.coeff(m + 1):
            return False
    return True

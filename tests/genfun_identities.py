"""Euler's generating-function identities behind the exact routes, each
checked coefficient by coefficient in exact rationals. No route computes
them, so they live with the tests.

Every series here is a plain list on the exponential scale: a stands for
sum_k a_k z^k / k!, so e^{cz} is [c^k], a product is binomial_product and an
inverse is the kernel invert_exponential. A coefficient read off such a
list is m! times the ordinary one: the power sum S_m(n), zeta(-m) or B_m
itself."""

import math
from fractions import Fraction

from zetaroutes.abel import _theta_numerator
from zetaroutes.bernoulli import bernoulli_via_recurrence
from zetaroutes.series import invert_exponential
from zetaroutes.zeta_exact import zeta_nonpositive


def binomial_product(a: list, b: list) -> list:
    """The product of two series on the exponential scale, through the
    shorter one: c_k = sum_i C(k, i) a_i b_{k-i}."""
    return [
        sum(math.comb(k, i) * a[i] * b[k - i] for i in range(k + 1))
        for k in range(min(len(a), len(b)))
    ]


def expm1_over_z(c: Fraction, order: int) -> list:
    """(e^{cz} - 1)/z through z^order: c^{k+1}/(k+1)."""
    return [Fraction(c ** (k + 1), k + 1) for k in range(order + 1)]


def finite_G_check(n: int, max_m: int) -> bool:
    """(1 - e^{nz})/(e^{-z} - 1) = sum_m S_m(n) z^m / m! through max_m, with
    the power sums S_m(n) by brute force (n >= 1, max_m >= 1). Numerator and
    denominator are both divided by z."""
    num = [-c for c in expm1_over_z(n, max_m)]
    gen = binomial_product(num, invert_exponential(expm1_over_z(-1, max_m)))
    return gen == [sum(k**m for k in range(1, n + 1)) for m in range(max_m + 1)]


def odd_genfun_check(order: int) -> bool:
    """(e^{-z} + 1)/(e^{-z} - 1) + 2/z = 2 sum_m zeta(-2m-1) z^{2m+1}/(2m+1)!
    through z^order, every even coefficient zero (order >= 3).

    p = z (e^{-z} + 1)/(e^{-z} - 1) has p_0 = -2, which the 2/z cancels;
    the coefficient m of the left side is then p_{m+1}/(m+1)."""
    num = [(-1) ** k + (k == 0) for k in range(order + 2)]  # e^{-z} + 1
    p = binomial_product(num, invert_exponential(expm1_over_z(-1, order + 1)))
    if p[0] != -2:
        return False
    for m in range(order + 1):
        expected = 2 * zeta_nonpositive(m) if m % 2 else 0
        if p[m + 1] / (m + 1) != expected:
            return False
    return True


def even_part_check(order: int) -> bool:
    """z/(e^z - 1) + z/2 has no odd coefficient through z^order (order >= 2),
    which is why every odd Bernoulli number past B_1 vanishes. The left side
    is (z/(e^z - 1)) (e^z + 1)/2, whose first factor is sum_k B_k z^k/k!."""
    bernoulli = invert_exponential(expm1_over_z(1, order))
    half_ep1 = [Fraction(1 + (k == 0), 2) for k in range(order + 1)]  # (e^z + 1)/2
    even = binomial_product(bernoulli, half_ep1)
    return all(even[m] == 0 for m in range(1, order + 1, 2))


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
    """sum_m z^m/m! * (theta^m 1/(1+x))|_{x=1} = 1/(1+e^z) through
    z^(order-1) (order >= 1): the operator route's values at x = 1 against
    the series kernel, which ties the Abel sums to the Bernoulli generating
    function."""
    rhs = invert_exponential([2] + [1] * (order - 1))  # 1/(1 + e^z)
    return all(
        Fraction(sum(_theta_numerator(m)), 2 ** (m + 1)) == rhs[m] for m in range(order)
    )

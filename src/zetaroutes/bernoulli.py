"""Bernoulli numbers by two independent exact methods, plus Faulhaber sums.

Convention: B_1 = -1/2, fixed by z/(e^z - 1) = sum B_n z^n / n!.

The series method inverts (e^z - 1)/z in exact rationals. The other method
is Algorithm TangentNumbers of Brent and Harvey, "Fast computation of
Bernoulli, Tangent and Secant numbers" (2011, arXiv:1108.0286): the tangent
numbers T_k of tan z = sum T_k z^{2k-1}/(2k-1)! come from an in-place
recurrence on plain integers, and B_2k = (-1)^{k-1} 2k T_k / (4^k (4^k - 1)).
The two share no code, so their agreement checks the values themselves.
The tangent method keeps the name ``bernoulli_via_recurrence`` and the CLI
label ``recurrence``.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

from .series import LaurentSeries, exp_series


def bernoulli_generating_series(order: int) -> LaurentSeries:
    """z/(e^z - 1) through z^order, computed as the inverse of (e^z - 1)/z."""
    expm1 = exp_series(1, order + 1) - LaurentSeries.constant(1, order + 1)
    return expm1.shifted(-1).invert()


def _series_table(order: int) -> list[Fraction]:
    gen = bernoulli_generating_series(order)
    return [math.factorial(n) * gen.coeff(n) for n in range(order + 1)]


def _tangent_table(order: int) -> list[Fraction]:
    half = order // 2
    t = [math.factorial(k) for k in range(half)]  # t[k] = T_{k+1}, from T_k = (k-1)!
    for k in range(1, half):
        for j in range(k, half):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    table = [Fraction(1), Fraction(-1, 2)] + [Fraction(0)] * (order - 1)
    for k in range(1, half + 1):
        four_k = 4**k
        sign = 1 if k % 2 else -1
        table[2 * k] = Fraction(sign * 2 * k * t[k - 1], four_k * (four_k - 1))
    return table[: order + 1]


# One prefix B_0, B_1, ... per method. Each is rebuilt under the lock at twice
# its length or more, O(log n) builds in a sweep, and swapped in whole: callers
# slice it outside the lock.
_SERIES_PREFIX: list[Fraction] = []
_TANGENT_PREFIX: list[Fraction] = []
_LOCK = threading.Lock()


def _read_prefix(prefix: list[Fraction], build, max_index: int) -> tuple[Fraction, ...]:
    if max_index < 0:
        raise ValueError("max_index must be nonnegative")
    with _LOCK:
        if len(prefix) <= max_index:
            prefix[:] = build(max(max_index, 2 * len(prefix)))
    return tuple(prefix[: max_index + 1])


def bernoulli_via_series(max_index: int) -> tuple[Fraction, ...]:
    """B_0 .. B_max_index, with B_n = n! * [z^n] (z/(e^z - 1))."""
    return _read_prefix(_SERIES_PREFIX, _series_table, max_index)


def bernoulli_via_recurrence(max_index: int) -> tuple[Fraction, ...]:
    """B_0 .. B_max_index from Brent-Harvey's integer tangent-number
    recurrence: T_k = (k-1)! to start, then for k = 2 .. n and j = k .. n,
    T_j <- (j-k) T_{j-1} + (j-k+2) T_j."""
    return _read_prefix(_TANGENT_PREFIX, _tangent_table, max_index)


def even_part_check(order: int) -> bool:
    """True iff z/(e^z - 1) + z/2 has no odd coefficient through z^order.

    Peeling the degree-one term leaves an even function, which is why every
    odd Bernoulli number past B_1 vanishes.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    even = bernoulli_generating_series(order) + LaurentSeries.monomial(
        Fraction(1, 2), 1, order
    )
    return all(even.coeff(m) == 0 for m in range(1, order + 1, 2))


def faulhaber_sum(m: int, n: int) -> Fraction:
    """S_m(n) = 1^m + 2^m + ... + n^m, exactly, via the Bernoulli expansion.

    For f = x^m the Euler-Maclaurin expansion terminates, so the polynomial
    (1/(m+1)) sum_j (-1)^j C(m+1, j) B_j n^{m+1-j} is exact.
    """
    if m < 0:
        raise ValueError("power must be nonnegative")
    if n < 1:
        raise ValueError("upper limit must be positive")
    table = bernoulli_via_recurrence(m)
    acc = Fraction(0)
    for j in range(m + 1):
        sign = -1 if j % 2 else 1
        acc += sign * math.comb(m + 1, j) * table[j] * n ** (m + 1 - j)
    return acc / (m + 1)

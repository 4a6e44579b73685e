"""Bernoulli numbers by two exact methods, plus Faulhaber sums.

Convention: B_1 = -1/2, fixed by z/(e^z - 1) = sum B_n z^n / n!.

The two methods are two codes, not two mathematics: with B_k = k! b_k, one
step of inverting (e^z - 1)/z for the b_k is algebraically the recurrence
step B_k = -(1/(k+1)) sum_{j<k} C(k+1, j) B_j. Their agreement checks the
series engine and the table code, not the identity. A genuinely different
algorithm is the integer tangent-number route of Brent and Harvey, "Fast
computation of Bernoulli, Tangent and Secant numbers" (2011,
arXiv:1108.0286); it is not implemented here.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

from .exact import CommonDenominator
from .series import LaurentSeries, exp_series


def bernoulli_generating_series(order: int) -> LaurentSeries:
    """z/(e^z - 1) through z^order, computed as the inverse of (e^z - 1)/z."""
    expm1 = exp_series(1, order + 1) - LaurentSeries.constant(1, order + 1)
    return expm1.shifted(-1).invert()


# One growing prefix B_0, B_1, ... per method, grown under the lock. The series
# prefix is rebuilt at twice its length or more: O(log n) inversions in a sweep.
_SERIES_PREFIX: list[Fraction] = []
_RECURRENCE_PREFIX: list[Fraction] = [Fraction(1)]
_LOCK = threading.Lock()


def bernoulli_via_series(max_index: int) -> tuple[Fraction, ...]:
    """B_0 .. B_max_index, with B_n = n! * [z^n] (z/(e^z - 1))."""
    if max_index < 0:
        raise ValueError("max_index must be nonnegative")
    prefix = _SERIES_PREFIX
    with _LOCK:
        if len(prefix) <= max_index:
            order = max(max_index, 2 * len(prefix))
            gen = bernoulli_generating_series(order)
            prefix[:] = [
                math.factorial(n) * gen.coeff_or_zero(n) for n in range(order + 1)
            ]
    return tuple(prefix[: max_index + 1])


def bernoulli_via_recurrence(max_index: int) -> tuple[Fraction, ...]:
    """B_0 .. B_max_index by the second method: sum_{k=0}^{n} C(n+1, k) B_k = 0
    with B_0 = 1."""
    if max_index < 0:
        raise ValueError("max_index must be nonnegative")
    values = _RECURRENCE_PREFIX
    with _LOCK:
        if len(values) <= max_index:
            # Rebuilt from the prefix on each growing call, so the prefix
            # stays the one piece of shared state.
            scaled = CommonDenominator(values)
            for n in range(len(values), max_index + 1):
                acc, c = 0, 1
                for k, num in enumerate(scaled.numerators):
                    acc += c * num
                    c = c * (n + 1 - k) // (k + 1)  # C(n+1, k+1)
                b = Fraction(-acc, scaled.denominator * (n + 1))
                scaled.append(b)
                values.append(b)
    return tuple(values[: max_index + 1])


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
    return all(even.coeff_or_zero(m) == 0 for m in range(1, order + 1, 2))


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
        acc += sign * math.comb(m + 1, j) * table[j] * Fraction(n) ** (m + 1 - j)
    return acc / (m + 1)

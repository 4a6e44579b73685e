"""Bernoulli numbers by two independent exact methods, plus Faulhaber sums.

Convention: B_1 = -1/2, fixed by z/(e^z - 1) = sum B_n z^n / n!.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction

from .exact import BigRational, binomial, factorial
from .series import LaurentSeries, exp_series


@dataclass(frozen=True)
class BernoulliTable:
    """B_0 .. B_max_index, exact."""

    values: tuple[BigRational, ...]
    max_index: int

    def __post_init__(self) -> None:
        if len(self.values) != self.max_index + 1:
            raise ValueError("table length must be max_index + 1")

    def __getitem__(self, n: int) -> BigRational:
        return self.values[n]

    def __len__(self) -> int:
        return self.max_index + 1


def bernoulli_generating_series(order: int) -> LaurentSeries:
    """z/(e^z - 1) through z^order, computed as the inverse of (e^z - 1)/z."""
    expm1 = exp_series(1, order + 1) - LaurentSeries.constant(1, order + 1)
    return expm1.shifted(-1).invert()


# One growing prefix B_0, B_1, ... per method, grown under the lock. The series
# prefix is rebuilt at twice its length or more: O(log n) inversions in a sweep.
_SERIES_PREFIX: list[BigRational] = []
_RECURRENCE_PREFIX: list[BigRational] = [Fraction(1)]
_LOCK = threading.Lock()


def bernoulli_via_series(max_index: int) -> BernoulliTable:
    """B_n = n! * [z^n] (z/(e^z - 1))."""
    if max_index < 0:
        raise ValueError("max_index must be nonnegative")
    prefix = _SERIES_PREFIX
    with _LOCK:
        if len(prefix) <= max_index:
            order = max(max_index, 2 * len(prefix))
            gen = bernoulli_generating_series(order)
            prefix[:] = [factorial(n) * gen.coeff_or_zero(n) for n in range(order + 1)]
    return BernoulliTable(tuple(prefix[: max_index + 1]), max_index)


def bernoulli_via_recurrence(max_index: int) -> BernoulliTable:
    """Independent route: sum_{k=0}^{n} C(n+1, k) B_k = 0 with B_0 = 1."""
    if max_index < 0:
        raise ValueError("max_index must be nonnegative")
    values = _RECURRENCE_PREFIX
    with _LOCK:
        for n in range(len(values), max_index + 1):
            acc = Fraction(0)
            for k in range(n):
                acc += binomial(n + 1, k) * values[k]
            values.append(-acc / (n + 1))
    return BernoulliTable(tuple(values[: max_index + 1]), max_index)


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


def faulhaber_sum(m: int, n: int) -> BigRational:
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
        acc += sign * binomial(m + 1, j) * table[j] * Fraction(n) ** (m + 1 - j)
    return acc / (m + 1)

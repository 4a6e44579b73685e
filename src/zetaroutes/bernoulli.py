"""Bernoulli numbers by two independent exact methods.

Convention: B_1 = -1/2, fixed by z/(e^z - 1) = sum B_n z^n / n!.

The series method inverts (e^z - 1)/z = sum z^k/(k+1)! in exact rationals,
on that family's own recurrence: its product with z/(e^z - 1) is 1, so
sum_{i=0..k} C(k+1, i) B_i = 0 for k >= 1. It evaluates the k = 1 row,
which gives B_1, and the even rows: z/(e^z - 1) + z/2 = (z/2) coth(z/2) is
even, so B_k = 0 for every odd k >= 3. The other method is Algorithm
TangentNumbers of Brent and Harvey, "Fast computation of Bernoulli, Tangent
and Secant numbers" (2011, arXiv:1108.0286): the tangent numbers T_k of
tan z = sum T_k z^{2k-1}/(2k-1)! come from an in-place recurrence on plain
integers, and B_2k = (-1)^{k-1} 2k T_k / (4^k (4^k - 1)).
The two share no code, so their agreement checks the values themselves.
The tangent method keeps the name ``bernoulli_via_recurrence`` and the CLI
label ``recurrence``.
"""

from __future__ import annotations

import math
import operator
import threading
from fractions import Fraction

from .errors import require_index


def _series_table(order: int) -> list[Fraction]:
    # Row k of sum_{i=0..k} C(k+1, i) B_i = 0 solved for B_k. The k = 1 row
    # gives B_1; an even row k = 2m reads B_0, B_1 and B_2 .. B_{2m-2}. One
    # Pascal row C(k+1, 0..k+1), kept by additions through every k, is dotted
    # by position: row[0:k:2] with B_0, B_2, .., and row[1] with B_1, all held
    # as integers over one running denominator, with a single reduction per
    # row. The coefficients are plain binomials, with no lcm(1..n+1) scale as
    # in the general inversion series.invert_exponential.
    table = [Fraction(1)]
    den, evens, b1 = 1, [1], 0  # B_2j = evens[j] / den, B_1 = b1 / den
    row = [1, 1]  # C(k, 0..k)
    for k in range(1, order + 1):
        row = [1, *map(operator.add, row[1:], row), 1]
        if k % 2 and k > 1:
            # z/(e^z - 1) + z/2 = (z/2) coth(z/2) is even, so this row's B_k
            # is 0 and its dot product is not evaluated
            table.append(Fraction(0))
            continue
        dot = sum(map(operator.mul, row[0:k:2], evens)) + row[1] * b1
        bk = Fraction(-dot, den * (k + 1))
        grow = bk.denominator // math.gcd(den, bk.denominator)
        if grow > 1:
            den *= grow
            evens = [num * grow for num in evens]
            b1 *= grow
        num = bk.numerator * (den // bk.denominator)
        if k == 1:
            b1 = num
        else:
            evens.append(num)
        table.append(bk)
    return table


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
# read it outside the lock.
_SERIES_PREFIX: list[Fraction] = []
_TANGENT_PREFIX: list[Fraction] = []
_LOCK = threading.Lock()


def _grown(prefix: list[Fraction], build, max_index: int) -> list[Fraction]:
    with _LOCK:
        if len(prefix) <= max_index:
            prefix[:] = build(max(max_index, 2 * len(prefix)))
    return prefix


def _read_prefix(prefix: list[Fraction], build, max_index: int) -> tuple[Fraction, ...]:
    require_index("max_index", max_index)
    return tuple(_grown(prefix, build, max_index)[: max_index + 1])


# B_k alone, for the exact routes that read one entry: no copy of the prefix.
# The caller has validated k.
def _series_entry(k: int) -> Fraction:
    return _grown(_SERIES_PREFIX, _series_table, k)[k]


def _tangent_entry(k: int) -> Fraction:
    return _grown(_TANGENT_PREFIX, _tangent_table, k)[k]


def bernoulli_via_series(max_index: int) -> tuple[Fraction, ...]:
    """B_0 .. B_max_index, with B_n = n! * [z^n] (z/(e^z - 1))."""
    return _read_prefix(_SERIES_PREFIX, _series_table, max_index)


def bernoulli_via_recurrence(max_index: int) -> tuple[Fraction, ...]:
    """B_0 .. B_max_index from Brent-Harvey's integer tangent-number
    recurrence: T_k = (k-1)! to start, then for k = 2 .. n and j = k .. n,
    T_j <- (j-k) T_{j-1} + (j-k+2) T_j."""
    return _read_prefix(_TANGENT_PREFIX, _tangent_table, max_index)


"""The exact inverse of a series of exponential type, ``invert_exponential``,
and the truncated Laurent series that the generating-function route inverts
through it and reads its coefficients from. The series Bernoulli table does
not come through here: it runs on its own family's recurrence in
``bernoulli``.

A series carries its own trust horizon: ``order`` is the largest exponent
whose coefficient was computed, and ``coeff`` refuses to read past it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress

from .errors import (
    DomainError,
    OutOfTrustedRange,
    ZeroSeries,
    require_index,
    require_rational,
)


@dataclass(frozen=True)
class LaurentSeries:
    """Coefficients of z^valuation .. z^order, trusted through z^order.

    Invariant: len(coeffs) == order - valuation + 1. Construction strips
    leading zeros (raising the valuation); the all-zero series collapses to a
    single zero coefficient at the order.
    """

    valuation: int
    coeffs: tuple[Fraction, ...]
    order: int

    def __post_init__(self) -> None:
        coeffs = tuple(
            c if isinstance(c, Fraction) else require_rational("coeffs", c)
            for c in self.coeffs
        )
        val = require_index("valuation", self.valuation, least=None)
        require_index("order", self.order, least=None)
        if len(coeffs) != self.order - val + 1:
            raise DomainError("coefficient count must match order - valuation + 1")
        while len(coeffs) > 1 and coeffs[0] == 0:
            coeffs = coeffs[1:]
            val += 1
        if len(coeffs) == 1 and coeffs[0] == 0:
            val = self.order
        object.__setattr__(self, "valuation", val)
        object.__setattr__(self, "coeffs", coeffs)

    def coeff(self, m: int) -> Fraction:
        """Coefficient of z^m: zero below the valuation, an error past the order."""
        if require_index("m", m, least=None) > self.order:
            raise OutOfTrustedRange(f"z^{m} beyond the trusted order {self.order}")
        if m < self.valuation:
            return Fraction(0)
        return self.coeffs[m - self.valuation]

    def invert(self) -> "LaurentSeries":
        """Series b with self*b == 1 through the deliverable order.

        The inverse has valuation -v and carries order - 2v trusted
        exponents' worth. The relative coefficients c_k go through
        ``invert_exponential`` as alpha_k = k! c_k and come back as
        b_k = beta_k / k!.
        """
        facts = list(accumulate(range(1, len(self.coeffs)), operator.mul, initial=1))
        beta = invert_exponential(map(operator.mul, facts, self.coeffs))
        b = tuple(map(operator.truediv, beta, facts))
        val = -self.valuation
        return LaurentSeries(val, b, val + len(b) - 1)


def invert_exponential(alpha) -> list[Fraction]:
    """beta_0 .. beta_n with (sum alpha_k z^k/k!)(sum beta_k z^k/k!) == 1.

    beta_0 = 1/alpha_0 and beta_k = -(sum_{i=1..k} C(k,i) alpha_i beta_{k-i})
    / alpha_0. On this exponential scale the integers stay small: the
    generating-function route inverts (e^{-z} - 1)/z, whose alpha_k =
    (-1)^{k+1}/(k+1) have the common scale lcm(1..n+1), where the ordinary
    coefficients (-1)^{k+1}/(k+1)! need (n+1)!. A common scale of the alpha_i
    cancels, so they are taken as integers over their lcm, and the beta_k as
    integers over one running denominator: each beta_k is then an integer
    dot product with one Pascal row, kept by additions, and a single
    reduction. Terms at a zero beta_{k-i} are skipped, which halves the work
    for an even function plus a linear term, such as that route's inverse
    z/(e^{-z} - 1) = -z - z/(e^z - 1).
    """
    alpha = [c if isinstance(c, Fraction) else require_rational("alpha", c) for c in alpha]
    if not alpha or alpha[0] == 0:
        raise ZeroSeries("cannot invert a series whose constant term is zero")
    lcm = math.lcm(*(c.denominator for c in alpha))
    a = [c.numerator * (lcm // c.denominator) for c in alpha]
    beta = [1 / alpha[0]]
    den, rev = beta[0].denominator, [beta[0].numerator]  # beta_{k-1-j} = rev[j] / den
    row = [1]  # C(k-1, 0..k-1)
    for k in range(1, len(a)):
        row = [1, *map(operator.add, row[1:], row), 1]
        scaled = map(operator.mul, compress(row[1:], rev), compress(a[1 : k + 1], rev))
        bk = Fraction(-sum(map(operator.mul, scaled, filter(None, rev))), den * a[0])
        grow = bk.denominator // math.gcd(den, bk.denominator)
        if grow > 1:
            den *= grow
            rev = [num * grow for num in rev]
        rev.insert(0, bk.numerator * (den // bk.denominator))
        beta.append(bk)
    return beta


def exp_series(a: Fraction, order: int) -> LaurentSeries:
    """exp(a*z) truncated: sum_{n<=order} a^n z^n / n!."""
    require_index("order", order)
    a = require_rational("a", a)
    coeffs = [Fraction(1)]
    for n in range(1, order + 1):
        coeffs.append(coeffs[-1] * a / n)
    return LaurentSeries(0, tuple(coeffs), order)

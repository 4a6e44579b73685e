"""Truncated Laurent series over exact rationals.

A series carries its own trust horizon: ``order`` is the largest exponent
whose coefficient is guaranteed correct. Arithmetic tightens the horizon,
never extends it, so a coefficient can be read only where it was actually
computed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

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

    # -- constructors ------------------------------------------------------

    @classmethod
    def monomial(cls, coeff: Fraction, power: int, order: int) -> "LaurentSeries":
        """c * z^power, trusted through `order`."""
        require_index("power", power, least=None)
        if require_index("order", order, least=None) < power:
            raise DomainError("monomial order must be >= its power")
        coeffs = (require_rational("coeff", coeff),) + (Fraction(0),) * (order - power)
        return cls(power, coeffs, order)

    @classmethod
    def constant(cls, value: Fraction, order: int) -> "LaurentSeries":
        return cls.monomial(value, 0, order)

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def coeff(self, m: int) -> Fraction:
        """Coefficient of z^m: zero below the valuation, an error past the order."""
        if require_index("m", m, least=None) > self.order:
            raise OutOfTrustedRange(f"z^{m} beyond the trusted order {self.order}")
        if m < self.valuation:
            return Fraction(0)
        return self.coeffs[m - self.valuation]

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(self.valuation, tuple(-c for c in self.coeffs), self.order)

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        order = min(self.order, other.order)
        val = min(self.valuation, other.valuation)
        coeffs = [Fraction(0)] * (order - val + 1)
        for src in (self, other):
            for i, c in enumerate(src.coeffs):
                m = src.valuation + i
                if val <= m <= order:
                    coeffs[m - val] += c
        return LaurentSeries(val, tuple(coeffs), order)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        val = self.valuation + other.valuation
        order = min(
            self.order + other.valuation, other.order + self.valuation
        )
        if self.is_zero() or other.is_zero():
            return LaurentSeries(order, (Fraction(0),), order)
        size = order - val + 1
        coeffs = [Fraction(0)] * size
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                k = i + j
                if k >= size:
                    break
                if b != 0:
                    coeffs[k] += a * b
        return LaurentSeries(val, tuple(coeffs), order)

    def shifted(self, k: int) -> "LaurentSeries":
        """Multiply by z^k (exact; shifts the trust window with it)."""
        return LaurentSeries(self.valuation + k, self.coeffs, self.order + k)

    def invert(self) -> "LaurentSeries":
        """Series b with self*b == 1 through the deliverable order.

        Uses long division on the relative coefficients; the inverse has
        valuation -v and carries order - 2v trusted exponents' worth.
        In b_k = -(sum_{i=1..k} a_i b_{k-i}) / a_0 a common scale of the a_i
        cancels, so they are taken as integers over their lcm, and the b_k
        as integers over one running denominator: each b_k is then an
        integer dot product and a single reduction.
        """
        if self.is_zero():
            raise ZeroSeries("cannot invert the zero series")
        lcm = math.lcm(*(c.denominator for c in self.coeffs))
        a = [c.numerator * (lcm // c.denominator) for c in self.coeffs]
        b = [1 / self.coeffs[0]]
        den, nums = b[0].denominator, [b[0].numerator]  # b_k = nums[k] / den
        for k in range(1, len(a)):
            bk = Fraction(-sum(map(operator.mul, a[k:0:-1], nums)), den * a[0])
            grow = bk.denominator // math.gcd(den, bk.denominator)
            if grow > 1:
                den *= grow
                nums = [num * grow for num in nums]
            nums.append(bk.numerator * (den // bk.denominator))
            b.append(bk)
        val = -self.valuation
        return LaurentSeries(val, tuple(b), val + len(b) - 1)


def exp_series(a: Fraction, order: int) -> LaurentSeries:
    """exp(a*z) truncated: sum_{n<=order} a^n z^n / n!."""
    require_index("order", order)
    a = require_rational("a", a)
    coeffs = [Fraction(1)]
    for n in range(1, order + 1):
        coeffs.append(coeffs[-1] * a / n)
    return LaurentSeries(0, tuple(coeffs), order)

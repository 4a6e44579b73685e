"""Exact scalars: arbitrary-precision rationals and pi-monomials q*pi^k.

``BigRational`` is ``fractions.Fraction``: it already stores values in lowest
terms with a positive denominator, which makes structural equality the same
thing as exact mathematical equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import MixedPiPowers

BigRational = Fraction


def binomial(n: int, k: int) -> int:
    """C(n, k); 0 when k > n."""
    if n < 0 or k < 0:
        raise ValueError("binomial requires nonnegative arguments")
    return math.comb(n, k)


def factorial(n: int) -> int:
    if n < 0:
        raise ValueError("factorial requires a nonnegative argument")
    return math.factorial(n)


def format_rational(q: Fraction) -> str:
    """Render as "p/q", omitting the denominator when it is 1."""
    return str(q)


def parse_rational(text: str) -> Fraction:
    return Fraction(text)


@dataclass(frozen=True)
class PiValue:
    """An exact value coeff * pi**pi_exp with rational coeff and pi_exp >= 0.

    Zero is canonical: a zero coefficient forces pi_exp == 0, so dataclass
    equality is exact value equality.
    """

    coeff: Fraction
    pi_exp: int = 0

    def __post_init__(self) -> None:
        coeff = self.coeff if isinstance(self.coeff, Fraction) else Fraction(self.coeff)
        exp = int(self.pi_exp)
        if exp < 0:
            raise ValueError("pi exponent must be nonnegative")
        if coeff == 0:
            exp = 0
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "pi_exp", exp)

    def __mul__(self, other: "PiValue") -> "PiValue":
        return PiValue(self.coeff * other.coeff, self.pi_exp + other.pi_exp)

    def __add__(self, other: "PiValue") -> "PiValue":
        if self.coeff == 0:
            return other
        if other.coeff == 0:
            return self
        if self.pi_exp != other.pi_exp:
            raise MixedPiPowers(
                f"cannot add pi^{self.pi_exp} term to pi^{other.pi_exp} term"
            )
        return PiValue(self.coeff + other.coeff, self.pi_exp)

    def __neg__(self) -> "PiValue":
        return PiValue(-self.coeff, self.pi_exp)

    def __sub__(self, other: "PiValue") -> "PiValue":
        return self + (-other)

    def scale(self, q: Fraction) -> "PiValue":
        return PiValue(self.coeff * q, self.pi_exp)

    def to_float(self) -> float:
        """coeff * pi**pi_exp in double precision (relative error a few ulp)."""
        return float(self.coeff) * math.pi**self.pi_exp

    def to_json(self) -> dict:
        return {"coeff": format_rational(self.coeff), "pi_exp": self.pi_exp}

    @classmethod
    def from_json(cls, obj: dict) -> "PiValue":
        return cls(parse_rational(obj["coeff"]), int(obj["pi_exp"]))

    def __str__(self) -> str:
        if self.pi_exp == 0:
            return format_rational(self.coeff)
        power = "pi" if self.pi_exp == 1 else f"pi^{self.pi_exp}"
        return f"{format_rational(self.coeff)}*{power}"

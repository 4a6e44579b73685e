"""Exact scalars: arbitrary-precision rationals and pi-monomials q*pi^k.

Rationals are ``fractions.Fraction``: it already stores values in lowest
terms with a positive denominator, which makes structural equality the same
thing as exact mathematical equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, require_index, require_rational

# pi to 60 significant digits. The relative error of _PI**k is about k*1e-60,
# so one rounding of q * _PI**k gives the double nearest q*pi^k unless q*pi^k
# lies within that distance of a rounding boundary.
_PI = Fraction("3.14159265358979323846264338327950288419716939937510582097494")


@dataclass(frozen=True)
class PiValue:
    """An exact value coeff * pi**pi_exp with nonzero rational coeff and
    pi_exp >= 1.

    A rational (pi_exp 0, or zero) is a ``Fraction``, never a PiValue, so
    dataclass equality is exact value equality.
    """

    coeff: Fraction
    pi_exp: int

    def __post_init__(self) -> None:
        coeff = require_rational("coeff", self.coeff)
        exp = require_index("pi_exp", self.pi_exp, least=1)
        if coeff == 0:
            raise DomainError("PiValue needs coeff != 0")
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "pi_exp", int(exp))

    def to_float(self) -> float:
        """coeff * pi**pi_exp, formed with _PI and rounded once to a double.

        A value beyond double range raises OverflowError.
        """
        return float(self.coeff * _PI**self.pi_exp)

    def to_json(self) -> dict:
        return {"coeff": str(self.coeff), "pi_exp": self.pi_exp}

    def __str__(self) -> str:
        power = "pi" if self.pi_exp == 1 else f"pi^{self.pi_exp}"
        return f"{self.coeff}*{power}"

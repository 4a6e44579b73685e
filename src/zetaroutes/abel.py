"""Abel sums of the divergent alternating series 1^m - 2^m + 3^m - ...

Three independent routes live here:

* the operator route: apply theta = x*d/dx repeatedly to 1/(1+x) and
  evaluate at x = 1 (exact, on the integer numerators over (1+x)^{m+1});
* the closed form (-1)^m (1 - 2^{m+1}) B_{m+1} / (m+1);
* a numeric Abel limit: partial sums at x = 1 - 2^-j, Richardson
  extrapolated in 1 - x.

The alternating sums pin down zeta at nonpositive integers through
zeta(-m) = A_m / (1 - 2^{1+m}).

Sign note: A_3 = 1^3 - 2^3 + 3^3 - ... is occasionally quoted as +1/8;
the operator route, the closed form, the alternating Euler-Maclaurin
expansion and the numeric Abel limit all agree on -1/8.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction

from .bernoulli import bernoulli_via_recurrence
from .errors import InternalInconsistency
from .exact import BigRational, factorial
from .series import LaurentSeries, exp_series


# -- dense polynomials over Fraction ----------------------------------------


@dataclass(frozen=True)
class Poly:
    """Dense polynomial, coefficients low degree first, no trailing zeros."""

    coeffs: tuple[BigRational, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(
            c if isinstance(c, Fraction) else Fraction(c) for c in self.coeffs
        )
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if not coeffs:
            coeffs = (Fraction(0),)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return self.coeffs == (Fraction(0),)

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            tuple(
                (self.coeffs[i] if i < len(self.coeffs) else 0)
                + (other.coeffs[i] if i < len(other.coeffs) else 0)
                for i in range(n)
            )
        )

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly((Fraction(0),))
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(tuple(out))

    def scale(self, q) -> "Poly":
        q = Fraction(q)
        return Poly(tuple(q * c for c in self.coeffs))

    def derivative(self) -> "Poly":
        if self.degree == 0:
            return Poly((Fraction(0),))
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def __call__(self, x) -> BigRational:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quot = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 1)
        d = other.degree
        lead = other.coeffs[-1]
        for i in range(len(rem) - 1, d - 1, -1):
            if rem[i] == 0:
                continue
            q = rem[i] / lead
            quot[i - d] = q
            for j, b in enumerate(other.coeffs):
                rem[i - d + j] -= q * b
        return Poly(tuple(quot)), Poly(tuple(rem[:d] or [Fraction(0)]))

    def monic(self) -> "Poly":
        lead = self.coeffs[-1]
        if lead == 0 or lead == 1:
            return self
        return self.scale(1 / lead)


def _primitive(p: Poly) -> Poly:
    """Integer-coefficient scalar multiple with content 1 (controls the
    coefficient blowup of plain Euclid over the rationals)."""
    if p.is_zero():
        return p
    scale = math.lcm(*(c.denominator for c in p.coeffs))
    ints = [int(c * scale) for c in p.coeffs]
    content = math.gcd(*ints)
    return Poly(tuple(Fraction(i // content) for i in ints))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over the rationals (primitive remainder sequence)."""
    a, b = _primitive(a), _primitive(b)
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, _primitive(r)
    return a.monic()


def poly_from_coeffs(*coeffs) -> Poly:
    return Poly(tuple(Fraction(c) for c in coeffs))


# -- rational functions ------------------------------------------------------


@dataclass(frozen=True)
class RationalFunction:
    """num/den, always reduced, denominator monic; equality is structural."""

    num: Poly
    den: Poly

    def __post_init__(self) -> None:
        num, den = self.num, self.den
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not num.is_zero():
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
        lead = den.coeffs[-1]
        if lead != 1:
            num = num.scale(1 / lead)
            den = den.scale(1 / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def euler_op(self) -> "RationalFunction":
        """theta f = x * f'(x), by the quotient rule, reduced."""
        x = poly_from_coeffs(0, 1)
        num = x * (self.num.derivative() * self.den - self.num * self.den.derivative())
        return RationalFunction(num, self.den * self.den)

    def __call__(self, x) -> BigRational:
        x = Fraction(x)
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at x = {x}")
        return self.num(x) / d


def one_over_one_plus_x() -> RationalFunction:
    return RationalFunction(poly_from_coeffs(1), poly_from_coeffs(1, 1))


def apply_euler_operator(f: RationalFunction, m: int) -> RationalFunction:
    """(x d/dx)^m f, exactly."""
    if m < 0:
        raise ValueError("operator power must be nonnegative")
    for _ in range(m):
        f = f.euler_op()
    return f


_THETA_NUMERATORS: list[list[int]] = [[1]]  # P_0, P_1, ..., grown under the lock
_LOCK = threading.Lock()


def _theta_numerator(m: int) -> list[int]:
    """P_m with theta^m 1/(1+x) = P_m(x)/(1+x)^{m+1}, integer coefficients low
    degree first, by P_k = x[(1+x) P'_{k-1} - k P_{k-1}]."""
    chain = _THETA_NUMERATORS
    with _LOCK:
        for k in range(len(chain), m + 1):
            p = chain[-1] + [0]
            # coefficient i of (1+x) P' - k P is (i+1) p_{i+1} + (i-k) p_i
            chain.append([0] + [(i + 1) * p[i + 1] + (i - k) * p[i] for i in range(k)])
    return chain[m]


# -- the Abel sums -----------------------------------------------------------


def abel_closed_form(m: int) -> BigRational:
    """(-1)^m (1 - 2^{m+1}) B_{m+1} / (m+1)."""
    b = bernoulli_via_recurrence(m + 1)[m + 1]
    sign = -1 if m % 2 else 1
    return sign * (1 - Fraction(2) ** (m + 1)) * b / (m + 1)


def abel_sum_exact(m: int) -> BigRational:
    """Abel sum A_m of 1^m - 2^m + 3^m - ..., by the operator route.

    A_0 = 1 - [1/(1+x)] at x=1 (the geometric series); for m >= 1 the
    operator annihilates the constant term, leaving
    A_m = -[(x d/dx)^m (1/(1+x))] at x=1. Cross-checked against the
    Bernoulli closed form on every call.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m == 0:
        value = 1 - one_over_one_plus_x()(1)
    else:
        value = -Fraction(sum(_theta_numerator(m)), 2 ** (m + 1))
    check = abel_closed_form(m)
    if value != check:
        raise InternalInconsistency(
            f"operator route gave {value}, closed form gave {check} at m={m}"
        )
    return value


def em_alternating_value(m: int) -> BigRational:
    """Alternating Euler-Maclaurin route for A_m.

    Subtracting twice the even part of the summatory expansion leaves
    sum_n (2^{n+1}-1) B_{n+1} / (n+1)! * f^{(n)}(0) for f(x) = x^m; only the
    n = m derivative survives. Normalized so the series summed is
    1^m - 2^m + 3^m - ..., this equals abel_sum_exact(m) for every m >= 1.
    (At m = 0 the x^0 term at x = 0 joins the sum and the routes differ.)
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    table = bernoulli_via_recurrence(m + 1)
    acc = Fraction(0)
    for n in range(m + 1):
        d_n = factorial(m) if n == m else Fraction(0)  # d^n/dx^n x^m at 0
        acc += (Fraction(2) ** (n + 1) - 1) * table[n + 1] / factorial(n + 1) * d_n
    return acc


def zeta_neg_via_abel(m: int) -> BigRational:
    """zeta(-m) = A_m / (1 - 2^{1+m})."""
    return abel_sum_exact(m) / (1 - Fraction(2) ** (1 + m))


def operator_genfun_check(order: int = 20) -> bool:
    """Check sum_m z^{m+1}/m! * (theta^m 1/(1+x))|_{x=1} = z/(1+e^z).

    The left side packages the operator route's values at x = 1 into an
    exponential generating function; the right side is built by the series
    engine. Term-by-term equality ties the Abel sums to the Bernoulli
    generating function.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    rhs = (LaurentSeries.constant(1, order) + exp_series(1, order)).invert().shifted(1)
    for m in range(order):
        lhs_coeff = Fraction(sum(_theta_numerator(m)), 2 ** (m + 1) * factorial(m))
        if lhs_coeff != rhs.coeff_or_zero(m + 1):
            return False
    return True


# -- numeric Abel limit ------------------------------------------------------

_TAIL_LOG = 33.0  # -ln(1e-14), with margin
_FIXED_POINT_BITS = 256


def _partial_sum_terms(m: int, lam: float) -> int:
    """Terms needed so the tail of sum k^m x^k is below 1e-14 (x = e^-lam)."""
    k = max(int((_TAIL_LOG + m * 12.0) / lam), 16)
    for _ in range(4):
        k = int((_TAIL_LOG + m * math.log(k) - math.log(lam)) / lam) + 1
    return k


def _alternating_power_sum(m: int, j: int, bits: int = _FIXED_POINT_BITS) -> float:
    """sum_{k<=K} (-1)^{k+1} k^m x^k at x = 1 - 2^-j, in fixed-point integers.

    Peak terms reach ~ (m 2^j / e)^m, far beyond double precision, so the
    accumulation runs over scaled integers (error < 2^{j-bits} per term).
    """
    lam = -math.log1p(-(2.0**-j))
    terms = _partial_sum_terms(m, lam)
    p = (1 << j) - 1
    t = p << (bits - j)  # x^1, scaled by 2^bits
    acc = 0
    for k in range(1, terms + 1):
        term = k**m * t
        acc += term if k & 1 else -term
        t = (t * p) >> j
    return acc / (1 << bits)


def _richardson_to_zero(xs: list[float], ys: list[float]) -> float:
    """Neville polynomial extrapolation of (xs, ys) to x = 0."""
    vals = list(ys)
    n = len(vals)
    for level in range(1, n):
        for i in range(n - level):
            x_lo, x_hi = xs[i], xs[i + level]
            vals[i] = (x_lo * vals[i + 1] - x_hi * vals[i]) / (x_lo - x_hi)
    return vals[0]


def abel_numeric_estimate(m: int, steps: int = 4) -> float:
    """Numeric Abel limit of 1^m - 2^m + 3^m - ... (m <= 8).

    Evaluates the power series at x_j = 1 - 2^-j for j = 8 .. 8+steps and
    Richardson-extrapolates in 1 - x. Agrees with abel_sum_exact to 1e-6.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m > 8:
        raise ValueError("numeric oracle validated only for m <= 8")
    if steps < 1:
        raise ValueError("steps must be positive")
    js = range(8, 8 + steps + 1)
    eps = [2.0**-j for j in js]
    vals = [_alternating_power_sum(m, j) for j in js]
    return _richardson_to_zero(eps, vals)

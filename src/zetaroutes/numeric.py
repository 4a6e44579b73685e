"""Numeric continuation of zeta to complex s, and the residual checks.

Two independent evaluators:

* ``zeta_em``:     Euler-Maclaurin acceleration of the Dirichlet sum; the
                   workhorse oracle away from s = 1.
* ``zeta_hankel``: the loop integral of (-x)^{s-1}/(e^x - 1) over a contour
                   that comes in above the positive real axis, circles the
                   origin, and leaves below it; zeta(s) = -Gamma(1-s) I/(2 pi i).

The branch of (-x)^{s-1} = exp((s-1) log(-x)) uses the principal logarithm,
so log(-x) is real for negative x and the cut in x lies along the positive
real axis -- exactly where the contour never goes.

``inverted_contour_check`` flips the contour inside out: for Re s < 0 the
integral equals the residue sum over the poles at 2 pi i n, which telescopes
into the functional equation. ``funceq_residual`` and ``cotangent_check``
measure the remaining identities in floating point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial.legendre import leggauss

from .bernoulli import bernoulli_via_recurrence
from .errors import (
    AtPole,
    NearPole,
    OnBranchCut,
    OutOfValidatedRange,
    QuadratureNotConverged,
    TooCloseToPositiveIntegerPole,
    finite_or_out_of_range,
    require_finite,
)
from .exact import factorial
from .gammafn import gamma_complex


@dataclass(frozen=True)
class NumericConfig:
    """Euler-Maclaurin knobs: Dirichlet cutoff, correction terms, target."""

    em_terms_N: int = 30
    em_terms_J: int = 14
    target_tol: float = 1e-13

    def __post_init__(self) -> None:
        if not 1 <= self.em_terms_J <= 15:
            raise ValueError("em_terms_J must be in 1..15")
        if self.em_terms_N < 1:
            raise ValueError("em_terms_N must be positive")
        if self.target_tol < 1e-13:
            raise ValueError("target_tol below double-precision headroom")
        require_finite("target_tol", self.target_tol)


@dataclass(frozen=True)
class ContourSpec:
    """Hankel contour geometry: rays at Im x = +-radius joined by an arc.

    The radius must sit strictly between the origin and the first nonreal
    poles at +-2 pi i; the default pi maximizes the distance to both.
    """

    radius: float = math.pi
    x_max: float = 40.0

    def __post_init__(self) -> None:
        if not 0.0 < self.radius < 2 * math.pi:
            raise ValueError("radius must lie in (0, 2 pi)")
        if self.x_max <= self.radius:
            raise ValueError("x_max must exceed the radius")
        require_finite("x_max", self.x_max)


DEFAULT_NUMERIC = NumericConfig()

# B_{2j}/(2j)! as floats, j = 1..16, from the exact table.
_B2J_OVER_FACT = tuple(
    float(bernoulli_via_recurrence(32)[2 * j] / factorial(2 * j)) for j in range(1, 17)
)

_EPS = 2.3e-16
_MAX_TERMS = 10**6  # cap on the terms of any numeric sum: cutoff, poles, pairs


def _dirichlet_cutoff(s: complex, cfg: NumericConfig) -> int:
    """Partial-sum cutoff N for the Euler-Maclaurin evaluation.

    For Re s >= 0 the configured N (grown with |Im s|) is fine. For Re s < 0
    the terms k^{-s} grow, and round-off of the partial sum against the
    N^{1-s} continuation term costs ~ N^{1-Re s} eps; balancing that against
    the first omitted Bernoulli term picks a much smaller N. At negative
    integer s the rising product vanishes, the expansion terminates, and the
    minimum N is exact.
    """
    n_pos = max(cfg.em_terms_N, math.ceil(2 * abs(s.imag)))
    sigma = s.real
    if sigma >= 0:
        return n_pos
    j = cfg.em_terms_J
    rising = 1.0
    for i in range(2 * j + 1):
        rising *= abs(s + i)
    tail_coeff = abs(_B2J_OVER_FACT[j]) * rising
    if tail_coeff == 0.0:
        return 2
    n_star = (tail_coeff * (sigma + 2 * j + 1) / _EPS) ** (1.0 / (2 * j + 2))
    n = max(2, math.ceil(n_star), math.ceil(2 * abs(s.imag)))
    return min(n_pos, n)


def default_contour(s: complex) -> ContourSpec:
    """Radius pi; the ray truncation grows with |s| to keep the tail tiny."""
    require_finite("s", s)
    try:
        return ContourSpec(x_max=max(40.0, 10.0 + 2.0 * abs(s)))
    except OverflowError:
        raise OutOfValidatedRange(f"|s| exceeds double precision at s = {s}") from None


# -- Euler-Maclaurin route ----------------------------------------------------


@finite_or_out_of_range
def zeta_em(s: complex, cfg: NumericConfig | None = None) -> complex:
    """zeta(s) by Euler-Maclaurin acceleration of sum k^-s.

    Partial sum to N-1, then N^{1-s}/(s-1) + N^{-s}/2 plus J Bernoulli
    corrections B_{2j}/(2j)! times rising products of s, with N picked by
    ``_dirichlet_cutoff``. Absolute accuracy tracks cfg.target_tol down to
    moderately negative Re(s); far into the left half-plane double-precision
    cancellation against the N^{1-s} term progressively costs digits.
    N is capped at 10^6, so |Im s| <= 5e5; beyond the cap, and where the sum
    overflows double precision, OutOfValidatedRange is raised.
    """
    cfg = cfg or DEFAULT_NUMERIC
    s = complex(s)
    if abs(s - 1) < 1e-6:
        raise NearPole("zeta pole at s = 1")
    j_max = cfg.em_terms_J
    if s.real <= -(2 * j_max - 1):
        raise OutOfValidatedRange(
            f"Re(s) = {s.real} needs more than {j_max} correction terms"
        )
    n = _dirichlet_cutoff(s, cfg)
    if n > _MAX_TERMS:
        raise OutOfValidatedRange(f"s = {s} needs a Dirichlet cutoff N > 10^6")
    if n > 1:
        k = np.arange(1, n, dtype=np.float64)
        partial = complex(np.sum(np.exp(-s * np.log(k))))
    else:
        partial = 0.0 + 0.0j
    value = partial + n ** (1 - s) / (s - 1) + 0.5 * n ** (-s)
    rising = s
    npow = n ** (-s - 1)
    for j in range(1, j_max + 1):
        if j > 1:
            rising *= (s + 2 * j - 3) * (s + 2 * j - 2)
            npow /= n * n
        value += _B2J_OVER_FACT[j - 1] * rising * npow
    return complex(value)


# -- Hankel contour route -----------------------------------------------------


# The fixed quadrature rule: 16-point Gauss-Legendre panels, 16 per ray and
# half as many on the arc to start, doubled up to six times.
_GAUSS_X, _GAUSS_W = leggauss(16)
_PANELS_RAY = 16
_REFINEMENTS = 6


def _integrand(x, s: complex):
    """(-x)^{s-1}/(e^x - 1), elementwise; the one copy of the expression."""
    return np.exp((s - 1) * np.log(-x)) / (np.exp(x) - 1.0)


def hankel_integrand(x: complex, s: complex) -> complex:
    """(-x)^{s-1}/(e^x - 1) with the cut along the positive real axis."""
    x = complex(x)
    if x.imag == 0.0 and x.real > 0.0:
        raise OnBranchCut(f"x = {x} lies on the branch cut")
    k = round(x.imag / (2 * math.pi))
    if abs(x - 2j * math.pi * k) < 1e-12:
        raise AtPole(f"x = {x} is at a pole of 1/(e^x - 1)")
    return complex(_integrand(x, complex(s)))


def _panel_nodes(a: float, b: float, panels: int):
    """Composite Gauss-Legendre nodes/weights on [a, b]."""
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    t = (mid[:, None] + half[:, None] * _GAUSS_X[None, :]).ravel()
    w = (half[:, None] * _GAUSS_W[None, :]).ravel()
    return t, w


def _contour_nodes(spec: ContourSpec, panels_ray: int):
    """All quadrature nodes x and complex weights w with I = sum w f(x)."""
    t, wt = _panel_nodes(0.0, spec.x_max, panels_ray)
    theta, wth = _panel_nodes(0.5 * math.pi, 1.5 * math.pi, panels_ray // 2)
    r = spec.radius
    arc = r * np.exp(1j * theta)
    nodes = np.concatenate([t + 1j * r, arc, t - 1j * r])
    weights = np.concatenate([-wt, 1j * arc * wth, wt])
    return nodes, weights


def _hankel_integral(
    s: complex, spec: ContourSpec, panels_ray: int = _PANELS_RAY
) -> complex:
    """The loop integral with `panels_ray` panels per ray, half on the arc."""
    x, w = _contour_nodes(spec, panels_ray)
    # Keep f named: multiplying a bare temporary lets numpy reuse its buffer
    # in place, which rounds the product differently on large arrays.
    f = _integrand(x, s)
    return complex(np.sum(w * f))


@finite_or_out_of_range
def zeta_hankel(
    s: complex, contour: ContourSpec | None = None, tol: float = 1e-12
) -> complex:
    """zeta(s) = -Gamma(1-s) I(s) / (2 pi i) with I over the Hankel contour.

    Orientation: in above the cut from x_max, counterclockwise around the
    origin, out below the cut (validated by the Re s > 1 limit, where the
    loop reproduces (e^{-pi s i} - e^{pi s i}) times the real-axis integral).
    The rule is fixed: 16-point Gauss-Legendre panels, 16 per ray and 8 on
    the arc to start, doubled up to six times until two successive results
    agree to `tol`; otherwise, or at once for a sum that is not finite,
    QuadratureNotConverged is raised. Positive integers are rejected:
    Gamma(1-s) blows up against a vanishing integral.
    """
    s = complex(s)
    nearest = max(1, round(s.real))
    if abs(s - nearest) < 0.1:
        raise TooCloseToPositiveIntegerPole(
            f"s = {s} is within 0.1 of the positive integer {nearest}"
        )
    spec = contour if contour is not None else default_contour(s)
    prefactor = -gamma_complex(1 - s) / (2j * math.pi)
    prev = None
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is typed below
        for level in range(_REFINEMENTS + 1):
            cur = prefactor * _hankel_integral(s, spec, _PANELS_RAY << level)
            if not cmath.isfinite(cur):
                raise QuadratureNotConverged(f"contour integral at s = {s} is not finite")
            if prev is not None and abs(cur - prev) < tol:
                return cur
            prev = cur
    raise QuadratureNotConverged(
        f"contour integral at s = {s} did not stabilize to {tol}"
    )


# -- identity checks ----------------------------------------------------------


@finite_or_out_of_range
def inverted_contour_check(
    s: complex, n_poles: int, cfg: NumericConfig | None = None
) -> float:
    """Inside-out contour: residues at 2 pi i n versus the loop value.

    For Re s <= -1/2 the residue sum converges; its partial form is
    -i (2 pi)^s 2 sin(pi s/2) sum_{n<=N} n^{s-1}, compared against
    -2i sin(pi s) Gamma(s) zeta(s) with zeta from the Euler-Maclaurin route.
    Returns the absolute difference; n_poles is validated in 1..10^6.
    """
    s = complex(s)
    if s.real > -0.5:
        raise ValueError("inverted contour requires Re(s) <= -0.5")
    if n_poles < 1:
        raise ValueError("n_poles must be positive")
    if n_poles > _MAX_TERMS:
        raise OutOfValidatedRange(f"n_poles = {n_poles} exceeds 10^6")
    n = np.arange(1, n_poles + 1, dtype=np.float64)
    partial = complex(np.sum(np.exp((s - 1) * np.log(n))))
    rhs = -1j * (2 * math.pi) ** s * 2 * cmath.sin(math.pi * s / 2) * partial
    lhs = -2j * cmath.sin(math.pi * s) * gamma_complex(s) * zeta_em(s, cfg)
    return abs(lhs - rhs)


def inverted_contour_bound(s: complex, n_poles: int) -> float:
    """Tail bound for the truncated residue sum, including its prefactor.

    |sum_{n>N} n^{s-1}| <= N^{Re s}/|Re s|, scaled by |(2 pi)^s 2 sin(pi s/2)|
    (the scale matters off the real axis, where sin(pi s/2) grows like
    exp(pi |Im s| / 2)).
    """
    s = complex(s)
    prefactor = abs((2 * math.pi) ** s * 2 * cmath.sin(math.pi * s / 2))
    tail = n_poles**s.real / abs(s.real)
    return max(1e-8, prefactor * tail)


@finite_or_out_of_range
def funceq_residual(s: complex, cfg: NumericConfig | None = None) -> float:
    """Relative residual of 2 cos(pi s/2) Gamma(s) zeta(s) = (2 pi)^s zeta(1-s).

    Both zeta values come from the Euler-Maclaurin route; the residual is
    normalized by the larger side.
    """
    s = complex(s)
    if abs(s - 1) < 1e-3:
        raise NearPole(f"s = {s} too close to 1.0")
    nearest = round(s.real)
    if nearest <= 0 and abs(s - nearest) < 1e-3:
        raise NearPole(f"s = {s} too close to a Gamma pole")
    lhs = 2 * cmath.cos(math.pi * s / 2) * gamma_complex(s) * zeta_em(s, cfg)
    rhs = (2 * math.pi) ** s * zeta_em(1 - s, cfg)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs))


def cotangent_check(x, n_terms: int) -> float:
    """|pi cot(pi x) - (1/x + sum_{n<=N} (1/(x+n) + 1/(x-n)))| for rational x.

    The paired terms are 2x/(x^2 - n^2); the truncation error obeys
    cotangent_tail_bound. n_terms is validated in 1..10^6.
    """
    x = Fraction(x)
    if not 0 < x < 1:
        raise ValueError("x must be a rational strictly between 0 and 1")
    if n_terms < 1:
        raise ValueError("n_terms must be positive")
    if n_terms > _MAX_TERMS:
        raise OutOfValidatedRange(f"n_terms = {n_terms} exceeds 10^6")
    xf = float(x)
    n = np.arange(1.0, n_terms + 1)
    series = 1.0 / xf + float(np.sum(2.0 * xf / (xf * xf - n * n)))
    return abs(math.pi / math.tan(math.pi * xf) - series)


def cotangent_tail_bound(x, n_terms: int) -> float:
    """2x/(N - x) + 1e-12, from integral comparison on the paired terms."""
    xf = float(Fraction(x))
    return 2.0 * xf / (n_terms - xf) + 1e-12

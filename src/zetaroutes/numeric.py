"""Numeric continuation of zeta to complex s, and the residual checks.

The independent evaluators ``zeta_<name>``, one per name in ``ROUTES``:

* ``zeta_em``:     Euler-Maclaurin acceleration of the Dirichlet sum; the
                   workhorse oracle away from s = 1, and the reference route.
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
from functools import lru_cache

import numpy as np

from .bernoulli import bernoulli_via_recurrence
from .errors import (
    DomainError,
    NearPole,
    OutOfValidatedRange,
    QuadratureNotConverged,
    TooCloseToPositiveIntegerPole,
    finite_or_out_of_range,
    require_complex,
    require_index,
    require_rational,
)
from .gammafn import gamma_complex, refuse_pole


@dataclass(frozen=True)
class ContourSpec:
    """Hankel contour geometry: rays at Im x = +-radius joined by an arc.

    The radius sits strictly between the origin and the first nonreal poles
    at +-2 pi i; pi maximizes the distance to both. Only ``default_contour``
    builds one for ``zeta_hankel``, and the frozen spec keys the ray cache.
    """

    radius: float = math.pi
    x_max: float = 40.0


# The numeric routes: each name n is the function zeta_<n>, and the last is
# the reference that the others are compared with. Each route states the
# mixed tolerance |value - zeta(s)| / max(1, |zeta(s)|) <= ROUTE_TOL.
ROUTES = ("hankel", "em")
ROUTE_TOL = 1e-10

_EPS = 2.3e-16
_MAX_TERMS = 10**6  # cap on the terms of any numeric sum: cutoff, poles, pairs
_EM_FLOOR_N = 30  # least Dirichlet cutoff for Re s >= 0
_EM_TERMS_J = 14  # Bernoulli correction terms in zeta_em

# B_{2j}/(2j)! as floats, j = 1..J+1 (the first omitted term sizes the
# cutoff), from the exact table.
_B2J_OVER_FACT = tuple(
    float(bernoulli_via_recurrence(2 * _EM_TERMS_J + 2)[2 * j] / math.factorial(2 * j))
    for j in range(1, _EM_TERMS_J + 2)
)


def _dirichlet_cutoff(s: complex) -> int:
    """Partial-sum cutoff N for the Euler-Maclaurin evaluation.

    For Re s >= 0 the floor N = 30 (grown with |Im s|) is fine. For Re s < 0
    the terms k^{-s} grow, and round-off of the partial sum against the
    N^{1-s} continuation term costs ~ N^{1-Re s} eps; balancing that against
    the first omitted Bernoulli term picks a much smaller N. At negative
    integer s the rising product vanishes and the expansion terminates, so
    the least cutoff, N = 2, is taken. That is exact in exact arithmetic
    only: in floating point the correction terms, up to about 7e9 in size
    at s = -26, cancel to round-off there, and ``zeta_em`` returns 4.7e-7,
    -6.9e-8 and -2.3e-10 at the trivial zeros -26, -24 and -20 with no
    error raised. The round-off guard of ROADMAP item 2 is to refuse them.
    """
    n_pos = max(_EM_FLOOR_N, math.ceil(2 * abs(s.imag)))
    sigma = s.real
    if sigma >= 0:
        return n_pos
    j = _EM_TERMS_J
    rising = 1.0
    for i in range(2 * j + 1):
        rising *= abs(s + i)
    tail_coeff = abs(_B2J_OVER_FACT[j]) * rising
    n_star = (tail_coeff * (sigma + 2 * j + 1) / _EPS) ** (1.0 / (2 * j + 2))
    n = max(2, math.ceil(n_star), math.ceil(2 * abs(s.imag)))
    return min(n_pos, n)


def _power_sum(w: complex, n: int) -> complex:
    """sum_{k=1..n} k^w in double precision; an overflow is left to the caller."""
    k = np.arange(1, n + 1, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        return complex(np.sum(np.exp(w * np.log(k))))


_TAIL_DROP = 35.0  # the ray's cut sits at least e^-35 below the integrand's peak


def default_contour(s: complex) -> ContourSpec:
    """Radius pi; the ray truncation grows with s to keep the tail tiny.

    x_max starts at max(40, 10 + 2|s|). For Re s > 1 the ray integrand
    x^{a} e^{-x}, a = Re s - 1, peaks at x = a, so x_max then grows by
    factors of 1.1 until it lies e^-35 below that peak:
    (x - a) - a log(x/a) >= 35. At Re s <= 2 the start already does.
    """
    s = require_complex("s", s)
    try:
        x_max = max(40.0, 10.0 + 2.0 * abs(s))
    except OverflowError:  # |s| beyond double range
        x_max = math.inf
    if not math.isfinite(x_max):  # also when 2|s| rounds to inf
        raise OutOfValidatedRange(f"|s| exceeds double precision at s = {s}")
    a = s.real - 1.0
    if a > 0.0:
        while (x_max - a) - a * math.log(x_max / a) < _TAIL_DROP:
            x_max *= 1.1
    return ContourSpec(x_max=x_max)


# -- Euler-Maclaurin route ----------------------------------------------------


@finite_or_out_of_range
def zeta_em(s: complex) -> complex:
    """zeta(s) by Euler-Maclaurin acceleration of sum k^-s.

    Partial sum to N-1, then N^{1-s}/(s-1) + N^{-s}/2 plus J Bernoulli
    corrections B_{2j}/(2j)! times rising products of s, with N picked by
    ``_dirichlet_cutoff``; N >= 30 for Re s >= 0 and J = 14. The absolute
    error is about 1e-13 or less for Re s >= 0; to the left, double-precision
    cancellation against the N^{1-s} term progressively costs digits (about
    1e-10 at s = -10.5).
    N is capped at 10^6, so |Im s| <= 5e5; beyond the cap, and where the sum
    overflows double precision, OutOfValidatedRange is raised.
    """
    if abs(s - 1) < 1e-6:
        raise NearPole("zeta pole at s = 1")
    if s.real <= -(2 * _EM_TERMS_J - 1):
        raise OutOfValidatedRange(
            f"Re(s) = {s.real} needs more than {_EM_TERMS_J} correction terms"
        )
    n = _dirichlet_cutoff(s)
    if n > _MAX_TERMS:
        raise OutOfValidatedRange(f"s = {s} needs a Dirichlet cutoff N > 10^6")
    value = _power_sum(-s, n - 1) + n ** (1 - s) / (s - 1) + 0.5 * n ** (-s)
    rising = s
    npow = n ** (-s - 1)
    for j in range(1, _EM_TERMS_J + 1):
        if j > 1:
            rising *= (s + 2 * j - 3) * (s + 2 * j - 2)
            npow /= n * n
        value += _B2J_OVER_FACT[j - 1] * rising * npow
    return complex(value)


# -- Hankel contour route -----------------------------------------------------


# The fixed quadrature rule: 16-point Gauss-Legendre panels, 16 per ray and
# half as many on the arc to start, doubled up to six times. The nodes and
# weights are numpy's leggauss(16) to the bit, written out so that importing
# the package does not load numpy.polynomial; the rule is exactly symmetric,
# so the 8 positive nodes and their weights give all 16.
_HALF_X = np.array([float.fromhex(h) for h in (
    "0x1.852bd6676a9f9p-4", "0x1.205cae642337cp-2", "0x1.d50259a43a772p-2",
    "0x1.3c5a466d5e8b8p-1", "0x1.82c45dda4726bp-1", "0x1.bb3403514e483p-1",
    "0x1.e39f56616f9b0p-1", "0x1.fa92c264d787ep-1",
)])
_HALF_W = np.array([float.fromhex(h) for h in (
    "0x1.83feae80e4e01p-3", "0x1.75f8c77e0c011p-3", "0x1.5a6ebbb5a7600p-3",
    "0x1.325f61bca3cbep-3", "0x1.fe7af2bad3878p-4", "0x1.85c4ee79cc24bp-4",
    "0x1.fdfb1a2c1261ep-5", "0x1.bcddab4b7c228p-6",
)])
_GAUSS_X = np.concatenate([-_HALF_X[::-1], _HALF_X])
_GAUSS_W = np.concatenate([_HALF_W[::-1], _HALF_W])
_PANELS_RAY = 16
_REFINEMENTS = 6
_TOL = 1e-12  # two successive levels agreeing to this much is convergence
# Level 0 refuses when its round-off floor eps |prefactor| sum |w f| exceeds
# this many _TOL: converging points reach 4e-12 at _TOL = 1e-12, so a
# factor of 1 would refuse some of them.
_FLOOR_FACTOR = 100.0


def _s_free_factors(x):
    """log(-x) and e^x - 1 at the nodes x: the factors that do not depend on s."""
    return np.log(-x), np.exp(x) - 1.0


def _integrand(s: complex, ray, arc):
    """(-x)^{s-1}/(e^x - 1) = exp((s-1) log(-x))/(e^x - 1) at the nodes in
    contour order (upper ray, arc, lower ray) from the ``_s_free_factors`` of
    the upper ray and the arc; the lower ray's are the conjugates of the
    upper ray's. The one copy of the expression.
    """
    (log_ray, expm1_ray), (log_arc, expm1_arc) = ray, arc
    # s - 1 multiplies the concatenation while no name holds it: numpy then
    # multiplies an array of 256 KiB or more in place, array first, and the
    # terms keep their bits only if every level rounds that product so.
    f = np.exp((s - 1) * np.concatenate([log_ray, log_arc, np.conj(log_ray)]))
    # Dividing segment by segment gives the same quotients without a
    # full-length copy of e^x - 1.
    n, m = len(log_ray), len(log_arc)
    f[:n] /= expm1_ray
    f[n : n + m] /= expm1_arc
    f[n + m :] /= np.conj(expm1_ray)
    return f


def _panel_nodes(a: float, b: float, panels: int):
    """Composite Gauss-Legendre nodes/weights on [a, b]."""
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    t = (mid[:, None] + half[:, None] * _GAUSS_X[None, :]).ravel()
    w = (half[:, None] * _GAUSS_W[None, :]).ravel()
    return t, w


def _upper_ray(spec: ContourSpec, panels: int):
    """Nodes t + i r, 0 < t < x_max, and the real weights of the ray; the
    rule runs it inward, and the lower ray is its conjugate run outward."""
    t, wt = _panel_nodes(0.0, spec.x_max, panels)
    return t + 1j * spec.radius, wt


# The upper ray's levels 0 and 1, where nearly every converging point stops,
# for four contours (about 0.12 MB); the default contour is one and the same
# for every |s| <= 15 with Re s <= 2. Deeper levels are built per call.
_CACHED_RAY_PANELS = 2 * _PANELS_RAY


@lru_cache(maxsize=8)
def _ray(spec: ContourSpec, panels: int):
    """The upper ray's real weights and ``_s_free_factors``, read-only."""
    x, wt = _upper_ray(spec, panels)
    factors = _s_free_factors(x)
    for a in (wt, *factors):
        a.flags.writeable = False
    return wt, factors


def _arc_nodes(radius: float, panels: int):
    """Nodes and complex weights on the arc from i r counterclockwise to -i r."""
    theta, wth = _panel_nodes(0.5 * math.pi, 1.5 * math.pi, panels)
    x = radius * np.exp(1j * theta)
    return x, 1j * x * wth


# One contour's levels (about 0.8 MB at one radius): every s reuses them.
@lru_cache(maxsize=_REFINEMENTS + 1)
def _arc(radius: float, panels: int):
    """The arc's weights and ``_s_free_factors``, read-only."""
    x, w = _arc_nodes(radius, panels)
    factors = _s_free_factors(x)
    for a in (w, *factors):
        a.flags.writeable = False
    return w, factors


def _weighted_terms(s: complex, spec: ContourSpec, panels_ray: int):
    """The terms w f(x) of the rule with `panels_ray` panels per ray: in along
    the upper ray, around the arc, out along the lower ray."""
    # Each ray array is dropped once used, so that no more than three
    # full-length arrays are alive at a time.
    ray_at = _ray if panels_ray <= _CACHED_RAY_PANELS else _ray.__wrapped__
    wt, ray = ray_at(spec, panels_ray)
    w_arc, arc = _arc(spec.radius, panels_ray // 2)
    f = _integrand(s, ray, arc)
    del ray
    w = np.concatenate([-wt, w_arc, wt])
    del wt
    # Keep f named: multiplying a bare temporary lets numpy reuse its buffer
    # in place, which rounds the product differently on large arrays.
    return w * f


@finite_or_out_of_range
def zeta_hankel(s: complex) -> complex:
    """zeta(s) = -Gamma(1-s) I(s) / (2 pi i) with I over the Hankel contour.

    Orientation: in above the cut from x_max, counterclockwise around the
    origin, out below the cut (validated by the Re s > 1 limit, where the
    loop reproduces (e^{-pi s i} - e^{pi s i}) times the real-axis integral).
    The rule is fixed: 16-point Gauss-Legendre panels, 16 per ray and 8 on
    the arc to start, doubled up to six times until two successive results
    agree to _TOL = 1e-12; otherwise QuadratureNotConverged is raised. It is
    raised on the first level already when the sum is not finite, or when the
    round-off floor eps |prefactor| sum |w f| of that level's terms is not
    finite or exceeds 100 _TOL: no refinement gets below it. Within 0.1 of a
    positive integer TooCloseToPositiveIntegerPole is raised: Gamma(1-s)
    blows up against a vanishing integral. The contour is default_contour(s).
    """
    nearest = max(1, round(s.real))
    if abs(s - nearest) < 0.1:
        raise TooCloseToPositiveIntegerPole(
            f"s = {s} is within 0.1 of the positive integer {nearest}"
        )
    return _hankel(s, default_contour(s))


def _hankel(s: complex, spec: ContourSpec) -> complex:
    """The refinement loop of ``zeta_hankel`` on the contour `spec`."""
    prefactor = -gamma_complex(1 - s) / (2j * math.pi)
    prev = None
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is typed below
        for level in range(_REFINEMENTS + 1):
            terms = _weighted_terms(s, spec, _PANELS_RAY << level)
            cur = prefactor * complex(np.sum(terms))
            if not cmath.isfinite(cur):
                raise QuadratureNotConverged(f"contour integral at s = {s} is not finite")
            if level == 0:
                floor = _EPS * abs(prefactor) * float(np.sum(np.abs(terms)))
                if not floor <= _FLOOR_FACTOR * _TOL:  # also catches a floor of inf
                    raise QuadratureNotConverged(
                        f"contour integral at s = {s} has a round-off floor of "
                        f"{floor:.1e}, above {_FLOOR_FACTOR:g} x _TOL = {_TOL}"
                    )
            elif abs(cur - prev) < _TOL:
                return cur
            prev = cur
            del terms  # freed before the next, twice as large, level is built
    raise QuadratureNotConverged(
        f"contour integral at s = {s} did not stabilize to {_TOL}"
    )


# -- identity checks ----------------------------------------------------------


def _inverted_contour_domain(s: complex, n_poles: int) -> complex:
    """s as a complex, once s is finite with Re s <= -1/2 and n_poles is an
    integer in 1..10^6. The check forms sin(pi s) and Gamma(s): an s whose
    pi s overflows raises OverflowError, and one on a pole of Gamma, within
    1e-12 of a negative integer, PoleAtNonpositiveInteger."""
    s = require_complex("s", s)
    if s.real > -0.5:
        raise DomainError("inverted contour requires Re(s) <= -0.5")
    if require_index("n_poles", n_poles, least=1) > _MAX_TERMS:
        raise OutOfValidatedRange(f"n_poles = {n_poles} exceeds 10^6")
    if not cmath.isfinite(math.pi * s):
        raise OverflowError(f"pi s overflows at s = {s}")
    refuse_pole(s)
    return s


@finite_or_out_of_range
def inverted_contour_check(s: complex, n_poles: int) -> float:
    """Inside-out contour: residues at 2 pi i n versus the loop value.

    For Re s <= -1/2 the residue sum converges; its partial form is
    -i (2 pi)^s 2 sin(pi s/2) sum_{n<=N} n^{s-1}, compared against
    -2i sin(pi s) Gamma(s) zeta(s) with zeta from the Euler-Maclaurin route.
    Returns the absolute difference; n_poles is validated in 1..10^6.
    """
    s = _inverted_contour_domain(s, n_poles)
    partial = _power_sum(s - 1, n_poles)
    rhs = -1j * (2 * math.pi) ** s * 2 * cmath.sin(math.pi * s / 2) * partial
    lhs = -2j * cmath.sin(math.pi * s) * gamma_complex(s) * zeta_em(s)
    return abs(lhs - rhs)


@finite_or_out_of_range
def inverted_contour_bound(s: complex, n_poles: int) -> float:
    """Tail bound for the truncated residue sum, including its prefactor.

    |sum_{n>N} n^{s-1}| <= N^{Re s}/|Re s|, scaled by |(2 pi)^s 2 sin(pi s/2)|
    (the scale matters off the real axis, where sin(pi s/2) grows like
    exp(pi |Im s| / 2)). The domain is inverted_contour_check's, and an
    overflow raises OutOfValidatedRange there as in the check.
    """
    s = _inverted_contour_domain(s, n_poles)
    prefactor = abs((2 * math.pi) ** s * 2 * cmath.sin(math.pi * s / 2))
    tail = n_poles**s.real / abs(s.real)
    return max(1e-8, prefactor * tail)


@finite_or_out_of_range
def funceq_residual(s: complex) -> float:
    """Relative residual of 2 cos(pi s/2) Gamma(s) zeta(s) = (2 pi)^s zeta(1-s).

    Both zeta values come from the Euler-Maclaurin route; the residual is
    normalized by the larger side.
    """
    if abs(s - 1) < 1e-3:
        raise NearPole(f"s = {s} too close to 1.0")
    nearest = round(s.real)
    if nearest <= 0 and abs(s - nearest) < 1e-3:
        raise NearPole(f"s = {s} too close to a Gamma pole")
    lhs = 2 * cmath.cos(math.pi * s / 2) * gamma_complex(s) * zeta_em(s)
    rhs = (2 * math.pi) ** s * zeta_em(1 - s)
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs))


# Near x = 0 the check cancels 1/x against pi cot(pi x), near x = 1 the
# n = 1 pair against it; the round-off, about eps / min(x, 1 - x), then
# exceeds the bound's 1e-12 (at N = 10^6 from min(x, 1 - x) = 0.0023 down).
_COT_X_MIN = Fraction(1, 100)


def _cotangent_domain(x, n_terms: int) -> Fraction:
    """x as a Fraction, once 1/100 <= x <= 99/100 and n_terms is an integer
    in 1..10^6."""
    x = require_rational("x", x)
    if not 0 < x < 1:
        raise DomainError("x must be a rational strictly between 0 and 1")
    if not _COT_X_MIN <= x <= 1 - _COT_X_MIN:
        raise OutOfValidatedRange(
            "x must lie in 1/100..99/100: nearer 0 or 1, round-off exceeds the tail bound"
        )
    if require_index("n_terms", n_terms, least=1) > _MAX_TERMS:
        raise OutOfValidatedRange(f"n_terms = {n_terms} exceeds 10^6")
    return x


def cotangent_check(x, n_terms: int) -> float:
    """|pi cot(pi x) - (1/x + sum_{n<=N} (1/(x+n) + 1/(x-n)))| for rational x.

    The paired terms are 2x/(x^2 - n^2); the truncation error obeys
    cotangent_tail_bound. x is validated in 1/100..99/100 and n_terms in
    1..10^6.
    """
    xf = float(_cotangent_domain(x, n_terms))
    n = np.arange(1.0, n_terms + 1)
    series = 1.0 / xf + float(np.sum(2.0 * xf / (xf * xf - n * n)))
    return abs(math.pi / math.tan(math.pi * xf) - series)


def cotangent_tail_bound(x, n_terms: int) -> float:
    """2x/(N - x) + 1e-12, by integral comparison, on cotangent_check's domain."""
    xf = float(_cotangent_domain(x, n_terms))
    return 2.0 * xf / (n_terms - xf) + 1e-12

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
import functools
import math
from fractions import Fraction

import numpy as np

from .bernoulli import bernoulli_via_recurrence
from .errors import (
    DomainError,
    NearPole,
    OutOfValidatedRange,
    QuadratureNotConverged,
    TooCloseToPositiveIntegerPole,
    finite_or_out_of_range,
    require_index,
    require_rational,
)
from .gammafn import gamma_complex, refuse_pole


_RAY_BASE = 40.0  # the ray's first segment is [0, 40]
_RUNG_RATIO = 1.21  # each later rung of the ray ladder is this much longer
# The contour's rays run at Im x = +-radius, joined by an arc: strictly
# between the origin and the first nonreal poles at +-2 pi i, pi maximizes
# the distance to both.
_RADIUS = math.pi


def _rung_end(k: int) -> float:
    """The far end 40 * 1.21^k of the ray ladder's first k rungs."""
    return _RAY_BASE * _RUNG_RATIO**k


_EPS = 2.3e-16
_MAX_TERMS = 10**6  # cap on the terms of the identity checks: poles, pairs
_EM_FLOOR_N = 30  # least Dirichlet cutoff for Re s >= 0
_EM_TERMS_J = 14  # Bernoulli correction terms in zeta_em

# The numeric routes: each name n is the function zeta_<n>, the last the
# reference that the others are compared with, and each meets the mixed
# tolerance |value - zeta(s)| / max(1, |zeta(s)|) <= ROUTE_TOL. A row names
# the primitives the route reads, as zeta_exact.ROUTES does ("gamma" is
# gamma_complex, "gauss_legendre" _GAUSS_X and _GAUSS_W, "power_sum"
# _power_sum, "tangent" the table of _B2J_OVER_FACT), then the static domain
# that ``_refuse_outside`` enforces: (lo, hi, radius, class, message) raises
# the class within radius of an integer lo..hi, and (re_min, message) and
# (im_max, message), or None, raise OutOfValidatedRange at Re s <= re_min
# and |Im s| > im_max. Messages are formatted with s and pole.
ROUTES = {
    "hankel": (
        ("gamma", "gauss_legendre"),
        (1, math.inf, 0.1, TooCloseToPositiveIntegerPole,
         "s = {s} is within 0.1 of the positive integer {pole}"),
        None,
        None,
    ),
    "em": (
        ("power_sum", "tangent"),
        (1, 1, 1e-6, NearPole, "zeta pole at s = {pole}"),
        (-(2 * _EM_TERMS_J - 1), "Re(s) = {s.real} needs more than 14 correction terms"),
        (1e4, "s = {s}: the Dirichlet cutoff is validated for |Im s| <= 1e4 only"),
    ),
}
ROUTE_TOL = 1e-10


def _refuse_outside(name: str, s: complex) -> None:
    """Raise what the ``ROUTES`` row of `name` declares for s outside it; from
    2^53 in size a pole is named by its double (1e+300), as in refuse_pole."""
    _, (lo, hi, radius, refusal, message), re_min, im_max = ROUTES[name]
    pole = min(max(lo, round(s.real)), hi)
    if abs(s - pole) < radius:
        raise refusal(message.format(s=s, pole=pole if abs(pole) < 2**53 else s.real))
    if re_min is not None and s.real <= re_min[0]:
        raise OutOfValidatedRange(re_min[1].format(s=s))
    if im_max is not None and abs(s.imag) > im_max[0]:
        raise OutOfValidatedRange(im_max[1].format(s=s))


# B_{2j}/(2j)! as floats, j = 1..J+1 (the first omitted term sizes the
# cutoff), from the exact table.
_B2J_OVER_FACT = tuple(
    float(bernoulli_via_recurrence(2 * _EM_TERMS_J + 2)[2 * j] / math.factorial(2 * j))
    for j in range(1, _EM_TERMS_J + 2)
)


def _dirichlet_cutoff(s: complex) -> int:
    """Partial-sum cutoff N for the Euler-Maclaurin evaluation.

    For Re s >= 0, N = max(30, ceil(|Im s|/2)). After J = 14 corrections the
    remainder is about 2 (|s|/(2 pi N))^{2J+1}/(2 pi) (Edwards, "Riemann's
    Zeta Function", ch. 6), which N = |Im s|/2 holds to about (1/pi)^29, or
    4e-15; each further term only adds the round-off eps |Im s| log k of its
    phase. At N = |Im s|/4 the remainder dominates (1.6e-7).

    For Re s < 0 the terms k^{-s} grow, and round-off of the partial sum
    against the N^{1-s} continuation term costs ~ N^{1-Re s} eps; balancing
    that against the first omitted Bernoulli term picks a smaller N, capped
    at max(30, ceil(2|Im s|)). At negative integer s the rising product
    vanishes and the expansion terminates, so N = 2 is taken. In floating
    point its correction terms, up to 7e9 at s = -26, then cancel only to
    round-off: ``zeta_em`` returns 4.7e-7, -6.9e-8 and -2.3e-10 at the
    trivial zeros -26, -24 and -20 unrefused (ROADMAP item 2).
    """
    sigma = s.real
    if sigma >= 0:
        return max(_EM_FLOOR_N, math.ceil(abs(s.imag) / 2))
    n_im = math.ceil(2 * abs(s.imag))
    j = _EM_TERMS_J
    rising = 1.0
    for i in range(2 * j + 1):
        rising *= abs(s + i)
    tail_coeff = abs(_B2J_OVER_FACT[j]) * rising
    n_star = (tail_coeff * (sigma + 2 * j + 1) / _EPS) ** (1.0 / (2 * j + 2))
    return min(max(_EM_FLOOR_N, n_im), max(2, math.ceil(n_star), n_im))


def _power_sum(w: complex, n: int) -> complex:
    """sum_{k=1..n} k^w in double precision; an overflow is left to the caller."""
    k = np.arange(1, n + 1, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        return complex(np.sum(np.exp(w * np.log(k))))


# -- Euler-Maclaurin route ----------------------------------------------------


@finite_or_out_of_range
def zeta_em(s: complex) -> complex:
    """zeta(s) by Euler-Maclaurin acceleration of sum k^-s.

    Partial sum to N-1, then N^{1-s}/(s-1) + N^{-s}/2 plus J = 14 Bernoulli
    corrections B_{2j}/(2j)! times rising products of s, with N from
    ``_dirichlet_cutoff``. At Re s >= 0 the mixed error, about 1e-13 at small
    |Im s|, grows with the phase round-off to 4.1e-11 inside its ``ROUTES``
    row; left of Re s = 0 it loses digits unrefused (README; ROADMAP item 2).
    Outside its row, or where the sum overflows, it raises.
    """
    _refuse_outside("em", s)
    n = _dirichlet_cutoff(s)
    value = _power_sum(-s, n - 1) + n ** (1 - s) / (s - 1) + 0.5 * n ** (-s)
    rising = s
    npow = n ** (-s - 1)
    for j in range(1, _EM_TERMS_J + 1):
        if j > 1:
            rising *= (s + 2 * j - 3) * (s + 2 * j - 2)
            npow /= n * n
        if npow == 0:  # so is every later term, while rising may overflow
            break
        value += _B2J_OVER_FACT[j - 1] * rising * npow
    return complex(value)


# -- Hankel contour route -----------------------------------------------------


# The fixed quadrature rule: 16-point Gauss-Legendre panels, at level
# L = 0..6 16 * 2^L on the ray's [0, 40], 2^L on each rung of the ray ladder
# past it and 8 * 2^L on the arc. The nodes and weights are numpy's
# leggauss(16) to the bit, written out so that importing the package does
# not load numpy.polynomial; the rule is exactly symmetric, so the 8
# positive nodes and their weights give all 16.
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
_PANELS_RAY = 16  # panels on the ray's [0, 40] at level 0
_REFINEMENTS = 6
_TOL = 1e-12  # two successive levels agreeing to this much is convergence
# Level 0's round-off floor F = eps |prefactor| sum |w f| charges eps once
# per term, but each term's phase (s-1) log(-x) carries eps |s-1| |log(-x)|:
# the level differences at the zero 0.5+14.13i stay near 2F. So a level is
# accepted once it agrees with the last to max(_TOL, 4F), and level 0
# refuses when 4F exceeds ROUTE_TOL, the error such an answer may carry.
_FLOOR_FACTOR = 4.0


def _integrand(s: complex, ray, arc):
    """(-x)^{s-1}/(e^x - 1) = exp((s-1) log(-x))/(e^x - 1) at the nodes in
    contour order (upper ray, arc, lower ray) from the log(-x) and e^x - 1
    ``_factors`` of the upper ray and the arc; the lower ray's are the
    conjugates of the upper ray's. The one copy of the expression.
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


def _panels(edges):
    """Composite Gauss-Legendre nodes/weights on the panels between `edges`."""
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    t = (mid[:, None] + half[:, None] * _GAUSS_X[None, :]).ravel()
    w = (half[:, None] * _GAUSS_W[None, :]).ravel()
    return t, w


def _ray_nodes(radius: float, level: int, rungs: int):
    """Nodes t + i r and real weights of the upper ray at `level`: [0, 40] in
    16 * 2^level equal panels, then its first `rungs` rungs, rung k,
    [40 * 1.21^k, 40 * 1.21^(k+1)], in 2^level equal panels. A panel's nodes
    depend on its two edges alone, so a ray's nodes are a prefix of a
    longer ray's. The rule runs the ray inward, and the lower ray is its
    conjugate run outward."""
    per_rung = 1 << level
    ends = np.array([_rung_end(k) for k in range(rungs + 1)])
    # One call lays every rung's edges as a call per rung would, to the bit.
    rung_edges = np.linspace(ends[:-1], ends[1:], per_rung + 1, axis=1)[:, 1:]
    lead = np.linspace(0.0, _RAY_BASE, _PANELS_RAY * per_rung + 1)
    t, wt = _panels(np.concatenate([lead, rung_edges.ravel()]))
    return t + 1j * radius, wt


def _arc_nodes(radius: float, panels: int):
    """Nodes and complex weights on the arc from i r counterclockwise to -i r."""
    theta, wth = _panels(np.linspace(0.5 * math.pi, 1.5 * math.pi, panels + 1))
    x = radius * np.exp(1j * theta)
    return x, 1j * x * wth


# The ray ladder ends at rung 15, x_max = 40 * 1.21^15 = 698. On rung 16
# x passes ln(DBL_MAX) = 709.78, e^x - 1 overflows to -inf + inf i and the
# terms there are nan, so ``_weighted_terms`` refuses a longer ray unread.
_LADDER_RUNGS = 15
_TAIL_DROP = 35.0  # the ray's cut sits at least e^-35 below the integrand's peak


def _ray_rungs(s: complex) -> int:
    """The least K in 0..15 whose rung end x = 40 * 1.21^K keeps the tail of
    the ray tiny, or 16, past the ladder, where none does.

    x is at least 10 + 2|s|, and (x - p) - a log(x/p) >= 35 + pi |Im s|/2
    holds there, where a = Re s - 1 and p = max(a, 1). The ray integrand
    x^a e^{-x} peaks at x = a for a > 1 and only decreases past x = 1
    otherwise, so p is the point the cut is measured from. On the upper ray
    (-x)^{s-1} carries a further e^{pi |Im s|} that Gamma(1-s) ~
    e^{-pi |Im s|/2} only half cancels: the pi |Im s|/2 covers the other
    half. K = 0 holds at Im s = 0 for -15 <= Re s <= 2, and on the critical
    line up to |Im s| = 3.7.
    """
    start = 10.0 + 2.0 * math.hypot(s.real, s.imag)
    if not math.isfinite(start):
        raise OutOfValidatedRange(f"|s| exceeds double precision at s = {s}")
    a = s.real - 1.0
    p = max(a, 1.0)
    drop = _TAIL_DROP + 0.5 * math.pi * abs(s.imag)
    for k in range(_LADDER_RUNGS + 1):
        x = _rung_end(k)
        if x >= start and (x - p) - a * math.log(x / p) >= drop:
            return k
    return _LADDER_RUNGS + 1


def _factors(x, w):
    """w, then the factors free of s at the nodes x: log(-x) and e^x - 1."""
    return w, np.log(-x), np.exp(x) - 1.0


@functools.cache
def _ladder(radius: float, level: int):
    """(arc, ray) at `level`: the ``_factors`` of the arc and of the upper ray
    laid to all 15 rungs, read-only. Every contour of that radius reads its
    ray as a prefix. Two first callers may both lay it, with the same bits."""
    arc = _factors(*_arc_nodes(radius, (_PANELS_RAY // 2) << level))
    ray = _factors(*_ray_nodes(radius, level, _LADDER_RUNGS))
    for a in (*arc, *ray):
        a.flags.writeable = False
    return arc, ray


def _weighted_terms(s: complex, rungs: int, level: int, radius: float):
    """The terms w f(x) of the rule at `level` on the contour of `radius`
    whose ray runs `rungs` rungs: in along the upper ray, around the arc, out
    along the lower ray. A ray past the ladder's 15 rungs is refused as its
    sum would be: not finite."""
    if rungs > _LADDER_RUNGS:
        raise QuadratureNotConverged(f"contour integral at s = {s} is not finite")
    (w_arc, *arc), ray = _ladder(radius, level)
    n = ((_PANELS_RAY + rungs) << level) * len(_GAUSS_X)  # the prefix
    wt, *ray = (a[:n] for a in ray)
    f = _integrand(s, ray, arc)
    w = np.concatenate([-wt, w_arc, wt])
    # Keep f named: multiplying a bare temporary lets numpy reuse its buffer
    # in place, which rounds the product differently on large arrays.
    return w * f


@finite_or_out_of_range
def zeta_hankel(s: complex) -> complex:
    """zeta(s) = -Gamma(1-s) I(s) / (2 pi i), I over the contour of radius pi
    whose ray runs ``_ray_rungs(s)`` rungs.

    Orientation: in above the cut from x_max, counterclockwise around the
    origin, out below the cut (validated by the Re s > 1 limit, where the
    loop reproduces (e^{-pi s i} - e^{pi s i}) times the real-axis integral).
    The fixed rule (see _GAUSS_X) is doubled up to six times until two
    successive levels agree to max(_TOL, 4F), F the round-off floor of level 0
    (see _FLOOR_FACTOR). It raises QuadratureNotConverged where none do, where
    Gamma(1-s) underflows to 0, and where level 0's sum is not finite (as past
    the ladder's 15 rungs) or 4F exceeds ROUTE_TOL, and OutOfValidatedRange
    where Gamma(1-s) overflows. Its ``ROUTES`` row refuses s near the positive
    integers, where Gamma(1-s) blows up against a vanishing integral.
    """
    _refuse_outside("hankel", s)
    return _hankel(s, _ray_rungs(s), _RADIUS)


def _hankel(s: complex, rungs: int, radius: float) -> complex:
    """The refinement loop of ``zeta_hankel`` on the contour of `radius`
    whose ray runs `rungs` rungs."""
    try:
        prefactor = -gamma_complex(1 - s) / (2j * math.pi)
    except OutOfValidatedRange:
        raise OutOfValidatedRange(f"Gamma(1 - s) overflows at s = {s}") from None
    if prefactor == 0:  # from |Im s| ~ 450, where e^{pi |Im s|} overflows
        raise QuadratureNotConverged(
            f"Gamma(1 - s) underflows to 0 at s = {s}, where the contour integral is not finite"
        )
    prev = None
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is typed below
        for level in range(_REFINEMENTS + 1):
            terms = _weighted_terms(s, rungs, level, radius)
            cur = prefactor * complex(np.sum(terms))
            if not cmath.isfinite(cur):
                raise QuadratureNotConverged(f"contour integral at s = {s} is not finite")
            if level == 0:
                floor = _EPS * abs(prefactor) * float(np.sum(np.abs(terms)))
                if not _FLOOR_FACTOR * floor <= ROUTE_TOL:  # also catches inf
                    raise QuadratureNotConverged(
                        f"contour integral at s = {s} has a round-off floor F = "
                        f"{floor:.1e}, and {_FLOOR_FACTOR:g} F exceeds "
                        f"ROUTE_TOL = {ROUTE_TOL:g}"
                    )
                tol = max(_TOL, _FLOOR_FACTOR * floor)
            elif abs(cur - prev) < tol:
                return cur
            prev = cur
            del terms  # freed before the next, twice as large, level is built
    raise QuadratureNotConverged(
        f"contour integral at s = {s} did not stabilize to {tol:.1e}"
    )


# -- identity checks ----------------------------------------------------------


@finite_or_out_of_range
def inverted_contour_check(s: complex, n_poles: int) -> tuple[float, float]:
    """Inside-out contour: residues at 2 pi i n versus the loop value.

    For Re s <= -1/2 the residue sum converges; its partial form is
    -i (2 pi)^s 2 sin(pi s/2) sum_{n<=N} n^{s-1}, compared against
    -2i sin(pi s) Gamma(s) zeta(s) with zeta from the Euler-Maclaurin route.
    Returns the absolute difference and its tail bound: |sum_{n>N} n^{s-1}|
    <= N^{Re s}/|Re s|, scaled by the modulus of the prefactor (which matters
    off the real axis, where sin(pi s/2) grows like exp(pi |Im s| / 2)),
    and at least 1e-8.

    s must be finite with Re s <= -1/2 and n_poles an integer in 1..10^6.
    Within 1e-12 of a negative integer, a pole of the Gamma(s) it forms,
    PoleAtNonpositiveInteger is raised; where pi s or either result is not
    finite, OutOfValidatedRange.
    """
    if s.real > -0.5:
        raise DomainError("inverted contour requires Re(s) <= -0.5")
    if require_index("n_poles", n_poles, least=1) > _MAX_TERMS:
        raise OutOfValidatedRange(f"n_poles = {n_poles} exceeds 10^6")
    # Tested before the poles: every double near -1.7e308 is one, and the
    # overflow is what the check meets there.
    if not cmath.isfinite(math.pi * s):
        raise OverflowError(f"pi s overflows at s = {s}")
    refuse_pole(s)
    prefactor = (2 * math.pi) ** s * 2 * cmath.sin(math.pi * s / 2)
    rhs = -1j * prefactor * _power_sum(s - 1, n_poles)
    lhs = -2j * cmath.sin(math.pi * s) * gamma_complex(s) * zeta_em(s)
    bound = max(1e-8, abs(prefactor) * (n_poles**s.real / abs(s.real)))
    return abs(lhs - rhs), bound


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


def cotangent_check(x, n_terms: int) -> tuple[float, float]:
    """|pi cot(pi x) - (1/x + sum_{n<=N} (1/(x+n) + 1/(x-n)))| for rational
    x, and its tail bound 2x/(N - x) + 1e-12, by integral comparison.

    The paired terms are 2x/(x^2 - n^2). x must be a rational strictly
    between 0 and 1 (DomainError) and lie in 1/100..99/100, and n_terms an
    integer in 1..10^6 (OutOfValidatedRange beyond either).
    """
    x = require_rational("x", x)
    if not 0 < x < 1:
        raise DomainError("x must be a rational strictly between 0 and 1")
    if not _COT_X_MIN <= x <= 1 - _COT_X_MIN:
        raise OutOfValidatedRange(
            "x must lie in 1/100..99/100: nearer 0 or 1, round-off exceeds the tail bound"
        )
    if require_index("n_terms", n_terms, least=1) > _MAX_TERMS:
        raise OutOfValidatedRange(f"n_terms = {n_terms} exceeds 10^6")
    xf = float(x)
    n = np.arange(1.0, n_terms + 1)
    series = 1.0 / xf + float(np.sum(2.0 * xf / (xf * xf - n * n)))
    residual = abs(math.pi / math.tan(math.pi * xf) - series)
    return residual, 2.0 * xf / (n_terms - xf) + 1e-12

"""Abel sums of the divergent alternating series 1^m - 2^m + 3^m - ...

Three independent routes live here:

* the operator route: apply theta = x*d/dx repeatedly to 1/(1+x) and
  evaluate at x = 1 (exact, on the integer numerators over (1+x)^{m+1});
* the closed form (-1)^m (1 - 2^{m+1}) B_{m+1} / (m+1), on the integer
  tangent-number table of the Bernoulli numbers;
* a numeric Abel limit: partial sums at x = 1 - 2^-j, summed in 2^256
  fixed point by blocks of sqrt(K) of their K terms through the binomial
  expansion of (k0 + i)^m, and Richardson extrapolated in 1 - x.

No route reads another: the ``abel`` command compares the operator route
with the closed form. The alternating sums pin down zeta at nonpositive
integers through zeta(-m) = A_m / (1 - 2^{1+m}).

Sign note: A_3 = 1^3 - 2^3 + 3^3 - ... is occasionally quoted as +1/8;
the two exact routes (the operator chain and the Bernoulli closed form) and
the numeric Abel limit all give -1/8.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .bernoulli import _tangent_entry
from .errors import DomainError, require_index
from .errors import InternalInconsistency  # noqa: F401  -- defined here once, still importable


def _theta_numerator(m: int) -> list[int]:
    """P_m with theta^m 1/(1+x) = P_m(x)/(1+x)^{m+1}, integer coefficients low
    degree first, by P_k = x[(1+x) P'_{k-1} - k P_{k-1}], built per call."""
    p = [1]
    for k in range(1, m + 1):
        p.append(0)
        # coefficient i of (1+x) P' - k P is (i+1) p_{i+1} + (i-k) p_i
        p = [0] + [(i + 1) * p[i + 1] + (i - k) * p[i] for i in range(k)]
    return p


# -- the Abel sums -----------------------------------------------------------


def abel_closed_form(m: int) -> Fraction:
    """(-1)^m (1 - 2^{m+1}) B_{m+1} / (m+1)."""
    require_index("m", m)
    b = _tangent_entry(m + 1)
    sign = -1 if m % 2 else 1
    return sign * (1 - 2 ** (m + 1)) * b / (m + 1)


def abel_sum_exact(m: int) -> Fraction:
    """Abel sum A_m of 1^m - 2^m + 3^m - ..., by the operator route.

    theta^m 1/(1+x) = sum_{k>=0} (-1)^k k^m x^k = P_m(x)/(1+x)^{m+1}, so
    A_m is the k = 0 term 0^m minus P_m(1)/2^{m+1}. That term is 1 only at
    m = 0, so A_0 = 1 - P_0(1)/2 (the geometric series) and
    A_m = -P_m(1)/2^{m+1} for m >= 1. The ``abel`` command checks it against
    the Bernoulli closed form; the route itself reads only the theta chain.
    """
    require_index("m", m)
    return (m == 0) - Fraction(sum(_theta_numerator(m)), 2 ** (m + 1))


def zeta_neg_via_abel(m: int) -> Fraction:
    """zeta(-m) = A_m / (1 - 2^{1+m})."""
    return abel_sum_exact(m) / (1 - 2 ** (1 + m))


# -- numeric Abel limit ------------------------------------------------------

_TAIL_LOG = 33.0  # -ln(1e-14), with margin
_FIXED_POINT_BITS = 256
_ABEL_NODES = range(8, 13)  # x_j = 1 - 2^-j


def _partial_sum_terms(m: int, lam: float) -> int:
    """Terms needed so the tail of sum k^m x^k is below 1e-14 (x = e^-lam)."""
    k = max(int((_TAIL_LOG + m * 12.0) / lam), 16)
    for _ in range(4):
        k = int((_TAIL_LOG + m * math.log(k) - math.log(lam)) / lam) + 1
    return k


def _blocked_power_sum(m: int, j: int, terms: int) -> int:
    """2^256 sum_{k<=terms} (-1)^{k+1} k^m x^k at x = 1 - 2^-j (terms >= 1).

    Peak terms reach ~ (m 2^j / e)^m, far beyond double precision, so the
    sum runs over integers scaled by 2^256, with the truncating powers
    x^{i+1} = (x^i p) >> j, p = 2^j - 1. It goes by blocks of B = isqrt(terms)
    terms: with k = k0 + i and G_r = sum_{i<=B} (-1)^{i+1} i^r x^i,

        block k0 = (-1)^{k0} x^{k0} sum_{r<=m} C(m, r) k0^{m-r} G_r,

    so B (m+1) multiply-adds build the G_r, each block costs m more by
    Horner in k0, x^{k0} advances by one multiply by x^B, and the last
    terms mod B are summed one by one. O(m sqrt(terms)) steps in all,
    against O(terms) term by term. Each truncated power x^i, x^{k0} included,
    is off by less than i units of 2^-256, so the sum divided by 2^256 is
    within terms^{m+2} 2^{j-256} of the exact one, as the term-by-term
    loop's is.
    """
    one = 1 << _FIXED_POINT_BITS
    p = (1 << j) - 1
    b = math.isqrt(terms)
    g = [0] * (m + 1)
    t = one
    for i in range(1, b + 1):
        t = (t * p) >> j
        term = t if i & 1 else -t
        for r in range(m + 1):
            g[r] += term
            term *= i
    coeffs = [math.comb(m, r) * g[r] for r in range(m + 1)]  # of k0^{m-r}
    x_b = t
    y = one  # x^{k0}
    acc = 0
    for k0 in range(0, terms - b + 1, b):
        inner = coeffs[0]
        for c in coeffs[1:]:
            inner = inner * k0 + c
        block = (y * inner) >> _FIXED_POINT_BITS
        acc += -block if k0 & 1 else block
        y = (y * x_b) >> _FIXED_POINT_BITS
    t = y
    for k in range(terms - terms % b + 1, terms + 1):
        t = (t * p) >> j
        term = k**m * t
        acc += term if k & 1 else -term
    return acc


def _alternating_power_sum(m: int, j: int) -> float:
    """sum_{k<=K} (-1)^{k+1} k^m x^k at x = 1 - 2^-j, K = _partial_sum_terms."""
    lam = -math.log1p(-(2.0**-j))
    return _blocked_power_sum(m, j, _partial_sum_terms(m, lam)) / (1 << _FIXED_POINT_BITS)


def _richardson_to_zero(xs: list[float], ys: list[float]) -> float:
    """Neville polynomial extrapolation of (xs, ys) to x = 0."""
    vals = list(ys)
    n = len(vals)
    for level in range(1, n):
        for i in range(n - level):
            x_lo, x_hi = xs[i], xs[i + level]
            vals[i] = (x_lo * vals[i + 1] - x_hi * vals[i]) / (x_lo - x_hi)
    return vals[0]


def abel_numeric_estimate(m: int) -> float:
    """Numeric Abel limit of 1^m - 2^m + 3^m - ... (m <= 8).

    Evaluates the power series at x_j = 1 - 2^-j for j = 8 .. 12 and
    Richardson-extrapolates in 1 - x. The worst residual against
    abel_sum_exact over m <= 8 is 1.1e-14 (at m = 8). Uses only the partial
    sums' own terms, never an exact route.
    """
    if require_index("m", m) > 8:
        raise DomainError("numeric oracle validated only for m <= 8")
    eps = [2.0**-j for j in _ABEL_NODES]
    vals = [_alternating_power_sum(m, j) for j in _ABEL_NODES]
    return _richardson_to_zero(eps, vals)

#!/usr/bin/env python3
"""Convergence study for the Hankel-contour quadrature.

Sweeps refinement levels and contour radii at a fixed point s and prints the
error against the Euler-Maclaurin route, demonstrating spectral convergence
of the Gauss-Legendre panels and independence of the contour geometry
(the integrand is analytic between any two admissible contours).

zeta_hankel uses a fixed rule on the ray ladder: at level L = 0..6, 16-point
Gauss-Legendre panels, 16 * 2^L of them on the ray's [0, 40], 2^L on each
rung [40 * 1.21^k, 40 * 1.21^(k+1)] past it and 8 * 2^L on the arc. It
refines until two successive levels agree to max(_TOL, 4F), where
_TOL = 1e-12 and F is the round-off floor of level 0, on the contour of
radius pi whose ray runs K = _ray_rungs(s) rungs: it is cut at the least
rung end x_max = 40 * 1.21^K where the integrand has fallen
e^{-35 - pi |Im s|/2} below its peak, or K = 16 where no rung of the
ladder's 15 does. The contour is not a parameter of zeta_hankel, so both
sweeps reach into the module: the level sweep evaluates single levels with
_weighted_terms, and the radius sweep runs zeta_hankel's refinement loop,
_hankel, on each radius with the same rungs. Every refusal, of the
reference, of a level (a ray of more than 15 rungs, say) or of a radius's
loop (QuadratureNotConverged where its round-off floor exceeds ROUTE_TOL),
prints as one line and the sweep goes on; with no reference, the sweeps
print values in place of errors.
"""

import argparse
import math

import numpy as np

from zetaroutes.errors import DomainError
from zetaroutes.gammafn import gamma_complex
from zetaroutes.numeric import (
    _GAUSS_X,
    _PANELS_RAY,
    _REFINEMENTS,
    _RADIUS,
    _hankel,
    _ray_rungs,
    _rung_end,
    _weighted_terms,
    zeta_em,
)


def report(label: str, compute, reference) -> None:
    """One line: compute()'s error against the reference, its value when
    there is none, or its refusal."""
    try:
        value = compute()
        result = f"value {value:.15g}" if reference is None else f"error {abs(value - reference):.3e}"
    except (DomainError, OverflowError) as exc:
        result = f"refused, {type(exc).__name__}: {exc}"
    print(f"  {label}: {result}")


def level_value(s: complex, rungs: int, level: int) -> complex:
    """-Gamma(1-s)/(2 pi i) times the sum of the terms of one level."""
    prefactor = -gamma_complex(1 - s) / (2j * math.pi)
    with np.errstate(over="ignore", invalid="ignore"):
        return prefactor * complex(np.sum(_weighted_terms(s, rungs, level, _RADIUS)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--re", type=float, default=-0.5)
    parser.add_argument("--im", type=float, default=1.0)
    args = parser.parse_args()
    s = complex(args.re, args.im)

    try:
        reference = zeta_em(s)
        print(f"s = {s}, Euler-Maclaurin reference = {reference:.15g}\n")
    except DomainError as exc:
        reference = None
        print(f"s = {s}, Euler-Maclaurin reference refused, {type(exc).__name__}: {exc}\n")

    try:
        rungs = _ray_rungs(s)
    except DomainError as exc:
        print(f"default contour refused, {type(exc).__name__}: {exc}")
        return
    print(
        f"level refinement (radius pi, {rungs} rungs, x_max = {_rung_end(rungs):.4g}, "
        f"{len(_GAUSS_X)} nodes/panel):"
    )
    for level in range(_REFINEMENTS + 1):
        panels = (_PANELS_RAY + rungs) << level
        report(f"level {level}, {panels:>4} ray panels", lambda: level_value(s, rungs, level), reference)

    print("\ncontour independence (refinement loop, converged):")
    for radius in (math.pi / 2, 2.0, math.pi, 4.0, 5.5):
        report(f"radius {radius:5.3f}", lambda: _hankel(s, rungs, radius), reference)


if __name__ == "__main__":
    main()

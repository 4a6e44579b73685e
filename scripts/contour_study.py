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
_TOL = 1e-12 and F is the round-off floor of level 0, on the contour
default_contour(s) picks: its ray is cut at the least rung end x_max =
40 * 1.21^K where the integrand has fallen e^{-35 - pi |Im s|/2} below its
peak. The contour is not a parameter of zeta_hankel, so both sweeps reach
into the module: the level sweep evaluates single levels with
_weighted_terms, and the radius sweep runs zeta_hankel's refinement loop,
_hankel, on each radius with the same rungs. A radius whose loop refuses
(QuadratureNotConverged, say where its round-off floor exceeds ROUTE_TOL)
prints the refusal in place of an error.
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
    ContourSpec,
    _hankel,
    _weighted_terms,
    default_contour,
    zeta_em,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--re", type=float, default=-0.5)
    parser.add_argument("--im", type=float, default=1.0)
    args = parser.parse_args()
    s = complex(args.re, args.im)

    reference = zeta_em(s)
    print(f"s = {s}, Euler-Maclaurin reference = {reference:.15g}\n")

    spec = default_contour(s)
    print(
        f"level refinement (radius pi, {spec.rungs} rungs, x_max = {spec.x_max:.4g}, "
        f"{len(_GAUSS_X)} nodes/panel):"
    )
    prefactor = -gamma_complex(1 - s) / (2j * math.pi)
    for level in range(_REFINEMENTS + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            value = prefactor * complex(np.sum(_weighted_terms(s, spec, level)))
        panels = (_PANELS_RAY + spec.rungs) << level
        print(f"  level {level}, {panels:>4} ray panels: error {abs(value - reference):.3e}")

    print("\ncontour independence (refinement loop, converged):")
    for radius in (math.pi / 2, 2.0, math.pi, 4.0, 5.5):
        try:
            value = _hankel(s, ContourSpec(radius=radius, rungs=spec.rungs))
        except DomainError as exc:
            print(f"  radius {radius:5.3f}: refused, {type(exc).__name__}: {exc}")
            continue
        print(f"  radius {radius:5.3f}: error {abs(value - reference):.3e}")


if __name__ == "__main__":
    main()

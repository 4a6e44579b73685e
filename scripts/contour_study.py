#!/usr/bin/env python3
"""Convergence study for the Hankel-contour quadrature.

Sweeps panel counts and contour radii at a fixed point s and prints the
error against the Euler-Maclaurin route, demonstrating spectral convergence
of the Gauss-Legendre panels and independence of the contour geometry
(the integrand is analytic between any two admissible contours).

zeta_hankel uses a fixed rule: 16-point Gauss-Legendre panels, 16 per ray
and 8 on the arc to start, doubled up to six times until two successive
results agree to max(_TOL, 4F), where _TOL = 1e-12 and F is the round-off
floor of the first level, on the contour default_contour(s) picks: its ray
is cut where the integrand has fallen e^{-35 - pi |Im s|/2} below its peak,
at x_max = 40 or more. The contour is not a parameter of zeta_hankel, so
both sweeps reach into the module: the panel sweep evaluates single rungs of
that ladder (half as many arc panels as ray panels) with _weighted_terms,
and the radius sweep runs zeta_hankel's refinement loop, _hankel, on each
radius with that x_max.
"""

import argparse
import math

import numpy as np

from zetaroutes.gammafn import gamma_complex
from zetaroutes.numeric import (
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

    print("panel refinement (radius pi, 16 nodes/panel, arc panels = ray/2):")
    spec = default_contour(s)
    prefactor = -gamma_complex(1 - s) / (2j * math.pi)
    for panels in (2, 4, 8, 16, 32):
        value = prefactor * complex(np.sum(_weighted_terms(s, spec, panels)))
        print(f"  {panels:>3} ray panels: error {abs(value - reference):.3e}")

    print("\ncontour independence (refinement loop, converged):")
    for radius in (math.pi / 2, 2.0, math.pi, 4.0, 5.5):
        value = _hankel(s, ContourSpec(radius=radius, x_max=spec.x_max))
        print(f"  radius {radius:5.3f}: error {abs(value - reference):.3e}")


if __name__ == "__main__":
    main()

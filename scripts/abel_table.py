#!/usr/bin/env python3
"""Print the alternating-series table A_m = 1^m - 2^m + 3^m - ... by every
route, with the translation to zeta(-m).

The operator route evaluates (x d/dx)^m 1/(1+x) at x = 1; the closed form is
(-1)^m (1 - 2^{m+1}) B_{m+1}/(m+1). The numeric column is the
Richardson-extrapolated Abel limit (only computed for m <= 8).
"""

import argparse

from zetaroutes.abel import (
    abel_closed_form,
    abel_numeric_estimate,
    abel_sum_exact,
    zeta_neg_via_abel,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max", type=int, default=12, help="largest m (default 12)")
    args = parser.parse_args()

    header = f"{'m':>3} {'operator':>12} {'closed':>12} {'numeric':>14} {'zeta(-m)':>14}"
    print(header)
    print("-" * len(header))
    for m in range(args.max + 1):
        exact = abel_sum_exact(m)
        numeric = f"{abel_numeric_estimate(m):+.9f}" if m <= 8 else "-"
        print(
            f"{m:>3} {str(exact):>12} {str(abel_closed_form(m)):>12} "
            f"{numeric:>14} {str(zeta_neg_via_abel(m)):>14}"
        )
    print()
    print("note: A_3 = -1/8 from the two exact routes (the operator chain and")
    print("the Bernoulli closed form) and from the numeric Abel limit; the value")
    print("+1/8 seen in some quoted tables is not reproducible by any of them.")


if __name__ == "__main__":
    main()

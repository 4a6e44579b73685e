"""Classical zeta values by independent exact routes, with a numeric
analytic continuation to complex arguments that cross-validates them.

Exact half: arbitrary-precision rationals and pi-monomials, truncated
Laurent series, Bernoulli numbers two ways, Abel sums of the divergent
alternating series, and the functional equation verified with zero
tolerance at integer points.

Numeric half: complex Gamma, an Euler-Maclaurin zeta oracle, Hankel-contour
quadrature for zeta(s) at complex s, the inside-out residue sum, and the
partial-fraction cotangent identity.
"""

from .errors import DomainError, InternalInconsistency
from .exact import PiValue
from .series import LaurentSeries, OutOfTrustedRange, ZeroSeries, exp_series
from .bernoulli import (
    bernoulli_via_recurrence,
    bernoulli_via_series,
    even_part_check,
    faulhaber_sum,
)
from .abel import (
    abel_numeric_estimate,
    abel_sum_exact,
    operator_genfun_check,
    zeta_neg_via_abel,
)
from .zeta_exact import (
    ArgumentNotEvenPositive,
    PoleArgument,
    Route,
    finite_G_check,
    funceq_exact_check,
    odd_genfun_check,
    sin_gamma_limit_exact,
    zeta_classical,
    zeta_even_positive,
    zeta_neg_via_G,
    zeta_neg_via_residue,
    zeta_nonpositive,
)
from .gammafn import PoleAtNonpositiveInteger, gamma_complex
from .numeric import (
    ContourSpec,
    NearPole,
    OutOfValidatedRange,
    QuadratureNotConverged,
    TooCloseToPositiveIntegerPole,
    cotangent_check,
    cotangent_tail_bound,
    funceq_residual,
    inverted_contour_bound,
    inverted_contour_check,
    zeta_em,
    zeta_hankel,
)

__version__ = "0.1.0"

__all__ = [
    "PiValue",
    "LaurentSeries",
    "exp_series",
    "ZeroSeries",
    "OutOfTrustedRange",
    "bernoulli_via_series",
    "bernoulli_via_recurrence",
    "even_part_check",
    "faulhaber_sum",
    "abel_sum_exact",
    "abel_numeric_estimate",
    "operator_genfun_check",
    "zeta_neg_via_abel",
    "DomainError",
    "InternalInconsistency",
    "Route",
    "zeta_nonpositive",
    "zeta_neg_via_residue",
    "zeta_neg_via_G",
    "zeta_even_positive",
    "zeta_classical",
    "sin_gamma_limit_exact",
    "finite_G_check",
    "odd_genfun_check",
    "funceq_exact_check",
    "ArgumentNotEvenPositive",
    "PoleArgument",
    "gamma_complex",
    "PoleAtNonpositiveInteger",
    "ContourSpec",
    "zeta_em",
    "zeta_hankel",
    "inverted_contour_check",
    "inverted_contour_bound",
    "funceq_residual",
    "cotangent_check",
    "cotangent_tail_bound",
    "NearPole",
    "OutOfValidatedRange",
    "TooCloseToPositiveIntegerPole",
    "QuadratureNotConverged",
    "__version__",
]

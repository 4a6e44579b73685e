"""Classical zeta values by independent exact routes, with a numeric
analytic continuation to complex arguments that cross-validates them.

Exact half: arbitrary-precision rationals and pi-monomials, truncated
Laurent series, Bernoulli numbers two ways, Abel sums of the divergent
alternating series, and the functional equation verified with zero
tolerance at integer points. Euler's generating-function identities behind
these routes are checked by the test suite; the package does not export them.

Numeric half: complex Gamma, an Euler-Maclaurin zeta oracle, Hankel-contour
quadrature for zeta(s) at complex s, the inside-out residue sum, and the
partial-fraction cotangent identity.
"""

from .errors import DomainError, InternalInconsistency
from .exact import PiValue
from .series import LaurentSeries, OutOfTrustedRange, ZeroSeries, exp_series
from .bernoulli import bernoulli_via_recurrence, bernoulli_via_series
from .abel import abel_numeric_estimate, abel_sum_exact, zeta_neg_via_abel
from .zeta_exact import (
    ArgumentNotEvenPositive,
    PoleArgument,
    Route,
    funceq_exact_check,
    sin_gamma_limit_exact,
    zeta_classical,
    zeta_even_positive,
    zeta_neg_via_G,
    zeta_neg_via_residue,
    zeta_nonpositive,
)
from .gammafn import PoleAtNonpositiveInteger, gamma_complex
from .numeric import (
    NearPole,
    OutOfValidatedRange,
    QuadratureNotConverged,
    TooCloseToPositiveIntegerPole,
    cotangent_check,
    funceq_residual,
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
    "abel_sum_exact",
    "abel_numeric_estimate",
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
    "funceq_exact_check",
    "ArgumentNotEvenPositive",
    "PoleArgument",
    "gamma_complex",
    "PoleAtNonpositiveInteger",
    "zeta_em",
    "zeta_hankel",
    "inverted_contour_check",
    "funceq_residual",
    "cotangent_check",
    "NearPole",
    "OutOfValidatedRange",
    "TooCloseToPositiveIntegerPole",
    "QuadratureNotConverged",
    "__version__",
]

"""The package's exceptions, each under DomainError (CLI exit 2) or
InternalInconsistency (CLI exit 1), plus a builtin base it also keeps."""

import cmath
import functools


class DomainError(ValueError):
    """An argument outside a function's validated domain."""


class InternalInconsistency(ArithmeticError):
    """Two supposedly-equal exact routes disagreed; an implementation bug."""


class ZeroSeries(DomainError, ZeroDivisionError):
    """Inversion of a series with no nonzero stored coefficient."""


class OutOfTrustedRange(DomainError, IndexError):
    """Coefficient requested outside [valuation, order]."""


class ArgumentNotEvenPositive(DomainError):
    """The exact functional-equation check only runs at even s >= 2."""


class PoleArgument(DomainError):
    """zeta has a pole at 1; no route represents that point."""


class PoleAtNonpositiveInteger(DomainError, ArithmeticError):
    """Gamma requested at (or within 1e-12 of) a nonpositive integer."""


class NearPole(DomainError, ArithmeticError):
    """Evaluation too close to a pole of zeta or Gamma."""


class OutOfValidatedRange(DomainError):
    """Non-finite s, Re(s) too negative, or a value beyond double precision."""


class TooCloseToPositiveIntegerPole(DomainError, ArithmeticError):
    """Hankel route rejected: Gamma(1-s) pole meets a vanishing integral."""


class QuadratureNotConverged(DomainError, ArithmeticError):
    """Panel refinement failed to stabilize the contour integral."""


def require_finite(name: str, value: complex) -> None:
    if not cmath.isfinite(value):
        raise OutOfValidatedRange(f"{name} = {value} is not finite")


def finite_or_out_of_range(fn):
    """OutOfValidatedRange for a non-finite s or an over- or underflow in fn(s).

    A DomainError passes through; a plain ValueError (cmath's "math domain
    error" on an overflowed argument) becomes OutOfValidatedRange naming s.
    """

    @functools.wraps(fn)
    def wrapper(s, *args, **kwargs):
        require_finite("s", s)
        try:
            value = fn(s, *args, **kwargs)
            if cmath.isfinite(value):
                return value
        except DomainError:
            raise
        except (OverflowError, ZeroDivisionError, ValueError):
            pass
        raise OutOfValidatedRange(f"{fn.__name__} exceeds double precision at s = {s}")

    return wrapper

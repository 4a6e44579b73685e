"""The package's exceptions, each under DomainError (CLI exit 2) or
InternalInconsistency (CLI exit 1), plus a builtin base it also keeps, and
the three argument rules every library function applies: require_index for
an integer index, count or order, require_rational for an exact rational,
require_complex for a complex point."""

import cmath
import functools
import numbers
from fractions import Fraction


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


def require_index(name: str, value, least: int | None = 0):
    """value, once it is an integer (a numbers.Integral) >= least, where least
    is 0, 1 or None for no bound; DomainError otherwise."""
    if not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise DomainError(f"{name} must be {('nonnegative', 'positive')[least]}")
    return value


def require_rational(name: str, value) -> Fraction:
    """value as a Fraction (a float by its exact binary value): DomainError
    for a non-number (a str too, though Fraction() parses one), inf or nan."""
    if isinstance(value, Fraction):
        return value
    try:
        if isinstance(value, str):
            raise TypeError
        return Fraction(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{name} must be a rational, got {value!r}") from None


def require_complex(name: str, value) -> complex:
    """value as a finite complex: DomainError for a non-number (a str too,
    though complex() parses one), OutOfValidatedRange for inf, nan or a
    number beyond double range."""
    try:
        if isinstance(value, str):
            raise TypeError
        z = complex(value)
    except TypeError:
        raise DomainError(f"{name} must be a number, got {value!r}") from None
    except OverflowError:
        raise OutOfValidatedRange(f"{name} exceeds double precision") from None
    if not cmath.isfinite(z):
        raise OutOfValidatedRange(f"{name} = {value} is not finite")
    return z


def finite_or_out_of_range(fn):
    """fn at s as a finite complex (``require_complex``), and
    OutOfValidatedRange for an over- or underflow in fn(s): a result that is
    not finite, or a tuple of them, such as a check's (residual, bound), with
    a part that is not.

    A DomainError passes through; a plain ValueError (cmath's "math domain
    error" on an overflowed argument) becomes OutOfValidatedRange naming s.
    """

    @functools.wraps(fn)
    def wrapper(s, *args, **kwargs):
        z = require_complex("s", s)
        try:
            value = fn(z, *args, **kwargs)
            if all(map(cmath.isfinite, value if isinstance(value, tuple) else (value,))):
                return value
        except DomainError:
            raise
        except (OverflowError, ZeroDivisionError, ValueError):
            pass
        raise OutOfValidatedRange(f"{fn.__name__} exceeds double precision at s = {s}")

    return wrapper

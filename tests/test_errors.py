import importlib
import math
from fractions import Fraction as F

import pytest

import zetaroutes
from zetaroutes import abel, bernoulli, numeric, series, zeta_exact
from zetaroutes.errors import DomainError, InternalInconsistency
from zetaroutes.exact import PiValue

# Each class the package exported before errors.py held the taxonomy: the
# module that defined it and the builtin base it had then.
FORMER_HOMES = {
    "ZeroSeries": ("series", ZeroDivisionError),
    "OutOfTrustedRange": ("series", IndexError),
    "InternalInconsistency": ("abel", ArithmeticError),
    "ArgumentNotEvenPositive": ("zeta_exact", ValueError),
    "PoleArgument": ("zeta_exact", ValueError),
    "PoleAtNonpositiveInteger": ("gammafn", ArithmeticError),
    "NearPole": ("numeric", ArithmeticError),
    "OutOfValidatedRange": ("numeric", ValueError),
    "TooCloseToPositiveIntegerPole": ("numeric", ArithmeticError),
    "QuadratureNotConverged": ("numeric", ArithmeticError),
}


def _exported_exceptions():
    return {
        name: obj
        for name in zetaroutes.__all__
        if isinstance(obj := getattr(zetaroutes, name), type)
        and issubclass(obj, Exception)
    }


def test_every_exported_exception_has_exactly_one_base():
    exported = _exported_exceptions()
    assert set(FORMER_HOMES) | {"DomainError"} == set(exported)
    for name, cls in exported.items():
        bases = [issubclass(cls, DomainError), issubclass(cls, InternalInconsistency)]
        assert bases.count(True) == 1, name


@pytest.mark.parametrize("name", sorted(FORMER_HOMES))
def test_keeps_builtin_base_and_former_import_path(name):
    module, builtin = FORMER_HOMES[name]
    cls = getattr(zetaroutes, name)
    assert issubclass(cls, builtin)
    assert getattr(importlib.import_module(f"zetaroutes.{module}"), name) is cls


def test_star_import_binds_every_export_once():
    namespace = {}
    exec("from zetaroutes import *", namespace)
    assert all(name in namespace for name in zetaroutes.__all__)
    assert len(set(zetaroutes.__all__)) == len(zetaroutes.__all__)


# Each argument check of a library function, as (function, *arguments) that
# fail it: the CLI turns a DomainError into exit 2 and one error line.
@pytest.mark.parametrize(
    "case",
    [
        (zeta_exact.zeta_nonpositive, -1),
        (zeta_exact.sin_gamma_limit_exact, -1),
        (zeta_exact.zeta_neg_via_residue, -1),
        (zeta_exact.zeta_neg_via_G, 0),
        (zeta_exact.zeta_even_positive, 0),
        (zeta_exact.zeta_even_via_funceq, 0),
        (zeta_exact.zeta_classical, 3, zeta_exact.Route("closed")),
        (zeta_exact.zeta_classical, 4, zeta_exact.Route("abel")),
        (abel.abel_closed_form, -1),
        (abel.abel_sum_exact, -1),
        (abel.abel_numeric_estimate, -1),
        (abel.abel_numeric_estimate, 9),
        (bernoulli.bernoulli_via_series, -1),
        (bernoulli.bernoulli_via_recurrence, -1),
        (series.exp_series, 1, -1),
        (series.LaurentSeries, 0, (F(1),), 3),
        (series.LaurentSeries.monomial, 1, 2, 1),
        (PiValue, F(0), 1),
        (numeric.ContourSpec, 7.0),
        (numeric.ContourSpec, 1.0, 0.5),
        (numeric.cotangent_check, 5, 10),
        (numeric.cotangent_check, 0.25, 0),
        (numeric.cotangent_check, 0.25, 2.5),
        (numeric.cotangent_check, math.inf, 10),
        (numeric.cotangent_check, math.nan, 10),
        (numeric.cotangent_check, "abc", 10),
        (numeric.inverted_contour_check, -2.5, 2.5),
    ],
    ids=lambda case: f"{case[0].__qualname__}({', '.join(map(repr, case[1:]))})",
)
def test_argument_check_raises_domain_error(case):
    function, *args = case
    with pytest.raises(DomainError):
        function(*args)

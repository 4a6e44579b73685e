import importlib
import inspect
import math
from fractions import Fraction as F

import pytest

import zetaroutes
from zetaroutes import abel, bernoulli, gammafn, numeric, series, zeta_exact
from zetaroutes.errors import (
    DomainError,
    InternalInconsistency,
    OutOfValidatedRange,
    finite_or_out_of_range,
)
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
# fail it: the CLI turns a DomainError into exit 2 and one error line. An
# integer index that is a float, and a rational or a complex point that is no
# number, fail too, at every such parameter of a public callable (checked
# below). ONE is the series whose coeff the cases call.
ONE = series.LaurentSeries(0, (F(1), F(0), F(0), F(0)), 3)
ARGUMENT_CASES = [
    (zeta_exact.zeta_nonpositive, -1),
    (zeta_exact.zeta_nonpositive, 2.5),
    (zeta_exact.zeta_nonpositive, 3.0),
    (zeta_exact.sin_gamma_limit_exact, -1),
    (zeta_exact.sin_gamma_limit_exact, 2.5),
    (zeta_exact.sin_gamma_limit_exact, 3.0),
    (zeta_exact.zeta_neg_via_residue, -1),
    (zeta_exact.zeta_neg_via_residue, 2.5),
    (zeta_exact.zeta_neg_via_residue, 3.0),
    (zeta_exact.zeta_neg_via_G, 0),
    (zeta_exact.zeta_neg_via_G, 2.5),
    (zeta_exact.zeta_neg_via_G, 3.0),
    (zeta_exact.zeta_even_positive, 0),
    (zeta_exact.zeta_even_positive, 2.5),
    (zeta_exact.zeta_even_positive, 3.0),
    (zeta_exact.zeta_even_via_funceq, 0),
    (zeta_exact.zeta_even_via_funceq, 3.0),
    (zeta_exact.funceq_exact_check, 2.5),
    (zeta_exact.funceq_exact_check, 3.0),
    (zeta_exact.funceq_exact_check, 4.0),
    (zeta_exact.zeta_classical, 3, zeta_exact.Route("closed")),
    (zeta_exact.zeta_classical, 4, zeta_exact.Route("abel")),
    (zeta_exact.zeta_classical, 2.5, zeta_exact.Route("closed")),
    (zeta_exact.zeta_classical, 3.0, zeta_exact.Route("closed")),
    (zeta_exact.zeta_classical, -3.0, zeta_exact.Route("closed")),
    (zeta_exact.zeta_classical, 4, "residue"),
    (zeta_exact.zeta_classical, 4, "bogus"),
    (zeta_exact.zeta_classical, 4, None),
    (zeta_exact.routes_for_argument, 1),
    (zeta_exact.routes_for_argument, 3),
    (zeta_exact.routes_for_argument, 2.5),
    (abel.abel_closed_form, -1),
    (abel.abel_closed_form, 3.0),
    (abel.abel_sum_exact, -1),
    (abel.abel_sum_exact, 2.5),
    (abel.abel_sum_exact, 3.0),
    (abel.zeta_neg_via_abel, 2.5),
    (abel.zeta_neg_via_abel, 3.0),
    (abel.abel_numeric_estimate, -1),
    (abel.abel_numeric_estimate, 9),
    (abel.abel_numeric_estimate, 2.5),
    (abel.abel_numeric_estimate, 3.0),
    (bernoulli.bernoulli_via_series, -1),
    (bernoulli.bernoulli_via_series, 2.5),
    (bernoulli.bernoulli_via_series, 3.0),
    (bernoulli.bernoulli_via_recurrence, -1),
    (bernoulli.bernoulli_via_recurrence, 2.5),
    (bernoulli.bernoulli_via_recurrence, 3.0),
    (series.exp_series, 1, -1),
    (series.exp_series, 1, 2.5),
    (series.exp_series, 1, 3.0),
    (series.exp_series, "a", 3),
    (series.exp_series, None, 3),
    (series.exp_series, math.inf, 3),
    (series.LaurentSeries, 0, (F(1),), 3),
    (series.LaurentSeries, 2.5, (F(1),), 3),
    (series.LaurentSeries, 3.0, (F(1),), 3),
    (series.LaurentSeries, 3, (F(1),), 2.5),
    (series.LaurentSeries, 3, (F(1),), 3.0),
    (series.LaurentSeries, 0, ("a",), 0),
    (series.LaurentSeries, 0, (None,), 0),
    (series.LaurentSeries, 0, (math.nan,), 0),
    (series.LaurentSeries.coeff, ONE, 2.5),
    (series.LaurentSeries.coeff, ONE, 3.0),
    (series.invert_exponential, [1, "a"]),
    (series.invert_exponential, [1, None]),
    (series.invert_exponential, [1, math.nan]),
    (PiValue, F(0), 1),
    (PiValue, 1, 2.5),
    (PiValue, 1, 3.0),
    (PiValue, "a", 2),
    (PiValue, None, 2),
    (PiValue, 1j, 2),
    (gammafn.gamma_complex, "a"),
    (gammafn.gamma_complex, None),
    (numeric.zeta_em, "a"),
    (numeric.zeta_em, None),
    (numeric.zeta_hankel, "a"),
    (numeric.zeta_hankel, None),
    (numeric.funceq_residual, "a"),
    (numeric.funceq_residual, None),
    (numeric.cotangent_check, 5, 10),
    (numeric.cotangent_check, 0.25, 0),
    (numeric.cotangent_check, 0.25, 2.5),
    (numeric.cotangent_check, 0.25, 3.0),
    (numeric.cotangent_check, math.inf, 10),
    (numeric.cotangent_check, math.nan, 10),
    (numeric.cotangent_check, "abc", 10),
    (numeric.cotangent_check, "1/4", 10),
    (numeric.inverted_contour_check, -2.5, 2.5),
    (numeric.inverted_contour_check, -2.5, 3.0),
    (numeric.inverted_contour_check, "a", 10),
    (numeric.inverted_contour_check, None, 10),
]


@pytest.mark.parametrize(
    "case",
    ARGUMENT_CASES,
    ids=lambda case: f"{case[0].__qualname__}({', '.join(map(repr, case[1:]))})",
)
def test_argument_check_raises_domain_error(case):
    function, *args = case
    with pytest.raises(DomainError):
        function(*args)


# A check's (residual, bound) is returned only when both parts are finite.
@pytest.mark.parametrize(
    "result, finite",
    [
        ((1e-9, 1e-8), True),
        ((1e-9, math.inf), False),
        ((math.nan, 1e-8), False),
    ],
)
def test_finite_or_out_of_range_requires_both_parts_of_a_pair(result, finite):
    @finite_or_out_of_range
    def check(s):
        return result

    if finite:
        assert check(-2.5) == result
        return
    with pytest.raises(OutOfValidatedRange, match=r"^check exceeds double precision at s = -2\.5$"):
        check(-2.5)


# The arguments outside each annotated kind that ARGUMENT_CASES must hold.
NON_MEMBERS = {int: (2.5, 3.0), F: ("a", None), complex: ("a", None)}


def _public_callables():
    """Each function and non-exception class in __all__, and each public
    method of such a class, by name."""
    exceptions = _exported_exceptions()
    for name in zetaroutes.__all__:
        obj = getattr(zetaroutes, name)
        if callable(obj) and name not in exceptions:
            yield name, obj
            for attr in vars(obj) if isinstance(obj, type) else ():
                if not attr.startswith("_") and callable(method := getattr(obj, attr)):
                    yield f"{name}.{attr}", method


def test_every_index_and_point_parameter_has_a_case():
    missing = []
    for name, obj in _public_callables():
        params = inspect.signature(obj, eval_str=True).parameters.values()
        for i, param in enumerate(params, start=1):
            for value in NON_MEMBERS.get(param.annotation, ()):
                given = [c[i] for c in ARGUMENT_CASES if c[0] == obj and len(c) > i]
                if (type(value), value) not in [(type(a), a) for a in given]:
                    missing.append(f"{name}({param.name}={value!r})")
    assert missing == []

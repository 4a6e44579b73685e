import importlib

import pytest

import zetaroutes
from zetaroutes.errors import DomainError, InternalInconsistency

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

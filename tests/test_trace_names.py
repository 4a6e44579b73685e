"""Every entry point the traced benchmark wraps must exist under its name.

``perfbench/tracing.install`` looks each ``WRAPPED`` entry up with getattr,
so removing or renaming one of those functions breaks
``perfbench/run.py --trace 1``. ``install`` also rebinds each wrapped
function by name, so no module-level container may hold one. The tracing
module is stdlib-only; it is loaded by path and only read.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import zetaroutes

TRACING_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING_FILE)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(mod, attr) for mod, attrs in tracing.WRAPPED.items() for attr in attrs]


@pytest.mark.parametrize("module, dotted", _wrapped())
def test_wrapped_name_resolves(module, dotted):
    obj = importlib.import_module(f"zetaroutes.{module}")
    for part in dotted.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def _held(value):
    """Every item a module-level container holds, through nested containers."""
    if isinstance(value, dict):
        items = [*value, *value.values()]
    elif isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
    else:
        return
    for item in items:
        yield item
        yield from _held(item)


def test_no_container_holds_a_wrapped_function():
    # ``install`` rebinds module globals and class attributes, so a call
    # through a wrapped function kept in a container would escape its span.
    wrapped = {}
    for module, dotted in _wrapped():
        obj = importlib.import_module(f"zetaroutes.{module}")
        for part in dotted.split("."):
            obj = getattr(obj, part)
        wrapped[id(obj)] = f"{module}.{dotted}"
    modules = [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(zetaroutes.__path__, "zetaroutes.")
        if info.name != "zetaroutes.__main__"  # importing it runs the CLI
    ]
    held = [
        (f"{module.__name__}.{name}", wrapped[id(item)])
        for module in (zetaroutes, *modules)
        for name, value in vars(module).items()
        for item in _held(value)
        if id(item) in wrapped
    ]
    assert held == []

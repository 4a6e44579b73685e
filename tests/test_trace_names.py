"""Every entry point the traced benchmark wraps must exist under its name.

``perfbench/tracing.install`` looks each ``WRAPPED`` entry up with getattr,
so removing or renaming one of those functions breaks
``perfbench/run.py --trace 1``. The tracing module is stdlib-only; it is
loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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

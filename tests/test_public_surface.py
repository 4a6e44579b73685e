"""Every function and class in ``zetaroutes.__all__`` is used by the package,
a script or the benchmark. One that only the tests call belongs in the
tests, as the generating-function identities in genfun_identities.py do."""

import re
from pathlib import Path

import zetaroutes

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_function_and_class_is_used_outside_the_tests():
    lines = [
        line
        for pattern in ("src/zetaroutes/*.py", "scripts/*.py", "perfbench/*.py")
        for path in sorted(ROOT.glob(pattern))
        if path.name != "__init__.py"
        for line in path.read_text().splitlines()
    ]
    unused = [
        name
        for name in zetaroutes.__all__
        if callable(obj := getattr(zetaroutes, name))
        and not (isinstance(obj, type) and issubclass(obj, Exception))
        and not any(  # a line that names it, other than its own def or class line
            re.search(rf"\b{name}\b", line) and not re.match(rf"\s*(def|class) {name}\b", line)
            for line in lines
        )
    ]
    assert unused == []

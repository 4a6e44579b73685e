"""Each numeric route refuses exactly outside the static domain that its
``numeric.ROUTES`` row declares, and the benchmark's gate exempts exactly
the pole refusals that Hankel's row declares.

``perfbench/checks.py`` is stdlib-only; it is loaded by path and only read.
"""

import importlib.util
import math
from pathlib import Path

import pytest

from zetaroutes import numeric
from zetaroutes.errors import DomainError, OutOfValidatedRange

CHECKS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"


def _edges():
    """(route, declared class, a point just outside the bound, one just
    inside it) for every bound of every row: each side of the radius around
    each of the first four excluded integers (or fewer), along the real axis
    and above it; each side of Re s = re_min and of |Im s| = im_max."""
    for name, (_, (lo, hi, radius, refusal, _), re_min, im_max) in numeric.ROUTES.items():
        for pole in range(lo, min(hi, lo + 3) + 1):
            for direction in (1, -1, 1j):
                outside, inside = (pole + f * radius * direction for f in (0.99, 1.01))
                yield name, refusal, outside, inside
        if re_min is not None:
            left = re_min[0]
            yield name, OutOfValidatedRange, complex(left), complex(math.nextafter(left, math.inf))
        if im_max is not None:
            above = math.nextafter(im_max[0], math.inf)
            yield name, OutOfValidatedRange, complex(0.5, above), complex(0.5, im_max[0])


EDGES = list(_edges())


@pytest.mark.parametrize(
    "name, refusal, outside, inside",
    EDGES,
    ids=[f"{name}-{outside}" for name, _, outside, _ in EDGES],
)
def test_each_declared_bound_refuses_just_outside_and_not_inside(name, refusal, outside, inside):
    route = getattr(numeric, f"zeta_{name}")
    with pytest.raises(refusal):
        route(outside)
    try:
        route(inside)
    except refusal as exc:
        pytest.fail(f"zeta_{name}({inside}) raised its row's {refusal.__name__}: {exc}")
    except DomainError:
        pass  # a refusal of the route's own, after the row's check


def _checks():
    spec = importlib.util.spec_from_file_location("_perfbench_checks", CHECKS_FILE)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks


# Each side of Hankel's 0.1 radius around 1..4, and above 2.
NEAR_POLES = [k + d for k in range(1, 5) for d in (-0.1001, -0.0999, 0.0999, 0.1001)]
NEAR_POLES.append(2 + 0.0999j)


def test_the_gate_exempts_exactly_the_refusals_hankels_row_declares():
    documented_refusal = _checks().documented_refusal
    refusal = numeric.ROUTES["hankel"][1][3]
    for s in NEAR_POLES:
        try:
            value = numeric.zeta_hankel(s)
        except DomainError as exc:
            outcome, declared = type(exc).__name__, isinstance(exc, refusal)
        else:
            outcome, declared = [value.real, value.imag], False
        assert documented_refusal("hankel", s, outcome) is declared, s

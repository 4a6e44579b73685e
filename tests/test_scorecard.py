"""Accuracy scorecard of the numeric routes on the benchmark's seed-0 grid.

Each call of ``zeta_<name>``, for each name in ``numeric.ROUTES``, at the 240
points is *ok* (mixed error |v - ref| / max(1, |ref|) at most
``numeric.ROUTE_TOL`` against the committed mpmath reference), *refused* (a
typed ``DomainError``) or *silent* (a value returned that misses by more).
Any other exception fails the test.
"""

import importlib.util
import json
from collections import Counter
from pathlib import Path

import pytest

from zetaroutes import numeric
from zetaroutes.cli import run
from zetaroutes.errors import DomainError
from zetaroutes.numeric import zeta_em, zeta_hankel

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TOL = numeric.ROUTE_TOL

# The counts the code gives today, per route and region: 34 silent in all.
# A later change may edit this table only by moving points from silent to ok
# or refused, or from refused to ok; a point that turns silent fails the test.
EXPECTED = {
    "em": {
        ("critical", "ok"): 50,
        ("strip", "ok"): 50,
        ("right", "ok"): 50,
        ("left", "ok"): 6,
        ("left", "silent"): 34,
        ("high", "ok"): 49,
        ("zero", "ok"): 1,
    },
    "hankel": {
        ("critical", "ok"): 50,
        ("strip", "ok"): 50,
        ("right", "ok"): 50,
        ("left", "ok"): 5,
        ("left", "refused"): 35,
        ("high", "refused"): 49,
        ("zero", "ok"): 1,
    },
}


def grid_points(seed):
    """The benchmark's 240 (region, s) pairs of grid seed `seed`."""
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.grid_points(seed)


def seed0_grid():
    """(region, s, reference) for the 240 points of the committed fixture."""
    with open(PERFBENCH / "fixtures" / "reference_seed0.json", encoding="utf-8") as fh:
        fixture = json.load(fh)
    assert fixture["columns"] == ["re", "im", "zeta_re", "zeta_im"]
    points = grid_points(0)
    assert len(points) == len(fixture["points"]) == 240
    grid = []
    for (region, s), (re, im, ref_re, ref_im) in zip(points, fixture["points"]):
        assert s == complex(re, im)
        grid.append((region, s, complex(ref_re, ref_im)))
    return grid


def classify(route, s, ref):
    try:
        value = route(s)
    except DomainError:
        return "refused"
    return "ok" if abs(value - ref) / max(1.0, abs(ref)) <= TOL else "silent"


def test_every_route_has_its_counts():
    # A route added to numeric.ROUTES lands with its counts.
    assert set(EXPECTED) == set(numeric.ROUTES)


@pytest.mark.parametrize(
    "name, route", [(name, getattr(numeric, f"zeta_{name}")) for name in numeric.ROUTES]
)
def test_scorecard_counts(name, route):
    counts = Counter((region, classify(route, s, ref)) for region, s, ref in seed0_grid())
    assert dict(counts) == EXPECTED[name]


def test_numeric_both_exits_1_exactly_where_its_values_differ(capsys):
    # zeta numeric --method both fails its check when the two values it prints
    # differ by more than the routes' summed tolerance, 2e-10 mixed. On this
    # grid that happens at three points, and at each the em value is silent.
    failed = []
    for region, s, ref in seed0_grid():
        em = zeta_em(s)  # em refuses no point of this grid
        try:
            hankel = zeta_hankel(s)
        except DomainError:
            hankel = None
        code = run(["zeta", "numeric", "--", repr(s.real), repr(s.imag)])
        assert capsys.readouterr().err == ""
        differ = hankel is not None and abs(hankel - em) > 2 * TOL * max(1.0, abs(em))
        assert code == int(differ), s
        if differ:
            failed.append((region, classify(zeta_em, s, ref), classify(zeta_hankel, s, ref)))
    assert failed == [("left", "silent", "ok")] * 3


# Silent while the ray cut ignored the upper ray's e^{pi |Im s|} growth:
# 1.5e-10, 1.2e-10 and 5.4e-10 off, on grid seeds 3, 4 and 8.
ONCE_SILENT = (
    4.502314910538604 + 16.93678879130439j,
    4.541343951931359 + 17.213187184247452j,
    1.6571665689542838 + 13.51668899339316j,
)


def test_hankel_on_seeds_0_to_9(hankel_levels):
    # Over the 2400 points of seeds 0-9 no call runs past level 3, and every
    # value returned is within ROUTE_TOL of mpmath at 30 digits.
    mpmath = pytest.importorskip("mpmath")
    returned = {}
    for seed in range(10):
        for _, s in grid_points(seed):
            hankel_levels.clear()
            try:
                returned[s] = zeta_hankel(s)
            except DomainError:
                pass
            assert len(hankel_levels) <= 4, s
    assert set(ONCE_SILENT) <= set(returned)
    with mpmath.workdps(30):
        for s, value in returned.items():
            ref = complex(mpmath.zeta(mpmath.mpc(s.real, s.imag)))
            assert abs(value - ref) / max(1.0, abs(ref)) <= TOL, s

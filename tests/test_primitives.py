"""The routes declare the primitives they read, and one corruption matrix
checks every declaration.

``zeta_exact.ROUTES`` and ``numeric.ROUTES`` name, in one vocabulary, what
each route reads. ``CORRUPT`` holds one corrupter per primitive; each
triples or scales what its primitive gives far past any route's tolerance,
in every package namespace that holds it. On a fixed sample, the classical
K of the golden argv with -5, -1, 4 and 40, and every 10th point of the
benchmark's seed-0 grid, each corrupter must

- move only routes that declare its primitive: no undeclared sharing;
- move every route that declares it, somewhere: no stale declaration;
- make ``zeta exact K --route all`` or ``zeta numeric --method both`` exit 1
  at some sample point where the intact command exits 0, whenever a route
  that declares it and one that does not both return there.

A route moves at a point when its value's bits or the class of what it
raises change.
"""

import contextlib
import functools
import io
import math
import sys

import pytest

from test_golden_cli import GOLDEN
from test_scorecard import grid_points
from zetaroutes import abel, bernoulli, cli, gammafn, numeric, series, zeta_exact

GOLDEN_K = {int(command.split()[2]) for command in GOLDEN if command.startswith("zeta exact ")}
SAMPLE = {
    "exact": sorted(GOLDEN_K | {-5, -1, 4, 40}),
    "numeric": [s for _, s in grid_points(0)[::10]],
}
DECLARED = {
    **{("exact", route.value): reads for route, (*_, reads) in zeta_exact.ROUTES.items()},
    **{("numeric", name): row[0] for name, row in numeric.ROUTES.items()},
}
SCALE = 1 + 1e-8


# -- the corrupters ------------------------------------------------------------


def _rebind(monkeypatch, original, replacement):
    """Bind `replacement` wherever a package module holds `original`."""
    for module in list(sys.modules.values()):
        if module.__name__.partition(".")[0] == "zetaroutes":
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, replacement)


def _scaled(monkeypatch, original):
    def scaled(*args):
        return original(*args) * SCALE

    _rebind(monkeypatch, original, scaled)


def _tripled_past_one(values):
    return [v * 3 if i > 1 else v for i, v in enumerate(values)]


def _corrupt_table(monkeypatch, build, prefix):
    """The Bernoulli table's build tripled past B_1, and its cache emptied, so
    that it is rebuilt on the corrupt build."""
    intact = getattr(bernoulli, build)
    monkeypatch.setattr(bernoulli, build, lambda order: _tripled_past_one(intact(order)))
    monkeypatch.setattr(bernoulli, prefix, [])


def _corrupt_tangent(monkeypatch):
    _corrupt_table(monkeypatch, "_tangent_table", "_TANGENT_PREFIX")
    # zeta_em read its coefficients off the table once, at import
    j = numeric._EM_TERMS_J + 1
    table = bernoulli.bernoulli_via_recurrence(2 * j)
    coefficients = tuple(float(table[2 * i] / math.factorial(2 * i)) for i in range(1, j + 1))
    monkeypatch.setattr(numeric, "_B2J_OVER_FACT", coefficients)


def _corrupt_series(monkeypatch):
    _corrupt_table(monkeypatch, "_series_table", "_SERIES_PREFIX")


def _corrupt_invert(monkeypatch):
    invert = series.invert_exponential
    _rebind(monkeypatch, invert, lambda alpha: _tripled_past_one(invert(alpha)))


def _corrupt_theta(monkeypatch):
    chain = abel._theta_numerator
    _rebind(monkeypatch, chain, lambda m: [3 * c for c in chain(m)])


def _corrupt_gauss_legendre(monkeypatch):
    monkeypatch.setattr(numeric, "_GAUSS_W", numeric._GAUSS_W * SCALE)
    # A fresh ladder cache, laid by the corrupt rule and dropped with it: the
    # module's holds the intact rule's nodes and weights.
    monkeypatch.setattr(numeric, "_ladder", functools.cache(numeric._ladder.__wrapped__))


CORRUPT = {
    "tangent": _corrupt_tangent,
    "series": _corrupt_series,
    "invert": _corrupt_invert,
    "theta": _corrupt_theta,
    "gamma": lambda monkeypatch: _scaled(monkeypatch, gammafn.gamma_complex),
    "gauss_legendre": _corrupt_gauss_legendre,
    "power_sum": lambda monkeypatch: _scaled(monkeypatch, numeric._power_sum),
}


# -- the sample ------------------------------------------------------------------


def _outcome(function, *args):
    """repr of the value, or the class of the exception raised."""
    try:
        return repr(function(*args))
    except Exception as exc:
        return type(exc)


def _route(half, name):
    """A route as a function of its sample point, looked up when called."""
    if half == "exact":
        return functools.partial(zeta_exact.zeta_classical, route=name)
    return lambda s: getattr(numeric, f"zeta_{name}")(s)


def _argv(half, point):
    if half == "exact":
        return ["zeta", "exact", str(point), "--route", "all"]
    return ["zeta", "numeric", "--method", "both", "--", repr(point.real), repr(point.imag)]


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.run(argv)


def _sample():
    """Each route's outcome at each point of its half, and each half's exit
    status at each point."""
    outcomes = {
        (half, name): [_outcome(_route(half, name), point) for point in SAMPLE[half]]
        for half, name in DECLARED
    }
    exits = {half: [_run(_argv(half, point)) for point in points] for half, points in SAMPLE.items()}
    return outcomes, exits


_intact = functools.cache(_sample)


@functools.cache
def _corrupted(primitive):
    with pytest.MonkeyPatch.context() as monkeypatch:
        CORRUPT[primitive](monkeypatch)
        return _sample()


def _moved(primitive):
    """{route: the sample points where its outcome moved}"""
    (intact, _), (corrupted, _) = _intact(), _corrupted(primitive)
    return {
        route: [p for p, a, b in zip(SAMPLE[route[0]], intact[route], corrupted[route]) if a != b]
        for route in DECLARED
    }


def _declaring(primitive):
    return {route for route, reads in DECLARED.items() if primitive in reads}


def test_every_primitive_has_one_corrupter():
    assert set(CORRUPT) == {p for reads in DECLARED.values() for p in reads}


def test_intact_commands_exit_0_at_the_exact_sample():
    assert set(_intact()[1]["exact"]) == {0}


@pytest.mark.parametrize("primitive", CORRUPT)
def test_only_declaring_routes_move(primitive):
    moved = {route: points for route, points in _moved(primitive).items() if points}
    undeclared = {route: points for route, points in moved.items() if route not in _declaring(primitive)}
    assert undeclared == {}


@pytest.mark.parametrize("primitive", CORRUPT)
def test_every_declaring_route_moves(primitive):
    moved = _moved(primitive)
    assert [route for route in sorted(_declaring(primitive)) if not moved[route]] == []


@pytest.mark.parametrize("primitive", CORRUPT)
def test_command_exits_1_where_a_reader_meets_a_route_that_does_not_read(primitive):
    (outcomes, intact_exits), (_, exits) = _intact(), _corrupted(primitive)
    readers = _declaring(primitive)
    for half, points in SAMPLE.items():
        routes = [route for route in DECLARED if route[0] == half]
        parted = [
            i
            for i in range(len(points))
            if any(isinstance(outcomes[r][i], str) for r in routes if r in readers)
            and any(isinstance(outcomes[r][i], str) for r in routes if r not in readers)
        ]
        if parted:
            caught = [points[i] for i in parted if (intact_exits[half][i], exits[half][i]) == (0, 1)]
            assert caught, f"{half}: no command exits 1 at {[points[i] for i in parted]}"

import json
from fractions import Fraction as F

import pytest

from test_primitives import CORRUPT
from zetaroutes import abel, bernoulli, cli
from zetaroutes.abel import zeta_neg_via_abel
from zetaroutes.errors import DomainError
from zetaroutes.exact import PiValue
from zetaroutes.zeta_exact import (
    ROUTES,
    ArgumentNotEvenPositive,
    PoleArgument,
    Route,
    funceq_exact_check,
    routes_for_argument,
    sin_gamma_limit_exact,
    zeta_classical,
    zeta_even_positive,
    zeta_even_via_funceq,
    zeta_neg_via_G,
    zeta_neg_via_residue,
    zeta_nonpositive,
)


class TestNonpositive:
    def test_zero(self):
        assert zeta_nonpositive(0) == F(-1, 2)

    def test_minus_one(self):
        assert zeta_nonpositive(1) == F(-1, 12)

    def test_minus_four_vanishes(self):
        assert zeta_nonpositive(4) == 0

    def test_returns_fraction(self):
        # The CLI reads a record's kind off the exact payload type.
        assert all(type(zeta_nonpositive(n)) is F for n in range(7))


class TestResidueRoute:
    def test_minus_one(self):
        assert zeta_neg_via_residue(1) == F(-1, 12)

    def test_zero(self):
        assert zeta_neg_via_residue(0) == F(-1, 2)

    def test_minus_three(self):
        assert zeta_neg_via_residue(3) == F(1, 120)


class TestSinGammaLimit:
    def test_at_zero(self):
        assert sin_gamma_limit_exact(0) == PiValue(F(1), 1)

    def test_at_one(self):
        assert sin_gamma_limit_exact(1) == PiValue(F(1), 1)

    def test_at_three(self):
        assert sin_gamma_limit_exact(3) == PiValue(F(1, 6), 1)


class TestGeneratingFunctionRoute:
    def test_first_entries(self):
        assert zeta_neg_via_G(3) == [F(-1, 2), F(-1, 12), 0]

    def test_returns_fraction(self):
        assert all(type(v) is F for v in zeta_neg_via_G(7))


class TestOddGenfun:
    def test_order_3(self):
        # The z and z^3 coefficients of the odd generating function, checked
        # through z^21 by acceptance criterion 06: 2 zeta(-1)/1! = -1/6 and
        # 2 zeta(-3)/3! = 1/360.
        assert 2 * zeta_nonpositive(1) == F(-1, 6)
        assert 2 * zeta_nonpositive(3) / 6 == F(1, 360)


class TestEvenPositive:
    def test_sign_pattern(self):
        for n in range(1, 16):
            assert zeta_even_positive(n).coeff > 0

    def test_funceq_route_agrees(self):
        for n in range(1, 16):
            assert zeta_even_via_funceq(n) == zeta_even_positive(n)

    def test_to_float_is_correctly_rounded(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            for n in range(1, 51):
                assert zeta_even_positive(n).to_float() == float(mpmath.zeta(2 * n)), n


class TestFunctionalEquation:
    def test_s2_both_sides(self):
        # LHS 2 cos(pi) 1! zeta(2) = -pi^2/3; RHS (2 pi)^2 zeta(-1) = -pi^2/3
        lhs = PiValue(-2 * zeta_even_positive(1).coeff, 2)
        rhs = PiValue(4 * zeta_nonpositive(1), 2)
        assert lhs == rhs == PiValue(F(-1, 3), 2)
        assert funceq_exact_check(2) is True

    def test_s4(self):
        assert funceq_exact_check(4) is True

    def test_odd_argument_rejected(self):
        with pytest.raises(ArgumentNotEvenPositive):
            funceq_exact_check(3)

    @pytest.mark.parametrize(
        "method, prefix",
        [
            (bernoulli.bernoulli_via_recurrence, "_TANGENT_PREFIX"),
            (bernoulli.bernoulli_via_series, "_SERIES_PREFIX"),
        ],
        ids=["tangent", "series"],
    )
    def test_corrupt_b4_in_either_table_fails_both_checks(
        self, monkeypatch, capsys, method, prefix
    ):
        # zeta(4) and zeta(-3) both come from B_4: the checks hold only while
        # the two tables they read agree on it. ``verify funceq`` reports the
        # comparison as funceq-exact 4 and again as funceq-simple 1.
        table = list(method(8))
        table[4] *= 3
        monkeypatch.setattr(bernoulli, prefix, table)
        assert funceq_exact_check(4) is False
        assert cli.run(["verify", "funceq", "--exact-max", "2", "--format", "json"]) == 1
        data = json.loads(capsys.readouterr().out)
        passed = {(d["route"], d["argument"]): d["payload"] for d in data}
        assert passed == {
            ("funceq-exact", "2"): True,
            ("funceq-exact", "4"): False,
            ("funceq-simple", "0"): True,
            ("funceq-simple", "1"): False,
        }


@pytest.mark.parametrize(
    "value",
    [
        abel.abel_closed_form,
        zeta_neg_via_abel,
        lambda n: zeta_even_positive(n).coeff,
        lambda n: zeta_even_via_funceq(n).coeff,
    ],
    ids=["abel_closed_form", "zeta_neg_via_abel", "zeta_even_positive", "zeta_even_via_funceq"],
)
def test_integer_powers_keep_fraction_results(value):
    assert all(type(value(n)) is F for n in range(1, 8))


def test_trivial_zeros_and_nonzeros():
    for k in range(1, 16):
        assert zeta_nonpositive(2 * k) == 0
        assert zeta_nonpositive(2 * k - 1) != 0


class TestDispatch:
    def test_routes_for_negative(self):
        assert len(routes_for_argument(-3)) == 4

    def test_routes_for_positive_even(self):
        assert routes_for_argument(4) == (Route.CLOSED_FORM, Route.FUNCTIONAL_EQUATION)

    def test_pole(self):
        with pytest.raises(PoleArgument):
            zeta_classical(1, Route.CLOSED_FORM)
        with pytest.raises(PoleArgument):
            routes_for_argument(1)

    def test_odd_positive(self):
        with pytest.raises(ValueError):
            zeta_classical(5, Route.CLOSED_FORM)

    def test_value_type_by_argument(self):
        for k in (-4, -3, 0, 4):  # -4 is a trivial zero
            for route in routes_for_argument(k):
                assert type(zeta_classical(k, route)) is (F if k <= 0 else PiValue)

    def test_inapplicable_route(self):
        with pytest.raises(ValueError):
            zeta_classical(4, Route.ABEL_SUMMATION)
        with pytest.raises(ValueError):
            zeta_classical(-4, Route.FUNCTIONAL_EQUATION)

    @pytest.mark.parametrize("k", [-3, 0, 4])
    def test_route_by_name_is_the_route(self, k):
        # A plain str names its Route: "closed" at -3 once fell through every
        # branch to the funceq one and raised "n must be positive".
        for route in routes_for_argument(k):
            assert zeta_classical(k, route.value) == zeta_classical(k, route)

    @pytest.mark.parametrize("k, name", [(4, "residue"), (-3, "funceq"), (4, "bogus")])
    def test_route_by_name_is_checked(self, k, name):
        # "residue" at 4 raised AttributeError: str has no .value.
        with pytest.raises(DomainError):
            zeta_classical(k, name)


# -- route -> primitive ---------------------------------------------------------
# tests/test_primitives.py checks every route's declared primitives on one
# sample; these check the CLI's comparison under its exact corrupters.


def test_routes_compared_at_an_argument_read_no_primitive_in_common():
    for k in (*range(-60, 1), *range(2, 121, 2)):
        reads = [ROUTES[route][2] for route in routes_for_argument(k)]
        primitives = [p for row in reads for p in row]
        assert len(primitives) == len(set(primitives)), (k, reads)


def _corrupt_series_prefix(monkeypatch):
    # the cached table itself, where CORRUPT["series"] corrupts its recurrence
    table = [v * 3 if i > 1 else v for i, v in enumerate(bernoulli.bernoulli_via_series(64))]
    monkeypatch.setattr(bernoulli, "_SERIES_PREFIX", table)


EACH_PRIMITIVE = pytest.mark.parametrize(
    "corrupt",
    [
        CORRUPT["tangent"],
        _corrupt_series_prefix,
        CORRUPT["series"],
        CORRUPT["invert"],
        CORRUPT["theta"],
    ],
    ids=["tangent", "series", "series_kernel", "invert", "theta"],
)


@EACH_PRIMITIVE
@pytest.mark.parametrize("k", [-5, -1, 4, 40])
def test_no_corrupt_primitive_passes_route_all(monkeypatch, k, corrupt):
    # Routes that --route all compares must not share a primitive: with any
    # one of them corrupted, the routes either disagree or all stay right
    # because none of them reads it.
    routes = routes_for_argument(k)
    truth = zeta_classical(k, Route.CLOSED_FORM)
    corrupt(monkeypatch)
    values = [zeta_classical(k, route) for route in routes]
    assert len(set(values)) >= 2 or set(values) == {truth}


@EACH_PRIMITIVE
@pytest.mark.parametrize("k", [-5, -1, 4, 40])
def test_route_all_exit_status_is_the_comparison(monkeypatch, capsys, k, corrupt):
    # One line per route, and exit 1 when they are not all equal, 0 when they are.
    corrupt(monkeypatch)
    code = cli.run(["zeta", "exact", str(k), "--route", "all"])
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert (len(lines), err) == (len(routes_for_argument(k)), "")
    assert code == (0 if len(set(lines)) == 1 else 1)


@pytest.mark.parametrize(
    "corrupt, k, printed",
    [
        (CORRUPT["tangent"], 4, ["1/30*pi^4", "1/90*pi^4"]),
        (CORRUPT["series"], -3, ["1/120", "1/40", "1/120", "1/120"]),
    ],
    ids=["tangent", "series"],
)
def test_route_all_disagreement_exits_1(monkeypatch, capsys, corrupt, k, printed):
    # These exited 0 with the disagreement in plain sight.
    corrupt(monkeypatch)
    assert cli.run(["zeta", "exact", str(k), "--route", "all"]) == 1
    out, err = capsys.readouterr()
    assert (out.splitlines(), err) == (printed, "")


@pytest.mark.parametrize("corrupt", [CORRUPT["tangent"], CORRUPT["series"]], ids=["tangent", "series"])
def test_bernoulli_both_exits_1_when_the_methods_disagree(monkeypatch, capsys, corrupt):
    argv = ["bernoulli", "--max", "64", "--method", "both"]
    assert cli.run(argv) == 0
    intact = capsys.readouterr().out
    corrupt(monkeypatch)
    assert cli.run(argv) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert out != intact

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import zetaroutes
from zetaroutes import abel
from zetaroutes.cli import (
    OutputRecord,
    bool_record,
    pi_record,
    rational_record,
    records_from_dicts,
    render,
    run,
)
from zetaroutes.exact import PiValue
from zetaroutes.numeric import zeta_em


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestZetaExact:
    def test_route_all_at_minus_one(self, capsys):
        code, out, _ = invoke(capsys, "zeta", "exact", "-1", "--route", "all")
        assert code == 0
        assert out.splitlines() == ["-1/12"] * 4

    def test_pole_reports_and_exits_2(self, capsys):
        for argv in (("1",), ("1", "--route", "all")):
            code, out, err = invoke(capsys, "zeta", "exact", *argv)
            assert code == 2
            assert "pole" in err

    def test_odd_positive_is_usage_error(self, capsys):
        for argv in (("3",), ("3", "--route", "all")):
            code, out, err = invoke(capsys, "zeta", "exact", *argv)
            assert code == 2
            assert out == ""
            assert err.startswith("error: ")

    def test_even_positive_all_routes_agree(self, capsys):
        code, out, _ = invoke(capsys, "zeta", "exact", "2", "--route", "all")
        assert code == 0
        assert out.splitlines() == ["1/6*pi^2"] * 2

    def test_inapplicable_route_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "zeta", "exact", "2", "--route", "abel")
        assert code == 2

    def test_as_float(self, capsys):
        code, out, _ = invoke(capsys, "zeta", "exact", "2", "--as-float")
        assert code == 0
        assert out.strip() == repr(PiValue(F(1, 6), 2).to_float())

    def test_route_all_pairwise_equal_over_classical_range(self, capsys):
        for k in list(range(-30, 1)) + list(range(2, 31, 2)):
            code, out, _ = invoke(capsys, "zeta", "exact", str(k), "--route", "all")
            assert code == 0
            lines = out.splitlines()
            assert len(lines) == (4 if k <= 0 else 2)
            assert len(set(lines)) == 1, f"routes disagree at {k}"


class TestAbel:
    def test_m2_prints_zero(self, capsys):
        code, out, _ = invoke(capsys, "abel", "2")
        assert code == 0
        assert out.strip() == "0"

    def test_numeric_oracle(self, capsys):
        code, out, _ = invoke(capsys, "abel", "3", "--numeric-oracle")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "-1/8"
        assert lines[2] == "pass"
        assert float(lines[1]) <= 1e-6


class TestBernoulli:
    def test_both_methods_agree(self, capsys):
        code, out, _ = invoke(capsys, "bernoulli", "--max", "8", "--method", "both")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 18
        assert lines[:9] == lines[9:]
        assert lines[1] == "-1/2"


class TestZetaNumeric:
    def test_both_methods_agree(self, capsys):
        code, out, _ = invoke(capsys, "zeta", "numeric", "0.5", "3")
        assert code == 0
        a, b = out.splitlines()
        za = complex(a)
        zb = complex(b)
        assert abs(za - zb) <= 1e-8

    def test_near_positive_integer_falls_back_to_em(self, capsys):
        # Near a positive integer Hankel refuses; at 0.5+20i it does not
        # converge, and at 0.5+1e4i it overflows. Each time --method both
        # prints the em record alone.
        cases = {
            ("2.0",): 1.6449340668482264,
            ("0.5", "20"): zeta_em(0.5 + 20j),
            ("0.5", "1e4"): zeta_em(0.5 + 1e4j),  # the Hankel sum is not finite
        }
        for argv, expected in cases.items():
            code, out, _ = invoke(capsys, "zeta", "numeric", *argv)
            assert code == 0
            lines = out.splitlines()
            assert len(lines) == 1  # hankel skipped, em only
            assert complex(lines[0]) == pytest.approx(expected, rel=1e-12)

    def test_hankel_overflow_prints_no_warning(self):
        # A fresh process shows what pytest's warning capture would hide:
        # numpy's overflow warnings once reached stderr here.
        src = os.path.dirname(os.path.dirname(zetaroutes.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "zetaroutes", "zeta", "numeric", "0.5", "1e4"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout == f"{zeta_em(0.5 + 1e4j)}\n"
        assert proc.stderr == ""

    def test_hankel_only_near_pole_is_error(self, capsys):
        for argv in (
            ("2.0", "--method", "hankel"),
            ("0.5", "20", "--method", "hankel"),  # QuadratureNotConverged
            ("-30",),  # em's OutOfValidatedRange after Hankel fails to converge
            ("1", "--method", "hankel"),
        ):
            code, _, err = invoke(capsys, "zeta", "numeric", *argv)
            assert code == 2
            assert err.startswith("error: ")

    def test_pole_at_one(self, capsys):
        for argv in (("1",), ("1", "--method", "em")):
            code, _, err = invoke(capsys, "zeta", "numeric", *argv)
            assert code == 2
            assert "pole" in err


class TestVerify:
    def test_funceq_exact_and_grid(self, capsys):
        code, out, _ = invoke(
            capsys,
            "verify", "funceq", "--exact-max", "4", "--grid", "0.1:0.9:0:10:3",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        kinds = {d["kind"] for d in data}
        assert kinds == {"boolean_check", "residual"}
        assert all(d["payload"] is True for d in data if d["kind"] == "boolean_check")
        assert all(d["payload"] <= 1e-9 for d in data if d["kind"] == "residual")

    def test_funceq_bad_grid_is_usage_error(self, capsys):
        for grid in ("1:2:3", "1:2:3:4:0"):
            code, _, err = invoke(capsys, "verify", "funceq", "--grid", grid)
            assert code == 2
            assert err.startswith("error: ")

    def test_cotangent(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "cotangent", "--x", "1/4", "--terms", "10000"
        )
        assert code == 0
        assert out.splitlines()[1] == "pass"

    def test_cotangent_bad_x(self, capsys):
        for x in ("5/4", "1"):
            code, _, err = invoke(capsys, "verify", "cotangent", "--x", x, "--terms", "10")
            assert code == 2
            assert err.startswith("error: ")

    def test_contour_inversion(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "contour-inversion", "--s", "-2.5", "--poles", "100000"
        )
        assert code == 0
        lines = out.splitlines()
        assert float(lines[0]) <= 1e-6
        assert lines[1] == "pass"

    def test_contour_inversion_precondition(self, capsys):
        for s in ("0.5", "-0.4"):
            code, _, err = invoke(
                capsys, "verify", "contour-inversion", "--s", s, "--poles", "10"
            )
            assert code == 2
            assert err.startswith("error: ")


class TestTable:
    def test_json_round_trip_is_byte_stable(self, capsys):
        code, out, _ = invoke(capsys, "table", "classical", "--max", "10")
        assert code == 0
        text = out.rstrip("\n")
        parsed = records_from_dicts(json.loads(text))
        assert render(parsed, "json") == text

    def test_csv_and_md(self, capsys):
        code, out_csv, _ = invoke(
            capsys, "table", "classical", "--max", "4", "--format", "csv"
        )
        assert code == 0
        assert out_csv.splitlines()[0] == "kind,argument,route,payload"
        code, out_md, _ = invoke(
            capsys, "table", "classical", "--max", "4", "--format", "md"
        )
        assert code == 0
        assert out_md.splitlines()[0].startswith("| kind |")


class TestConfigFile:
    def test_config_file_and_flag_override(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "zeta.cfg"
        cfg.write_text("em_terms_N = 50\nradius = 2.0\n# comment\n")
        monkeypatch.setenv("ZETAROUTES_CONFIG", str(cfg))
        code, out, _ = invoke(capsys, "zeta", "numeric", "0.5", "--method", "em")
        assert code == 0
        # flag overrides the file
        code2, out2, _ = invoke(
            capsys, "zeta", "numeric", "0.5", "--method", "em", "--em-n", "30"
        )
        assert code2 == 0
        assert abs(complex(out.strip()) - complex(out2.strip())) <= 1e-12

    def test_bad_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "zeta.cfg"
        # panels_ray is not a key: the quadrature rule is fixed
        for key, line in (("bogus", "bogus = 1"), ("panels_ray", "panels_ray = 32")):
            cfg.write_text(line + "\n")
            code, _, err = invoke(
                capsys, "zeta", "numeric", "0.5", "--config", str(cfg)
            )
            assert code == 2
            assert repr(key) in err


class TestRender:
    def test_empty_json(self):
        assert render([], "json") == "[]"

    def test_pi_monomial_json(self):
        rec = pi_record(PiValue(F(1, 6), 2), "closed", 2)
        data = json.loads(render([rec], "json"))
        assert data[0]["payload"] == {"coeff": "1/6", "pi_exp": 2}
        assert data[0]["kind"] == "exact_pi_monomial"

    def test_boolean_md_cell(self):
        rec = bool_record(True, "check", "x")
        assert "| pass |" in render([rec], "md")

    def test_kind_discipline(self):
        with pytest.raises(ValueError):
            OutputRecord("exact_rational", 0.5, "r", "a")
        with pytest.raises(ValueError):
            OutputRecord("residual", F(1, 2), "r", "a")
        with pytest.raises(ValueError):
            OutputRecord("mystery", 1, "r", "a")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render([rational_record(F(1), "r", "a")], "yaml")


def test_usage_error_exit_code(capsys):
    assert run(["no-such-command"]) == 2
    capsys.readouterr()
    for argv in (("bernoulli", "--max", "-1"), ("abel", "-1")):
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


# -- the exit contract ----------------------------------------------------------

# Each argv once ended in a traceback, a NaN message, or NaN printed with rc 0.
@pytest.mark.parametrize(
    "argv, reason",
    [
        (("zeta", "numeric", "inf"), "s = (inf+0j) is not finite"),
        (("zeta", "numeric", "nan"), "s = (nan+0j) is not finite"),
        (("zeta", "numeric", "1e300"), "zeta_em exceeds double precision"),
        (("zeta", "numeric", "0.5", "1e300"), "Dirichlet cutoff"),
        (("zeta", "numeric", "1.7e308", "1.7e308"), "|s| exceeds double precision"),
        (("zeta", "numeric", "0.5", "1e4", "--method", "hankel"), "not finite"),
        (("zeta", "numeric", "0.5", "250", "--method", "hankel"), "not finite"),
        (("zeta", "numeric", "0.5", "--x-max", "nan"), "x_max = nan is not finite"),
        (("zeta", "numeric", "0.5", "--tol", "nan"), "target_tol = nan is not finite"),
        (("zeta", "numeric", "0.5", "--em-n", "1000000000000"), "Dirichlet cutoff"),
        (("verify", "funceq", "--exact-max", "0", "--grid=0.5:0.5:1e3:1e3:1"),
         "funceq_residual exceeds double precision"),
        (("verify", "contour-inversion", "--s=-2", "--poles", "10"), "Gamma pole"),
        (("verify", "contour-inversion", "--s=-2.5,1e3", "--poles", "10"),
         "inverted_contour_check exceeds double precision"),
        (("verify", "cotangent", "--x", "1/4", "--terms", "1000000000000"),
         "n_terms = 1000000000000 exceeds 10^6"),
        (("verify", "contour-inversion", "--s", "-2.5", "--poles", "1000000000000"),
         "n_poles = 1000000000000 exceeds 10^6"),
    ],
)
def test_domain_error_exits_2(capsys, argv, reason):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert reason in err


def test_internal_inconsistency_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(abel, "abel_closed_form", lambda m: F(1, 8))
    code, out, err = invoke(capsys, "abel", "3")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


_NUMBERS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e300", "-1e300", "0", "1"]),
    st.floats(-50, 50).map(repr),
)
_SIZES = st.integers(-30, 30).map(str)
_COUNTS = st.one_of(st.integers(-2, 1000), st.just(10**12)).map(str)
_RATIONALS = st.one_of(
    st.sampled_from(["1/0", "0", "1", "1/4", "-1/3", "3/2", "x"]),
    st.fractions(-2, 2, max_denominator=50).map(str),
)
_FORMAT = st.lists(
    st.sampled_from(["--format=json", "--format=csv", "--format=md", "--as-float"]),
    max_size=2,
)


@st.composite
def _numeric_options(draw):
    options = []
    for flag, values in (
        ("--em-n", st.one_of(st.integers(-2, 1000), st.just(10**12)).map(str)),
        ("--em-j", st.integers(-1, 17).map(str)),
        ("--tol", _NUMBERS),
        ("--radius", _NUMBERS),
        ("--x-max", _NUMBERS),
    ):
        if draw(st.booleans()):
            options.append(f"{flag}={draw(values)}")
    return options


@st.composite
def _argv(draw):
    command = draw(
        st.sampled_from(
            ["bernoulli", "exact", "numeric", "abel", "funceq", "cotangent",
             "contour", "table"]
        )
    )
    opt = draw(_FORMAT)
    if command == "bernoulli":
        method = draw(st.sampled_from(["series", "recurrence", "both"]))
        return ["bernoulli", f"--max={draw(_SIZES)}", f"--method={method}", *opt]
    if command == "exact":
        route = draw(st.sampled_from(["closed", "residue", "genfun", "abel", "all"]))
        return ["zeta", "exact", f"--route={route}", *opt, "--", draw(_SIZES)]
    if command == "numeric":
        method = draw(st.sampled_from(["hankel", "em", "both"]))
        s = draw(st.lists(_NUMBERS, min_size=1, max_size=2))
        opt += draw(_numeric_options())
        return ["zeta", "numeric", f"--method={method}", *opt, "--", *s]
    if command == "abel":
        oracle = draw(st.sampled_from([[], ["--numeric-oracle"]]))
        return ["abel", *oracle, *opt, "--", draw(_SIZES)]
    if command == "funceq":
        grid = ":".join(draw(st.lists(_NUMBERS, min_size=4, max_size=4)))
        steps = draw(st.integers(0, 2))
        opt += draw(_numeric_options())
        return ["verify", "funceq", f"--exact-max={draw(st.integers(-1, 30))}",
                f"--grid={grid}:{steps}", f"--grid-tol={draw(_NUMBERS)}", *opt]
    if command == "cotangent":
        return ["verify", "cotangent", f"--x={draw(_RATIONALS)}",
                f"--terms={draw(_COUNTS)}", *opt]
    if command == "contour":
        s = ",".join(draw(st.lists(_NUMBERS, min_size=1, max_size=2)))
        opt += draw(_numeric_options())
        return ["verify", "contour-inversion", f"--s={s}",
                f"--poles={draw(_COUNTS)}", *opt]
    return ["table", "classical", f"--max={draw(_SIZES)}", *opt]


@settings(max_examples=200)
@given(_argv())
def test_fuzzed_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)  # nothing may escape
    assert code in (0, 1, 2)
    if code == 2:
        text = err.getvalue()
        assert text.startswith("usage:") or any(
            line.startswith("error: ") for line in text.splitlines()
        ), text

import json
from fractions import Fraction as F

import pytest

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
        code, out, err = invoke(capsys, "zeta", "exact", "1")
        assert code == 2
        assert "pole" in err

    def test_odd_positive_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "zeta", "exact", "3")
        assert code == 2

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
        # converge. Either way --method both prints the em record alone.
        cases = {
            ("2.0",): 1.6449340668482264,
            ("0.5", "20"): zeta_em(0.5 + 20j),
        }
        for argv, expected in cases.items():
            code, out, _ = invoke(capsys, "zeta", "numeric", *argv)
            assert code == 0
            lines = out.splitlines()
            assert len(lines) == 1  # hankel skipped, em only
            assert complex(lines[0]) == pytest.approx(expected, rel=1e-12)

    def test_hankel_only_near_pole_is_error(self, capsys):
        for argv in (
            ("2.0", "--method", "hankel"),
            ("0.5", "20", "--method", "hankel"),  # QuadratureNotConverged
            ("-30",),  # em's OutOfValidatedRange after Hankel fails to converge
        ):
            code, _, err = invoke(capsys, "zeta", "numeric", *argv)
            assert code == 2
            assert err.startswith("error: ")

    def test_pole_at_one(self, capsys):
        code, _, err = invoke(capsys, "zeta", "numeric", "1")
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
        code, _, err = invoke(capsys, "verify", "funceq", "--grid", "1:2:3")
        assert code == 2

    def test_cotangent(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "cotangent", "--x", "1/4", "--terms", "10000"
        )
        assert code == 0
        assert out.splitlines()[1] == "pass"

    def test_cotangent_bad_x(self, capsys):
        code, _, _ = invoke(capsys, "verify", "cotangent", "--x", "5/4", "--terms", "10")
        assert code == 2

    def test_contour_inversion(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "contour-inversion", "--s", "-2.5", "--poles", "100000"
        )
        assert code == 0
        lines = out.splitlines()
        assert float(lines[0]) <= 1e-6
        assert lines[1] == "pass"

    def test_contour_inversion_precondition(self, capsys):
        code, _, _ = invoke(
            capsys, "verify", "contour-inversion", "--s", "0.5", "--poles", "10"
        )
        assert code == 2


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

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import zetaroutes
from zetaroutes import abel, bernoulli, numeric, zeta_exact
from zetaroutes.cli import _FORMS, OutputRecord, render, run
from zetaroutes.exact import PiValue
from zetaroutes.numeric import zeta_em, zeta_hankel


def run_fresh(*argv):
    """The CLI in a fresh interpreter, so stderr shows what pytest's warning
    capture would hide."""
    src = os.path.dirname(os.path.dirname(zetaroutes.__file__))
    return subprocess.run(
        [sys.executable, "-m", "zetaroutes", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )


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

    def test_as_float_is_correctly_rounded(self, capsys):
        # pi^50 through the double math.pi once printed 0.9999999999999989,
        # and pi^622 overflowed although zeta(622) rounds to 1.0.
        for k, expected in (("50", "1.0000000000000009"), ("622", "1.0")):
            assert invoke(capsys, "zeta", "exact", k, "--as-float") == (0, expected + "\n", "")

    def test_funceq_route(self, capsys):
        code, out, _ = invoke(capsys, "zeta", "exact", "4", "--route", "funceq")
        assert (code, out) == (0, "1/90*pi^4\n")
        code, out, err = invoke(capsys, "zeta", "exact", "-3", "--route", "funceq")
        assert (code, out) == (2, "")
        assert err == "error: route funceq does not apply at argument -3\n"

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

    def test_both_exits_1_when_its_values_differ(self, capsys):
        # Hankel and em differ by about 1e-8 here (em is the one that is off):
        # more than their 1e-10 tolerances allow, so the check fails.
        code, out, err = invoke(capsys, "zeta", "numeric", "--", "-10", "3")
        assert code == 1
        assert out == f"{zeta_hankel(-10 + 3j)}\n{zeta_em(-10 + 3j)}\n"
        assert err == ""

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
        # numpy's overflow warnings once reached stderr here.
        proc = run_fresh("zeta", "numeric", "0.5", "1e4")
        assert proc.returncode == 0
        assert proc.stdout == f"{zeta_em(0.5 + 1e4j)}\n"
        assert proc.stderr == ""

    @pytest.mark.parametrize(
        "argv, error",
        [
            (("zeta", "numeric", "1.7e308", "--method", "em"),
             "zeta_em exceeds double precision at s = (1.7e+308+0j)"),
            (("verify", "contour-inversion", "--s=-1.7e308", "--poles", "10"),
             "inverted_contour_check exceeds double precision at s = (-1.7e+308+0j)"),
        ],
        ids=["em", "contour-inversion"],
    )
    def test_overflow_error_prints_no_warning(self, argv, error):
        proc = run_fresh(*argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: {error}\n"

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

    def test_config_variable_changes_nothing(self, capsys, tmp_path, monkeypatch):
        # The CLI once read numeric knobs from the file this variable names.
        cfg = tmp_path / "zeta.cfg"
        cfg.write_text("em_terms_N = 50\n")
        monkeypatch.delenv("ZETAROUTES_CONFIG", raising=False)
        unset = invoke(capsys, "zeta", "numeric", "0.5", "3")
        monkeypatch.setenv("ZETAROUTES_CONFIG", str(cfg))
        assert invoke(capsys, "zeta", "numeric", "0.5", "3") == unset
        assert unset[0] == 0


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

    @pytest.mark.parametrize("n", [0, 1, 15])
    def test_funceq_simple_restates_exact(self, capsys, n):
        # Euler's odd-argument form at m is the functional equation at 2m + 2.
        code, out, _ = invoke(capsys, "verify", "funceq", "--exact-max", str(n), "--format", "json")
        assert code == 0
        data = json.loads(out)
        exact, simple = data[:n], data[n:]
        assert [(d["route"], d["argument"]) for d in exact + simple] == [
            *(("funceq-exact", str(2 * m + 2)) for m in range(n)),
            *(("funceq-simple", str(m)) for m in range(n)),
        ]
        assert [d["payload"] for d in simple] == [d["payload"] for d in exact]

    def test_funceq_compares_each_pair_once(self, capsys, monkeypatch):
        calls = Counter()
        for name in ("zeta_even_positive", "zeta_even_via_funceq"):
            fn = getattr(zeta_exact, name)
            monkeypatch.setattr(
                zeta_exact, name, lambda n, fn=fn, name=name: calls.update([name]) or fn(n)
            )
        assert invoke(capsys, "verify", "funceq", "--exact-max", "50")[0] == 0
        assert calls == {"zeta_even_positive": 50, "zeta_even_via_funceq": 50}

    def test_funceq_builds_each_table_once(self, capsys, monkeypatch):
        # From the largest argument down, neither table grows by doubling.
        builds = []
        tables = (("_SERIES_PREFIX", "_series_table"), ("_TANGENT_PREFIX", "_tangent_table"))
        for prefix, name in tables:
            monkeypatch.setattr(bernoulli, prefix, [])
            build = getattr(bernoulli, name)
            monkeypatch.setattr(
                bernoulli, name,
                lambda n, build=build, name=name: builds.append((name, n)) or build(n),
            )
        assert invoke(capsys, "verify", "funceq", "--exact-max", "50")[0] == 0
        assert sorted(builds) == [("_series_table", 100), ("_tangent_table", 100)]

    @pytest.mark.parametrize("grid, code", [("-12:-8:20:30:3", 1), ("0.1:0.9:0:10:5", 0)])
    def test_funceq_grid_bound_is_fixed(self, capsys, grid, code):
        # zeta_em loses digits far left of Re s = 0, so the first grid's worst
        # residual is about 1e-1; it once passed with --grid-tol 1.
        assert invoke(capsys, "verify", "funceq", "--exact-max", "0", f"--grid={grid}")[0] == code

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
        # Past 5/4 and 1, x is outside the check's validated domain: near 0
        # and 1 its round-off would fail a true identity, and 1e-400 and
        # 1 - 1e-20 once raised ZeroDivisionError and printed inf.
        for x in ("5/4", "1", "1e-400", "1e-9", "0.0099", "0.9901", "0.99999999999999999999"):
            code, out, err = invoke(capsys, "verify", "cotangent", "--x", x, "--terms", "1000000")
            assert (code, out) == (2, "")
            assert err.startswith("error: ") and err.count("\n") == 1

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
        decode = {
            "exact_rational": F,
            "exact_pi_monomial": lambda p: PiValue(F(p["coeff"]), p["pi_exp"]),
        }
        parsed = [
            OutputRecord(decode[d["kind"]](d["payload"]), d["route"], d["argument"])
            for d in json.loads(text)
        ]
        assert {r.kind for r in parsed} == set(decode)
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


def stdlib_json(records):
    """The json form as json.dumps(rows, indent=2) lays it out."""
    rows = [
        {
            "kind": r.kind,
            "payload": _FORMS[type(r.payload)].json(r.payload),
            "route": r.route,
            "argument": r.argument,
        }
        for r in records
    ]
    return json.dumps(rows, indent=2)


def stdlib_csv(records):
    """The csv form with each payload cell written by json.dumps."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["kind", "argument", "route", "payload"])
    for r in records:
        payload = json.dumps(_FORMS[type(r.payload)].json(r.payload))
        writer.writerow([r.kind, r.argument, r.route, payload])
    return buf.getvalue().rstrip("\n")


# One or more payloads of every _FORMS type, at the edges of its json form.
EDGE_PAYLOADS = [
    F(-7, 12),
    bernoulli.bernoulli_via_series(200)[200],
    PiValue(F(-691, 638512875), 12),
    complex(-0.0, 1e-320),
    complex(1e308, -0.0),
    True,
    False,
    0.0,
    math.inf,
    math.nan,
]

payloads = st.one_of(
    st.fractions(),
    st.builds(PiValue, st.fractions().filter(bool), st.integers(1, 10**4)),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
)


class TestRender:
    def test_empty_json(self):
        assert render([], "json") == "[]" == stdlib_json([])

    def test_json_is_the_stdlib_layout(self):
        assert {type(p) for p in EDGE_PAYLOADS} == set(_FORMS)
        records = [OutputRecord(p, "route \"q\"\\", "arg \u00e9\n") for p in EDGE_PAYLOADS]
        for record in records:
            assert render([record], "json") == stdlib_json([record])
            assert render([record], "csv") == stdlib_csv([record])
        assert render(records, "json") == stdlib_json(records)
        assert render(records, "csv") == stdlib_csv(records)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.builds(OutputRecord, payloads, st.text(), st.text()), max_size=5))
    def test_json_is_the_stdlib_layout_for_any_records(self, records):
        assert render(records, "json") == stdlib_json(records)
        assert render(records, "csv") == stdlib_csv(records)

    def test_pi_monomial_json(self):
        rec = OutputRecord(PiValue(F(1, 6), 2), "closed", "2")
        data = json.loads(render([rec], "json"))
        assert data[0]["payload"] == {"coeff": "1/6", "pi_exp": 2}
        assert data[0]["kind"] == "exact_pi_monomial"

    def test_boolean_md_cell(self):
        rec = OutputRecord(True, "check", "x")
        assert "| pass |" in render([rec], "md")

    def test_kind_follows_payload(self):
        table = [
            (F(1, 2), "exact_rational"),
            (PiValue(F(1, 6), 2), "exact_pi_monomial"),
            (0.5 + 1j, "numeric_complex"),
            (True, "boolean_check"),
            (1e-13, "residual"),
        ]
        for payload, kind in table:
            assert OutputRecord(payload, "r", "a").kind == kind
        for payload in (1, "x"):
            with pytest.raises(ValueError, match="no record kind"):
                OutputRecord(payload, "r", "a")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render([OutputRecord(F(1), "r", "a")], "yaml")


def test_one_parser_answers_each_argv_as_a_fresh_process(capsys, monkeypatch):
    # run builds its parser once per process: a usage error, a command and
    # --help in turn each give the rc, stdout and stderr they give alone. The
    # last argv's long output, piped, shows that the exit after the first run's
    # gc.freeze() loses none of it.
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    for argv in (
        ["zeta", "exact", "x"],
        ["bernoulli", "--max", "4"],
        ["--help"],
        ["bernoulli", "--max", "400", "--method", "both", "--format", "json"],
    ):
        fresh = run_fresh(*argv)
        assert invoke(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_first_run_freezes_the_import_graph_once():
    # gc.get_freeze_count() is the size of the permanent generation. Importing
    # the package freezes nothing; the first run freezes, the second does not.
    script = """
import contextlib, gc, io
import zetaroutes
counts = [gc.get_freeze_count()]
import zetaroutes.cli as cli
counts.append(gc.get_freeze_count())
argv, out = ["zeta", "exact", "-1"], io.StringIO()
with contextlib.redirect_stdout(out):
    cli.run(argv)
    counts.append(gc.get_freeze_count())
    cli.run(argv)
    counts.append(gc.get_freeze_count())
print(*counts)
"""
    src = os.path.dirname(os.path.dirname(zetaroutes.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    before, imported, first, second = map(int, proc.stdout.split())
    assert before == imported == 0
    assert first > 0
    assert second == first


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize(
    "argv",
    [("zeta", "exact", "1"), ("zeta", "exact", "-3", "--route", "all"), ("bernoulli", "--max", "200")],
)
def test_closed_stdout_and_stderr_exit_2(argv, unbuffered):
    # Writing the error line to a closed stderr once raised inside the except
    # block, and the traceback exited 1 as if a check had failed; a buffered
    # stream then failed again at exit, with status 120.
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(zetaroutes.__file__))}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    (out_r, out_w), (err_r, err_w) = os.pipe(), os.pipe()
    os.close(out_r)
    os.close(err_r)  # both readers are gone before the command writes
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "zetaroutes", *argv],
            stdout=out_w,
            stderr=err_w,
            env=env,
            timeout=60,
        )
    finally:
        os.close(out_w)
        os.close(err_w)
    assert proc.returncode == 2


def test_usage_error_exit_code(capsys):
    assert run(["no-such-command"]) == 2
    capsys.readouterr()
    # The numeric tuning flags are gone; two of them once exited 0 unread. So
    # is --as-float where no exact value is printed, which was ignored there.
    for argv in (
        ("verify", "funceq", "--tol", "1e-3"),
        ("verify", "funceq", "--grid-tol", "nan"),
        ("verify", "contour-inversion", "--s", "-2.5", "--poles", "10", "--radius", "1"),
        ("zeta", "numeric", "0.5", "3", "--as-float"),
        ("verify", "funceq", "--exact-max", "2", "--as-float"),
        ("verify", "cotangent", "--x", "1/4", "--terms", "10", "--as-float"),
        ("verify", "contour-inversion", "--s", "-2.5", "--poles", "10", "--as-float"),
    ):
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err
    # Each argv after the first two once exited 0, or 1 as if a check had failed.
    for argv in (
        ("bernoulli", "--max", "-1"),
        ("abel", "-1"),
        ("verify", "funceq", "--exact-max", "-3"),
        ("verify", "contour-inversion", "--s=-2.5,1,junk", "--poles", "10"),
    ):
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
    # A malformed --grid number once surfaced as int()'s or float()'s message.
    for grid in ("0.1:0.9:0:1:2.5", "a:0.9:0:1:2"):
        code, out, err = invoke(capsys, "verify", "funceq", "--exact-max", "2", f"--grid={grid}")
        assert code == 2
        assert out == ""
        assert err == (
            f"error: --grid RE0:RE1:IM0:IM1:STEPS takes four numbers and an integer, "
            f"got {grid!r}\n"
        )


# -- the exit contract ----------------------------------------------------------

# Each argv once ended in a traceback, a NaN message, or NaN printed with rc 0.
@pytest.mark.parametrize(
    "argv, reason",
    [
        (("zeta", "numeric", "inf"), "s = (inf+0j) is not finite"),
        (("zeta", "numeric", "nan"), "s = (nan+0j) is not finite"),
        (("zeta", "numeric", "1e300"), "zeta_em exceeds double precision"),
        (("zeta", "numeric", "0.5", "1e300"), "Dirichlet cutoff"),
        (("zeta", "numeric", "1.7e308", "1.7e308", "--method", "hankel"),
         "|s| exceeds double precision"),
        (("zeta", "numeric", "0.5", "1e4", "--method", "hankel"), "not finite"),
        (("zeta", "numeric", "0.5", "250", "--method", "hankel"), "not finite"),
        (("verify", "funceq", "--exact-max", "0", "--grid=-1.7e308:-1.7e308:25:25:1"),
         "exceeds double precision at s = (-1.7e+308+25j)"),
        (("zeta", "numeric", "--method", "hankel", "--", "-1.7e308", "25"),
         "|s| exceeds double precision at s = (-1.7e+308+25j)"),
        (("zeta", "numeric", "0.5", "1e6", "--method", "em"), "Dirichlet cutoff"),
        (("verify", "funceq", "--exact-max", "0", "--grid=0.5:0.5:1e3:1e3:1"),
         "funceq_residual exceeds double precision"),
        (("verify", "contour-inversion", "--s=-2", "--poles", "10"), "Gamma pole"),
        (("verify", "contour-inversion", "--s=-2.5,1e3", "--poles", "10"),
         "inverted_contour_check exceeds double precision"),
        (("verify", "cotangent", "--x", "1/4", "--terms", "1000000000000"),
         "n_terms = 1000000000000 exceeds 10^6"),
        (("verify", "contour-inversion", "--s", "-2.5", "--poles", "1000000000000"),
         "n_poles = 1000000000000 exceeds 10^6"),
        # Hankel's domain error at this s falls back to em, which has its own.
        (("zeta", "numeric", "--", "-1.7e308", "25"), "needs more than 14 correction terms"),
        (("bernoulli", "--max", "260", "--as-float"),
         "B_260 (series route) exceeds double precision for --as-float"),
        (("table", "classical", "--max", "300", "--as-float"),
         "-299 (closed route) exceeds double precision for --as-float"),
        (("verify", "funceq", "--exact-max", "0", "--grid=0:1:0:1:1000000"),
         "grid STEPS = 1000000 gives more than 10^6 points"),
        (("verify", "funceq", "--exact-max", "0", "--grid=inf:1:0:1:2"),
         "--grid needs finite bounds, RE1-RE0 and IM1-IM0, got 'inf:1:0:1:2'"),
        (("verify", "funceq", "--exact-max", "0", "--grid=-1e308:1e308:0:0:3"),
         "--grid needs finite bounds, RE1-RE0 and IM1-IM0, got '-1e308:1e308:0:0:3'"),
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
    st.sampled_from(
        ["nan", "inf", "-inf", "1e300", "-1e300", "1.7e308", "-1.7e308", "0", "1"]
    ),
    st.floats(-50, 50).map(repr),
)
_SIZES = st.integers(-30, 30).map(str)
_COUNTS = st.one_of(st.integers(-2, 1000), st.sampled_from([10**4, 10**6, 10**12])).map(str)
_RATIONALS = st.one_of(
    st.sampled_from(["1/0", "0", "1", "1/4", "-1/3", "3/2", "x", "1e-400"]),
    st.fractions(-2, 2, max_denominator=50).map(str),
    # 10^-k and 1 - 10^-k: near 0 and 1, where the cotangent check's round-off
    # outgrows its bound
    st.integers(3, 20).flatmap(lambda k: st.sampled_from([f"1e-{k}", "0." + "9" * k])),
)
_FORMAT = st.lists(
    st.sampled_from(["--format=json", "--format=csv", "--format=md", "--as-float"]),
    max_size=2,
)


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
        route = draw(
            st.sampled_from(["closed", "residue", "genfun", "abel", "funceq", "all"])
        )
        return ["zeta", "exact", f"--route={route}", *opt, "--", draw(_SIZES)]
    if command == "numeric":
        method = draw(st.sampled_from((*numeric.ROUTES, "both")))
        s = draw(st.lists(_NUMBERS, min_size=1, max_size=2))
        return ["zeta", "numeric", f"--method={method}", *opt, "--", *s]
    if command == "abel":
        oracle = draw(st.sampled_from([[], ["--numeric-oracle"]]))
        return ["abel", *oracle, *opt, "--", draw(_SIZES)]
    if command == "funceq":
        grid = ":".join(draw(st.lists(_NUMBERS, min_size=4, max_size=4)))
        steps = draw(st.integers(0, 2))
        return ["verify", "funceq", f"--exact-max={draw(st.integers(-1, 30))}",
                f"--grid={grid}:{steps}", *opt]
    if command == "cotangent":
        return ["verify", "cotangent", f"--x={draw(_RATIONALS)}",
                f"--terms={draw(_COUNTS)}", *opt]
    if command == "contour":
        s = ",".join(draw(st.lists(_NUMBERS, min_size=1, max_size=2)))
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
    if argv[:2] == ["verify", "cotangent"]:
        assert code != 1  # a rational x passes the check or is refused
    if code == 2:
        text = err.getvalue()
        assert text.startswith("usage:") or any(
            line.startswith("error: ") for line in text.splitlines()
        ), text

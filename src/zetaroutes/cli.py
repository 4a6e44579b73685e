"""Command-line front end: every route, cross-check and table.

Each subcommand handler returns its records and its exit status; ``run``
renders the records as plain text (default), JSON, CSV or Markdown and
prints them. A record's kind, its JSON and text forms and its --as-float
conversion follow from its payload's type through one table, ``_FORMS``.
Exact values stay exact unless --as-float is passed. Exit status:
0 success and all checks passing; 1 a verification failed, the routes or
methods a command compares printed different values (numeric ones by more
than the sum of their stated tolerances), or an InternalInconsistency; 2 a
usage error, a DomainError, raised by the library function that owns the
domain (such as the pole at argument 1), or a closed stdout or stderr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import io
import json
import math
import os
import sys
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

from . import abel, numeric, zeta_exact
from .errors import DomainError, InternalInconsistency, OutOfValidatedRange, require_index
from .exact import PiValue
from .bernoulli import bernoulli_via_recurrence, bernoulli_via_series
from .numeric import cotangent_check, funceq_residual, inverted_contour_check
from .zeta_exact import (
    Route,
    funceq_exact_check,
    routes_for_argument,
    zeta_classical,
)


def _complex_text(z: complex) -> str:
    if z.imag == 0.0:
        return repr(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"({z.real!r}{sign}{abs(z.imag)!r}j)"


# How a payload type is shown; to_float is the --as-float conversion of an
# exact payload. The table holds no function the traced benchmark rebinds by
# name, since a reference kept here would bypass the rebinding.
_Form = namedtuple("_Form", "kind json text to_float")
_FORMS = {
    Fraction: _Form("exact_rational", str, str, float),
    PiValue: _Form("exact_pi_monomial", PiValue.to_json, str, PiValue.to_float),
    complex: _Form("numeric_complex", lambda z: {"re": z.real, "im": z.imag}, _complex_text, None),
    bool: _Form("boolean_check", lambda b: b, lambda b: "pass" if b else "fail", None),
    float: _Form("residual", lambda x: x, repr, None),
}


@dataclass(frozen=True)
class OutputRecord:
    payload: object
    route: str
    argument: str

    def __post_init__(self) -> None:
        if type(self.payload) not in _FORMS:
            raise ValueError(f"no record kind for a {type(self.payload).__name__} payload")

    @property
    def kind(self) -> str:
        return _FORMS[type(self.payload)].kind


# -- rendering ---------------------------------------------------------------


def _payload_json(record: OutputRecord):
    return _FORMS[type(record.payload)].json(record.payload)


def _payload_text(record: OutputRecord) -> str:
    return _FORMS[type(record.payload)].text(record.payload)


# json.dumps takes its C encoder only when indent is None, so render lays the
# records out as json.dumps(rows, indent=2) would and has the C encoder write
# each scalar, with the same escapes and float repr (NaN, Infinity included).
# With default arguments json.dumps is this encoder, which the csv form's
# payload cells use too.
_json_scalar = json.JSONEncoder().encode


def _json_payload(value) -> str:
    if type(value) is not dict:
        return _json_scalar(value)
    items = ",\n".join(f"      {_json_scalar(k)}: {_json_scalar(v)}" for k, v in value.items())
    return f"{{\n{items}\n    }}"


def _json_record(r: OutputRecord) -> str:
    return (
        f'  {{\n    "kind": {_json_scalar(r.kind)},\n'
        f'    "payload": {_json_payload(_payload_json(r))},\n'
        f'    "route": {_json_scalar(r.route)},\n'
        f'    "argument": {_json_scalar(r.argument)}\n  }}'
    )


def render(records, fmt: str = "plain") -> str:
    """Render records; JSON/CSV/Markdown are byte-stable for fixed inputs."""
    records = list(records)
    if fmt == "json":
        if not records:
            return "[]"
        return "[\n" + ",\n".join(map(_json_record, records)) + "\n]"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["kind", "argument", "route", "payload"])
        for r in records:
            writer.writerow(
                [r.kind, r.argument, r.route, _json_scalar(_payload_json(r))]
            )
        return buf.getvalue().rstrip("\n")
    if fmt == "md":
        lines = [
            "| kind | argument | route | payload |",
            "| --- | --- | --- | --- |",
        ]
        for r in records:
            lines.append(
                f"| {r.kind} | {r.argument} | {r.route} | {_payload_text(r)} |"
            )
        return "\n".join(lines)
    if fmt == "plain":
        return "\n".join(_payload_text(r) for r in records)
    raise ValueError(f"unknown format {fmt!r}")


def _floated(records) -> list[OutputRecord]:
    """Exact records become numeric ones (--as-float).

    A value beyond double range raises OutOfValidatedRange naming its argument.
    """
    out = []
    for r in records:
        to_float = _FORMS[type(r.payload)].to_float
        if to_float is not None:
            try:
                value = to_float(r.payload)
            except OverflowError:
                raise OutOfValidatedRange(
                    f"{r.argument} ({r.route} route) exceeds double precision for --as-float"
                ) from None
            r = OutputRecord(complex(value), r.route, r.argument)
        out.append(r)
    return out


# -- subcommand handlers: each returns (records, exit status) ------------------


def _agreement(values) -> int:
    """Exit status of a cross-route comparison: 1 unless all values are equal.

    Compared with ==, not by hash: hashing a Fraction costs a modular inverse.
    """
    values = list(values)
    return 0 if all(v == values[0] for v in values) else 1


def _cmd_bernoulli(args):
    tables = {"series": bernoulli_via_series, "recurrence": bernoulli_via_recurrence}
    names = tables if args.method == "both" else (args.method,)
    computed = {name: tables[name](args.max) for name in names}
    records = [
        OutputRecord(table[n], name, f"B_{n}")
        for name, table in computed.items()
        for n in range(args.max + 1)
    ]
    return records, _agreement(computed.values())


def _cmd_zeta_exact(args):
    k = args.argument
    routes = routes_for_argument(k) if args.route == "all" else (Route(args.route),)
    values = [zeta_classical(k, r) for r in routes]
    records = [OutputRecord(v, r.value, str(k)) for v, r in zip(values, routes)]
    return records, _agreement(values)


def _cmd_zeta_numeric(args):
    # Each route is looked up at call time, so a rebound zeta_<name> is the
    # one called; the exit is 1 when a value misses the reference's by more
    # than the routes' summed tolerance, relative to max(1, |reference|).
    s = complex(args.re, args.im)
    arg = _format_complex_arg(s)
    both = args.method == "both"
    records = []
    for name in numeric.ROUTES if both else (args.method,):
        try:
            records.append(OutputRecord(getattr(numeric, f"zeta_{name}")(s), name, arg))
        except DomainError:
            if not both or name == [*numeric.ROUTES][-1]:
                raise  # with "both", the reference record stands alone
    ref = records[-1].payload
    tol = 2 * numeric.ROUTE_TOL * max(1.0, abs(ref))
    return records, 0 if all(abs(r.payload - ref) <= tol for r in records) else 1


def _residual_check(residual: float, bound: float, route: str, argument: str):
    """The residual and pass/fail records of one check, and its exit status."""
    passed = residual <= bound
    records = [OutputRecord(r, route, argument) for r in (residual, passed)]
    return records, 0 if passed else 1


def _cmd_abel(args):
    exact = abel.abel_sum_exact(args.m)
    closed = abel.abel_closed_form(args.m)
    if exact != closed:
        raise InternalInconsistency(
            f"operator route gave {exact}, closed form gave {closed} at m={args.m}"
        )
    records = [OutputRecord(exact, "abel", str(args.m))]
    status = 0
    if args.numeric_oracle:
        diff = abs(abel.abel_numeric_estimate(args.m) - float(exact))
        checked, status = _residual_check(diff, 1e-6, "abel-numeric", str(args.m))
        records += checked
    return records, status


_MAX_GRID_STEPS = 1000  # STEPS^2 <= 10^6 points, numeric's cap on the terms of a sum


def _parse_grid(spec: str):
    parts = spec.split(":")
    if len(parts) != 5:
        raise ValueError("grid must be RE0:RE1:IM0:IM1:STEPS")
    try:
        re0, re1, im0, im1 = map(float, parts[:4])
        steps = int(parts[4])
    except ValueError:
        raise ValueError(
            f"--grid RE0:RE1:IM0:IM1:STEPS takes four numbers and an integer, got {spec!r}"
        ) from None
    if require_index("grid STEPS", steps, least=1) > _MAX_GRID_STEPS:
        raise OutOfValidatedRange(f"grid STEPS = {steps} gives more than 10^6 points")
    if not all(map(math.isfinite, (re0, re1, im0, im1, re1 - re0, im1 - im0))):
        raise OutOfValidatedRange(
            f"--grid needs finite bounds, RE1-RE0 and IM1-IM0, got {spec!r}"
        )
    points = []
    for i in range(steps):
        fr = i / (steps - 1) if steps > 1 else 0.0
        for j in range(steps):
            fi = j / (steps - 1) if steps > 1 else 0.0
            points.append(complex(re0 + fr * (re1 - re0), im0 + fi * (im1 - im0)))
    return points


def _format_complex_arg(s: complex) -> str:
    if s.imag == 0:
        return repr(s.real)
    return f"{s.real!r},{s.imag!r}"


# The bound on each funceq residual of --grid. zeta_em, read at s and 1 - s,
# meets it only within about -3 <= Re s <= 4 for |Im s| <= 100 (see README).
_GRID_TOL = 1e-9


def _cmd_verify_funceq(args):
    require_index("--exact-max", args.exact_max)
    grid = _parse_grid(args.grid) if args.grid else []
    # Largest first, so each Bernoulli table grows once, not by doubling.
    exact = [funceq_exact_check(2 * n) for n in range(args.exact_max, 0, -1)][::-1]
    records = [OutputRecord(p, "funceq-exact", str(2 * n)) for n, p in enumerate(exact, 1)]
    # Euler's odd-argument form at m is the same comparison as s = 2m + 2.
    records += [OutputRecord(p, "funceq-simple", str(m)) for m, p in enumerate(exact)]
    ok = all(exact)
    for s in grid:
        res = funceq_residual(s)
        ok &= res <= _GRID_TOL
        records.append(OutputRecord(res, "funceq-residual", _format_complex_arg(s)))
    return records, 0 if ok else 1


def _cmd_verify_cotangent(args):
    try:
        x = Fraction(args.x)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--x must be a rational like 1/4, got {args.x!r}") from None
    return _residual_check(*cotangent_check(x, args.terms), "cotangent", str(x))


def _cmd_verify_contour_inversion(args):
    try:
        s = complex(*map(float, args.s.split(",")))  # a third field is a TypeError
    except (ValueError, TypeError):
        raise ValueError(f"--s must be RE or RE,IM, got {args.s!r}") from None
    return _residual_check(
        *inverted_contour_check(s, args.poles), "contour-inversion", _format_complex_arg(s)
    )


def _cmd_table_classical(args):
    require_index("--max", args.max)
    closed = Route.CLOSED_FORM
    records = [
        OutputRecord(zeta_classical(k, closed), closed.value, str(k))
        for k in (*range(-args.max, 1), *range(2, args.max + 1, 2))
    ]
    return records, 0


# -- parser --------------------------------------------------------------------


def _add_format_options(p, default="plain", exact=False) -> None:
    """--format, and --as-float where the command prints exact values."""
    p.add_argument(
        "--format",
        choices=("plain", "json", "csv", "md"),
        default=default,
        help="output rendering (default %(default)s)",
    )
    if exact:
        p.add_argument(
            "--as-float",
            action="store_true",
            help="render exact values as floats (exactness is the product; off by default)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetaroutes",
        description="Classical zeta values by independent exact routes, "
        "numeric continuation by Hankel-contour quadrature, and cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bernoulli", help="Bernoulli number table")
    p.add_argument("--max", type=int, required=True, help="largest index")
    p.add_argument(
        "--method", choices=("series", "recurrence", "both"), default="series"
    )
    _add_format_options(p, exact=True)
    p.set_defaults(func=_cmd_bernoulli)

    zeta = sub.add_parser("zeta", help="zeta values, exact or numeric")
    zsub = zeta.add_subparsers(dest="zeta_command", required=True)

    p = zsub.add_parser("exact", help="exact classical value (K <= 0 or even K >= 2)")
    p.add_argument("argument", type=int, metavar="K")
    p.add_argument(
        "--route",
        choices=(*(r.value for r in zeta_exact.ROUTES), "all"),
        default="closed",
    )
    _add_format_options(p, exact=True)
    p.set_defaults(func=_cmd_zeta_exact)

    p = zsub.add_parser("numeric", help="numeric zeta at complex s")
    p.add_argument("re", type=float, metavar="RE")
    p.add_argument("im", type=float, nargs="?", default=0.0, metavar="IM")
    p.add_argument("--method", choices=(*numeric.ROUTES, "both"), default="both")
    _add_format_options(p)
    p.set_defaults(func=_cmd_zeta_numeric)

    p = sub.add_parser("abel", help="Abel sum of 1^M - 2^M + 3^M - ...")
    p.add_argument("m", type=int, metavar="M")
    p.add_argument(
        "--numeric-oracle",
        action="store_true",
        help="also run the Richardson-extrapolated numeric limit (M <= 8)",
    )
    _add_format_options(p, exact=True)
    p.set_defaults(func=_cmd_abel)

    verify = sub.add_parser("verify", help="identity checks")
    vsub = verify.add_subparsers(dest="verify_command", required=True)

    p = vsub.add_parser("funceq", help="functional equation, exact and numeric")
    p.add_argument("--exact-max", type=int, default=15)
    p.add_argument("--grid", help="numeric residual grid RE0:RE1:IM0:IM1:STEPS")
    _add_format_options(p)
    p.set_defaults(func=_cmd_verify_funceq)

    p = vsub.add_parser("cotangent", help="partial-fraction cotangent identity")
    p.add_argument("--x", required=True, help="rational in [1/100, 99/100], e.g. 1/4")
    p.add_argument("--terms", type=int, required=True)
    _add_format_options(p)
    p.set_defaults(func=_cmd_verify_cotangent)

    p = vsub.add_parser("contour-inversion", help="inside-out residue sum check")
    p.add_argument("--s", required=True, help="RE or RE,IM with RE <= -0.5")
    p.add_argument("--poles", type=int, required=True)
    _add_format_options(p)
    p.set_defaults(func=_cmd_verify_contour_inversion)

    table = sub.add_parser("table", help="value tables")
    tsub = table.add_subparsers(dest="table_command", required=True)
    p = tsub.add_parser("classical", help="all classical values up to |K| <= M")
    p.add_argument("--max", type=int, required=True)
    _add_format_options(p, default="json", exact=True)
    p.set_defaults(func=_cmd_table_classical)

    return parser


# Built on the first run, not at import, and reused by every later run.
_parser = functools.cache(build_parser)
_freeze_once = functools.cache(gc.freeze)

# Exit status by the first matching class; ValueError includes DomainError.
EXIT_CODES = {InternalInconsistency: 1, ValueError: 2, OSError: 2}


def run(argv) -> int:
    """Run one command, print its records and return its exit status.

    The first call in a process builds the parser and then calls
    ``gc.freeze()``: everything alive at that point (numpy, this package, the
    parser) moves to the permanent generation. No later collection walks that
    graph again, and at exit the interpreter no longer collects it object by
    object. The cost falls on a process that embeds ``run``: cyclic garbage
    that exists before its first call is never collected.
    """
    parser = _parser()
    _freeze_once()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        records, status = args.func(args)
        if getattr(args, "as_float", False):
            records = _floated(records)
        print(render(records, args.format), flush=True)  # a closed stdout raises here
        return status
    except tuple(EXIT_CODES) as exc:
        try:
            print(f"error: {exc}", file=sys.stderr)
        except OSError:
            pass  # stderr is closed too: the exit status alone reports the error
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))


def main() -> None:
    status = run(sys.argv[1:])
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:  # a closed pipe: drop what is left, so exit cannot fail on it
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    sys.exit(status)

"""One benchmark sample in a fresh interpreter.

    python child.py cli TRACE ARGV...   run one CLI command, like
                                        ``python -m zetaroutes ARGV...``
    python child.py job TRACE           run the JSON job read from stdin

TRACE is 0 or 1. In the ``cli`` form stdout belongs to the command. Either
form reports on stderr, as its last line: ``REPORT_MARK`` and one JSON
object with ``t_imported`` (``time.perf_counter`` right after the package
import; on Linux that clock is CLOCK_MONOTONIC, shared by all processes),
``rss_mb`` and, when traced, the span summary under ``layers``.
"""

import sys
from time import perf_counter

REPORT_MARK = "PERFBENCH-REPORT "


def _report(payload: dict, tracer) -> None:
    import json
    import resource

    payload["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    payload["layers"] = tracer.summary() if tracer is not None else None
    sys.stderr.write(REPORT_MARK + json.dumps(payload) + "\n")
    sys.stderr.flush()


def _tracer(trace: bool):
    if not trace:
        return None
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def run_cli(trace: bool, argv: list[str]) -> int:
    import zetaroutes.cli as cli

    t_imported = perf_counter()
    tracer = _tracer(trace)
    rc = cli.run(argv)
    sys.stdout.flush()
    _report({"t_imported": t_imported, "rc": rc}, tracer)
    return rc


def _cli_job(cli, commands) -> tuple[list, list]:
    import contextlib
    import io

    op_s, outputs = [], []
    for argv in commands:
        buf = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.run(argv)
        except Exception as exc:  # an escaping error fails this operation only
            rc = type(exc).__name__
        op_s.append(perf_counter() - t0)
        outputs.append([rc, buf.getvalue()])
    return op_s, outputs


def _grid_job(numeric, points) -> tuple[list, list]:
    em, hankel = numeric.zeta_em, numeric.zeta_hankel
    op_s, outputs = [], []
    for re, im in points:
        s = complex(re, im)
        row = []
        t0 = perf_counter()
        for fn in (em, hankel):
            try:
                v = fn(s)
                row.append([v.real, v.imag])
            except Exception as exc:  # a raising route fails this call only
                row.append(type(exc).__name__)
        op_s.append(perf_counter() - t0)
        outputs.append(row)
    return op_s, outputs


def run_job(trace: bool, job: dict) -> int:
    import zetaroutes

    if job["kind"] == "cli":
        import zetaroutes.cli
    t_imported = perf_counter()
    tracer = _tracer(trace)
    t0 = perf_counter()
    if job["kind"] == "cli":
        op_s, outputs = _cli_job(zetaroutes.cli, job["commands"])
    else:
        if tracer is None:
            import warnings

            warnings.simplefilter("ignore", RuntimeWarning)
        op_s, outputs = _grid_job(zetaroutes.numeric, job["points"])
    wall_s = perf_counter() - t0
    _report(
        {"t_imported": t_imported, "wall_s": wall_s, "op_s": op_s, "outputs": outputs},
        tracer,
    )
    return 0


def main() -> int:
    mode, trace = sys.argv[1], sys.argv[2] == "1"
    if mode == "cli":
        return run_cli(trace, sys.argv[3:])
    import json

    return run_job(trace, json.load(sys.stdin))


if __name__ == "__main__":
    sys.exit(main())

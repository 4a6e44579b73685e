#!/usr/bin/env python3
"""Compare the numeric bits and the exact output of two source trees.

    python3 scripts/tree_diff.py OLD_ROOT NEW_ROOT [--seeds 0-9] [--max N]

Each root is a checkout of this repository. Each tree runs once, in its own
interpreter with PYTHONPATH=ROOT/src, and reports two halves:

- numeric: zeta_<name> for every name in that tree's own numeric.ROUTES,
  as float.hex of the real and imaginary parts or, for an exception, its
  class and message (`Class: message`). It runs at the benchmark's
  numeric_grid points of every seed (read from this repository's
  perfbench/workloads.py); at 32 fixed `far` points beyond the grid's
  |Im s| <= 1e4 (Re s in {0, 0.5, 1.5, 3} at 8 log-spaced |Im s| from 1e4
  to 5e5); and at 30 fixed `edge` points: on each side of every static
  bound that numeric.ROUTES declares (1 +- 9e-7 and 1 +- 1.1e-6; k +- 0.0999
  and k +- 0.1001 for k = 1..4, and 2 + 0.0999i; -27 and -26.999;
  0.5 + 1e4 i and 0.5 + 1.0001e4 i); at 2.6e11 and 2.62e11, on each side of
  where zeta_em's rising product overflows while N^{-s-1} underflows to 0;
  and at 2^53 and +-1e300, where every double is an integer;
- exact: the sha256 of repr(bernoulli._series_table(n)) and of
  repr(bernoulli._tangent_table(n)) for every n <= 64 and at n = N, and the
  exit status and the sha256 of stdout and of stderr of these commands,
  run in order through cli.run in one process: ``bernoulli --max N
  --method both``, ``table classical --max N/2``, ``zeta exact K --route
  all`` for every classical K with |K| <= 60, ``abel M`` for M = 0, 3 and
  60, ``abel 8 --numeric-oracle``, ``verify funceq --exact-max N/4``, and
  the identity checks ``verify contour-inversion`` (s = -2.5 at 10^5
  poles, -0.5-2i at 10^3, and the refusals -2 and -27.5) and ``verify
  cotangent`` (x = 1/4 and 1/3 at 10^4 terms, and the refusal 1/1000),
  each with ``--format json``.

It prints every outcome that differs between the trees and names every
route that only one of them has, then one summary line per half. It exits
0 if no outcome differs, 1 if one does, and 2 if a tree cannot run them.
--seeds takes N, A-B or a comma list of either; N defaults to 400.
"""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CLASSICAL = (*range(-60, 1), *range(2, 61, 2))
CONTOUR = (("-2.5", "100000"), ("-0.5,-2", "1000"), ("-2", "10"), ("-27.5", "10"))
FAR = tuple(complex(re, 1e4 * 50 ** (i / 7)) for re in (0.0, 0.5, 1.5, 3.0) for i in range(8))
EDGE = tuple(map(complex, (
    *(1 + d for d in (-1.1e-6, -9e-7, 9e-7, 1.1e-6)),
    *(k + d for k in range(1, 5) for d in (-0.1001, -0.0999, 0.0999, 0.1001)),
    2 + 0.0999j,
    -27.0,
    -26.999,
    0.5 + 1e4j,
    0.5 + 1.0001e4j,
    2.6e11,
    2.62e11,
    2.0**53,
    1e300,
    -1e300,
)))

# Runs in the tree's interpreter: the work arrives on stdin as JSON, and goes
# out as {"numeric": {route: [outcome per point]}, "exact": [outcome per item]},
# an exact outcome being "<exit status> <sha256 of stdout> <sha256 of stderr>"
# ("- <sha256 of the repr>" for a table).
CHILD = """
import contextlib, hashlib, io, json, sys
from pathlib import Path
import numpy as np
from zetaroutes import bernoulli, cli, numeric
root = Path(sys.argv[1]).resolve()
if root not in Path(numeric.__file__).resolve().parents:
    sys.exit(f"imported {numeric.__file__}, not the tree at {root}")
work = json.load(sys.stdin)

def outcome(route, s):
    try:
        with np.errstate(all="ignore"):
            z = route(s)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return f"{z.real.hex()} {z.imag.hex()}"

def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()

points = [complex(float.fromhex(re), float.fromhex(im)) for re, im in work["points"]]
out = {"numeric": {}, "exact": []}
for name in numeric.ROUTES:
    route = getattr(numeric, f"zeta_{name}")
    out["numeric"][name] = [outcome(route, s) for s in points]
for name, order in work["tables"]:
    out["exact"].append("- " + digest(repr(getattr(bernoulli, name)(order))))
for argv in work["commands"]:
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        with contextlib.redirect_stderr(io.StringIO()) as stderr:
            code = cli.run(argv)
    out["exact"].append(f"{code} {digest(stdout.getvalue())} {digest(stderr.getvalue())}")
json.dump(out, sys.stdout)
"""


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def numeric_points(seeds: list[int]) -> list[tuple[str, complex]]:
    """(where, s): the grid points of every seed, then the far and the edge
    points."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    grid = [(f"seed {seed} {region}", s) for seed in seeds for region, s in workloads.grid_points(seed)]
    return grid + [("far", s) for s in FAR] + [("edge", s) for s in EDGE]


def exact_items(n: int) -> dict[str, list]:
    orders = sorted({*range(65), n})
    commands = [
        ["bernoulli", "--max", str(n), "--method", "both"],
        ["table", "classical", "--max", str(n // 2)],
        *(["zeta", "exact", str(k), "--route", "all"] for k in CLASSICAL),
        *(["abel", m] for m in ("0", "3", "60")),
        ["abel", "8", "--numeric-oracle"],
        ["verify", "funceq", "--exact-max", str(n // 4)],
        *(["verify", "contour-inversion", f"--s={s}", "--poles", poles] for s, poles in CONTOUR),
        *(["verify", "cotangent", "--x", x, "--terms", "10000"] for x in ("1/4", "1/3", "1/1000")),
    ]
    return {
        "tables": [[name, order] for name in ("_series_table", "_tangent_table") for order in orders],
        "commands": [[*argv, "--format", "json"] for argv in commands],
    }


def outcomes(root: Path, work: dict) -> dict:
    """The numeric and the exact outcomes of `root`."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(root)],
        input=json.dumps(work),
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        check=False,
    )
    if proc.returncode != 0:
        print(f"{root}: the routes did not run:\n{proc.stderr}", file=sys.stderr)
        sys.exit(2)
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-9"))
    parser.add_argument("--max", type=int, default=400, dest="n")
    args = parser.parse_args()
    if args.n < 0:
        parser.error("--max must be >= 0")

    points = numeric_points(args.seeds)
    items = exact_items(args.n)
    work = {"points": [[s.real.hex(), s.imag.hex()] for _, s in points], **items}
    old, new = (outcomes(root.resolve(), work) for root in (args.old, args.new))

    routes = [name for name in old["numeric"] if name in new["numeric"]]
    for root, tree in ((args.old, old), (args.new, new)):
        for name in sorted(tree["numeric"].keys() - set(routes)):
            print(f"zeta_{name}: only in {root}, not compared")
    names = [f"{name}({order})" for name, order in items["tables"]]
    names += [" ".join(argv) for argv in items["commands"]]
    rows = [  # (half: 0 numeric, 1 exact, label, old outcome, new outcome)
        (0, f"{where} s = {s!r} zeta_{name}", old["numeric"][name][i], new["numeric"][name][i])
        for i, (where, s) in enumerate(points)
        for name in routes
    ] + [(1, *row) for row in zip(names, old["exact"], new["exact"])]
    differ = [0, 0]
    for half, label, a, b in rows:
        if a != b:
            differ[half] += 1
            print(f"{label}: {a} -> {b}")
    seeds = ",".join(map(str, args.seeds))
    total = len(points) * len(routes)
    print(f"{differ[0]} of {total} numeric outcomes differ (seeds {seeds}, far, edge)")
    print(f"{differ[1]} of {len(names)} exact items differ (--max {args.n})")
    return 1 if any(differ) else 0


if __name__ == "__main__":
    sys.exit(main())

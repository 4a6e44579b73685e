#!/usr/bin/env python3
"""Compare the exact tables and the exact CLI output of two source trees.

    python3 scripts/exact_diff.py OLD_ROOT NEW_ROOT [--max N]

Each root is a checkout of this repository. Each tree runs in its own
interpreter with PYTHONPATH=ROOT/src and reports, item by item:

- the sha256 of repr(bernoulli._series_table(n)) and of
  repr(bernoulli._tangent_table(n)) for every n <= 64 and at n = N;
- the exit status and the sha256 of stdout of these commands, run in order
  through cli.run in one process: ``bernoulli --max N --method both``,
  ``table classical --max N/2``, ``zeta exact K --route all`` for every
  classical K with |K| <= 60, and ``verify funceq --exact-max N/4``, each
  with ``--format json``.

It prints every item whose exit status or output differs between the two
trees, then the count of items that differ. It exits 0 if none does, 1 if
one does, and 2 if a tree cannot run them. N defaults to 400.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

CLASSICAL = (*range(-60, 1), *range(2, 61, 2))

# Runs in the tree's interpreter: the items arrive on stdin as JSON, and one
# outcome per item goes out as JSON, "<exit status> <sha256 of the output>"
# ("-" for the status of a table).
CHILD = """
import contextlib, hashlib, io, json, sys
from pathlib import Path
from zetaroutes import bernoulli, cli
root = Path(sys.argv[1]).resolve()
if root not in Path(cli.__file__).resolve().parents:
    sys.exit(f"imported {cli.__file__}, not the tree at {root}")
items = json.load(sys.stdin)
out = []
for name, order in items["tables"]:
    text = repr(getattr(bernoulli, name)(order))
    out.append("- " + hashlib.sha256(text.encode()).hexdigest())
for argv in items["commands"]:
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = cli.run(argv)
    out.append(f"{code} " + hashlib.sha256(stdout.getvalue().encode()).hexdigest())
json.dump(out, sys.stdout)
"""


def items(n: int) -> dict:
    orders = sorted({*range(65), n})
    commands = [
        ["bernoulli", "--max", str(n), "--method", "both"],
        ["table", "classical", "--max", str(n // 2)],
        *(["zeta", "exact", str(k), "--route", "all"] for k in CLASSICAL),
        ["verify", "funceq", "--exact-max", str(n // 4)],
    ]
    return {
        "tables": [[name, order] for name in ("_series_table", "_tangent_table") for order in orders],
        "commands": [[*argv, "--format", "json"] for argv in commands],
    }


def item_names(work: dict) -> list[str]:
    return [f"{name}({order})" for name, order in work["tables"]] + [
        " ".join(argv) for argv in work["commands"]
    ]


def outcomes(root: Path, work: dict) -> list[str]:
    """Per item, its exit status and output digest, from `root`."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(root)],
        input=json.dumps(work),
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        check=False,
    )
    if proc.returncode != 0:
        print(f"{root}: the exact items did not run:\n{proc.stderr}", file=sys.stderr)
        sys.exit(2)
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--max", type=int, default=400, dest="n")
    args = parser.parse_args()
    if args.n < 0:
        parser.error("--max must be >= 0")

    work = items(args.n)
    old, new = (outcomes(root.resolve(), work) for root in (args.old, args.new))
    differ = 0
    for name, a, b in zip(item_names(work), old, new):
        if a != b:
            differ += 1
            print(f"{name}: {a} -> {b}")
    print(f"{differ} of {len(old)} items differ (--max {args.n})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

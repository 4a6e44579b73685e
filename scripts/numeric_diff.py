#!/usr/bin/env python3
"""Compare the numeric routes of two source trees bit for bit.

    python3 scripts/numeric_diff.py OLD_ROOT NEW_ROOT [--seeds 0-9]

Each root is a checkout of this repository. The script draws the benchmark's
numeric_grid points for every seed (read from this repository's
perfbench/workloads.py) and evaluates zeta_em and zeta_hankel at each of them
once per tree, each tree in its own interpreter with PYTHONPATH=ROOT/src. It
prints every point where the two trees give different bits (float.hex of the
real and imaginary parts) or raise different exception classes, then the
count of outcomes that differ. It exits 0 if none does, 1 if one does, and 2
if a tree cannot run the routes. --seeds takes N, A-B or a comma list of
either.
"""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROUTES = ("zeta_em", "zeta_hankel")

# Runs in the tree's interpreter: points arrive on stdin as float.hex pairs,
# and one outcome per point and route goes out as JSON.
CHILD = """
import json, sys
from pathlib import Path
import numpy as np
from zetaroutes import numeric
root = Path(sys.argv[1]).resolve()
if root not in Path(numeric.__file__).resolve().parents:
    sys.exit(f"imported {numeric.__file__}, not the tree at {root}")
out = []
for re, im in json.load(sys.stdin):
    s = complex(float.fromhex(re), float.fromhex(im))
    row = []
    for name in %r:
        try:
            with np.errstate(all="ignore"):
                z = getattr(numeric, name)(s)
        except Exception as exc:
            row.append(type(exc).__name__)
        else:
            row.append(f"{z.real.hex()} {z.imag.hex()}")
    out.append(row)
json.dump(out, sys.stdout)
""" % (ROUTES,)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def grid_points(seeds: list[int]) -> list[tuple[int, str, complex]]:
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [(seed, region, s) for seed in seeds for region, s in workloads.grid_points(seed)]


def outcomes(root: Path, points: list[complex]) -> list[list[str]]:
    """Per point, each route's value bits or exception class, from `root`."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(root)],
        input=json.dumps([[s.real.hex(), s.imag.hex()] for s in points]),
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        check=False,
    )
    if proc.returncode != 0:
        print(f"{root}: the numeric routes did not run:\n{proc.stderr}", file=sys.stderr)
        sys.exit(2)
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-9"))
    args = parser.parse_args()

    points = grid_points(args.seeds)
    old, new = (outcomes(root.resolve(), [s for _, _, s in points]) for root in (args.old, args.new))
    differ = 0
    for (seed, region, s), old_row, new_row in zip(points, old, new):
        for name, a, b in zip(ROUTES, old_row, new_row):
            if a != b:
                differ += 1
                print(f"seed {seed} {region} s = {s!r} {name}: {a} -> {b}")
    seeds = ",".join(map(str, args.seeds))
    print(f"{differ} of {len(points) * len(ROUTES)} outcomes differ (seeds {seeds})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

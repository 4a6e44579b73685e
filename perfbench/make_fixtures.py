"""Regenerate the committed fixtures from the code in this checkout.

    python3 perfbench/make_fixtures.py

Writes ``fixtures/golden_cli.json`` (rc and stdout of every CLI command any
seed can run, each in a fresh interpreter) and ``fixtures/reference_seed0.json``
(mpmath zeta at the reference seed's grid, 30 digits). The fixtures pin the
seed code's output; regenerate them only on purpose, because every later
run is checked against them.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import checks
import workloads
from run import CHILD, child_env


def main() -> int:
    root = Path.cwd()
    env = child_env(root)
    golden = {}
    for argv in workloads.all_cli_commands():
        proc = subprocess.run(
            [sys.executable, CHILD, "cli", "0", *argv],
            capture_output=True, cwd=root, env=env, timeout=300, check=False,
        )
        golden[checks.command_key(argv)] = {"rc": proc.returncode, "stdout": proc.stdout.decode("utf-8")}
    checks.FIXTURES.mkdir(exist_ok=True)
    with open(checks.GOLDEN_FILE, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")

    points = [s for _, s in workloads.grid_points(checks.REFERENCE_SEED)]
    refs = checks.compute_references(points)
    fixture = {
        "seed": checks.REFERENCE_SEED,
        "dps": checks.REFERENCE_DPS,
        "columns": ["re", "im", "zeta_re", "zeta_im"],
        "points": [[s.real, s.imag, r.real, r.imag] for s, r in zip(points, refs)],
    }
    with open(checks.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(fixture, fh, indent=0)
        fh.write("\n")
    print(f"{len(golden)} golden outputs, {len(points)} reference values")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run perfbench on two checkouts in alternating pairs and write the record.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR \\
        --pairs table_sweep=10 cold_cli=5 numeric_grid=5 --seconds 40 \\
        [--seed N] --out BENCH_6.json

Each checkout is a git clone of the commit to measure. For every workload,
pair i runs `python3 perfbench/run.py --workload W --seed N --seconds S` in
both checkouts, the parent first in even pairs and the change first in odd ones,
one run at a time. The record keeps each run's last two stdout lines
unedited: the result under the side's name and, under `<side>_info`, the info
line before it, which holds the run's `host_factor`. It also keeps both
commit hashes, whether PYTHONDONTWRITEBYTECODE was set in the environment
each side ran with (a fresh clone then compiles the package in every cold
process, so cold figures with and without it do not compare) and, per
workload and metric, each side's quartiles, the pairs the change won (lower
is better for every end-to-end metric; a tie is no win) and whether a gain
may be claimed: at least ten pairs ran, the change won at least 9 of every
10, and its median is below the parent's by more than the parent's
interquartile range. The file is rewritten after every pair, so an
interrupted script keeps the pairs it ran.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def commit(checkout: Path) -> str:
    return subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True, check=True
    ).stdout.strip()


def run_once(
    checkout: Path, workload: str, seed: int, seconds: float, env: dict
) -> tuple[str, str]:
    """The run's info line and its result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload]
        + ["--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    info, result = proc.stdout.splitlines()[-2:]
    return info, result


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summary(pairs: list[dict]) -> dict:
    """Per metric: each side's [q1, median, q3], the change's wins and
    whether they meet the rule for claiming a gain."""
    runs = {side: [json.loads(p[side])["metrics"] for p in pairs] for side in ("parent", "change")}
    out = {}
    for name in runs["parent"][0]:
        parent = [m[name]["value"] for m in runs["parent"]]
        change = [m[name]["value"] for m in runs["change"]]
        (q1, q2, q3), change_q = quartiles(parent), quartiles(change)
        wins = sum(c < p for p, c in zip(parent, change))
        out[name] = {
            "parent": [q1, q2, q3],
            "change": change_q,
            "change_wins": wins,
            "pairs": len(pairs),
            "claim_met": len(pairs) >= 10 and 10 * wins >= 9 * len(pairs) and q2 - change_q[1] > q3 - q1,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", nargs="+", required=True, metavar="WORKLOAD=N")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    env = dict(os.environ)
    record = {
        "commits": {side: commit(path) for side, path in checkouts.items()},
        "command": (
            f"python3 perfbench/run.py --workload <w> --seed {args.seed} --seconds {args.seconds:g}"
        ),
        "PYTHONDONTWRITEBYTECODE": {
            side: bool(env.get("PYTHONDONTWRITEBYTECODE")) for side in checkouts
        },
        "workloads": {},
    }
    for item in args.pairs:
        workload, n = item.split("=")
        pairs = []
        for i in range(int(n)):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"first": order[0]}
            for side in order:
                info, pair[side] = run_once(
                    checkouts[side], workload, args.seed, args.seconds, env
                )
                pair[f"{side}_info"] = info
            pairs.append(pair)
            record["workloads"][workload] = {"pairs": pairs, "summary": summary(pairs)}
            args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

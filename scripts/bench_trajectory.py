#!/usr/bin/env python3
"""Print the perf trajectory that the committed BENCH_*.json records hold.

    python3 scripts/bench_trajectory.py [--format text|json]

Every record that scripts/bench_pairs.py writes keeps, per workload, its
pairs of runs, each side's result a JSON line of perfbench/run.py. This
prints one row per record and workload, in order of the PR number in the
file name: the pairs, and for each end-to-end metric of BENCHMARK.json the
parent and change medians, the pairs the change won (a tie is no win), the
record's `claim_met` (absent before BENCH_21, shown as "-") and the running
product of the median change/parent ratios of that workload and metric over
the rows so far. --format json prints the same rows as one JSON list.
"""

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def records() -> list[tuple[int, dict]]:
    """(PR number, record) for every BENCH_<n>.json at the root, by n."""
    found = []
    for path in ROOT.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match:
            found.append((int(match[1]), json.loads(path.read_text(encoding="utf-8"))))
    return sorted(found, key=lambda item: item[0])


def trajectory(metrics: list[str]) -> list[dict]:
    """The rows in PR order; `running` multiplies on per workload and metric."""
    running = {}
    rows = []
    for pr, record in records():
        for workload, data in record["workloads"].items():
            pairs = data["pairs"]
            runs = {side: [json.loads(p[side])["metrics"] for p in pairs] for side in ("parent", "change")}
            row = {"pr": pr, "workload": workload, "pairs": len(pairs), "metrics": {}}
            for name in metrics:
                if name not in runs["parent"][0]:
                    continue
                parent, change = ([m[name]["value"] for m in runs[side]] for side in ("parent", "change"))
                p50, c50 = statistics.median(parent), statistics.median(change)
                key = (workload, name)
                running[key] = running.get(key, 1.0) * c50 / p50
                row["metrics"][name] = {
                    "parent": p50,
                    "change": c50,
                    "won": sum(c < p for p, c in zip(parent, change)),
                    "claim_met": data.get("summary", {}).get(name, {}).get("claim_met"),
                    "running": running[key],
                }
            rows.append(row)
    return rows


def text(rows: list[dict], metrics: list[str]) -> str:
    claim = {True: "yes", False: "no", None: "-"}
    lines = [
        "each cell: parent median > change median, pairs won, claim_met, running product",
        (f"{'PR':>3} {'workload':<12} {'pairs':>5}" + "".join(f"  {name:<30}" for name in metrics)).rstrip(),
    ]
    for row in rows:
        line = f"{row['pr']:>3} {row['workload']:<12} {row['pairs']:>5}"
        for name in metrics:
            m = row["metrics"].get(name)
            cell = "" if m is None else (
                f"{m['parent']:.4g} > {m['change']:.4g} {m['won']} {claim[m['claim_met']]} x{m['running']:.3f}"
            )
            line += f"  {cell:<30}"
        lines.append(line.rstrip())
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--format", choices=("text", "json"), default="text")
    args = parser.parse_args()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = [m["name"] for m in benchmark["end_to_end"]]
    rows = trajectory(metrics)
    print(json.dumps(rows, indent=1) if args.format == "json" else text(rows, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())

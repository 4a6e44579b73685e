"""The scripts import package internals; run each once so a signature
change in the library cannot break them unseen."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("abel_table.py", ["--max", "2"]),
        ("contour_study.py", []),
        # radius pi/2 refuses this point by its round-off floor, F = 4.5e-11
        ("contour_study.py", ["--re", "4.5", "--im", "16.9"]),
        # zeta_em refuses the reference; the sweeps print values instead
        ("contour_study.py", ["--re", "-60", "--im", "100"]),
        # more than 15 rungs: every level and every radius refuses, one line each
        ("contour_study.py", ["--re", "0.5", "--im", "420"]),
    ],
)
def test_script_runs(script, args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.strip()


def _result(wall_s):
    return json.dumps({"metrics": {"wall_s": {"value": wall_s, "unit": "s"}}})


def test_bench_pairs_keeps_the_info_line_and_summarises(monkeypatch, tmp_path):
    path = ROOT / "scripts" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    info = json.dumps({"env": {}, "info": {"host_factor": 1.25}})
    stdout = f"{info}\n{_result(0.5)}\n"
    calls = []

    def run(argv, **kwargs):
        calls.append((argv, kwargs.get("env")))
        return SimpleNamespace(stdout=stdout)

    monkeypatch.setattr(bench.subprocess, "run", run)
    env = {"PYTHONDONTWRITEBYTECODE": "1"}
    assert bench.run_once(ROOT, "cold_cli", 7, 1.0, env) == (info, _result(0.5))
    assert calls == [
        (
            [sys.executable, "perfbench/run.py", "--workload", "cold_cli", "--seed", "7", "--seconds", "1.0"],
            env,
        )
    ]

    # The record says, per side, whether the runs compiled the package in
    # every cold process: PYTHONDONTWRITEBYTECODE set to a non-empty value.
    out = tmp_path / "BENCH.json"
    argv = ["bench_pairs.py", str(ROOT), str(ROOT), "--pairs", "cold_cli=1", "--out", str(out)]
    monkeypatch.setattr(sys, "argv", argv)
    for value, flag in (("1", True), ("", False), (None, False)):
        if value is None:
            monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
        else:
            monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
        calls.clear()
        assert bench.main() == 0
        record = json.loads(out.read_text(encoding="utf-8"))
        assert record["PYTHONDONTWRITEBYTECODE"] == {"parent": flag, "change": flag}
        runs = [env for argv, env in calls if argv[1:2] == ["perfbench/run.py"]]
        assert [env.get("PYTHONDONTWRITEBYTECODE") for env in runs] == [value, value]

    pairs = [
        {"parent": _result(1.0), "parent_info": info, "change": _result(0.5)},
        {"parent": _result(2.0), "change": _result(3.0), "change_info": info},
    ]
    assert bench.summary(pairs) == {
        "wall_s": {
            "parent": [1.25, 1.5, 1.75],
            "change": [1.125, 1.75, 2.375],
            "change_wins": 1,
            "pairs": 2,
            "claim_met": False,
        }
    }

    # A gain is claimed on ten pairs or more, 9 of 10 won, a tie winning
    # nothing, and a median drop beyond the parent's interquartile range. The
    # parent runs 1.0 .. 1.9 have quartiles 1.225, 1.45, 1.675: a range of 0.45.
    parent = [1.0 + i / 10 for i in range(10)]
    won = [p - 0.5 for p in parent]
    for change, met in [
        (won, True),  # 10 of 10 won, median 0.5 lower
        (won[:9] + [1.9], True),  # 9 won and a tie
        (won[:8] + [1.8, 1.9], False),  # 8 won and two ties
        (won[:8] + [1.9, 2.0], False),  # 8 won
        ([p - 0.4 for p in parent], False),  # 10 of 10 won, median 0.4 lower
        (won[:9], False),  # 9 of 9 won
    ]:
        pairs = [{"parent": _result(p), "change": _result(c)} for p, c in zip(parent, change)]
        assert bench.summary(pairs)["wall_s"]["claim_met"] is met, change


def _tree_diff(old, new, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "tree_diff.py"), str(old), str(new), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_tree_diff_finds_no_difference_between_a_tree_and_itself():
    proc = _tree_diff(ROOT, ROOT, "--seeds", "1", "--max", "20")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == (
        "0 of 604 numeric outcomes differ (seeds 1, far, edge)\n"
        "0 of 231 exact items differ (--max 20)\n"
    )


def test_tree_diff_names_a_moved_route_and_exits_1(tmp_path):
    # A looser convergence test moves Hankel values and refusals, and nothing
    # that the exact half reads.
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "zetaroutes" / "numeric.py"
    text = path.read_text(encoding="utf-8")
    assert "\n_TOL = 1e-12 " in text
    path.write_text(text.replace("\n_TOL = 1e-12 ", "\n_TOL = 1e-11 "), encoding="utf-8")
    proc = _tree_diff(ROOT, tmp_path, "--seeds", "0", "--max", "20")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    *moved, numeric, exact = proc.stdout.splitlines()
    assert moved and all(line.startswith("seed 0 ") and " zeta_hankel: " in line for line in moved)
    assert numeric == f"{len(moved)} of 604 numeric outcomes differ (seeds 0, far, edge)"
    assert exact == "0 of 231 exact items differ (--max 20)"


@pytest.mark.parametrize(
    "file, old, new, moved",
    [
        # a numeric refusal: the 28 far points and the one edge point past
        # |Im s| = 1e4, where zeta_em refuses
        ("numeric.py", "the Dirichlet cutoff is validated", "the Dirichlet cutoff holds", 29),
        # a CLI refusal, written to stderr: `verify cotangent --x 1/1000`
        ("numeric.py", "x must lie in 1/100..99/100", "x must lie in [1/100, 99/100]", 1),
    ],
    ids=["numeric", "cli"],
)
def test_tree_diff_names_a_changed_refusal_message_and_exits_1(tmp_path, file, old, new, moved):
    # Only the message changes, not the class nor any value.
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "zetaroutes" / file
    text = path.read_text(encoding="utf-8")
    assert text.count(old) == 1
    path.write_text(text.replace(old, new), encoding="utf-8")
    proc = _tree_diff(ROOT, tmp_path, "--seeds", "0", "--max", "20")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    *lines, numeric, exact = proc.stdout.splitlines()
    assert len(lines) == moved
    if moved == 1:
        assert lines[0].startswith("verify cotangent --x 1/1000 ")
        assert (numeric, exact) == (
            "0 of 604 numeric outcomes differ (seeds 0, far, edge)",
            "1 of 231 exact items differ (--max 20)",
        )
    else:
        for line in lines:
            assert line.startswith(("far ", "edge ")) and " zeta_em: OutOfValidatedRange: " in line
            assert f"{old} for |Im s| <= 1e4 only -> " in line and new in line
        assert numeric == f"{moved} of 604 numeric outcomes differ (seeds 0, far, edge)"
        assert exact == "0 of 231 exact items differ (--max 20)"


def test_tree_diff_exits_2_for_a_root_without_the_package(tmp_path):
    proc = _tree_diff(ROOT, tmp_path, "--seeds", "1", "--max", "0")
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stdout == ""


def test_bench_trajectory_reads_every_committed_record():
    script = str(ROOT / "scripts" / "bench_trajectory.py")
    for fmt in ("text", "json"):
        proc = subprocess.run(
            [sys.executable, script, "--format", fmt], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)
    records = sorted(path.name for path in ROOT.glob("BENCH_*.json"))
    assert records and sorted({f"BENCH_{row['pr']}.json" for row in rows}) == records
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {w["name"] for w in benchmark["workloads"]}
    claimed = 0
    for row in rows:
        assert row["workload"] in workloads, row
        for name, metric in row["metrics"].items():
            if metric["claim_met"]:
                claimed += 1
                assert row["pairs"] >= 10, (row["pr"], row["workload"], name)
    assert claimed

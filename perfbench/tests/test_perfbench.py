"""Self-check of the benchmark harness at tiny size.

    python3 -m pytest perfbench/tests -q

Every workload runs one sample of a few operations, untraced and traced, and
must emit every metric that BENCHMARK.json lists. Then a corrupted golden
byte and a perturbed reference value must each turn exactly one operation
into a failure, so the correctness gate cannot pass vacuously. Last, every
reported time must be its measured figure times the run's host factor.
"""

import itertools
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_CLI = (("zeta", "exact", "-1", "--route", "all"), ("zeta", "numeric", "0.5", "3"))
# Index of 0.5+14.1347i in the seed grid: zeta_em is right there, zeta_hankel
# raises, so only the em call depends on the reference value.
ZERO_INDEX = -1


FULL_GRID = workloads.grid_points


def tiny_grid(seed):
    points = FULL_GRID(seed)
    # two points per region, the fixed zero last
    picked, seen = [], {}
    for region, s in points[:-1]:
        if seen.get(region, 0) < 2:
            seen[region] = seen.get(region, 0) + 1
            picked.append((region, s))
    return picked + [points[-1]]


@pytest.fixture
def tiny(monkeypatch):
    pytest.importorskip("mpmath")
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "IMPORTTIME_PROBES", 1)
    monkeypatch.setattr(workloads, "TABLE_SWEEP", TINY_CLI)
    monkeypatch.setattr(workloads, "CYCLE", 1)
    monkeypatch.setattr(workloads, "cold_cli_samples", lambda seed: itertools.repeat(TINY_CLI))
    monkeypatch.setattr(workloads, "grid_points", tiny_grid)
    return run.Bench(ROOT, SPEC)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted(tiny, workload, trace):
    result = tiny.run(workload, seed=3, seconds=0, trace=trace)
    section = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1


@pytest.mark.parametrize("workload", ["table_sweep", "cold_cli"])
def test_corrupted_golden_byte_fails_one_operation(tiny, workload):
    key = checks.command_key(TINY_CLI[0])
    want = tiny.golden[key]["stdout"]
    tiny.golden = dict(tiny.golden)
    tiny.golden[key] = {"rc": 0, "stdout": want[:-2] + chr(ord(want[-2]) ^ 1) + want[-1]}
    result = tiny.run(workload, seed=3, seconds=0, trace=False)
    assert result["failed"] == 1
    assert not result["correct"]


def test_perturbed_reference_fails_one_operation(tiny, monkeypatch):
    clean = tiny.run("numeric_grid", seed=3, seconds=0, trace=False)
    exact = checks.reference_values

    def perturbed(points, seed):
        refs = exact(points, seed)
        refs[ZERO_INDEX] += 1e-8
        return refs

    monkeypatch.setattr(checks, "reference_values", perturbed)
    result = tiny.run("numeric_grid", seed=3, seconds=0, trace=False)
    assert clean["failed"] == 0
    assert result["failed"] == 1
    assert not result["correct"]


def test_timings_are_scaled_by_the_host_factor(tiny):
    result = tiny.run("numeric_grid", seed=3, seconds=0, trace=False)
    info = result["info"]
    assert info["calibrations"] >= 1
    assert info["host_factor"] == pytest.approx(run.CAL_REFERENCE_S / info["calibration_s"])
    for name, measured in info["measured"].items():
        assert result["metrics"][name]["value"] == pytest.approx(measured * info["host_factor"])

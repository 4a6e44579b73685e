"""zetaroutes benchmark: three workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout (the directory holding ``src/``):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all    # every workload, as a table

Every sample runs in a fresh interpreter (``perfbench/child.py``), one at a
time, so no cache of the package carries over between samples. Timing is
``time.perf_counter`` only; the reported times are scaled by the run's host
factor, which a calibration between samples measures (``calibrate``).
Outputs are checked against the committed golden CLI bytes and the numeric
references (``perfbench/checks.py``). With
``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run; the metric
names and units are the ones listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from statistics import fmean, median
from time import perf_counter

import checks
import tracing
import workloads
from child import REPORT_MARK

HERE = Path(__file__).resolve().parent
CHILD = str(HERE / "child.py")
SETUP_PROBES = 3  # before sampling; more are spread over the run
PROBE_EVERY_S = 3.0  # an untraced sample is preceded by a probe this often
IMPORTTIME_PROBES = 3
CHILD_TIMEOUT_S = 150
# A round figure near calibrate()'s time on a 2-vCPU Xeon VM (Python 3.11,
# numpy 2.4); the timing metrics are scaled to a host on which it takes this long.
CAL_REFERENCE_S = 0.025
HANKEL_EXCEPTIONS = ("QuadratureNotConverged", "OverflowError", "TooCloseToPositiveIntegerPole")
SETUP_PROBE_CODE = (
    "import zetaroutes\n"
    "from time import perf_counter\n"
    "t = perf_counter()\n"
    "import sys, numpy\n"
    "print(t, sys.version.split()[0], numpy.__version__)\n"
)


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


def percentile(values, q: int) -> float:
    """Nearest-rank percentile: the smallest value with q% at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def calibrate() -> float:
    """Seconds taken by a fixed piece of work that belongs to the benchmark.

    Small-array numpy calls mixed with complex arithmetic, in the parent
    process between samples. It never touches the package, so no change to
    the package moves it; only the host's speed does. On a shared host that
    speed drifts by 20% or more over minutes, and it drifts much alike for
    this work and for the samples around it.
    """
    import numpy as np

    x = np.linspace(0.1, 2.0, 64) + 0.5j
    acc = 0j
    t0 = perf_counter()
    for i in range(4000):
        acc += np.exp(-x * (1 + 1e-4 * i)).sum() * complex(i, 1) ** 0.5
    return perf_counter() - t0


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("ZETAROUTES_CONFIG", None)  # a config file would change CLI output
    env["PYTHONPATH"] = str(root / "src")
    env["OMP_NUM_THREADS"] = "1"
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def git_commit(root: Path) -> str:
    """HEAD of a git checkout, read without running git; else 'unknown'."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Bench:
    def __init__(self, root: Path, spec: dict) -> None:
        self.root = root
        self.spec = spec
        self.env = child_env(root)
        self.golden = checks.load_golden()
        self.cal_s: list[float] | None = None  # a list while a run calibrates

    # -- processes -----------------------------------------------------------

    def spawn(self, args, stdin: bytes | None = None):
        """Run one fresh interpreter; (seconds spawn-to-exit, t_spawn, proc).

        While a run calibrates, every spawn is preceded by a calibration."""
        if self.cal_s is not None:
            self.cal_s.append(calibrate())
        t_spawn = perf_counter()
        proc = subprocess.run(
            [sys.executable, *args],
            input=stdin,
            capture_output=True,
            cwd=self.root,
            env=self.env,
            timeout=CHILD_TIMEOUT_S,
        )
        return perf_counter() - t_spawn, t_spawn, proc

    @staticmethod
    def report(proc) -> dict | None:
        for line in reversed(proc.stderr.decode("utf-8", "replace").splitlines()):
            if line.startswith(REPORT_MARK):
                return json.loads(line[len(REPORT_MARK):])
        return None

    def child_report(self, args, stdin=None) -> dict:
        _, _, proc = self.spawn([CHILD, *args], stdin)
        report = self.report(proc)
        if report is None:
            raise BenchError(f"worker {args[:2]} died: {proc.stderr.decode()[-2000:]}")
        return report

    # -- set-up ----------------------------------------------------------------

    def setup_probe(self) -> tuple[float, str, str]:
        """Spawn-to-`import zetaroutes` of one fresh interpreter, and the
        Python and numpy versions it ran."""
        _, t_spawn, proc = self.spawn(["-c", SETUP_PROBE_CODE])
        if proc.returncode != 0:
            raise BenchError(f"cannot import zetaroutes: {proc.stderr.decode()[-2000:]}")
        t_imported, py, np_version = proc.stdout.decode().split()
        return float(t_imported) - t_spawn, py, np_version

    def import_breakdown(self) -> dict:
        """`-X importtime` split: numpy itself, and the package without numpy."""
        numpy_s, own_s = [], []
        for _ in range(IMPORTTIME_PROBES):
            _, _, proc = self.spawn(["-X", "importtime", "-c", "import zetaroutes"])
            cumulative = {}
            for line in proc.stderr.decode().splitlines():
                parts = line.split("|")
                if len(parts) == 3 and parts[1].strip().isdigit():
                    cumulative[parts[2].strip()] = int(parts[1]) / 1e6
            numpy_s.append(cumulative["numpy"])
            own_s.append(cumulative["zetaroutes"] - cumulative["numpy"])
        return {
            "setup.numpy_import_s": median(numpy_s),
            "setup.zetaroutes_import_s": median(own_s),
        }

    # -- samples -----------------------------------------------------------------

    def sample_table_sweep(self, plan: dict, traced: bool) -> dict:
        job = {"kind": "cli", "commands": workloads.TABLE_SWEEP}
        rep = self.child_report(["job", "1" if traced else "0"], json.dumps(job).encode())
        fails = 0
        for argv, (rc, out) in zip(workloads.TABLE_SWEEP, rep["outputs"]):
            fails += not checks.cli_ok(argv, rc, out.encode("utf-8"), self.golden)
        return {
            "wall_s": rep["wall_s"],
            "op_s": rep["op_s"],
            "rss_mb": rep["rss_mb"],
            "attempted": len(workloads.TABLE_SWEEP),
            "fails": fails,
            "gate_fails": fails,
            "layers": rep["layers"],
        }

    def sample_cold_cli(self, plan: dict, traced: bool) -> dict:
        if not traced:  # a traced sample re-runs the commands of the sample before it
            plan["commands"] = next(plan["samples"])
        commands = plan["commands"]
        op_s, rss, layers, fails, import_s = [], [], [], 0, 0.0
        for argv in commands:
            elapsed, t_spawn, proc = self.spawn([CHILD, "cli", "1" if traced else "0", *argv])
            rep = self.report(proc) or {}
            op_s.append(elapsed)
            rss.append(rep.get("rss_mb", 0.0))
            import_s += rep.get("t_imported", t_spawn) - t_spawn
            if rep.get("layers"):
                layers.append(rep["layers"])
            fails += not checks.cli_ok(argv, proc.returncode, proc.stdout, self.golden)
        return {
            "wall_s": sum(op_s),
            "op_s": op_s,
            "rss_mb": max(rss),
            "attempted": len(commands),
            "fails": fails,
            "gate_fails": fails,
            "layers": tracing.merge_summaries(layers) if traced else None,
            "import_s": import_s,
        }

    def sample_numeric_grid(self, plan: dict, traced: bool) -> dict:
        pts = plan["points"]
        job = {"kind": "grid", "points": [[s.real, s.imag] for _, s in pts]}
        rep = self.child_report(["job", "1" if traced else "0"], json.dumps(job).encode())
        fails = gate_fails = 0
        wrong = dict.fromkeys(checks.ROUTES, 0)
        digits = {route: math.inf for route in checks.ROUTES}
        breakdown: dict[str, int] = {}
        for (region, s), ref, row in zip(pts, plan["refs"], rep["outputs"]):
            for route, outcome in zip(checks.ROUTES, row):
                failed, gate, err = checks.judge(route, s, outcome, ref)
                fails += failed
                gate_fails += gate
                if err is not None:
                    d = -math.log10(err) if err > 0 else math.inf
                    digits[route] = min(digits[route], d)
                if failed:
                    wrong[route] += not isinstance(outcome, str)
                    kind = outcome if isinstance(outcome, str) else "wrong value"
                    key = f"{route} {kind} in {region}" + (" (GATE)" if gate else "")
                    breakdown[key] = breakdown.get(key, 0) + 1
        return {
            "wall_s": rep["wall_s"],
            "op_s": rep["op_s"],
            "rss_mb": rep["rss_mb"],
            "attempted": 2 * len(pts),
            "fails": fails,
            "gate_fails": gate_fails,
            "layers": rep["layers"],
            "wrong_values": wrong,
            "digits": {r: (d if math.isfinite(d) else 0.0) for r, d in digits.items()},
            "breakdown": breakdown,
        }

    # -- a run -------------------------------------------------------------------

    def plan(self, workload: str, seed: int) -> dict:
        plan = {}
        if workload == "cold_cli":
            plan["samples"] = workloads.cold_cli_samples(seed)
        if workload == "numeric_grid":
            plan["points"] = workloads.grid_points(seed)
            plan["refs"] = checks.reference_values([s for _, s in plan["points"]], seed)
        return plan

    def run(self, workload: str, seed: int, seconds: float, trace: bool) -> dict:
        self.cal_s = None
        self.spawn(["-c", "import zetaroutes"])  # bytecode cache warm-up
        probes = [self.setup_probe() for _ in range(SETUP_PROBES)]
        imports = self.import_breakdown() if trace else {}
        plan = self.plan(workload, seed)
        sample = getattr(self, f"sample_{workload}")
        # Whole cycles only (see workloads.CYCLE); a traced run follows each
        # untraced sample with a traced one of the same inputs. Set-up probes
        # are spread over the run, so setup_s sees the same host as the samples.
        unit = workloads.CYCLE if workload == "cold_cli" else 1
        samples: list[dict] = []
        unit_s: list[float] = []
        self.cal_s = None if trace else []
        start = last_probe = perf_counter()
        while True:
            t0 = perf_counter()
            for _ in range(unit):
                if not trace and perf_counter() - last_probe >= PROBE_EVERY_S:
                    probes.append(self.setup_probe())
                    last_probe = perf_counter()
                for traced in (False, True) if trace else (False,):
                    samples.append(sample(plan, traced) | {"traced": traced})
            unit_s.append(perf_counter() - t0)
            if perf_counter() - start + median(unit_s) > seconds:
                break
        setup = {
            "setup_s": median(t for t, _, _ in probes),
            "python": probes[0][1],
            "numpy": probes[0][2],
        }
        return self.result(workload, setup, imports, samples, trace)

    def result(self, workload, setup, imports, samples, trace) -> dict:
        plain = [s for s in samples if not s["traced"]]
        # Means over samples, not medians: the host's speed switches between
        # two levels for seconds at a time, and a median over samples flips
        # between them from run to run while the mean moves smoothly.
        measured = {
            "setup_s": setup["setup_s"],
            "wall_s": fmean(s["wall_s"] for s in plain),
            "point_p50_ms": fmean(percentile(s["op_s"], 50) for s in plain) * 1e3,
            "point_p95_ms": fmean(percentile(s["op_s"], 95) for s in plain) * 1e3,
        }
        calibration_s = fmean(self.cal_s) if self.cal_s else CAL_REFERENCE_S
        host_factor = CAL_REFERENCE_S / calibration_s
        values = {
            **{name: value * host_factor for name, value in measured.items()},
            "peak_rss_mb": median(s["rss_mb"] for s in plain),
        }
        attempted = sum(s["attempted"] for s in samples)
        fails = sum(s["fails"] for s in samples)
        info = {
            "workload": workload,
            "samples": len(plain),
            "calibration_s": calibration_s,
            "calibrations": len(self.cal_s or ()),
            "host_factor": host_factor,
            "measured": measured,
            "failed_frac": fails / attempted,
            "python": setup["python"],
            "numpy": setup["numpy"],
        }
        if trace:
            traced = [s for s in samples if s["traced"]]
            layer_values = [self.layer_values(s) for s in traced]
            values = {key: median(v[key] for v in layer_values) for key in layer_values[0]}
            values.update(imports)
            values["trace.overhead_frac"] = (
                fmean(s["wall_s"] for s in traced) / fmean(s["wall_s"] for s in plain) - 1.0
            )
            values["failed_frac"] = fails / attempted
            info["traced_samples"] = len(traced)
        if "breakdown" in samples[0]:
            info["failures"] = samples[0]["breakdown"]
        if "import_s" in samples[0]:
            info["import_s_per_sample"] = median(s["import_s"] for s in plain)
        section = "per_layer" if trace else "end_to_end"
        metrics = {}
        for m in self.spec[section]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        return {
            "correct": sum(s["gate_fails"] for s in samples) == 0,
            "attempted": attempted,
            "failed": sum(s["gate_fails"] for s in samples),
            "metrics": metrics,
            "info": info,
        }

    @staticmethod
    def layer_values(sample: dict) -> dict:
        """One traced sample's per-layer values; zero where a layer is idle."""
        layers = tracing.merge_summaries([sample["layers"]])
        empty = {"calls": 0, "self_s": 0.0, "exc": {}, "durs": [], "warnings": 0}
        out = {}
        for name in tracing.SPAN_NAMES:
            agg = layers.get(name, empty)
            out[f"{name}.calls"] = agg["calls"]
            out[f"{name}.self_s"] = agg["self_s"]
        wrong = sample.get("wrong_values", {})
        for route, name, scale, unit in (
            ("hankel", "numeric.zeta_hankel", 1e3, "ms"),
            ("em", "numeric.zeta_em", 1e6, "us"),
        ):
            agg = layers.get(name, empty)
            durs = agg["durs"]
            out[f"{name}.p50_{unit}"] = percentile(durs, 50) * scale if durs else 0.0
            out[f"{name}.p95_{unit}"] = percentile(durs, 95) * scale if durs else 0.0
            out[f"{name}.failed"] = sum(agg["exc"].values()) + wrong.get(route, 0)
        hankel = layers.get("numeric.zeta_hankel", empty)
        out["numeric.zeta_hankel.warnings"] = hankel["warnings"]
        for exc in HANKEL_EXCEPTIONS:
            out[f"numeric.zeta_hankel.exc.{exc}"] = hankel["exc"].get(exc, 0)
        out["numeric.zeta_hankel.exc.other"] = sum(
            n for exc, n in hankel["exc"].items() if exc not in HANKEL_EXCEPTIONS
        )
        digits = sample.get("digits", {})
        out["em_min_digits"] = digits.get("em", 0.0)
        out["hankel_min_digits"] = digits.get("hankel", 0.0)
        return out


def environment(root: Path, info: dict) -> dict:
    return {
        "python": info["python"],
        "numpy": info["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(root),
        "timer": "time.perf_counter in fresh processes",
    }


def print_table(result: dict, info: dict) -> None:
    print(f"== {info['workload']}: {info['samples']} samples, "
          f"attempted {result['attempted']}, gate failures {result['failed']}, "
          f"failed_frac {info['failed_frac']:.4f}")
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
    for key, n in sorted(info.get("failures", {}).items()):
        print(f"  failure: {key}: {n}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=checks.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "zetaroutes" / "__init__.py").is_file():
        print("error: run from the root of a zetaroutes checkout (no src/zetaroutes)",
              file=sys.stderr)
        return 2
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    bench = Bench(root, spec)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = bench.run(name, args.seed, args.seconds, bool(args.trace))
        info = result.pop("info")
        print(json.dumps({"env": environment(root, info), "info": info}))
        if args.workload == "all":
            print_table(result, info)
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

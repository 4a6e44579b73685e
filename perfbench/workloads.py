"""The three workloads: what each sample runs, generated from the seed.

``table_sweep``  one fresh worker runs a fixed exact-table command set
                 through ``cli.run`` (long-lived process, caches reused).
``cold_cli``     every command in its own fresh interpreter (one-shot CLI
                 use); the seed orders the ``zeta exact -K`` arguments.
``numeric_grid`` one fresh worker evaluates ``zeta_em`` and ``zeta_hankel``
                 at 240 points that the seed draws from six regions.

Points are stratified: each region is cut into equal cells and the seed
draws one point per cell, so every seed covers the same regions in the
same proportions and only the position inside each cell changes.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator

WORKLOADS = ("table_sweep", "cold_cli", "numeric_grid")

TABLE_SWEEP = (
    ("table", "classical", "--max", "100", "--format", "json"),
    ("bernoulli", "--max", "200", "--method", "both", "--format", "json"),
    ("verify", "funceq", "--exact-max", "50"),
)

# One K per stratum, so every sample runs a small, a middle and a large
# operator chain. Samples come in cycles of three: a cycle runs every K of
# every stratum once, and the seed draws how the K are grouped into samples
# and their order. Whole cycles keep a run's median from hinging on which
# K happened to be drawn.
K_STRATA = ((20, 21, 22), (27, 28, 29), (34, 35, 36))
CYCLE = 3


def _zeta_exact(k: int) -> tuple[str, ...]:
    return ("zeta", "exact", str(k), "--route", "all")


COLD_FIXED = (
    ("abel", "8", "--numeric-oracle"),
    ("verify", "funceq", "--exact-max", "50", "--grid", "0.1:0.9:0:10:5"),
    ("zeta", "numeric", "0.5", "3"),
    ("verify", "contour-inversion", "--s", "-2.5", "--poles", "100000"),
)


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def cold_cli_samples(seed: int) -> Iterator[list[tuple[str, ...]]]:
    """Command lists of successive samples: nine commands, three of them
    ``zeta exact -K`` with one K from each stratum."""
    rng = rng_for("cold_cli", seed)
    while True:
        shuffles = [rng.sample(stratum, CYCLE) for stratum in K_STRATA]
        for ks in zip(*shuffles):
            yield [_zeta_exact(-1), *(_zeta_exact(-k) for k in ks), _zeta_exact(40), *COLD_FIXED]


def all_cli_commands() -> list[tuple[str, ...]]:
    """Every command any seed can produce (the golden-output key set)."""
    ks = sorted(k for stratum in K_STRATA for k in stratum)
    return [
        *TABLE_SWEEP,
        _zeta_exact(-1),
        *(_zeta_exact(-k) for k in ks),
        _zeta_exact(40),
        *COLD_FIXED,
    ]


# -- numeric grid ---------------------------------------------------------------

# label, Re range, Im range, cells along Re, cells along Im
_BOX_REGIONS = (
    ("strip", (0.05, 0.95), (0.0, 10.0), 5, 10),
    ("right", (1.2, 40.0), (0.0, 20.0), 5, 10),
    ("left", (-25.0, -0.2), (0.0, 50.0), 5, 8),
)
_CRITICAL_CELLS = 50  # t in (0.5, 10], uniform
_HIGH_CELLS = 49  # t in [15, 1e4], log-spaced
ZERO = complex(0.5, 14.134725141734693)


def grid_points(seed: int) -> list[tuple[str, complex]]:
    """240 (region, s) pairs; the same seed always gives the same points."""
    rng = rng_for("numeric_grid", seed)
    points = []
    width = 9.5 / _CRITICAL_CELLS
    for i in range(_CRITICAL_CELLS):
        # (0.5, 10]: draw in (0, 1] so the open lower end is never hit.
        points.append(("critical", complex(0.5, 0.5 + (i + 1 - rng.random()) * width)))
    for label, (re0, re1), (im0, im1), n_re, n_im in _BOX_REGIONS:
        for i in range(n_re):
            for j in range(n_im):
                re = re0 + (i + rng.random()) * (re1 - re0) / n_re
                im = im0 + (j + rng.random()) * (im1 - im0) / n_im
                points.append((label, complex(re, im)))
    lo, hi = math.log(15.0), math.log(1e4)
    for i in range(_HIGH_CELLS):
        t = math.exp(lo + (i + rng.random()) * (hi - lo) / _HIGH_CELLS)
        points.append(("high", complex(0.5, t)))
    points.append(("zero", ZERO))
    return points

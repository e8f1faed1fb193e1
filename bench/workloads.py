"""The benchmark's workloads and the seeded inputs they run on.

Each workload is one closed-loop batch job through vrld's public entry
points.  ``generate`` writes a workload's inputs (configs and the logistic
data file) from the seed into a work directory and returns the spec that
``rep.py`` executes; the program only ever sees these generated files.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

# Why each workload is in the benchmark: together they cover the three
# regimes the package runs in, and each stresses a different layer.
WHY = {
    "quad-run": (
        "The README experiment (vrld run, svrg_ld, thin=1) is cheap in the oracle, so "
        "per-step chain overhead, per-checkpoint diagnostics and CSV writing dominate."
    ),
    "logistic-compare": (
        "vrld compare on logistic_l2 has no closed-form full gradient, so the "
        "Python-loop oracle dominates, with full and minibatch gradients side by side."
    ),
    "ensemble-desk": (
        "run_ensemble with 20000 vectorised chains is the acceptance-test regime, bound "
        "by the block subset draw and the row-wise oracle, not by per-step Python."
    ),
}
NAMES = tuple(WHY)

# Per-workload sizes: (full, smoke).  The smoke sizes run all three workloads
# in seconds; they exist for the benchmark's own tests.
_QUAD = {"n": 64, "d": 2, "B": 4, "m": 4, "eta": 0.005, "gamma": 1.0, "thin": 1}
_QUAD_SIZES = ({"K": 1000, "R": 8}, {"K": 40, "R": 8})
_LOGI = {"n": 512, "d": 8, "B": 16, "m": 16, "eta": 0.01, "gamma": 4.0, "thin": 16, "lam": 1.0}
# F(x0) is about 18 at x0 = 2*ones; the chain law settles near
# F* + d/(2 gamma) <= log 2 + 1, so every variant crosses 2.0.
_LOGI_SIZES = ({"K": 512, "R": 4, "threshold": 2.0}, {"K": 64, "R": 2, "threshold": 8.0})
_ENS = {"n": 64, "d": 1, "B": 8, "m": 8, "eta": 0.04, "gamma": 1.0}
_ENS_SIZES = ({"K": 64, "R": 20_000}, {"K": 16, "R": 2_000})


def logistic_data(seed: int, n: int, d: int) -> tuple[list[list[float]], list[float]]:
    """Seeded logistic-regression rows and {0, 1} labels from a planted model."""
    rng = random.Random(seed)
    w = [rng.gauss(0.0, 1.0) for _ in range(d)]
    rows, labels = [], []
    for _ in range(n):
        a = [rng.gauss(0.0, 1.0) for _ in range(d)]
        t = sum(ai * wi for ai, wi in zip(a, w))
        p = 1.0 / (1.0 + math.exp(-t))
        rows.append(a)
        labels.append(1.0 if rng.random() < p else 0.0)
    return rows, labels


def _quad_run(seed: int, sizes: dict, work: Path) -> dict:
    p = dict(_QUAD, **sizes)
    (work / "quad.cfg").write_text(
        "[potential]\nname = gaussian_quadratic\n"
        f"n = {p['n']}\nd = {p['d']}\nseed = {seed}\nzero_mean = true\n\n"
        f"[sampler]\nvariant = svrg_ld\neta = {p['eta']!r}\ngamma = {p['gamma']!r}\n"
        f"batch = {p['B']}\nepoch = {p['m']}\nsteps = {p['K']}\n\n"
        "[theory]\nalpha = 1.0\nH0 = 8.0\n\n"
        f"[run]\nreplicates = {p['R']}\nseed = {seed}\nthin = {p['thin']}\nout = out\n"
    )
    return dict(
        p,
        config="quad.cfg",
        argv=["run", "--config", "quad.cfg", "--out", "out", "--quiet"],
        potential=["gaussian_quadratic", {"n": p["n"], "d": p["d"], "seed": seed, "zero_mean": True}],
        variants=["svrg_ld"],
        x0=[0.0] * p["d"],
        # one moment fit pair per stored step
        diag_checkpoints=p["K"] // p["thin"] + 1,
    )


def _logistic_compare(seed: int, sizes: dict, work: Path) -> dict:
    p = dict(_LOGI, **sizes)
    rows, labels = logistic_data(seed, p["n"], p["d"])
    with open(work / "data.txt", "w", encoding="utf-8") as fh:
        for a, y in zip(rows, labels):
            fh.write(" ".join(repr(v) for v in a + [y]) + "\n")
    x0 = [2.0] * p["d"]
    (work / "compare.cfg").write_text(
        f"[potential]\nname = logistic_l2\ndata = data.txt\nlam = {p['lam']!r}\n\n"
        f"[sampler]\nvariant = sgld\neta = {p['eta']!r}\ngamma = {p['gamma']!r}\n"
        f"batch = {p['B']}\nepoch = {p['m']}\nsteps = {p['K']}\n\n"
        f"[run]\nreplicates = {p['R']}\nseed = {seed}\nthin = {p['thin']}\n"
        f"x0 = {', '.join(repr(v) for v in x0)}\nout = out\n\n"
        f"[compare]\nvariants = sgld, svrg_ld, sarah_ld\nmetric = mean_f\n"
        f"threshold = {p['threshold']!r}\n"
    )
    return dict(
        p,
        config="compare.cfg",
        argv=["compare", "--config", "compare.cfg", "--out", "out", "--quiet"],
        potential=["logistic_l2", {"data_file": "data.txt", "lam": p["lam"]}],
        variants=["sgld", "svrg_ld", "sarah_ld"],
        x0=x0,
        diag_checkpoints=0,
    )


def _ensemble_desk(seed: int, sizes: dict, work: Path) -> dict:
    p = dict(_ENS, **sizes)
    K = p["K"]
    return dict(
        p,
        potential=["gaussian_quadratic", {"n": p["n"], "d": p["d"], "seed": seed, "zero_mean": True}],
        variants=["svrg_ld"],
        checkpoints=[K // 4, K // 2, 3 * K // 4, K],
        diag_checkpoints=4,
    )


_BUILDERS = {"quad-run": (_quad_run, _QUAD_SIZES), "logistic-compare": (_logistic_compare, _LOGI_SIZES),
             "ensemble-desk": (_ensemble_desk, _ENS_SIZES)}


def generate(name: str, seed: int, work: Path, smoke: bool = False) -> dict:
    """Write the workload's inputs into ``work`` and return its spec.

    The spec is also written to ``work/spec.json`` for ``rep.py``.
    """
    build, sizes = _BUILDERS[name]
    spec = build(seed, sizes[1 if smoke else 0], work)
    spec.update(workload=name, seed=seed, smoke=smoke)
    (work / "spec.json").write_text(json.dumps(spec, indent=1))
    return spec


def replicate_steps(spec: dict) -> int:
    """Chain steps the workload runs, summed over replicates and variants."""
    return len(spec["variants"]) * spec["R"] * spec["K"]


def inner_subset_draws(spec: dict) -> int:
    """Subset indices the workload's chains use, summed over chains."""
    total = 0
    for variant in spec["variants"]:
        inner = spec["K"] if variant == "sgld" else spec["K"] // spec["m"] * (spec["m"] - 1)
        total += spec["R"] * inner * spec["B"]
    return total

"""Benchmark for vrld: three closed-loop batch workloads, one job at a time.

    python3 bench/run.py --workload {quad-run,logistic-compare,ensemble-desk}
                         [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run from the repository root; the program is imported from ``src``.  The
seed generates the workload's inputs into a temporary directory.  Each
repetition is one fresh, single-threaded Python process (``rep.py``) that
sets up, makes the workload's one timed call into vrld's public entry points
and reports.  The first repetition warms the caches and runs the reference
checks; it is not timed.  Timed repetitions follow, one at a time, until
``--seconds`` have passed (at least three).

``--trace 0`` reports the end-to-end metrics, medians over the timed
repetitions.  ``--trace 1`` alternates traced and untraced repetitions and
reports the per-layer metrics, medians over the traced ones, together with
the tracing overhead.  ``--smoke`` shrinks every workload to run in seconds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation is a
replicate chain or an output check; a diverged replicate or a failed check
counts as failed, and ``failed_frac`` is failed over attempted.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = Path(__file__).resolve().parent / "trajectory.jsonl"
MIN_REPS = 3
REP_TIMEOUT_S = 150

END_TO_END = {"run_s": "s", "grad_evals_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "potentials.gradient.calls": "count",
    "potentials.gradient.us_per_call": "us",
    "potentials.minibatch_gradient.calls": "count",
    "potentials.minibatch_gradient.us_per_call": "us",
    "potentials.minibatch_gradient_rows.calls": "count",
    "potentials.minibatch_gradient_rows.us_per_call": "us",
    "potentials.value.calls": "count",
    "potentials.value.us_per_call": "us",
    "potentials.grad_evals": "count",
    "potentials.self_share": "ratio",
    "samplers.sample_index_set.calls": "count",
    "samplers.sample_index_set.us_per_call": "us",
    "samplers.self_us_per_step": "us",
    "samplers.subset_uniforms_per_index": "ratio",
    "diagnostics.moment_kl_surrogate.us_per_call": "us",
    "diagnostics.moment_w2_surrogate.us_per_call": "us",
    "diagnostics.moments_per_checkpoint": "ratio",
    "theory.kl_bound.calls": "count",
    "theory.kl_bound.us_per_call": "us",
    "config.parse_ms": "ms",
    "setup.import_s": "s",
    "setup.build_ms": "ms",
    "cli.self_ms": "ms",
    "cli.self_share": "ratio",
    "cli.bytes_written": "B",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}

# One thread for every BLAS/OpenMP pool: a repetition is single-threaded.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class RepError(RuntimeError):
    """A repetition's process failed or printed no result."""


def run_rep(work: Path, flags: list[str]) -> dict:
    shutil.rmtree(work / "out", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)
    cmd = [sys.executable, str(ROOT / "bench" / "rep.py"), "spec.json", *flags]
    try:
        proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RepError(f"repetition exceeded {REP_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepError(f"repetition exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Run one workload and return its result line, report and repetitions."""
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as tmp:
        work = Path(tmp)
        spec = workloads.generate(name, seed, work, smoke)
        first = run_rep(work, ["--check"])
        timed: list[dict] = []
        traced: list[dict] = []
        start = time.monotonic()
        while (len(timed) < MIN_REPS or (trace and len(traced) < MIN_REPS)
               or time.monotonic() - start < seconds):
            if trace and len(traced) <= len(timed):
                traced.append(run_rep(work, ["--trace"]))
            else:
                timed.append(run_rep(work, []))
        wall = time.monotonic() - start

    reps = [first, *timed, *traced]
    all_checks = [checks.Check(*c) for r in reps for c in r["checks"]]
    all_checks.append(checks.same_digest([r["digest"] for r in reps]))
    attempted = sum(r["replicates"] for r in reps) + len(all_checks)
    failed = sum(r["diverged"] for r in reps) + sum(not c.ok for c in all_checks)

    if trace:
        values = {key: median(r["layers"][key] for r in traced) for key in traced[0]["layers"]}
        base = median(r["run_s"] for r in timed)
        values["trace.overhead_s"] = median(r["run_s"] for r in traced) - base
        values["trace.overhead_share"] = values["trace.overhead_s"] / base
        units = PER_LAYER
    else:
        values = {
            "run_s": median(r["run_s"] for r in timed),
            "grad_evals_per_s": median(r["grad_evals"] / r["run_s"] for r in timed),
            "setup_s": median(r["setup_s"] for r in timed),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in timed),
        }
        units = END_TO_END
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }
    return {"line": line, "spec": spec, "timed": timed, "traced": traced, "first": first,
            "checks": all_checks, "wall_s": wall, "digest": first["digest"]}


def recorded_digest(name: str, seed: int) -> tuple[str, str] | None:
    """(commit, digest) from the latest trajectory entry that ran this
    workload and seed at full size, or None."""
    try:
        entries = [json.loads(ln) for ln in TRAJECTORY.read_text(encoding="utf-8").splitlines() if ln]
    except OSError:
        return None
    for entry in reversed(entries):
        digest = entry["workloads"].get(name, {}).get("digests", {}).get(str(seed))
        if digest:
            return entry["machine"]["commit"], digest
    return None


def report(name: str, result: dict) -> None:
    """Human-readable lines; the JSON result line is printed after them."""
    line, spec, timed = result["line"], result["spec"], result["timed"]
    print(f"workload {name}: seed {spec['seed']}, {'smoke' if spec['smoke'] else 'full'} size, "
          f"closed loop, 1 client")
    print(f"  why: {workloads.WHY[name]}")
    print(f"  repetitions: 1 check (untimed) + {len(timed)} timed + {len(result['traced'])} traced, "
          f"{result['wall_s']:.1f} s; one single-threaded process each")
    if not result["traced"]:
        for key in ("run_s", "grad_evals_per_s", "setup_s", "peak_rss_mb"):
            vals = [r["grad_evals"] / r["run_s"] if key == "grad_evals_per_s" else r[key] for r in timed]
            print(f"  {key:<18} {line['metrics'][key]['value']:>14.6g} {END_TO_END[key]:<4} "
                  f"median of {len(vals)}, min {min(vals):.6g}, max {max(vals):.6g}")
    else:
        for key, unit in PER_LAYER.items():
            print(f"  {key:<46} {line['metrics'][key]['value']:>14.6g} {unit}")
    print(f"  {'failed_frac':<18} {line['failed'] / line['attempted']:>14.6g} ratio "
          f"{line['failed']} of {line['attempted']} operations failed")
    bad = [c for c in result["checks"] if not c.ok]
    print(f"  checks: {len(result['checks'])} run, {len(bad)} failed")
    for c in bad:
        print(f"    FAILED {c.name}: {c.detail}")
    print(f"  output digest: sha256:{result['digest']}")
    recorded = None if spec["smoke"] else recorded_digest(name, spec["seed"])
    if recorded is not None:
        same = "matches" if recorded[1] == result["digest"] else "DIFFERS FROM"
        print(f"  output digest {same} the one recorded at commit {recorded[0][:12]}")
    print(f"  versions: {json.dumps(result['first']['versions'])}; nproc {os.cpu_count()}; "
          f"threads {json.dumps(THREAD_ENV)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills and reaps the running
    # repetition, and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "vrld" / "__init__.py").is_file():
        print(f"bench: no vrld sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except RepError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    report(args.workload, result)
    print(json.dumps(result["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

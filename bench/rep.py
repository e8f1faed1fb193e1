"""One repetition of a benchmark workload, in a fresh single-threaded process.

    python3 bench/rep.py SPEC_JSON [--check] [--trace]

``run.py`` starts it from the workload's work directory, with the
repository's ``src`` first on PYTHONPATH and the BLAS pools at one thread.
It prints one JSON object: set-up and run timings, peak RSS, the objective's
own gradient count, a digest of the outputs, the output checks and, with
--trace, the per-layer numbers.  With --check it also runs the checks that
need a reference computation; the counter check runs on every repetition.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

# stdlib-only modules of the benchmark; numpy and ``checks`` are imported
# after the set-up has been timed
import tracing
import workloads


def _read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln and not ln.startswith("#")]
    return lines[0].split(","), [[float(v) for v in ln.split(",")] for ln in lines[1:]]


def _digest_files(out: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(out.iterdir()) if out.is_dir() else []:
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def _blas_name(numpy) -> str:
    try:
        return numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def _quad_run(vrld, spec, capture, check) -> dict:
    import checks
    import numpy as np

    out = Path("out")
    files = sorted(out.glob("replicate_*.csv"))
    R, K = spec["R"], spec["K"]
    n, B, m = spec["n"], spec["B"], spec["m"]
    found = []
    for f in files:
        cols, rows = _read_csv(f)
        found.append((cols, np.asarray(rows)))
    diverged = R - len(found) + sum(1 for _, a in found if a.size == 0 or int(a[-1, 0]) != K)
    grad_evals_at = vrld.samplers.grad_evals_at
    result = [checks.counter_total(sum(o.grad_evals for o in capture.objectives),
                                   R * grad_evals_at("svrg_ld", K, n, B, m))]
    if check:
        name, params = spec["potential"]
        ref_obj = vrld.make_builtin(name, params)
        xcols = [f"x{j}" for j in range(spec["d"])]
        for r, (cols, a) in enumerate(found):
            steps = a[:, cols.index("step")]
            result.append(checks.grad_accounting(
                f"replicate {r}", "svrg_ld", steps, a[:, cols.index("grad_evals")], n, B, m, grad_evals_at))
            # equal component curvatures: the anchored estimator equals the full
            # gradient for every subset, so the chain is the lmc chain
            ref = vrld.run_chain(ref_obj, vrld.SamplerConfig(
                variant="lmc", eta=spec["eta"], gamma=spec["gamma"], K=K, seed=spec["seed"],
                store_every=spec["thin"]), np.asarray(spec["x0"]), replicate=r)
            result.append(checks.iterates_match(
                f"replicate {r} vs lmc", a[:, [cols.index(c) for c in xcols]], ref.iterates))
    return {"replicates": R, "diverged": diverged, "digest": _digest_files(out), "checks": result}


def _logistic_compare(vrld, spec, capture, check) -> dict:
    import checks
    import numpy as np

    out = Path("out")
    R, K = spec["R"], spec["K"]
    n, B, m = spec["n"], spec["B"], spec["m"]
    table = {}
    path = out / "compare.csv"
    for line in path.read_text(encoding="utf-8").splitlines()[2:] if path.is_file() else []:
        if line:
            variant, value, _ = line.split(",")
            table[variant] = value
    diverged = R * sum(1 for v in spec["variants"] if v not in table)
    grad_evals_at = vrld.samplers.grad_evals_at
    objectives = capture.objectives
    result = [checks.counter_total(sum(o.grad_evals for o in objectives),
                                   R * sum(grad_evals_at(v, K, n, B, m) for v in spec["variants"]))]
    for v in spec["variants"]:
        value = table.get(v, "diverged")
        reached = value not in ("diverged", "not_reached")
        result.append(checks.Check(f"threshold reached {v}", reached, f"grad evals {value}"))
    if check:
        for i, t in enumerate(capture.traces):
            result.append(checks.grad_accounting(
                f"{t.variant} chain {i % R}", t.variant, t.steps, t.grad_evals, n, B, m, grad_evals_at))
        A, labels = workloads.logistic_data(spec["seed"], n, spec["d"])
        points = np.array([spec["x0"]] + [t.final_x for t in capture.traces])
        value, grad = checks.logistic_closed_form(A, labels, spec["lam"], points)
        if not objectives:
            result.append(checks.Check("oracle", False, "the run constructed no objective"))
        else:
            result.append(checks.oracle_matches("value", objectives[0].value(points), value))
            result.append(checks.oracle_matches("gradient", objectives[0].gradient(points), grad))
    return {"replicates": R * len(spec["variants"]), "diverged": diverged,
            "digest": _digest_files(out), "checks": result}


def _ensemble_call(vrld, obj, spec):
    res = vrld.run_ensemble(obj, "svrg_ld", spec["R"], spec["K"], eta=spec["eta"], gamma=spec["gamma"],
                            B=spec["B"], m=spec["m"], seed=spec["seed"], checkpoints=spec["checkpoints"])
    gibbs = vrld.diagnostics.gibbs_moments(obj, spec["gamma"])
    kl = [vrld.diagnostics.moment_kl_surrogate(res.checkpoints[k], gibbs) for k in spec["checkpoints"]]
    return res, kl


def _ensemble_desk(vrld, spec, obj, outcome, check) -> dict:
    import checks

    R, K = spec["R"], spec["K"]
    n, B, m = spec["n"], spec["B"], spec["m"]
    grad_evals_at = vrld.samplers.grad_evals_at
    result = [checks.counter_total(obj.grad_evals, R * grad_evals_at("svrg_ld", K, n, B, m))]
    res, kl = outcome
    h = hashlib.sha256()
    for k in sorted(res.checkpoints):
        h.update(f"{k}:".encode() + res.checkpoints[k].tobytes())
    h.update(repr(kl).encode())
    if check:
        ks = spec["checkpoints"]
        result.append(checks.grad_accounting("checkpoints", "svrg_ld", ks, [res.grad_evals[k] for k in ks],
                                             n, B, m, grad_evals_at))
        # from x0 = 0 on the unit-curvature, zero-mean quadratic the chain law
        # at step K is exactly N(0, (1 - (1 - eta)^(2K)) / (gamma (1 - eta/2)))
        eta, gamma = spec["eta"], spec["gamma"]
        var = (1.0 - (1.0 - eta) ** (2 * K)) / (gamma * (1.0 - eta / 2.0))
        result.extend(checks.gaussian_law(res.checkpoints[K], var))
    return {"replicates": R, "diverged": 0, "digest": h.hexdigest(), "checks": result}


def _layer_metrics(spec: dict, stats: dict, run_s: float, grad_evals: int, index_words: int,
                   setup: dict, bytes_written: int) -> dict:
    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def us_per_call(name):
        c, total, _ = stats.get(name, (0, 0.0, 0.0))
        return 1e6 * total / c if c else 0.0

    def self_s(names):
        return sum(stats[name][2] for name in names if name in stats)

    out = {}
    for op in ("gradient", "minibatch_gradient", "minibatch_gradient_rows", "value"):
        out[f"potentials.{op}.calls"] = calls(f"potentials.{op}")
        out[f"potentials.{op}.us_per_call"] = us_per_call(f"potentials.{op}")
    out["potentials.grad_evals"] = grad_evals
    out["potentials.self_share"] = self_s([s for s in stats if s.startswith("potentials.")]) / run_s
    out["samplers.sample_index_set.calls"] = calls("samplers.sample_index_set")
    out["samplers.sample_index_set.us_per_call"] = us_per_call("samplers.sample_index_set")
    out["samplers.self_us_per_step"] = 1e6 * self_s(tracing.RUNNERS) / workloads.replicate_steps(spec)
    out["samplers.subset_uniforms_per_index"] = index_words / workloads.inner_subset_draws(spec)
    out["diagnostics.moment_kl_surrogate.us_per_call"] = us_per_call("diagnostics.moment_kl_surrogate")
    out["diagnostics.moment_w2_surrogate.us_per_call"] = us_per_call("diagnostics.moment_w2_surrogate")
    ckpts = spec["diag_checkpoints"]
    out["diagnostics.moments_per_checkpoint"] = calls("diagnostics.moments_of") / ckpts if ckpts else 0.0
    out["theory.kl_bound.calls"] = calls("theory.kl_bound")
    out["theory.kl_bound.us_per_call"] = us_per_call("theory.kl_bound")
    out["config.parse_ms"] = setup["parse_ms"]
    out["setup.import_s"] = setup["import_s"]
    out["setup.build_ms"] = setup["build_ms"]
    cli_self = self_s(["cli.main"])
    out["cli.self_ms"] = 1e3 * cli_self
    out["cli.self_share"] = cli_self / run_s
    out["cli.bytes_written"] = bytes_written
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("spec")
    ap.add_argument("--check", action="store_true", help="also run the reference checks")
    ap.add_argument("--trace", action="store_true", help="record spans and report per-layer numbers")
    args = ap.parse_args(argv)
    spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    cli_workload = "argv" in spec
    clock = time.perf_counter

    # set-up: what a user pays before the first sample, in a fresh process
    t0 = clock()
    import vrld
    if cli_workload:
        import vrld.cli
        t1 = clock()
        vrld.config.parse_config(spec["config"])
    else:
        import vrld.diagnostics
        t1 = clock()
    t2 = clock()
    name, params = spec["potential"]
    obj = vrld.make_builtin(name, params)
    t3 = clock()
    setup = {"setup_s": t3 - t0, "import_s": t1 - t0, "parse_ms": 1e3 * (t2 - t1), "build_ms": 1e3 * (t3 - t2)}

    import checks
    import numpy
    import scipy

    capture, tracer = tracing.Capture(), tracing.Tracer() if args.trace else None
    error = None
    with tracing.Patches() as patches:
        capture.install(patches, rng_streams=args.trace)
        if tracer is not None:
            tracer.install(patches)
        start = clock()
        try:
            outcome = vrld.cli.main(spec["argv"]) if cli_workload else _ensemble_call(vrld, obj, spec)
        except Exception:  # the workload's failure is reported, not raised
            error = traceback.format_exc()
        run_s = clock() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    grad_evals = obj.grad_evals if not cli_workload else sum(o.grad_evals for o in capture.objectives)

    if error is not None:
        sys.stderr.write(error)
        report = {"replicates": spec["R"] * len(spec["variants"]), "diverged": spec["R"] * len(spec["variants"]),
                  "digest": "", "checks": []}
    elif cli_workload:
        rc = outcome
        reader = _quad_run if spec["argv"][0] == "run" else _logistic_compare
        report = reader(vrld, spec, capture, args.check)
        report["checks"].insert(0, checks.Check("exit code", rc == 0, f"vrld {spec['argv'][0]} returned {rc}"))
    else:
        report = _ensemble_desk(vrld, spec, obj, outcome, args.check)

    result = dict(setup, run_s=run_s, peak_rss_mb=peak_rss_mb, grad_evals=grad_evals,
                  versions={"python": platform.python_version(), "numpy": numpy.__version__,
                            "scipy": scipy.__version__, "blas": _blas_name(numpy)},
                  **report)
    result["checks"] = [list(c) for c in result["checks"]]
    if tracer is not None:
        out = Path("out")
        written = sum(f.stat().st_size for f in out.iterdir()) if out.is_dir() else 0
        result["layers"] = _layer_metrics(spec, tracer.stats(), run_s, grad_evals, capture.index_words(),
                                          setup, written)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line experiment runner, theory calculator, and sweep engine.

Subcommands: run, theory, compare, sweep, validate-config.  All numeric
output uses round-trip decimal formatting (repr); run artifacts are CSV files
whose header comments embed the fully resolved configuration.  Exit codes:
0 success, 2 configuration error, 3 numerical divergence.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import diagnostics, samplers, theory
from .config import ConfigError, ExperimentConfig, parse_config
from .potentials import FiniteSumObjective, make_builtin
from .samplers import RunTrace, SamplerConfig
from .theory import HypothesisViolation

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


# -- resolution ---------------------------------------------------------------


def build_objective(cfg: ExperimentConfig) -> FiniteSumObjective:
    pot = cfg.potential
    name = pot["name"]
    params: dict = {}
    if name == "gaussian_quadratic":
        if pot.get("n") is None or pot.get("d") is None:
            raise ConfigError("[potential] gaussian_quadratic needs n and d")
        params = {
            "n": pot["n"], "d": pot["d"], "seed": pot["seed"],
            "spread": pot["spread"], "zero_mean": pot["zero_mean"],
        }
        if pot.get("scales") is not None:
            params["scales"] = pot["scales"]
    elif name == "double_well":
        for key in ("a", "n_copies", "box"):
            if pot.get(key) is not None:
                params[key] = pot[key]
        if pot.get("d") is not None:
            params["d"] = pot["d"]
    elif name == "gaussian_mixture":
        if pot.get("mu") is not None:
            params["mu"] = pot["mu"]
        for key in ("sigma", "n_copies"):
            if pot.get(key) is not None:
                params[key] = pot[key]
    elif name == "logistic_l2":
        if pot.get("data") is None:
            raise ConfigError("[potential] logistic_l2 needs data = <path>")
        params = {"data_file": pot["data"]}
        if pot.get("lam") is not None:
            params["lam"] = pot["lam"]
    try:
        return make_builtin(name, params)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"[potential] {exc}") from exc


class Lsi(NamedTuple):
    """The [theory] log-Sobolev constant at the run's gamma (None when none is
    declared), with the dissipative mode's C1 and C2, which the annealed-schedule
    check needs."""

    alpha: float | None
    C1: float | None = None
    C2: float | None = None


def resolve_alpha(cfg: ExperimentConfig, obj: FiniteSumObjective, gamma: float) -> tuple[Lsi, list[str]]:
    """Log-Sobolev constant per [theory] alpha_mode: declared, dissipative, or
    weak_morse.  Refuses estimated L and violated gamma floors."""
    th = cfg.theory or {}
    mode = th.get("alpha_mode", "declared")
    notes: list[str] = []
    if mode == "declared":
        return Lsi(th.get("alpha")), notes
    if obj.L is None:
        raise ConfigError("[theory] LSI modes need a declared smoothness constant L")
    if "L" in obj.estimated_constants:
        raise ConfigError(
            "[theory] refusing to feed a grid-estimated L into an LSI formula; "
            "declare alpha explicitly instead"
        )
    if obj.M is None or obj.b is None:
        raise ConfigError("[theory] LSI modes need dissipativity constants (M, b)")
    if mode == "dissipative":
        a_star = th.get("A_star")
        b_star = th.get("B_star")
        if a_star is None or b_star is None:
            raise ConfigError("[theory] alpha_mode=dissipative needs A_star and B_star")
        try:
            res = theory.lsi_constant_dissipative(
                gamma, obj.L, obj.M, obj.b, obj.d, a_star, b_star, th.get("C_star", 1.0)
            )
        except HypothesisViolation as exc:
            raise ConfigError(f"[theory] {exc}") from exc
        notes.append(
            f"alpha from dissipative LSI: C1={_fmt(res.C1)} C2={_fmt(res.C2)} "
            f"log_alpha={_fmt(res.log_alpha)} (C_star={_fmt(th.get('C_star', 1.0))} "
            "is a stand-in for an unknown universal constant)"
        )
        return Lsi(res.alpha, res.C1, res.C2), notes
    if mode == "weak_morse":
        needed = ("lambda_dagger", "L_prime", "C_F")
        if any(th.get(k) is None for k in needed):
            raise ConfigError(f"[theory] alpha_mode=weak_morse needs {', '.join(needed)}")
        try:
            res = theory.lsi_constant_weak_morse(
                gamma, th["lambda_dagger"], obj.M, obj.L, obj.d, th["L_prime"], th["C_F"]
            )
        except HypothesisViolation as exc:
            raise ConfigError(f"[theory] {exc}") from exc
        notes.append(f"alpha from weak-Morse LSI: C3={_fmt(res.C3)} gamma_floor={_fmt(res.gamma_floor)}")
        return Lsi(res.alpha), notes
    raise ConfigError(f"[theory] unknown alpha_mode {mode!r}")


def resolve_sampler(
    cfg: ExperimentConfig, obj: FiniteSumObjective
) -> tuple[SamplerConfig, samplers.AnnealSchedule | None, Lsi, list[str]]:
    """Turn the [sampler] (and optional [anneal]) sections into a concrete
    SamplerConfig plus schedule, applying the theory-driven auto mode when
    requested, and resolve the [theory] alpha once, at the resolved gamma
    (the first epoch's for a schedule), in every alpha_mode."""
    s = cfg.sampler
    variant = s["variant"].lower()
    if variant not in samplers.VARIANTS:
        raise ConfigError(f"[sampler] variant must be one of {samplers.VARIANTS}")
    notes: list[str] = []
    run = cfg.run
    sched = lsi = None
    if cfg.anneal is not None:
        if variant not in ("svrg_ld", "sarah_ld"):
            raise ConfigError("[anneal] applies to svrg_ld / sarah_ld only")
        if s.get("auto"):
            raise ConfigError("[anneal] and auto mode are mutually exclusive")
        if s.get("eta") is not None:
            raise ConfigError("[anneal] supplies the step size; drop [sampler] eta")
        if cfg.is_set("sampler", "gamma"):
            raise ConfigError("[anneal] supplies the inverse temperature; drop [sampler] gamma")
        if s.get("steps") is None:
            raise ConfigError("[sampler] needs steps")
        try:
            sched = samplers.AnnealSchedule(**cfg.anneal)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"[anneal] {exc}") from exc
        notes.append(
            f"annealed epochs: eta_0={_fmt(sched.eta(0))} gamma_0={_fmt(sched.gamma(0))}"
        )
        resolved = SamplerConfig(
            variant=variant, eta=sched.eta(0), gamma=sched.gamma(0), B=s["batch"],
            m=s["epoch"], K=s["steps"], seed=run["seed"], store_every=run["thin"],
            burn_in=run["burn_in"],
        )
    elif s.get("auto"):
        eps = s.get("eps")
        if eps is None:
            raise ConfigError("[sampler] auto mode needs a target eps")
        if variant not in ("svrg_ld", "sarah_ld"):
            raise ConfigError("[sampler] auto mode applies to svrg_ld / sarah_ld")
        if obj.L is None:
            raise ConfigError("[sampler] auto mode needs a declared L")
        if "L" in obj.estimated_constants:
            raise ConfigError("[sampler] auto mode refuses a grid-estimated L")
        th = cfg.theory or {}
        if th.get("H0") is None:
            raise ConfigError("[theory] auto mode needs H0 (initial KL estimate)")
        gamma = s.get("gamma", 1.0)
        lsi, alpha_notes = resolve_alpha(cfg, obj, gamma)
        notes.extend(alpha_notes)
        alpha = lsi.alpha
        if alpha is None:
            raise ConfigError("[theory] alpha_mode=declared needs alpha")
        B = m = max(1, min(obj.n, round(math.sqrt(obj.n))))
        eta = theory.recommended_eta(variant, eps, gamma, alpha, obj.d, obj.L, obj.n)
        cap = theory.step_size_cap(variant, alpha, obj.L, m, gamma)
        if eta >= cap:
            eta = cap * (1.0 - 1e-9)  # strict-inequality nudge
        K = theory.iterations_for_eps(eps, th["H0"], gamma, alpha, eta)
        K = max(m, ((K + m - 1) // m) * m)
        notes.append(
            f"auto mode: B=m={B} eta={_fmt(eta)} K={K} (eps={_fmt(eps)}, alpha={_fmt(alpha)})"
        )
        resolved = SamplerConfig(
            variant=variant, eta=eta, gamma=gamma, B=B, m=m, K=K,
            seed=run["seed"], store_every=run["thin"], burn_in=run["burn_in"],
        )
    else:
        if s.get("eta") is None or s.get("steps") is None:
            raise ConfigError("[sampler] needs eta and steps (or auto = true)")
        m = s["epoch"]
        if variant in ("lmc", "sgld") and m != 1:
            # kept legal: compare runs every variant from one [sampler] section
            notes.append(f"[sampler] epoch = {m} does not apply to {variant}; resolved m = 1")
            m = 1
        resolved = SamplerConfig(
            variant=variant, eta=s["eta"], gamma=s["gamma"], B=s["batch"], m=m,
            K=s["steps"], seed=run["seed"], store_every=run["thin"], burn_in=run["burn_in"],
        )
    try:
        resolved.validate(obj.n)
    except ValueError as exc:
        raise ConfigError(f"[sampler] {exc}") from exc
    if lsi is None:
        lsi, alpha_notes = resolve_alpha(cfg, obj, resolved.gamma)
        notes = alpha_notes + notes
    return resolved, sched, lsi, notes


def check_run(cfg: ExperimentConfig, obj: FiniteSumObjective, scfg: SamplerConfig,
              sched: samplers.AnnealSchedule | None, lsi: Lsi) -> list[theory.Violation]:
    """theory.check_hypotheses on the resolved run: its violations refuse the
    run, and its notes go wherever resolve notes go."""
    lsi_mode = (cfg.theory or {}).get("alpha_mode", "declared") != "declared"
    return theory.check_hypotheses(
        scfg.variant, scfg.eta, scfg.gamma, lsi.alpha, obj.L, scfg.B, scfg.m,
        M=obj.M if lsi_mode else None, sched=sched, epochs=scfg.K // scfg.m,
        C1=lsi.C1, C2=lsi.C2, L_estimated="L" in obj.estimated_constants,
    )


# -- run artifacts ---------------------------------------------------------------


def _resolved_header(cfg: ExperimentConfig, obj: FiniteSumObjective, scfg: SamplerConfig,
                     extra: dict | None = None) -> list[str]:
    lines = ["# vrld run"]
    for section_name in ("potential", "sampler", "theory", "anneal", "run", "compare", "sweep"):
        section = getattr(cfg, section_name)
        if section is None:
            continue
        for key, value in section.items():
            if value is not None:
                lines.append(f"# {section_name}.{key} = {_fmt(value)}")
    for key, value in {
        "resolved.variant": scfg.variant, "resolved.eta": scfg.eta, "resolved.gamma": scfg.gamma,
        "resolved.B": scfg.B, "resolved.m": scfg.m, "resolved.K": scfg.K,
        "resolved.seed": scfg.seed, "resolved.potential_n": obj.n, "resolved.potential_d": obj.d,
        **(extra or {}),
    }.items():
        lines.append(f"# {key} = {_fmt(value)}")
    return lines


def _values(obj: FiniteSumObjective, traces: list[RunTrace]) -> list[np.ndarray]:
    """F along each trace, computed once; a huge iterate reads inf or nan, silently."""
    with np.errstate(over="ignore", invalid="ignore"):
        return [np.asarray(obj.value(t.iterates), dtype=float) for t in traces]


def _cells(values, blank_nan: bool = False) -> list[str]:
    """Round-trip cells of an int or float column; nan reads blank (no value) if asked."""
    return ["" if blank_nan and math.isnan(v) else repr(v) for v in np.asarray(values).tolist()]


def _lines(columns) -> str:
    """CSV rows from equal-length columns of cells, each row ending in a newline."""
    return "".join(",".join(row) + "\n" for row in zip(*columns))


def _write_csv(path: Path, header: list[str], columns: dict[str, list[str]], footer: list[str] = ()) -> None:
    """Comment lines, the column names, the rows, then footer comment lines."""
    path.write_text(_lines([[*header, ",".join(columns)]]) + _lines(columns.values()) + _lines([footer]),
                    encoding="utf-8")


def _trace_columns(trace: RunTrace) -> dict[str, list[str]]:
    return {"step": _cells(trace.steps), "epoch": _cells(trace.steps // trace.m),
            "grad_evals": _cells(trace.grad_evals)}


def _summary_columns(cfg: ExperimentConfig, obj: FiniteSumObjective, scfg: SamplerConfig,
                     traces: list[RunTrace], fvals: list[np.ndarray], alpha: float | None,
                     findings: list[theory.Violation], annealed: bool) -> dict[str, list[str]]:
    # the longest trace has every stored step any replicate reached
    R, grid = len(traces), max(traces, key=lambda t: t.steps.size)
    steps = grid.steps
    H0 = (cfg.theory or {}).get("H0")
    gibbs = diagnostics.gibbs_moments(obj, scfg.gamma)
    # the overlay is written only when the run's one check_run call found nothing, notes included
    bounds_ok = (
        not annealed and not findings
        and alpha is not None and H0 is not None and obj.L is not None
        and scfg.variant in ("svrg_ld", "sarah_ld")
    )
    # each replicate padded with nan (no value, a blank cell) from the step it stopped at;
    # (T, R) rows: a step's mean/se equal its own 1-d reduction bitwise; axis 0 would not
    all_f = np.full((steps.size, R), np.nan)
    iterates = np.full((steps.size, R, obj.d), np.nan)
    for r, (trace, f) in enumerate(zip(traces, fvals)):
        all_f[:f.size, r], iterates[:f.size, r] = f, trace.iterates
    with np.errstate(over="ignore", invalid="ignore"):
        f_mean = all_f.mean(axis=1)
        se = _cells(all_f.std(axis=1, ddof=1) / math.sqrt(R) if R > 1 else np.zeros(len(all_f)), blank_nan=True)
    cols = {**_trace_columns(grid), "mean_f": _cells(f_mean, blank_nan=True), "se_f": se}
    if obj.F_star is not None:
        cols.update(suboptimality=_cells(f_mean - obj.F_star, blank_nan=True), se_suboptimality=se)
    if gibbs is not None and R >= obj.d + 2:
        kl, w2 = diagnostics.moment_surrogates(iterates, gibbs)
        cols.update(kl_surrogate=_cells(kl, blank_nan=True), w2_surrogate=_cells(w2, blank_nan=True))
    if bounds_ok:
        # kl_bound's two parts; only the decay depends on the step
        bias = theory.bias_term(scfg.variant, scfg.eta, scfg.gamma, obj.d, obj.L, alpha, obj.n, scfg.B, scfg.m)
        decay = [theory.kl_decay(H0, k, scfg.eta, scfg.gamma, alpha) for k in steps.tolist()]
        cols.update(bound_kl_total=[repr(x + bias) for x in decay], bound_kl_decay=[repr(x) for x in decay],
                    bound_kl_bias=[repr(bias)] * steps.size)
    return cols


def _burn_in_footer(obj: FiniteSumObjective, scfg: SamplerConfig, traces: list[RunTrace],
                    fvals: list[np.ndarray]) -> list[str]:
    """Time-averaged statistics over the stored post-burn-in steps, pooled
    across replicates over the steps each one reached."""
    post = [f[t.steps >= scfg.burn_in] for t, f in zip(traces, fvals)]
    sizes = {p.size for p in post}
    if sizes == {0}:
        return [f"# post_burn_in = none (burn_in={scfg.burn_in} exceeds stored steps)"]
    with np.errstate(over="ignore", invalid="ignore"):
        mean_f = float(np.concatenate(post).mean())
    # replicates that stopped at different steps reach different counts: give their total
    count = f"{sizes.pop()} per replicate" if len(sizes) == 1 else f"{sum(p.size for p in post)} in all"
    lines = [f"# post_burn_in_steps = {count} (burn_in={scfg.burn_in})",
             f"# post_burn_in_mean_f = {_fmt(mean_f)}"]
    if obj.F_star is not None:
        lines.append(f"# post_burn_in_suboptimality = {_fmt(mean_f - obj.F_star)}")
    return lines


def cmd_run(cfg: ExperimentConfig, out_dir: Path, quiet: bool) -> int:
    obj = build_objective(cfg)
    scfg, sched, lsi, notes = resolve_sampler(cfg, obj)
    findings = check_run(cfg, obj, scfg, sched, lsi)
    problems = [f.message for f in findings if f.kind == "violation"]
    if problems:
        print("configuration violates theorem hypotheses:", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return EXIT_CONFIG
    notes += [f.message for f in findings]
    run = cfg.run
    x0 = np.zeros(obj.d) if run.get("x0") is None else np.asarray(run["x0"], dtype=float)
    if x0.shape != (obj.d,):
        print(f"x0 must have dimension {obj.d}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir.mkdir(parents=True, exist_ok=True)
    traces = samplers.run_replicates(obj, scfg, x0, run["replicates"], sched=sched)
    header = _resolved_header(cfg, obj, scfg)
    for note in notes:
        header.append(f"# note: {note}")
    fvals = _values(obj, traces)
    for r, (trace, f) in enumerate(zip(traces, fvals)):
        cols = {**_trace_columns(trace), "f": _cells(f)}
        if obj.F_star is not None:
            cols["suboptimality"] = _cells(f - obj.F_star)
        if obj.d <= 16:
            cols.update((f"x{j}", _cells(trace.iterates[:, j])) for j in range(obj.d))
        _write_csv(out_dir / f"replicate_{r:03d}.csv", header + [f"# replicate = {r}"], cols)
    _write_csv(out_dir / "summary.csv", header,
               _summary_columns(cfg, obj, scfg, traces, fvals, lsi.alpha, findings, sched is not None),
               _burn_in_footer(obj, scfg, traces, fvals))
    diverged = [r for r, t in enumerate(traces) if t.diverged]
    if not quiet:
        print(f"wrote {len(traces)} replicate trace(s) and summary.csv to {out_dir}")
        for note in notes:
            print(f"note: {note}")
        if diverged:
            for r in diverged:
                print(f"replicate {r} diverged at step {traces[r].diverged_step}", file=sys.stderr)
    if diverged:
        return EXIT_DIVERGED
    return EXIT_OK


# -- compare ----------------------------------------------------------------------


def _auto_theory(cfg: ExperimentConfig) -> dict | None:
    """compare and sweep print no bound and check no hypothesis: [theory]
    reaches them only to pick auto mode's step size."""
    return cfg.theory if cfg.sampler["auto"] else None


def _metric_series(metric: str, obj: FiniteSumObjective, gamma: float,
                   traces: list[RunTrace], n_boot: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """(steps, metric matrix).  Per-chain metrics give one row per replicate;
    the ensemble kl_surrogate gives the full-ensemble series in row 0 followed
    by bootstrap resamples of the replicates (for the SE)."""
    steps = traces[0].steps
    if metric in ("suboptimality", "mean_f"):
        vals = np.stack(_values(obj, traces))
        if metric == "suboptimality":
            if obj.F_star is None:
                raise ConfigError("[compare] suboptimality metric needs a potential with F_star")
            vals = vals - obj.F_star
        return steps, vals
    if metric == "kl_surrogate":
        gibbs = diagnostics.gibbs_moments(obj, gamma)
        if gibbs is None:
            raise ConfigError("[compare] kl_surrogate metric needs the quadratic potential family")
        R = len(traces)
        if R < obj.d + 2:
            raise ConfigError(f"[compare] kl_surrogate needs at least {obj.d + 2} replicates, got {R}")
        ensembles = np.stack([t.iterates for t in traces], axis=1)  # (steps, R, d)
        rng = np.random.default_rng(0)
        rows = [np.arange(R)] + [rng.integers(0, R, size=R) for _ in range(n_boot)]
        # a checkpoint with no value (nan) never counts as below the threshold
        return steps, np.stack([diagnostics.moment_surrogates(ensembles[:, ids], gibbs)[0] for ids in rows])
    raise ConfigError(f"[compare] unknown metric {metric!r}")


def cmd_compare(cfg: ExperimentConfig, out_dir: Path, quiet: bool) -> int:
    if cfg.compare is None:
        print("compare needs a [compare] section", file=sys.stderr)
        return EXIT_CONFIG
    obj = build_objective(cfg)
    comp = cfg.compare
    threshold = comp["threshold"]
    variants = [v.lower() for v in comp["variants"]]
    if len(variants) < 2:
        print("[compare] needs at least two variants", file=sys.stderr)
        return EXIT_CONFIG
    run = cfg.run
    x0 = np.zeros(obj.d) if run.get("x0") is None else np.asarray(run["x0"], dtype=float)
    out_dir.mkdir(parents=True, exist_ok=True)
    table: list[tuple[str, str, str]] = []
    rows_csv: list[str] = []
    for variant in variants:
        section = dict(cfg.sampler)
        section["variant"] = variant
        vcfg = replace(cfg, sampler=section, theory=_auto_theory(cfg))
        try:
            scfg, sched, _, _ = resolve_sampler(vcfg, obj)
        except ConfigError as exc:
            print(exc, file=sys.stderr)
            return EXIT_CONFIG
        if sched is not None:
            print("[compare] annealed configs are not supported", file=sys.stderr)
            return EXIT_CONFIG
        traces = samplers.run_replicates(obj, scfg, x0, run["replicates"])
        if any(t.diverged for t in traces):
            table.append((variant, "diverged", ""))
            continue
        steps, vals = _metric_series(comp["metric"], obj, scfg.gamma, traces)

        def crossing(row) -> float | None:
            below = np.nonzero(row <= threshold)[0]
            if not below.size:
                return None
            return float(samplers.grad_evals_at(scfg.variant, int(steps[below[0]]), obj.n, scfg.B, scfg.m))

        if comp["metric"] == "kl_surrogate":
            estimate = crossing(vals[0])
            boots = [c for c in (crossing(r) for r in vals[1:]) if c is not None]
            se = float(np.std(boots, ddof=1)) if len(boots) > 1 else 0.0
        else:
            per_rep = [c for c in (crossing(r) for r in vals) if c is not None]
            if len(per_rep) < max(1, len(vals) // 2):
                estimate = None
                se = 0.0
            else:
                arr = np.asarray(per_rep)
                estimate = float(arr.mean())
                se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
        if estimate is None:
            table.append((variant, "not reached", ""))
            rows_csv.append(f"{variant},not_reached,")
        else:
            table.append((variant, repr(estimate), repr(se)))
            rows_csv.append(f"{variant},{estimate!r},{se!r}")
    with open(out_dir / "compare.csv", "w", encoding="utf-8") as fh:
        fh.write(f"# metric = {comp['metric']}, threshold = {_fmt(threshold)}\n")
        fh.write("variant,grad_evals_at_threshold,se\n")
        fh.write("\n".join(rows_csv) + "\n")
    if not quiet:
        width = max(len(v) for v, _, _ in table)
        print(f"grad evals to reach {comp['metric']} <= {_fmt(threshold)}")
        for variant, value, se in table:
            print(f"  {variant.ljust(width)}  {value}" + (f" +- {se}" if se else ""))
    return EXIT_OK


# -- sweep ------------------------------------------------------------------------


def cmd_sweep(cfg: ExperimentConfig, out_dir: Path, quiet: bool) -> int:
    if cfg.sweep is None:
        print("sweep needs a [sweep] section", file=sys.stderr)
        return EXIT_CONFIG
    axis = cfg.sweep["axis"].lower()
    values = cfg.sweep["values"]
    if axis not in ("eta", "gamma", "b", "m", "n"):
        print(f"[sweep] axis must be eta, gamma, B, m, or n, got {axis!r}", file=sys.stderr)
        return EXIT_CONFIG
    if axis == "m" and cfg.sampler["variant"].lower() in ("lmc", "sgld"):
        print(f"[sweep] axis m needs svrg_ld or sarah_ld; {cfg.sampler['variant']} has no epochs",
              file=sys.stderr)
        return EXIT_CONFIG
    run = cfg.run
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "sweep.csv"
    wrote_header = False
    with open(path, "w", encoding="utf-8") as fh:
        for value in values:
            pot = dict(cfg.potential)
            section = dict(cfg.sampler)
            if axis == "eta":
                section["eta"] = float(value)
            elif axis == "gamma":
                section["gamma"] = float(value)
            elif axis == "b":
                section["batch"] = int(value)
            elif axis == "m":
                section["epoch"] = int(value)
            else:
                if pot.get("name") == "gaussian_quadratic":
                    pot["n"] = int(value)
                elif pot.get("name") in ("double_well", "gaussian_mixture"):
                    pot["n_copies"] = int(value)
                else:
                    print("[sweep] n axis is not available for this potential", file=sys.stderr)
                    return EXIT_CONFIG
            vcfg = replace(cfg, potential=pot, sampler=section, theory=_auto_theory(cfg))
            try:
                obj = build_objective(vcfg)
                scfg, sched, _, _ = resolve_sampler(vcfg, obj)
            except ConfigError as exc:
                print(exc, file=sys.stderr)
                return EXIT_CONFIG
            if sched is not None:
                print("[sweep] annealed configs are not supported", file=sys.stderr)
                return EXIT_CONFIG
            x0 = np.zeros(obj.d) if run.get("x0") is None else np.asarray(run["x0"], dtype=float)
            traces = samplers.run_replicates(obj, scfg, x0, run["replicates"])
            if any(t.diverged for t in traces):
                print(f"sweep point {axis}={_fmt(value)} diverged", file=sys.stderr)
                return EXIT_DIVERGED
            gibbs = diagnostics.gibbs_moments(obj, scfg.gamma)
            if not wrote_header:
                fh.write("# " + ", ".join(f"{k}={_fmt(v)}" for k, v in cfg.sweep.items()) + "\n")
                fh.write("axis,value,replicate,step,epoch,grad_evals,f,kl_surrogate\n")
                wrote_header = True
            label = [axis, _fmt(value)]
            for r, (trace, f) in enumerate(zip(traces, _values(obj, traces))):
                fh.write(_lines([[c] * f.size for c in label + [str(r)]]
                                + [*_trace_columns(trace).values(), _cells(f), [""] * f.size]))
            if gibbs is not None and len(traces) >= obj.d + 2:
                kl, _ = diagnostics.moment_surrogates(np.stack([t.iterates for t in traces], axis=1), gibbs)
                fh.write(_lines([[c] * kl.size for c in label + ["all"]]
                                + [*_trace_columns(traces[0]).values(), [""] * kl.size, _cells(kl, blank_nan=True)]))
    if not quiet:
        print(f"wrote {path}")
    return EXIT_OK


# -- theory queries -----------------------------------------------------------------


_ALIASES = {"α": "alpha", "γ": "gamma", "η": "eta", "ε": "eps", "η̄": "eta_bar", "λ": "lambda_dagger"}


def _q(names: str):
    return names.split()


def _kl_bound_query(a: dict) -> dict:
    kb = theory.kl_bound(
        a["variant"], a["H0"], int(a["k"]), a["eta"], a["gamma"], a["alpha"],
        int(a["d"]), a["L"], int(a["n"]), int(a["B"]), int(a["m"]),
    )
    return {"decay": kb.decay, "bias": kb.bias, "total": kb.total, "bias_coarse": kb.bias_coarse}


_QUERIES: dict[str, tuple[list[str], object, str]] = {
    "xi": (_q("n B"), lambda a: {"xi": theory.minibatch_variance_factor(int(a["n"]), int(a["B"]))},
           "xi = (n - B) / (B * (n - 1)); xi(1, 1) = 0 by convention"),
    "upsilon": (_q("n B m"), lambda a: dict(zip(("xi", "lambda", "upsilon"),
                theory.variance_reduction_factors(int(a["n"]), int(a["B"]), int(a["m"])))),
                "upsilon = (1 + 2 xi) + xi + 1 + 2 m xi, capped universally at 7"),
    "step_cap": (_q("variant alpha L m gamma"),
                 lambda a: {"cap": theory.step_size_cap(a["variant"], a["alpha"], a["L"], int(a["m"]), a["gamma"])},
                 "cap = alpha / (16 sqrt(6 or 2) L^2 m gamma)  [anchored / recursive]"),
    "bias": (_q("variant eta gamma d L alpha n B m"),
             lambda a: {
                 "bias": theory.bias_term(a["variant"], a["eta"], a["gamma"], int(a["d"]), a["L"],
                                          a["alpha"], int(a["n"]), int(a["B"]), int(a["m"])),
                 "bias_coarse": theory.bias_term_coarse(a["eta"], a["gamma"], int(a["d"]), a["L"], a["alpha"]),
             },
             "bias = (32 eta gamma d L^2 / 3 alpha) * factor; coarse = 224 eta gamma d L^2 / (3 alpha)"),
    "kl_bound": (_q("variant H0 k eta gamma alpha d L n B m"),
                 lambda a: _kl_bound_query(a),
                 "KL <= exp(-alpha eta k / gamma) H0 + bias"),
    "eta_for_eps": (_q("variant eps gamma alpha d L n B m"),
                    lambda a: {"eta": theory.eta_for_eps(a["variant"], a["eps"], a["gamma"], a["alpha"],
                                                         int(a["d"]), a["L"],
                                                         int(a["n"]) if "n" in a else None,
                                                         int(a["B"]) if "B" in a else None,
                                                         int(a["m"]) if "m" in a else None)},
                    "largest eta keeping the bias at eps/2"),
    "iters_for_eps": (_q("eps H0 gamma alpha eta"),
                      lambda a: {"k": theory.iterations_for_eps(a["eps"], a["H0"], a["gamma"], a["alpha"], a["eta"])},
                      "k = ceil((gamma / alpha eta) log(2 H0 / eps))"),
    "grad_complexity": (_q("k B m n"),
                        lambda a: {"count": theory.gradient_complexity(int(a["k"]), int(a["B"]), int(a["m"]), int(a["n"]))},
                        "count = (k / m)(n + 2 B (m - 1))"),
    "talagrand_w2": (_q("H alpha"), lambda a: {"w2": theory.talagrand_w2_bound(a["H"], a["alpha"])},
                     "W2 <= sqrt(2 H / alpha)"),
    "lsi_dissipative": (_q("gamma L M b d A_star B_star C_star"),
                        lambda a: theory.lsi_constant_dissipative(a["gamma"], a["L"], a["M"], a["b"],
                                                                  int(a["d"]), a["A_star"], a["B_star"],
                                                                  a.get("C_star", 1.0)).__dict__,
                        "alpha = gamma C1 exp(-C2 gamma); CAVEAT: C_star defaults to 1, true value unknown"),
    "lsi_weak_morse": (_q("gamma lambda_dagger M L d L_prime C_F"),
                       lambda a: theory.lsi_constant_weak_morse(a["gamma"], a["lambda_dagger"], a["M"],
                                                                a["L"], int(a["d"]), a["L_prime"],
                                                                a["C_F"]).__dict__,
                       "alpha = C3 / gamma above the gamma floor"),
    "gamma_opt": (_q("eps d L M b"),
                  lambda a: {"gamma": theory.inverse_temperature_for_accuracy(a["eps"], int(a["d"]), a["L"], a["M"], a["b"])},
                  "gamma = max((4d/eps) log(eL/M), 16 d b / eps^2, 1, 2/M), so gibbs_bound <= eps/4: "
                  "the first term puts (d/2 gamma) log(eL/M) <= eps/8, and log(1+x) <= sqrt(x) puts "
                  "the rest <= sqrt(d b / gamma)/2 <= eps/8; replaces the published 8 d b / eps^2, "
                  "which is a factor 2 short"),
    "gibbs_bound": (_q("gamma d L M b"),
                    lambda a: {"bound": theory.gibbs_suboptimality_bound(a["gamma"], int(a["d"]), a["L"], a["M"], a["b"])},
                    "bound = (d / 2 gamma) log((eL/M)(b gamma / d + 1))"),
    "subopt_decomp": (_q("w2 L gamma d M b"),
                      lambda a: {"bound": theory.suboptimality_decomposition(a["w2"], a["L"], a["gamma"], int(a["d"]), a["M"], a["b"])},
                      "bound = L W2^2 + 2 * gibbs_bound"),
    "kl_target": (_q("alpha eps L"),
                  lambda a: {"kl": theory.kl_target_for_suboptimality(a["alpha"], a["eps"], a["L"])},
                  "kl = alpha eps / (4 L)"),
    "opt_eta": (_q("alpha L n gamma d eps"),
                lambda a: {"eta": theory.optimization_step_size(a["alpha"], a["L"], int(a["n"]), a["gamma"], int(a["d"]), a["eps"])},
                "eta = min(alpha / (16 sqrt(6) L^2 sqrt(n) gamma), (3/1792) alpha^2 eps / (L^2 d gamma))"),
    "chi": (_q("d L M b"), lambda a: {"chi": theory.chi_constant(int(a["d"]), a["L"], a["M"], a["b"])},
            "chi = max over gamma >= 1 of (d/gamma) log((eL/M)(b gamma/d + 1))"),
    "anneal_sigma_floor": (_q("L g eta_bar mu C1 C2"),
                           lambda a: {"sigma": theory.anneal_sigma_floor(a["L"], a["g"], a["eta_bar"], a["mu"], a["C1"], a["C2"])},
                           "sigma = max(3, (8 L g^2 / C1^2 eta_bar)^(mu/(mu-3)), (2 / (mu C2 L^2 eta_bar^2))^(mu/(mu-2)))"),
    "anneal_eta": (_q("eta_bar sigma mu s"),
                   lambda a: {"eta_s": a["eta_bar"] * (a["s"] + a["sigma"]) ** (-1.0 / a["mu"])},
                   "eta_s = eta_bar (s + sigma)^(-1/mu)"),
    "anneal_gamma": (_q("gamma_bar g sigma mu s"),
                     lambda a: {"gamma_s": a["gamma_bar"] * (math.log(a["g"]) + math.log(a["s"] + a["sigma"]) / a["mu"])},
                     "gamma_s = gamma_bar log(g (s + sigma)^(1/mu))"),
}


def cmd_theory(tokens: list[str]) -> int:
    if not tokens:
        print("available theory queries:")
        for name, (params, _, formula) in sorted(_QUERIES.items()):
            print(f"  {name} {' '.join(p + '=..' for p in params)}")
        return EXIT_OK
    name = tokens[0]
    if name not in _QUERIES:
        print(f"unknown theory query {name!r}; run `vrld theory` for the list", file=sys.stderr)
        return EXIT_CONFIG
    params, fn, formula = _QUERIES[name]
    args: dict = {}
    for token in tokens[1:]:
        if "=" not in token:
            if token in ("svrg", "sarah", "svrg_ld", "sarah_ld"):
                args["variant"] = token  # bare variant token shorthand
                continue
            print(f"expected key=value, got {token!r}", file=sys.stderr)
            return EXIT_CONFIG
        key, value = token.split("=", 1)
        key = _ALIASES.get(key, key)
        args[key] = value if key == "variant" else float(value)
    missing = [p for p in params if p not in args and not (name == "eta_for_eps" and p in ("n", "B", "m"))]
    if missing:
        print(f"{name} needs {', '.join(missing)}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        result = fn(args)
    except (HypothesisViolation, ValueError) as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for key, value in result.items():
        print(f"{key} = {_fmt(value)}")
    print(f"formula: {formula}")
    return EXIT_OK


# -- validate-config ------------------------------------------------------------------


def cmd_validate(cfg: ExperimentConfig) -> int:
    try:
        obj = build_objective(cfg)
        scfg, sched, lsi, notes = resolve_sampler(cfg, obj)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    findings = check_run(cfg, obj, scfg, sched, lsi)
    for f in findings:
        if f.kind == "violation":
            print(f.message, file=sys.stderr)
        else:
            print(f"note: {f.message}")
    for note in notes:
        print(f"note: {note}")
    if any(f.kind == "violation" for f in findings):
        return EXIT_CONFIG
    print(
        f"ok: {scfg.variant} eta={_fmt(scfg.eta)} gamma={_fmt(scfg.gamma)} "
        f"B={scfg.B} m={scfg.m} K={scfg.K} on {cfg.potential['name']} (n={obj.n}, d={obj.d})"
    )
    return EXIT_OK


# -- entry point -----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="vrld", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "compare", "sweep", "validate-config"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None, help="override [run] seed")
        p.add_argument("--out", default=None, help="override [run] out directory")
        p.add_argument("--quiet", action="store_true")
    p_theory = sub.add_parser("theory")
    p_theory.add_argument("query", nargs="*", help="e.g. xi n=16 B=4")
    args = parser.parse_args(argv)

    if args.command == "theory":
        return cmd_theory(args.query)

    try:
        cfg = parse_config(args.config)
    except (ConfigError, OSError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    if args.seed is not None:
        cfg.run["seed"] = args.seed
    if args.out is not None:
        cfg.run["out"] = args.out
    out_dir = Path(cfg.run["out"])

    try:
        if args.command == "run":
            return cmd_run(cfg, out_dir, args.quiet)
        if args.command == "compare":
            return cmd_compare(cfg, out_dir, args.quiet)
        if args.command == "sweep":
            return cmd_sweep(cfg, out_dir, args.quiet)
        if args.command == "validate-config":
            return cmd_validate(cfg)
    except (ConfigError, HypothesisViolation) as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    except samplers.DivergedError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

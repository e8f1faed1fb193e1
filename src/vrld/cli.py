"""Command-line experiment runner, theory calculator, and sweep engine.

Subcommands: run, theory, compare, sweep, validate-config.  A config command
first resolves and checks every point it runs (the run, each compare variant,
each sweep value), then runs the points one at a time.  All numeric output
uses round-trip decimal formatting (repr); run artifacts are CSV files whose
header comments embed the fully resolved configuration.  Exit codes: 0
success; 2 configuration error, in any point, before any output is written;
3 numerical divergence, after the output is written (compare.csv records a
diverged variant as ``<variant>,diverged,``; a sweep stops at the point that
diverged).
"""

from __future__ import annotations

import argparse
import inspect
import math
import sys
from dataclasses import replace
from decimal import Decimal
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import diagnostics, samplers, theory
from .config import ConfigError, ExperimentConfig, parse_config
from .config import render_value as _fmt
from .potentials import FiniteSumObjective, make_builtin
from .samplers import RunTrace, SamplerConfig
from .theory import HypothesisViolation

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


# -- resolution ---------------------------------------------------------------


def build_objective(cfg: ExperimentConfig) -> FiniteSumObjective:
    """The [potential] section's built-in: every key the parser gave a value
    goes to make_builtin as it is, data as data_file; the builder defaults the rest."""
    params = {"data_file" if key == "data" else key: value
              for key, value in cfg.potential.items() if key != "name" and value is not None}
    try:
        return make_builtin(cfg.potential["name"], params)
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
    weak_morse.  Refuses a box-restricted L and violated gamma floors."""
    th = cfg.theory or {}
    mode = th.get("alpha_mode", "declared")
    notes: list[str] = []
    if mode == "declared":
        return Lsi(th.get("alpha")), notes
    if obj.L is None:
        raise ConfigError("[theory] LSI modes need a declared smoothness constant L")
    if obj.L_box is not None:
        raise ConfigError(
            f"[theory] refusing to feed an L that holds only on the box |x_j| <= {_fmt(obj.L_box)} "
            "into an LSI formula; declare alpha explicitly instead"
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
        eta, gamma, B, m, K = sched.eta(0), sched.gamma(0), s["batch"], s["epoch"], s["steps"]
    elif s.get("auto"):
        eps = s.get("eps")
        if eps is None:
            raise ConfigError("[sampler] auto mode needs a target eps")
        gamma = s.get("gamma", 1.0)
        for key, value in (("gamma", gamma), ("eps", eps)):
            if not math.isfinite(value):
                raise ConfigError(f"[sampler] {key} must be finite, got {value}")
        if eps <= 0:
            raise ConfigError(f"[sampler] eps must be > 0, got {eps}")
        if variant not in ("svrg_ld", "sarah_ld"):
            raise ConfigError("[sampler] auto mode applies to svrg_ld / sarah_ld")
        if obj.L is None:
            raise ConfigError("[sampler] auto mode needs a declared L")
        if obj.L_box is not None:
            raise ConfigError(f"[sampler] auto mode refuses an L that holds only on the box |x_j| <= {_fmt(obj.L_box)}")
        th = cfg.theory or {}
        if th.get("H0") is None:
            raise ConfigError("[theory] auto mode needs H0 (initial KL estimate)")
        if th["H0"] <= 0:
            raise ConfigError(f"[theory] auto mode needs H0 > 0, got {th['H0']}")
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
    else:
        if s.get("eta") is None or s.get("steps") is None:
            raise ConfigError("[sampler] needs eta and steps (or auto = true)")
        m = s["epoch"]
        if variant in ("lmc", "sgld") and m != 1:
            # kept legal: compare runs every variant from one [sampler] section
            notes.append(f"[sampler] epoch = {m} does not apply to {variant}; resolved m = 1")
            m = 1
        eta, gamma, B, K = s["eta"], s["gamma"], s["batch"], s["steps"]
    resolved = SamplerConfig(variant=variant, eta=eta, gamma=gamma, B=B, m=m, K=K, seed=cfg.run["seed"],
                             store_every=cfg.run["thin"])
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
        C1=lsi.C1, C2=lsi.C2, L_box=obj.L_box,
    )


# -- points: every one resolved before any runs ---------------------------------------


class Point(NamedTuple):
    """One set of replicates a command runs, resolved and checked: the run, a
    compare variant or a sweep value."""

    cfg: ExperimentConfig
    obj: FiniteSumObjective
    scfg: SamplerConfig
    sched: samplers.AnnealSchedule | None
    lsi: Lsi
    notes: list[str]
    x0: np.ndarray
    findings: list[theory.Violation]  # check_run's, for run and validate-config; none elsewhere


def _auto_theory(cfg: ExperimentConfig) -> dict | None:
    """compare and sweep print no bound and check no hypothesis: [theory]
    reaches them only to pick auto mode's step size."""
    return cfg.theory if cfg.sampler["auto"] else None


# [sweep] axis -> the section and key each value sets, and the value's type;
# the n axis sets the potential's size key, _SIZE_KEYS
_SWEEP_AXES = {"eta": ("sampler", "eta", float), "gamma": ("sampler", "gamma", float),
               "b": ("sampler", "batch", int), "m": ("sampler", "epoch", int), "n": ("potential", None, int)}
_SIZE_KEYS = {"gaussian_quadratic": "n", "double_well": "n_copies", "gaussian_mixture": "n_copies"}


def _point_configs(cfg: ExperimentConfig, command: str) -> list[ExperimentConfig]:
    """The config of each point: one per compare variant, one per sweep value."""
    if command == "compare":
        if cfg.compare is None:
            raise ConfigError("compare needs a [compare] section")
        variants = [v.lower() for v in cfg.compare["variants"]]
        if len(variants) < 2:
            raise ConfigError("[compare] needs at least two variants")
        return [replace(cfg, sampler={**cfg.sampler, "variant": v}, theory=_auto_theory(cfg)) for v in variants]
    if command != "sweep":
        return [cfg]
    if cfg.sweep is None:
        raise ConfigError("sweep needs a [sweep] section")
    axis = cfg.sweep["axis"].lower()
    if axis not in _SWEEP_AXES:
        raise ConfigError(f"[sweep] axis must be eta, gamma, B, m, or n, got {axis!r}")
    if axis == "m" and cfg.sampler["variant"].lower() in ("lmc", "sgld"):
        raise ConfigError(f"[sweep] axis m needs svrg_ld or sarah_ld; {cfg.sampler['variant']} has no epochs")
    section, key, cast = _SWEEP_AXES[axis]
    if axis == "n":
        key = _SIZE_KEYS.get(cfg.potential["name"])
        if key is None:
            raise ConfigError("[sweep] n axis is not available for this potential")
    if cast is int:
        for value in cfg.sweep["values"]:
            if not float(value).is_integer():
                raise ConfigError(f"[sweep] axis {cfg.sweep['axis']} takes integers, got {value!r}")
    return [replace(cfg, theory=_auto_theory(cfg), **{section: {**getattr(cfg, section), key: cast(value)}})
            for value in cfg.sweep["values"]]


def _check_metric(metric: str, obj: FiniteSumObjective, gamma: float, R: int) -> None:
    """Refuse a compare metric that the point cannot give."""
    if metric not in ("suboptimality", "mean_f", "kl_surrogate"):
        raise ConfigError(f"[compare] unknown metric {metric!r}")
    if metric == "suboptimality" and obj.F_star is None:
        raise ConfigError("[compare] suboptimality metric needs a potential with F_star")
    if metric == "kl_surrogate" and diagnostics.gibbs_moments(obj, gamma) is None:
        raise ConfigError("[compare] kl_surrogate metric needs the quadratic potential family")
    if metric == "kl_surrogate" and R < obj.d + 2:
        raise ConfigError(f"[compare] kl_surrogate needs at least {obj.d + 2} replicates, got {R}")


def resolve(cfg: ExperimentConfig, command: str) -> list[Point]:
    """The points of ``command`` (run, compare, sweep or validate-config), each
    resolved and checked before any chain runs or any file is written; a bad
    point raises ConfigError.  Points that share a [potential] section share
    its objective."""
    for key, low in (("seed", 0), ("thin", 1), ("replicates", 1)):
        if cfg.run[key] < low:
            raise ConfigError(f"[run] {key} must be >= {low}, got {cfg.run[key]}")
    th = cfg.theory or {}
    if th.get("H0") is not None and not 0.0 <= th["H0"] < math.inf:
        raise ConfigError(f"[theory] H0 must be finite and >= 0, got {th['H0']}")
    if th.get("alpha") is not None and not math.isfinite(th["alpha"]):
        raise ConfigError(f"[theory] alpha must be finite, got {th['alpha']}")
    if th.get("alpha") is not None and th["alpha"] <= 0:
        raise ConfigError(f"[theory] alpha must be > 0, got {th['alpha']}")
    points: list[Point] = []
    for pcfg in _point_configs(cfg, command):
        if not points or pcfg.potential != points[-1].cfg.potential:
            obj = build_objective(pcfg)
        scfg, sched, lsi, notes = resolve_sampler(pcfg, obj)
        # the replicates' stored steps are one array of float64 values
        if (scfg.K // scfg.store_every + 2) * cfg.run["replicates"] * obj.d * 8 > np.iinfo(np.intp).max:
            key = "eps" if pcfg.sampler["auto"] else "steps"
            raise ConfigError(f"[sampler] {key} = {_fmt(pcfg.sampler[key])} gives K = {Decimal(scfg.K):.3e}: "
                              "its stored steps, (K // thin + 2) x replicates x d float64 values, exceed the "
                              f"largest array, {np.iinfo(np.intp).max} bytes")
        if sched is not None and command in ("compare", "sweep"):
            raise ConfigError(f"[{command}] annealed configs are not supported")
        x0 = np.zeros(obj.d) if cfg.run.get("x0") is None else np.asarray(cfg.run["x0"], dtype=float)
        if x0.shape != (obj.d,):
            raise ConfigError(f"x0 must have dimension {obj.d}")
        if not 0 <= cfg.run["burn_in"] <= scfg.K:
            raise ConfigError(f"[run] burn_in must lie in [0, K={scfg.K}], got {cfg.run['burn_in']}")
        if command == "compare":
            _check_metric(cfg.compare["metric"], obj, scfg.gamma, cfg.run["replicates"])
        findings = check_run(pcfg, obj, scfg, sched, lsi) if command in ("run", "validate-config") else []
        points.append(Point(pcfg, obj, scfg, sched, lsi, notes, x0, findings))
    return points


def execute(point: Point, values: bool) -> tuple[list[RunTrace], list[np.ndarray] | None]:
    """The point's replicates and, if ``values``, F along each trace, computed
    once; a huge iterate reads inf or nan, silently."""
    traces = samplers.run_replicates(point.obj, point.scfg, point.x0, point.cfg.run["replicates"], point.sched)
    if not values:
        return traces, None
    with np.errstate(over="ignore", invalid="ignore"):
        return traces, [np.asarray(point.obj.value(t.iterates), dtype=float) for t in traces]


# -- run artifacts ---------------------------------------------------------------


def _resolved_header(cfg: ExperimentConfig, obj: FiniteSumObjective, scfg: SamplerConfig) -> list[str]:
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
    }.items():
        lines.append(f"# {key} = {_fmt(value)}")
    return lines


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


def _burn_in_footer(obj: FiniteSumObjective, burn_in: int, traces: list[RunTrace],
                    fvals: list[np.ndarray]) -> list[str]:
    """Time-averaged statistics over the stored steps from [run] burn_in on,
    pooled across replicates over the steps each one reached."""
    post = [f[t.steps >= burn_in] for t, f in zip(traces, fvals)]
    sizes = {p.size for p in post}
    if sizes == {0}:
        return [f"# post_burn_in = none (burn_in={burn_in} exceeds stored steps)"]
    with np.errstate(over="ignore", invalid="ignore"):
        mean_f = float(np.concatenate(post).mean())
    # replicates that stopped at different steps reach different counts: give their total
    count = f"{sizes.pop()} per replicate" if len(sizes) == 1 else f"{sum(p.size for p in post)} in all"
    lines = [f"# post_burn_in_steps = {count} (burn_in={burn_in})",
             f"# post_burn_in_mean_f = {_fmt(mean_f)}"]
    if obj.F_star is not None:
        lines.append(f"# post_burn_in_suboptimality = {_fmt(mean_f - obj.F_star)}")
    return lines


def _box_notes(obj: FiniteSumObjective, traces: list[RunTrace]) -> list[str]:
    """A note for each replicate with a stored iterate outside the box on
    which a box-restricted L holds, naming the first such stored step."""
    if obj.L_box is None:
        return []
    notes = []
    for r, trace in enumerate(traces):
        # not <=, so that a nan iterate counts as outside
        outside = np.flatnonzero(~(np.abs(trace.iterates) <= obj.L_box).all(axis=1))
        if outside.size:
            notes.append(f"replicate {r} is outside the box |x_j| <= {_fmt(obj.L_box)}, where L holds, "
                         f"first at stored step {trace.steps[outside[0]]}")
    return notes


def cmd_run(cfg: ExperimentConfig, out_dir: Path, quiet: bool) -> int:
    [point] = resolve(cfg, "run")
    obj, scfg = point.obj, point.scfg
    problems = [f"\n  {f.message}" for f in point.findings if f.kind == "violation"]
    if problems:
        raise ConfigError("configuration violates theorem hypotheses:" + "".join(problems))
    notes = point.notes + [f.message for f in point.findings]
    out_dir.mkdir(parents=True, exist_ok=True)
    traces, fvals = execute(point, values=True)
    notes += _box_notes(obj, traces)
    header = _resolved_header(cfg, obj, scfg) + [f"# note: {note}" for note in notes]
    for r, (trace, f) in enumerate(zip(traces, fvals)):
        cols = {**_trace_columns(trace), "f": _cells(f)}
        if obj.F_star is not None:
            cols["suboptimality"] = _cells(f - obj.F_star)
        if obj.d <= 16:
            cols.update((f"x{j}", _cells(trace.iterates[:, j])) for j in range(obj.d))
        _write_csv(out_dir / f"replicate_{r:03d}.csv", header + [f"# replicate = {r}"], cols)
    _write_csv(out_dir / "summary.csv", header,
               _summary_columns(cfg, obj, scfg, traces, fvals, point.lsi.alpha, point.findings, point.sched is not None),
               _burn_in_footer(obj, cfg.run["burn_in"], traces, fvals))
    diverged = [r for r, t in enumerate(traces) if t.diverged]
    if not quiet:
        print(f"wrote {len(traces)} replicate trace(s) and summary.csv to {out_dir}")
        for note in notes:
            print(f"note: {note}")
        for r in diverged:
            print(f"replicate {r} diverged at step {traces[r].diverged_step}", file=sys.stderr)
    return EXIT_DIVERGED if diverged else EXIT_OK


# -- compare ----------------------------------------------------------------------


def _metric_series(metric: str, point: Point, traces: list[RunTrace], fvals: list[np.ndarray] | None,
                   n_boot: int = 16) -> np.ndarray:
    """The metric at each stored step of a point that _check_metric accepted.
    Per-chain metrics give one row per replicate; the ensemble kl_surrogate
    gives the full-ensemble series in row 0 followed by bootstrap resamples
    of the replicates (for the SE)."""
    if metric == "mean_f":
        return np.stack(fvals)
    if metric == "suboptimality":
        return np.stack(fvals) - point.obj.F_star
    gibbs = diagnostics.gibbs_moments(point.obj, point.scfg.gamma)
    ensembles = np.stack([t.iterates for t in traces], axis=1)  # (steps, R, d)
    R = len(traces)
    rng = np.random.default_rng(0)
    rows = [np.arange(R)] + [rng.integers(0, R, size=R) for _ in range(n_boot)]
    # a checkpoint with no value (nan) never counts as below the threshold
    return np.stack([diagnostics.moment_surrogates(ensembles[:, ids], gibbs)[0] for ids in rows])


def _grad_evals_to_threshold(metric: str, threshold: float, point: Point, traces: list[RunTrace],
                             fvals: list[np.ndarray] | None) -> tuple[float | None, float]:
    """Grad evals at which the metric first reaches the threshold (None if it
    does not) and the SE: for kl_surrogate the full ensemble's crossing and its
    bootstrap resamples' spread, otherwise the mean crossing, if at least half
    the replicates cross."""
    scfg, steps = point.scfg, traces[0].steps
    crossings: list[float | None] = []
    for row in _metric_series(metric, point, traces, fvals):
        below = np.nonzero(row <= threshold)[0]
        crossings.append(float(samplers.grad_evals_at(scfg.variant, int(steps[below[0]]), point.obj.n, scfg.B, scfg.m))
                         if below.size else None)
    if metric == "kl_surrogate":
        boots = [c for c in crossings[1:] if c is not None]
        return crossings[0], float(np.std(boots, ddof=1)) if len(boots) > 1 else 0.0
    reached = np.asarray([c for c in crossings if c is not None])
    se = float(reached.std(ddof=1) / math.sqrt(reached.size)) if reached.size > 1 else 0.0
    return float(reached.mean()) if reached.size >= max(1, len(crossings) // 2) else None, se


def cmd_compare(cfg: ExperimentConfig, out_dir: Path, quiet: bool) -> int:
    points = resolve(cfg, "compare")
    metric, threshold = cfg.compare["metric"], cfg.compare["threshold"]
    out_dir.mkdir(parents=True, exist_ok=True)
    rows: list[tuple[str, str, str]] = []  # variant, grad evals at the threshold (or why none), se
    for point in points:
        traces, fvals = execute(point, values=metric != "kl_surrogate")
        if any(t.diverged for t in traces):
            rows.append((point.scfg.variant, "diverged", ""))
            continue
        estimate, se = _grad_evals_to_threshold(metric, threshold, point, traces, fvals)
        rows.append((point.scfg.variant, "not_reached", "") if estimate is None
                    else (point.scfg.variant, repr(estimate), repr(se)))
    _write_csv(out_dir / "compare.csv", [f"# metric = {metric}, threshold = {_fmt(threshold)}"],
               dict(zip(("variant", "grad_evals_at_threshold", "se"), zip(*rows))))
    if not quiet:
        width = max(len(v) for v, _, _ in rows)
        print(f"grad evals to reach {metric} <= {_fmt(threshold)}")
        for variant, value, se in rows:
            value = "not reached" if value == "not_reached" else value
            print(f"  {variant.ljust(width)}  {value}" + (f" +- {se}" if se else ""))
    return EXIT_DIVERGED if any(value == "diverged" for _, value, _ in rows) else EXIT_OK


# -- sweep ------------------------------------------------------------------------


def cmd_sweep(cfg: ExperimentConfig, out_dir: Path, quiet: bool) -> int:
    points = resolve(cfg, "sweep")
    axis = cfg.sweep["axis"].lower()
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "sweep.csv"
    with open(path, "w", encoding="utf-8") as fh:
        for i, (point, value) in enumerate(zip(points, cfg.sweep["values"])):
            traces, fvals = execute(point, values=True)
            if any(t.diverged for t in traces):
                print(f"sweep point {axis}={_fmt(value)} diverged", file=sys.stderr)
                return EXIT_DIVERGED
            if i == 0:  # after the check: a first point that diverges leaves the file empty
                fh.write("# " + ", ".join(f"{k}={_fmt(v)}" for k, v in cfg.sweep.items()) + "\n")
                fh.write("axis,value,replicate,step,epoch,grad_evals,f,kl_surrogate\n")
            label = [axis, _fmt(value)]
            for r, (trace, f) in enumerate(zip(traces, fvals)):
                fh.write(_lines([[c] * f.size for c in label + [str(r)]]
                                + [*_trace_columns(trace).values(), _cells(f), [""] * f.size]))
            gibbs = diagnostics.gibbs_moments(point.obj, point.scfg.gamma)
            if gibbs is not None and len(traces) >= point.obj.d + 2:
                kl, _ = diagnostics.moment_surrogates(np.stack([t.iterates for t in traces], axis=1), gibbs)
                fh.write(_lines([[c] * kl.size for c in label + ["all"]]
                                + [*_trace_columns(traces[0]).values(), [""] * kl.size, _cells(kl, blank_nan=True)]))
    if not quiet:
        print(f"wrote {path}")
    return EXIT_OK


# -- theory queries -----------------------------------------------------------------


_ALIASES = {"α": "alpha", "γ": "gamma", "η": "eta", "ε": "eps", "η̄": "eta_bar", "λ": "lambda_dagger"}

# query -> (the theory function it calls, the names of the values it returns,
# in order, and its formula line).  A query's parameters are its function's,
# optional where the function has a default.  The function returns one value,
# a tuple of values, or an object whose attributes the names read.
_QUERIES: dict[str, tuple[Callable, str, str]] = {
    "xi": (theory.minibatch_variance_factor, "xi", "xi = (n - B) / (B * (n - 1)); xi(1, 1) = 0 by convention"),
    "upsilon": (theory.variance_reduction_factors, "xi lambda upsilon",
                "upsilon = (1 + 2 xi) + xi + 1 + 2 m xi, at most 7 where B >= m"),
    "step_cap": (theory.step_size_cap, "cap", "cap = alpha / (16 sqrt(6 or 2) L^2 m gamma)  [anchored / recursive]"),
    "bias": (theory.bias_term, "bias",
             "bias = (32 eta gamma d L^2 / 3 alpha) * (upsilon [anchored] or 2 + xi + 2 m xi [recursive])"),
    "bias_coarse": (theory.bias_term_coarse, "bias_coarse",
                    "bias_coarse = 224 eta gamma d L^2 / (3 alpha): anchored bias at upsilon <= 7, which needs B >= m"),
    "kl_bound": (theory.kl_bound, "decay bias total", "KL <= exp(-alpha eta k / gamma) H0 + bias"),
    "eta_for_eps": (theory.eta_for_eps, "eta", "largest eta keeping the bias at eps/2"),
    "iters_for_eps": (theory.iterations_for_eps, "k", "k = ceil((gamma / alpha eta) log(2 H0 / eps))"),
    "grad_complexity": (theory.gradient_complexity, "count", "count = (k / m)(n + 2 B (m - 1))"),
    "talagrand_w2": (theory.talagrand_w2_bound, "w2", "W2 <= sqrt(2 H / alpha)"),
    "lsi_dissipative": (theory.lsi_constant_dissipative, "alpha log_alpha C1 C2",
                        "alpha = gamma C1 exp(-C2 gamma); CAVEAT: C_star defaults to 1, true value unknown"),
    "lsi_weak_morse": (theory.lsi_constant_weak_morse, "alpha gamma_floor C3 bracket",
                       "alpha = C3 / gamma above the gamma floor"),
    "gamma_opt": (theory.inverse_temperature_for_accuracy, "gamma",
                  "gamma = max((4d/eps) log(eL/M), 16 d b / eps^2, 1, 2/M), so gibbs_bound <= eps/4: "
                  "the first term puts (d/2 gamma) log(eL/M) <= eps/8, and log(1+x) <= sqrt(x) puts "
                  "the rest <= sqrt(d b / gamma)/2 <= eps/8; replaces the published 8 d b / eps^2, "
                  "which is a factor 2 short"),
    "gibbs_bound": (theory.gibbs_suboptimality_bound, "bound", "bound = (d / 2 gamma) log((eL/M)(b gamma / d + 1))"),
    "subopt_decomp": (theory.suboptimality_decomposition, "bound", "bound = L W2^2 + 2 * gibbs_bound"),
    "kl_target": (theory.kl_target_for_suboptimality, "kl", "kl = alpha eps / (4 L)"),
    "opt_eta": (theory.optimization_step_size, "eta",
                "eta = min(alpha / (16 sqrt(6) L^2 sqrt(n) gamma), (3/1792) alpha^2 eps / (L^2 d gamma))"),
    "chi": (theory.chi_constant, "chi", "chi = max over gamma >= 1 of (d/gamma) log((eL/M)(b gamma/d + 1))"),
    "anneal_sigma_floor": (theory.anneal_sigma_floor, "sigma",
                           "sigma = max(3, (8 L g^2 / C1^2 eta_bar)^(mu/(mu-3)), (2 / (mu C2 L^2 eta_bar^2))^(mu/(mu-2)))"),
    "anneal_eta": (theory.anneal_eta, "eta_s", "eta_s = eta_bar (s + sigma)^(-1/mu)"),
    "anneal_gamma": (theory.anneal_gamma, "gamma_s", "gamma_s = gamma_bar log(g (s + sigma)^(1/mu))"),
}

# theory query parameters that are counts, parsed as integers
_INT_PARAMS = frozenset(("n", "B", "m", "d", "k"))


def _query_params(fn: Callable) -> dict[str, bool]:
    """Each parameter of the query's function, in order -> whether it is optional."""
    return {p.name: p.default is not p.empty for p in inspect.signature(fn).parameters.values()}


def cmd_theory(tokens: list[str]) -> int:
    if not tokens:
        print("available theory queries (optional parameters in brackets):")
        for name, (fn, _, _) in sorted(_QUERIES.items()):
            params = _query_params(fn)
            print(f"  {name} {' '.join(f'[{p}=..]' if params[p] else f'{p}=..' for p in params)}")
        return EXIT_OK
    name = tokens[0]
    if name not in _QUERIES:
        raise ConfigError(f"unknown theory query {name!r}; run `vrld theory` for the list")
    fn, names, formula = _QUERIES[name]
    params = _query_params(fn)
    args: dict = {}
    for token in tokens[1:]:
        if token in ("svrg", "sarah", "svrg_ld", "sarah_ld"):
            token = f"variant={token}"  # bare variant token shorthand
        if "=" not in token:
            raise ConfigError(f"expected key=value, got {token!r}")
        key, value = token.split("=", 1)
        key = _ALIASES.get(key, key)
        if key not in params:
            raise ConfigError(f"{name} takes no {key}; its parameters are {' '.join(params)}")
        if key in args:
            raise ConfigError(f"{key} is given twice")
        try:
            args[key] = value if key == "variant" else int(value) if key in _INT_PARAMS else float(value)
        except ValueError:
            raise ConfigError(f"{key} must be {'an integer' if key in _INT_PARAMS else 'a number'}, "
                              f"got {value!r}") from None
    missing = [p for p, optional in params.items() if p not in args and not optional]
    if missing:
        raise ConfigError(f"{name} needs {', '.join(missing)}")
    keys = names.split()
    try:
        result = fn(**args)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"hypothesis violation: {exc}") from exc
    values = (result if isinstance(result, tuple) else [result] if isinstance(result, (int, float))
              else [getattr(result, key) for key in keys])
    for key, value in zip(keys, values):
        print(f"{key} = {_fmt(value)}")
    print(f"formula: {formula}")
    return EXIT_OK


# -- validate-config ------------------------------------------------------------------


def cmd_validate(cfg: ExperimentConfig) -> int:
    [point] = resolve(cfg, "validate-config")
    for f in point.findings:
        if f.kind == "violation":
            print(f.message, file=sys.stderr)
        else:
            print(f"note: {f.message}")
    for note in point.notes:
        print(f"note: {note}")
    if any(f.kind == "violation" for f in point.findings):
        return EXIT_CONFIG
    scfg, obj = point.scfg, point.obj
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

    try:
        if args.command == "theory":
            return cmd_theory(args.query)
        try:
            cfg = parse_config(args.config)
        except OSError as exc:
            raise ConfigError(exc) from exc
        if args.seed is not None:
            cfg.run["seed"] = args.seed
        if args.out is not None:
            cfg.run["out"] = args.out
        if args.command == "validate-config":
            return cmd_validate(cfg)
        command = {"run": cmd_run, "compare": cmd_compare, "sweep": cmd_sweep}[args.command]
        return command(cfg, Path(cfg.run["out"]), args.quiet)
    except (ConfigError, HypothesisViolation) as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

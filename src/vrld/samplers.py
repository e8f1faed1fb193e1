"""Discrete-time Langevin chains over finite-sum potentials.

Variants: full-gradient (lmc), plain minibatch (sgld), anchored
variance-reduced (svrg_ld), and recursive variance-reduced (sarah_ld), plus
the annealed runner that lowers the step size and raises the inverse
temperature once per epoch.  All of them run through one step loop,
:func:`_langevin`; the runners only set up its streams and its recorder.

RNG discipline, two layouts:

- Single chains (:func:`run_chain`, :func:`run_annealed`): every chain owns
  two Philox streams derived from ``SeedSequence((seed, replicate, 0|1))`` -
  stream 0 for the per-step Gaussian noise, stream 1 for index subsets, drawn
  by :func:`sample_index_set`.  Keeping the streams separate means variants
  that consume different numbers of subset draws still see the same noise
  sequence, which is what makes the B = n, m = 1 reduction to lmc exact.
- Ensembles (:func:`run_ensemble`): one shared stream pair,
  ``chain_rngs(seed)``, with noise drawn as (R, d) rows and subsets as the B
  smallest of n iid uniforms per chain, both in blocks of steps.

A Philox block draw equals the same draws made one step at a time, so the
block size never changes a stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .potentials import FiniteSumObjective, NumericalDomainError

__all__ = [
    "VARIANTS",
    "SamplerConfig",
    "AnnealSchedule",
    "RunTrace",
    "DivergedError",
    "chain_rngs",
    "sample_index_set",
    "step_lmc",
    "step_sgld",
    "run_lmc",
    "run_sgld",
    "run_svrg_ld",
    "run_sarah_ld",
    "run_annealed",
    "run_chain",
    "grad_evals_at",
    "EnsembleResult",
    "run_ensemble",
]

VARIANTS = ("lmc", "sgld", "svrg_ld", "sarah_ld")
_ANCHORED = ("svrg_ld", "sarah_ld")
# values per pre-drawn block of noise rows or subset uniforms: a few MB
_BLOCK_VALUES = 2_000_000


class DivergedError(RuntimeError):
    """A chain produced a non-finite iterate or gradient."""

    def __init__(self, step: int, msg: str | None = None):
        super().__init__(msg or f"non-finite iterate or gradient at step {step}")
        self.step = step


@dataclass(frozen=True)
class SamplerConfig:
    variant: str
    eta: float
    gamma: float = 1.0
    B: int = 1
    m: int = 1
    K: int = 1
    seed: int = 0
    store_every: int = 1
    burn_in: int = 0

    def validate(self, n: int) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.eta <= 0:
            raise ValueError("step size eta must be > 0")
        if self.gamma < 1.0:
            raise ValueError(f"inverse temperature gamma must be >= 1, got {self.gamma}")
        if not 1 <= self.B <= n:
            raise ValueError(f"batch size must satisfy 1 <= B <= n={n}, got {self.B}")
        if self.m < 1:
            raise ValueError("epoch length m must be >= 1")
        if self.K < 1:
            raise ValueError("total steps K must be >= 1")
        if self.variant in _ANCHORED and self.K % self.m != 0:
            raise ValueError(
                f"epoch length m={self.m} must divide K={self.K}; partial epochs are rejected"
            )
        if self.store_every < 1:
            raise ValueError("store_every must be >= 1")
        if not 0 <= self.burn_in <= self.K:
            raise ValueError("burn_in must lie in [0, K]")


@dataclass(frozen=True)
class AnnealSchedule:
    """Per-epoch schedule eta_s = eta_bar (s + sigma)^(-1/mu),
    gamma_s = gamma_bar log(g (s + sigma)^(1/mu))."""

    eta_bar: float
    gamma_bar: float
    sigma: float
    mu: float
    g: float

    def __post_init__(self) -> None:
        if self.eta_bar <= 0 or self.gamma_bar <= 0:
            raise ValueError("eta_bar and gamma_bar must be > 0")
        if self.mu <= 3.0:
            raise ValueError(f"need mu > 3, got {self.mu}")
        if self.g < math.e:
            raise ValueError(f"need g >= e, got {self.g}")
        if self.sigma < 3.0:
            raise ValueError(f"need sigma >= 3, got {self.sigma}")

    def eta(self, s: int) -> float:
        return self.eta_bar * (s + self.sigma) ** (-1.0 / self.mu)

    def gamma(self, s: int) -> float:
        return self.gamma_bar * (math.log(self.g) + math.log(s + self.sigma) / self.mu)


@dataclass
class RunTrace:
    """Iterate history of one chain at the stored (possibly thinned) steps."""

    variant: str
    steps: np.ndarray          # stored step indices, starting at 0
    iterates: np.ndarray       # (len(steps), d)
    grad_evals: np.ndarray     # cumulative component-gradient count at each stored step
    etas: np.ndarray           # step size in effect entering each stored step
    gammas: np.ndarray
    m: int
    final_x: np.ndarray = None   # last iterate, or the last finite one if diverged
    diverged: bool = False
    diverged_step: int | None = None

    @property
    def total_grad_evals(self) -> int:
        return int(self.grad_evals[-1])


def chain_rngs(seed: int, replicate: int = 0) -> tuple[np.random.Generator, np.random.Generator]:
    """(noise, index) Philox streams for one chain.

    Stream-splitting rule: chain ``replicate`` of a run seeded with ``seed``
    uses SeedSequence((seed, replicate, 0)) for noise and (..., 1) for index
    subsets.  Replicates therefore never share streams, and the noise stream
    is identical across variants regardless of subset consumption.
    """
    noise = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, replicate, 0))))
    index = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, replicate, 1))))
    return noise, index


def sample_index_set(n: int, B: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform size-B subset of {0..n-1} without replacement, sorted."""
    if not 1 <= B <= n:
        raise ValueError(f"need 1 <= B <= n, got B={B}, n={n}")
    if B == n:
        return np.arange(n)
    return np.sort(rng.choice(n, size=B, replace=False))


def _langevin_update(x, v, eta: float, gamma: float, noise):
    # overflow here is the divergence signal, not a warning condition
    with np.errstate(over="ignore", invalid="ignore"):
        return x - eta * v + math.sqrt(2.0 * eta / gamma) * noise


def step_lmc(obj: FiniteSumObjective, x, eta: float, gamma: float, noise) -> np.ndarray:
    """One full-gradient step x - eta grad F(x) + sqrt(2 eta / gamma) noise."""
    new = _langevin_update(x, obj.gradient(x), eta, gamma, np.asarray(noise, dtype=float))
    if not np.all(np.isfinite(new)):
        raise DivergedError(step=0)
    return new


def step_sgld(obj: FiniteSumObjective, x, eta: float, gamma: float, idx, noise) -> np.ndarray:
    """One minibatch step using the subset idx in place of the full gradient."""
    new = _langevin_update(x, obj.minibatch_gradient(x, idx), eta, gamma, np.asarray(noise, dtype=float))
    if not np.all(np.isfinite(new)):
        raise DivergedError(step=0)
    return new


def _blocks(draw, total: int, span: int):
    """The rows of ``total`` draws, made ``span`` rows at a time by ``draw(c)``."""
    for start in range(0, total, span):
        yield from draw(min(span, total - start))


def _langevin(obj: FiniteSumObjective, variant: str, X, K: int, m: int,
              schedule, noise, subset, minibatch, record):
    """The one Langevin step loop behind every runner.

    X is one chain's (d,) state or an (R, d) ensemble.  Epoch s is the m
    steps from s*m and runs at ``schedule(s) = (eta, gamma)``.  Each step
    takes one ``noise()`` row shaped like X and, where its estimator needs
    one, one ``subset()`` for ``minibatch(X, idx)``: lmc takes the full
    gradient at every step (m = 1) and sgld a minibatch; svrg_ld and sarah_ld
    take the full gradient at each epoch start, then the anchored or the
    recursive estimate at 2B evaluations.  ``record(k, X, grad_evals, eta,
    gamma)`` sees every iterate k >= 1; grad_evals is the per-chain count of
    component gradients so far.

    Returns the last finite iterate and the divergence step, None if all K
    steps ran: the first iterate that is non-finite or has a non-finite
    gradient estimate.
    """
    plain = variant == "sgld"
    recursive = variant == "sarah_ld"
    count = 0
    # overflow is the divergence signal, checked below, not a warning condition
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K):
            s, l = divmod(k, m)
            if l == 0:
                eta, gamma = schedule(s)
                scale = math.sqrt(2.0 * eta / gamma)
            eps = noise()
            try:
                if plain:
                    idx = subset()
                    V = minibatch(X, idx)
                    count += idx.shape[-1]
                elif l == 0:
                    V = obj.gradient(X)
                    count += obj.n
                else:
                    idx = subset()
                    V = minibatch(X, idx) - minibatch(ref, idx) + V_ref
                    count += 2 * idx.shape[-1]
            except NumericalDomainError:
                return X, k
            new = X - eta * V + scale * eps
            # a finite sum proves every entry finite, at half the cost of isfinite
            if not math.isfinite(new.sum()) and not np.isfinite(new).all():
                return X, k + 1 if np.isfinite(V).all() else k
            if recursive or l == 0:
                ref, V_ref = X, V
            X = new
            record(k + 1, X, count, eta, gamma)
    return X, None


class _TraceBuilder:
    def __init__(self, variant: str, x0: np.ndarray, K: int, m: int, store_every: int):
        self.variant = variant
        self.m = m
        self.store_every = store_every
        self.K = K
        self.steps = [0]
        self.iterates = [np.array(x0, dtype=float)]
        self.grad_evals = [0]
        self.etas = [math.nan]
        self.gammas = [math.nan]

    def record(self, k: int, x, count: int, eta: float, gamma: float) -> None:
        if k % self.store_every == 0 or k == self.K:
            self.steps.append(k)
            self.iterates.append(np.array(x, dtype=float))
            self.grad_evals.append(count)
            self.etas.append(eta)
            self.gammas.append(gamma)

    def build(self, final_x, diverged_step: int | None) -> RunTrace:
        return RunTrace(
            variant=self.variant,
            steps=np.asarray(self.steps, dtype=int),
            iterates=np.asarray(self.iterates, dtype=float),
            grad_evals=np.asarray(self.grad_evals, dtype=np.int64),
            etas=np.asarray(self.etas, dtype=float),
            gammas=np.asarray(self.gammas, dtype=float),
            m=self.m,
            final_x=np.array(final_x, dtype=float),
            diverged=diverged_step is not None,
            diverged_step=diverged_step,
        )


def _run_single(obj: FiniteSumObjective, variant: str, x0, K: int, m: int, B: int, seed: int,
                schedule, store_every: int, replicate: int) -> RunTrace:
    """One chain on the per-replicate streams of :func:`chain_rngs`."""
    noise_rng, index_rng = chain_rngs(seed, replicate)
    n, d = obj.n, obj.d
    m = m if variant in _ANCHORED else 1
    x = np.array(x0, dtype=float)
    tb = _TraceBuilder(variant, x, K, m, store_every)
    span = max(1, _BLOCK_VALUES // max(d, n))
    x, diverged_step = _langevin(
        obj, variant, x, K, m, schedule,
        _blocks(lambda c: noise_rng.standard_normal((c, d)), K, span).__next__,
        lambda: sample_index_set(n, B, index_rng),
        obj.minibatch_gradient, tb.record,
    )
    return tb.build(x, diverged_step)


def run_chain(obj: FiniteSumObjective, cfg: SamplerConfig, x0, replicate: int = 0) -> RunTrace:
    """K steps of ``cfg.variant`` from x0 at constant (eta, gamma).

    Per step: lmc costs n component evaluations and sgld B; an anchored or
    recursive epoch of m steps costs n + 2B(m - 1).  A non-finite iterate or
    gradient ends the run with ``diverged`` set instead of raising.
    """
    cfg.validate(obj.n)
    return _run_single(obj, cfg.variant, x0, cfg.K, cfg.m, cfg.B, cfg.seed,
                       lambda s: (cfg.eta, cfg.gamma), cfg.store_every, replicate)


def _of_variant(cfg: SamplerConfig, variant: str) -> SamplerConfig:
    if cfg.variant != variant:
        raise ValueError(f"config variant {cfg.variant!r} is not {variant}")
    return cfg


def run_lmc(obj: FiniteSumObjective, cfg: SamplerConfig, x0, replicate: int = 0) -> RunTrace:
    """K full-gradient Langevin steps; n component evaluations per step."""
    return run_chain(obj, _of_variant(cfg, "lmc"), x0, replicate)


def run_sgld(obj: FiniteSumObjective, cfg: SamplerConfig, x0, replicate: int = 0) -> RunTrace:
    """K minibatch steps; B component evaluations per step."""
    return run_chain(obj, _of_variant(cfg, "sgld"), x0, replicate)


def run_svrg_ld(obj: FiniteSumObjective, cfg: SamplerConfig, x0, replicate: int = 0) -> RunTrace:
    """Anchored variance-reduced chain: the reference point refreshes every m
    steps, and inner steps correct the minibatch gradient by the anchored
    control variate."""
    return run_chain(obj, _of_variant(cfg, "svrg_ld"), x0, replicate)


def run_sarah_ld(obj: FiniteSumObjective, cfg: SamplerConfig, x0, replicate: int = 0) -> RunTrace:
    """Recursive variance-reduced chain: the gradient estimate accumulates
    minibatch increments between consecutive iterates, resetting to the full
    gradient at each epoch start."""
    return run_chain(obj, _of_variant(cfg, "sarah_ld"), x0, replicate)


def _check_annealed(variant: str) -> None:
    if variant not in _ANCHORED:
        raise ValueError("annealed runs support svrg_ld and sarah_ld")


def _check_sizes(obj: FiniteSumObjective, variant: str, B: int, m: int, K: int) -> None:
    if variant in _ANCHORED and K % m != 0:
        raise ValueError(f"epoch length m={m} must divide K={K}")
    if not 1 <= B <= obj.n:
        raise ValueError(f"need 1 <= B <= n={obj.n}")


def run_annealed(
    obj: FiniteSumObjective,
    variant: str,
    sched: AnnealSchedule,
    B: int,
    m: int,
    K: int,
    seed: int,
    x0,
    store_every: int = 1,
    replicate: int = 0,
) -> RunTrace:
    """Variance-reduced chain with per-epoch (eta_s, gamma_s) from the
    schedule; epoch s uses them for both the drift and the noise scale."""
    _check_annealed(variant)
    _check_sizes(obj, variant, B, m, K)
    return _run_single(obj, variant, x0, K, m, B, seed,
                       lambda s: (sched.eta(s), sched.gamma(s)), store_every, replicate)


def grad_evals_at(variant: str, k: int, n: int, B: int, m: int) -> int:
    """Cumulative component-gradient count after k steps of the variant."""
    if variant == "lmc":
        return k * n
    if variant == "sgld":
        return k * B
    full, r = divmod(k, m)
    partial = 0 if r == 0 else n + 2 * B * (r - 1)
    return full * (n + 2 * B * (m - 1)) + partial


# -- vectorised replicate ensembles ---------------------------------------------


@dataclass
class EnsembleResult:
    variant: str
    checkpoints: dict[int, np.ndarray] = field(default_factory=dict)  # step -> (R, d)
    grad_evals: dict[int, int] = field(default_factory=dict)          # step -> per-chain count
    final: np.ndarray = None
    K: int = 0


def run_ensemble(
    obj: FiniteSumObjective,
    variant: str,
    n_chains: int,
    K: int,
    *,
    eta: float | None = None,
    gamma: float | None = None,
    B: int = 1,
    m: int = 1,
    seed: int = 0,
    x0=None,
    checkpoints=None,
    sched: AnnealSchedule | None = None,
) -> EnsembleResult:
    """Run n_chains independent chains of one variant, vectorised over chains.

    Statistically equivalent to independent single-chain runs but draws from
    the single stream pair ``chain_rngs(seed)``: noise as (R, d) rows, and
    each chain's subset as the B smallest of n iid uniforms, both in blocks of
    steps bounded to a few MB.  Deterministic in (seed, n_chains, shapes).
    Intended for the replicate-heavy desk experiments; single chains keep the
    per-replicate stream rule of :func:`chain_rngs`.  Raises
    :class:`DivergedError` at the first non-finite iterate or gradient.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    _check_sizes(obj, variant, B, m, K)
    if sched is not None:
        _check_annealed(variant)
    elif eta is None or gamma is None:
        raise ValueError("need eta and gamma (or a schedule)")
    R, d, n = n_chains, obj.d, obj.n
    noise_rng, index_rng = chain_rngs(seed)
    if x0 is None:
        X = np.zeros((R, d))
    else:
        x0 = np.asarray(x0, dtype=float)
        X = np.tile(x0, (R, 1)) if x0.ndim == 1 else np.array(x0)
    if X.shape != (R, d):
        raise ValueError(f"x0 must broadcast to ({R}, {d})")
    wanted = set(checkpoints) if checkpoints else {K}
    if max(wanted) > K:
        raise ValueError("checkpoints exceed K")
    out = EnsembleResult(variant=variant, K=K)

    def record(k: int, X, count: int, *_) -> None:
        if k in wanted:
            out.checkpoints[k] = X.copy()
            out.grad_evals[k] = count

    record(0, X, 0)
    m = m if variant in _ANCHORED else 1
    span = max(1, _BLOCK_VALUES // max(1, R * max(d, n)))
    subsets = K if variant == "sgld" else K - K // m
    X, diverged_step = _langevin(
        obj, variant, X, K, m,
        (lambda s: (sched.eta(s), sched.gamma(s))) if sched is not None else (lambda s: (eta, gamma)),
        _blocks(lambda c: noise_rng.standard_normal((c, R, d)), K, span).__next__,
        _blocks(lambda c: np.argpartition(index_rng.random((c, R, n)), B - 1, axis=-1)[..., :B],
                subsets, span).__next__,
        obj.minibatch_gradient_rows, record,
    )
    if diverged_step is not None:
        raise DivergedError(diverged_step)
    out.final = X
    return out

"""Discrete-time Langevin chains over finite-sum potentials.

Variants: full-gradient (lmc), plain minibatch (sgld), anchored
variance-reduced (svrg_ld), and recursive variance-reduced (sarah_ld), plus
the annealed runner that lowers the step size and raises the inverse
temperature once per epoch.  All of them run through one step loop,
:func:`_langevin`, on an (R, d) state; the runners only set up its streams
and its recorder.

RNG discipline, two layouts:

- Replicates (:func:`run_replicates`, and :func:`run_chain` and
  :func:`run_annealed`, its one-replicate case): replicate r owns two Philox
  streams derived from ``SeedSequence((seed, r, 0|1))`` - stream 0 for its
  Gaussian noise, stream 1 for its index subsets (:func:`sample_index_set`:
  for n <= 512 the sorted indices of the B smallest of n iid uniforms, above
  that a sorted ``rng.choice``).  Both are drawn per replicate in blocks of
  steps, and each step stacks the replicates' own rows, so replicate r is
  the same chain whatever R is.
  Keeping the streams separate means variants that consume different
  numbers of subset draws still see the same noise sequence, which is what
  makes the B = n, m = 1 reduction to lmc exact.
- Ensembles (:func:`run_ensemble`): one shared stream pair,
  ``chain_rngs(seed)``, with noise drawn as (R, d) rows and subsets as the B
  smallest of n iid uniforms per chain, unsorted, both in blocks of steps.

A Philox block draw equals the same draws made one step at a time, so the
block size never changes a stream.
"""

from __future__ import annotations

import functools
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
    "run_lmc",
    "run_sgld",
    "run_svrg_ld",
    "run_sarah_ld",
    "run_annealed",
    "run_chain",
    "run_replicates",
    "grad_evals_at",
    "EnsembleResult",
    "run_ensemble",
]

VARIANTS = ("lmc", "sgld", "svrg_ld", "sarah_ld")
_ANCHORED = ("svrg_ld", "sarah_ld")
# values per pre-drawn block of noise rows or subset uniforms: a few MB
_BLOCK_VALUES = 2_000_000
# uniforms per pre-drawn block of one replicate's subsets: their argpartition
# makes an int64 temporary of the same size, and a run holds one at a time
_SUBSET_UNIFORMS = 65_536
# largest n whose subsets rank n uniforms.  Ranking costs O(n) a subset;
# rng.choice without replacement costs O(B) (numpy uses Floyd's algorithm
# unless B is a large share of n > 10,000), about 10-30 us.  Measured on one
# core, the two cost the same near n = 600-800 for B = 1..128.
_RANKED_MAX_N = 512


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


def sample_index_set(n: int, B: int, rng: np.random.Generator, shape: tuple[int, ...] = ()) -> np.ndarray:
    """Uniform size-B subsets of {0..n-1} without replacement, sorted, one
    per entry of ``shape``.  For n <= 512 each is the indices of the B
    smallest of n iid uniforms, ranked for the whole block at once; above
    that each is ``rng.choice(n, B, replace=False)``, drawn one at a time,
    which costs O(B) where ranking costs O(n).  Either way the draws fill
    the rows in order and each row is formed on its own, so a (c,) block
    equals c calls with ``shape=()`` bit for bit.  B = n takes every index
    and draws nothing."""
    if not 1 <= B <= n:
        raise ValueError(f"need 1 <= B <= n, got B={B}, n={n}")
    if B == n:
        return np.tile(np.arange(n), (*shape, 1))
    if n > _RANKED_MAX_N:
        return np.sort([rng.choice(n, B, replace=False) for _ in range(math.prod(shape))]).reshape(*shape, B)
    return np.sort(np.argpartition(rng.random((*shape, n)), B - 1, axis=-1)[..., :B], axis=-1)


def _blocks(draw, total: int, span: int):
    """The rows of ``total`` draws, made ``span`` rows at a time by ``draw(c)``."""
    for start in range(0, total, span):
        yield from draw(min(span, total - start))


def _langevin(obj: FiniteSumObjective, variant: str, X, K: int, m: int,
              schedule, noise, subset, rows, record, diverged):
    """The one Langevin step loop behind every runner.

    X is the (R, d) state of R chains that step together.  Epoch s is the m
    steps from s*m and runs at ``schedule(s) = (eta, gamma)``.  Each step
    takes one ``noise()`` row shaped like X and, where its estimator needs
    them, ``subset()`` index rows for ``rows(X, IDX)``, the counted row
    oracle: lmc takes the full gradient at every step (m = 1) and sgld a
    minibatch; svrg_ld and sarah_ld take the full gradient at each epoch
    start, then the anchored or the recursive estimate at 2B evaluations.
    The full gradient runs through the uncounted kernel, and the loop counts
    its n evaluations per chain.  ``record(k, X, grad_evals, eta, gamma)``
    sees every iterate k >= 1; grad_evals is the per-chain count of component
    gradients so far.

    A chain stops at its first iterate that is non-finite or has a non-finite
    gradient estimate: step k + 1, or k when the estimate at iterate k is the
    non-finite one.  ``diverged(bad, steps, last)`` hears of the chains that
    stop in one pass, a mask over the rows of X, with their steps and last
    finite iterates; they leave the state and the others step on.  Returns
    the final state.
    """
    full, n = obj.full_kernel, obj.n
    plain = variant == "sgld"
    recursive = variant == "sarah_ld"
    count = 0
    ref = V_ref = X  # the anchor and its estimate, set at each epoch start
    # overflow is the divergence signal, checked below, not a warning condition
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K):
            s, l = divmod(k, m)
            if l == 0:
                eta, gamma = schedule(s)
                scale = math.sqrt(2.0 * eta / gamma)
            eps = noise()
            if plain:
                idx = subset()
                V = rows(X, idx)
                count += idx.shape[-1]
            elif l == 0:
                V = full(X)
                obj.add_grad_evals(n * len(X))
                count += n
            else:
                idx = subset()
                # both terms of the control variate from one oracle call
                G = rows(np.concatenate((X, ref)), np.concatenate((idx, idx)))
                V = G[:len(X)] - G[len(X):] + V_ref
                count += 2 * idx.shape[-1]
            new = X - eta * V + scale * eps
            idx = None  # a subset row keeps its block alive: free it before the next draw
            # a finite sum proves every entry finite, at half the cost of isfinite
            if not math.isfinite(new.sum()):
                bad = ~np.isfinite(new).all(axis=1)
                if bad.any():
                    diverged(bad, np.where(np.isfinite(V[bad]).all(axis=1), k + 1, k), X[bad])
                    keep = ~bad
                    X, V, new, ref, V_ref = X[keep], V[keep], new[keep], ref[keep], V_ref[keep]
                    if not len(X):
                        break
            if recursive or l == 0:
                ref, V_ref = X, V
            X = new
            record(k + 1, X, count, eta, gamma)
    return X


def _one_chain_rows(obj: FiniteSumObjective, X, IDX):
    """The row oracle of a single chain: the checked, counted minibatch
    gradient at its one index row (a stacked control-variate pair shares it).
    A non-finite estimate comes back as nan, for the step loop to stop at."""
    try:
        return obj.minibatch_gradient(X, IDX[0])
    except NumericalDomainError:
        return np.full(X.shape, np.nan)


def _replicates(obj: FiniteSumObjective, variant: str, x0, K: int, m: int, B: int, seed: int,
                store_every: int, schedule, replicates, rows) -> list[RunTrace]:
    """The chains ``replicates`` on their :func:`chain_rngs` streams, stepped
    as one (R, d) state: each step stacks every live replicate's noise row and
    index set, drawn in blocks of steps from its own streams."""
    n, d, R = obj.n, obj.d, len(replicates)
    streams = [chain_rngs(seed, r) for r in replicates]
    m = m if variant in _ANCHORED else 1
    span = max(1, _BLOCK_VALUES // (R * max(d, n)))
    noise_rows = _blocks(lambda c: np.stack([g.standard_normal((c, d)) for g, _ in streams], axis=1), K, span)
    subsets = K if variant == "sgld" else K - K // m
    # bounds both one replicate's (c, n) uniforms and the stacked (c, R, B) indices
    subset_span = max(1, min(_SUBSET_UNIFORMS // n, _BLOCK_VALUES // (R * B)))
    subset_rows = _blocks(lambda c: np.stack([sample_index_set(n, B, g, (c,)) for _, g in streams], axis=1),
                          subsets, subset_span)
    steps = np.unique(np.r_[0:K + 1:store_every, K])  # the stored steps: 0, every store_every-th, and K
    final = np.tile(np.asarray(x0, dtype=float), (R, 1))
    iterates = np.full((steps.size, R, d), np.nan)
    iterates[0] = final
    grad_evals = np.zeros(steps.size, dtype=np.int64)
    etas, gammas = np.full(steps.size, np.nan), np.full(steps.size, np.nan)
    kept, stops = [steps.size] * R, [None] * R
    live = list(range(R))  # the replicates still stepping, in state order
    t = 0

    def noise():
        eps = next(noise_rows)
        return eps if len(live) == R else eps[live]

    def subset():
        idx = next(subset_rows)
        return idx if len(live) == R else idx[live]

    def record(k, X, count, eta, gamma):
        nonlocal t
        if k % store_every == 0 or k == K:
            t += 1
            iterates[t, live] = X
            grad_evals[t], etas[t], gammas[t] = count, eta, gamma

    def diverged(bad, at, last):
        nonlocal live
        gone = [r for r, b in zip(live, bad.tolist()) if b]
        live = [r for r, b in zip(live, bad.tolist()) if not b]
        for r, step, x in zip(gone, at.tolist(), last):
            kept[r], stops[r], final[r] = t + 1, step, x

    final[live] = _langevin(obj, variant, final, K, m, schedule, noise, subset, rows, record, diverged)
    return [
        RunTrace(variant=variant, steps=steps[:T].copy(), iterates=iterates[:T, r].copy(),
                 grad_evals=grad_evals[:T].copy(), etas=etas[:T].copy(), gammas=gammas[:T].copy(),
                 m=m, final_x=final[r].copy(), diverged=stops[r] is not None, diverged_step=stops[r])
        for r, T in enumerate(kept)
    ]


def run_replicates(obj: FiniteSumObjective, cfg: SamplerConfig, x0, R: int,
                   sched: AnnealSchedule | None = None) -> list[RunTrace]:
    """Replicates 0..R-1 of ``cfg`` from x0, run as one (R, d) state.

    Replicate r reads only its own :func:`chain_rngs` streams, so it is
    ``run_chain(obj, cfg, x0, replicate=r)`` bit for bit, or with ``sched``
    the :func:`run_annealed` chain at cfg's sizes.  A replicate that diverges
    stops at its own step, as a single chain does, while the others step on.
    """
    cfg.validate(obj.n)
    if sched is not None:
        _check_annealed(cfg.variant)
    if R < 1:
        raise ValueError(f"need at least one replicate, got R={R}")
    return _replicates(obj, cfg.variant, x0, cfg.K, cfg.m, cfg.B, cfg.seed, cfg.store_every,
                       (lambda s: (cfg.eta, cfg.gamma)) if sched is None else
                       (lambda s: (sched.eta(s), sched.gamma(s))), range(R), obj.minibatch_gradient_rows)


def run_chain(obj: FiniteSumObjective, cfg: SamplerConfig, x0, replicate: int = 0) -> RunTrace:
    """K steps of ``cfg.variant`` from x0 at constant (eta, gamma).

    Per step: lmc costs n component evaluations and sgld B; an anchored or
    recursive epoch of m steps costs n + 2B(m - 1).  A non-finite iterate or
    gradient ends the run with ``diverged`` set instead of raising.
    """
    cfg.validate(obj.n)
    return _replicates(obj, cfg.variant, x0, cfg.K, cfg.m, cfg.B, cfg.seed, cfg.store_every,
                       lambda s: (cfg.eta, cfg.gamma), [replicate], functools.partial(_one_chain_rows, obj))[0]


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
    return _replicates(obj, variant, x0, K, m, B, seed, store_every,
                       lambda s: (sched.eta(s), sched.gamma(s)), [replicate],
                       functools.partial(_one_chain_rows, obj))[0]


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

    def diverged(bad, steps, last):
        raise DivergedError(int(steps.min()))

    record(0, X, 0)
    m = m if variant in _ANCHORED else 1
    span = max(1, _BLOCK_VALUES // max(1, R * max(d, n)))
    subsets = K if variant == "sgld" else K - K // m
    out.final = _langevin(
        obj, variant, X, K, m,
        (lambda s: (sched.eta(s), sched.gamma(s))) if sched is not None else (lambda s: (eta, gamma)),
        _blocks(lambda c: noise_rng.standard_normal((c, R, d)), K, span).__next__,
        _blocks(lambda c: np.argpartition(index_rng.random((c, R, n)), B - 1, axis=-1)[..., :B],
                subsets, span).__next__,
        obj.minibatch_gradient_rows, record, diverged,
    )
    return out

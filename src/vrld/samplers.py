"""Discrete-time Langevin chains over finite-sum potentials.

Variants: full-gradient (lmc), plain minibatch (sgld), anchored
variance-reduced (svrg_ld), and recursive variance-reduced (sarah_ld), each
at a constant (eta, gamma) or, for svrg_ld and sarah_ld, at an
:class:`AnnealSchedule` that lowers the step size and raises the inverse
temperature once per epoch.  All of them run through one chain engine,
:func:`_langevin`, on an (R, d) state: it owns the epochs, the block
sizes, the subset steps, the stopped chains and the stored steps.  The
three runners, :func:`run_chain`, :func:`run_replicates` and
:func:`run_ensemble`, only lay out its random streams, in one of two
layouts, and package what it records:

- Replicates (:func:`run_replicates`, and :func:`run_chain`, its
  one-replicate case): replicate r owns two Philox streams derived from
  ``SeedSequence((seed, r, 0|1))`` - stream 0 for its Gaussian noise,
  stream 1 for its index subsets.  Both are drawn per replicate in blocks
  of steps, and each step stacks the replicates' own rows, so replicate r
  is the same chain whatever R is.
  Keeping the streams separate means variants that consume different
  numbers of subset draws still see the same noise sequence, which is what
  makes the B = n, m = 1 reduction to lmc exact.
- Ensembles (:func:`run_ensemble`): one shared stream pair,
  ``chain_rngs(seed)``, with noise drawn as (R, d) rows and subsets as one
  row per chain, both in blocks of steps.

Both layouts draw a block's subsets in one :func:`sample_index_set` call:
the replicates pass their R index streams, the ensemble its one.  A block
draw equals the same draws made one step at a time, so the block size
never changes a stream.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np
import numpy.random  # numpy loads it lazily; load it with the module, not at a run's first stream

from .potentials import FiniteSumObjective, NumericalDomainError
from .theory import anneal_eta, anneal_gamma, anneal_hypotheses

__all__ = [
    "VARIANTS",
    "SamplerConfig",
    "AnnealSchedule",
    "RunTrace",
    "DivergedError",
    "chain_rngs",
    "sample_index_set",
    "run_chain",
    "run_replicates",
    "grad_evals_at",
    "EnsembleResult",
    "run_ensemble",
]

VARIANTS = ("lmc", "sgld", "svrg_ld", "sarah_ld")
_ANCHORED = ("svrg_ld", "sarah_ld")
# bound on c * R * max(d, n) for a pre-drawn block of c steps of R chains:
# its noise rows and subset rows stay a few MB
_BLOCK_VALUES = 2_000_000
_WORD = 1 << 32  # numpy draws a bound b <= 2**32 from one 32-bit word
# A block's rows are sorted by Batcher's network on its columns, 2 ufunc passes a
# comparator, or by numpy's row sort, one sort call a row.  On a shared 2-core box
# (numpy 2.4, uint8 columns) the network is the faster from about 64 rows a
# comparator: 1,200 rows at B = 8 (19 comparators), 4,000 at B = 16 (63).  It
# serves B <= 16, where all 2**B binary columns check it (the 0-1 principle).
_NETWORK_B = 16
_ROWS_PER_COMPARATOR = 64


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

    def validate(self, n: int) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not (math.isfinite(self.eta) and math.isfinite(self.gamma)):
            raise ValueError(f"eta and gamma must be finite, got eta={self.eta}, gamma={self.gamma}")
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


@dataclass(frozen=True)
class AnnealSchedule:
    """Per-epoch schedule: eta_s and gamma_s at epoch s are
    :func:`theory.anneal_eta` and :func:`theory.anneal_gamma` of these constants."""

    eta_bar: float
    gamma_bar: float
    sigma: float
    mu: float
    g: float

    def __post_init__(self) -> None:
        anneal_hypotheses(self.mu, self.g, self.sigma, self.eta_bar, self.gamma_bar)

    def eta(self, s: int) -> float:
        return anneal_eta(self.eta_bar, self.sigma, self.mu, s)

    def gamma(self, s: int) -> float:
        return anneal_gamma(self.gamma_bar, self.g, self.sigma, self.mu, s)


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


def sample_index_set(n: int, B: int, rng: np.random.Generator | list[np.random.Generator],
                     shape: tuple[int, ...] = ()) -> np.ndarray:
    """Uniform size-B subsets of {0..n-1} without replacement, sorted, one
    per entry of ``shape``, by Floyd's algorithm (Bentley & Floyd, "A sample
    of brilliance", CACM 1987) run over the whole block at once.

    ``rng`` is one Generator, or a list of R, one per chain: then the
    subsets are shaped (*shape, R, B), and chain r's are the block that
    rng[r] alone gives.  The block is worked in a (B, rows) column layout of
    the narrowest unsigned dtype that holds n - 1 (uint8 up to n = 256).
    Each row draws B bounded integers, column j uniform on 0..n-B+j, exactly
    as numpy's ``integers(0, bounds)`` draws them (see :func:`_word_columns`).
    A column-j value already in its row is replaced by n-B+j, which no
    earlier column can hold: "already in its row" is one broadcast compare
    of column j against columns 0..j-1, and since n-B+j is the top of column
    j's range, the replacement is ``maximum(column, hit * (n-B+j))``: a hit
    of 0 keeps the value and a hit of 1 gives n-B+j, so it is exact.  The
    rows are then sorted, by Batcher's odd-even merge network on the
    columns (:func:`_batcher_pairs`) for B <= 16 in blocks of at least 64
    rows a comparator, where it measures the faster, and the sorted
    columns are cast to int64 in one contiguous pass: the rows come back
    column-major, ``np.moveaxis(block, -1, 0)`` C-contiguous.  Else numpy's
    row sort runs on C-order int64 rows.  At n = 64, B = 8 and 20,000 rows
    a block takes about 0.86 ms, 0.30 of it the words.  Each
    generator fills its rows in C order and each row is formed on its own,
    so a block equals its one-subset calls bit for bit and leaves the
    stream where they leave it.  B = n takes every index and draws
    nothing."""
    if not 1 <= B <= n:
        raise ValueError(f"need 1 <= B <= n, got B={B}, n={n}")
    single = isinstance(rng, np.random.Generator)
    if B == n:
        return np.tile(np.arange(n), (*shape, 1) if single else (*shape, len(rng), 1))
    gens = [rng] if single else rng
    size = (*shape, B)
    lead = (*shape,) if single else (*shape, len(gens))  # the output's shape, less B
    # (B, rows): each column contiguous
    cols = np.empty((B, math.prod(lead)), np.min_scalar_type(n - 1))
    if not (n <= _WORD and _word_columns(n, B, gens, size, cols)):
        # numpy's own loop: 64-bit words for n > 2**32, a generator without 32-bit
        # halves, or a rejected word after the rewind
        bounds = np.arange(n - B + 1, n + 1)
        for r, g in enumerate(gens):
            cols[:, r::len(gens)] = g.integers(0, bounds, size=size).reshape(-1, B).T
    for j in range(1, B):
        hit = (cols[:j] == cols[j]).any(axis=0)
        np.maximum(cols[j], hit * cols.dtype.type(n - B + j), out=cols[j])
    if B <= _NETWORK_B and cols.shape[1] >= _ROWS_PER_COMPARATOR * len(_batcher_pairs(B)):
        # one contiguous cast of the sorted columns: rows with a column-major stride
        return np.moveaxis(_network_sorted(cols).astype(np.int64).reshape(B, *lead), 0, -1)
    # allocated after the draw, so that it can take the freed uint64 product's memory
    out = np.empty((*lead, B), np.int64)
    rows = out.reshape(-1, B)  # a view: the rows are written in place
    rows[...] = cols.T
    rows.sort(axis=-1)
    return out


def _word_columns(n: int, B: int, gens: list[np.random.Generator], size: tuple[int, ...],
                  cols: np.ndarray) -> bool:
    """Fill the (B, rows) ``cols``, of any unsigned dtype that holds n - 1,
    with the block's bounded integers, column j uniform on 0..n-B+j, the
    values numpy's ``integers(0, bounds)`` gives; or, where numpy would
    reject a word or a generator keeps no 32-bit half (MT19937), leave every
    stream where it was and return False.

    For a bound b <= 2**32 numpy takes one 32-bit word x of the stream and
    returns (x b) >> 32, rejecting x when (x b) mod 2**32 < (2**32 - b) mod b
    (Lemire, "Fast random integer generation in an interval", ACM TOMACS
    2019).  :func:`_words` gives those same words in the same order, so the
    block is one such draw per generator, multiplied by the bounds into a
    uint64 scratch product in the column layout.  The product serves only
    the rejection check on its low words; its high words are shifted
    straight into ``cols``.  A word is rejected with probability
    (2**32 mod b) / 2**32 < n / 2**32, so about 1 block in 1,200 meets one
    at n = 64, B = 8 and 20,000 rows."""
    states = [g.bit_generator.state for g in gens]
    if not all("has_uint32" in state for state in states):
        return False
    bounds = np.arange(n - B + 1, n + 1, dtype=np.uint64)
    prod = np.empty(cols.shape, np.uint64)
    for r, (g, state) in enumerate(zip(gens, states)):  # generator r's rows are every len(gens)-th, from r
        words = _words(g.bit_generator, state, math.prod(size)).reshape(-1, B)
        np.multiply(words.T, bounds[:, None], out=prod[:, r::len(gens)])
    low = prod.view(np.uint32)[:, ::2] if np.little_endian else prod.view(np.uint32)[:, 1::2]
    if (low.min(axis=1, initial=_WORD - 1) < (_WORD - bounds) % bounds).any():
        for g, state in zip(gens, states):
            g.bit_generator.state = state
        return False
    np.right_shift(prod, 32, out=cols, casting="unsafe")
    return True


def _words(bits: np.random.BitGenerator, state: dict, count: int) -> np.ndarray:
    """The ``count`` 32-bit words that ``integers(0, 2**32, count, np.uint32)``
    draws from ``bits``, whose state is ``state``, leaving ``bits`` where
    that call leaves it.  Philox, PCG64 and SFC64 cut each 64-bit output
    into its low half, returned first, and its high half, kept pending in
    ``has_uint32`` and ``uinteger``; so the words are a pending half, then
    the halves of ceil(rest / 2) raw outputs, and the state ends with the
    last output's high half in ``uinteger``, pending when rest is odd."""
    if not count:
        return np.empty(0, np.uint32)
    pending = state["has_uint32"]
    raw = bits.random_raw((count - pending + 1) // 2)
    words = raw.astype("<u8", copy=False).view("<u4")  # the low half first on any platform
    if pending:
        words = np.concatenate((np.array([state["uinteger"]], np.uint32), words))
    after = bits.state
    after["has_uint32"] = (count - pending) % 2
    if len(raw):
        after["uinteger"] = int(raw[-1] >> 32)
    bits.state = after
    return words[:count]


@functools.cache
def _batcher_pairs(B: int) -> tuple[tuple[int, int], ...]:
    """The comparators (i, j), i < j, of Batcher's odd-even merge sort on B
    wires (Batcher, "Sorting networks and their applications", AFIPS 1968),
    in order: the network for the next power of two, less the comparators
    that touch a wire >= B.  Those wires would hold values above every
    other, which no comparator moves, so the rest sorts any B wires."""
    pairs = []
    p = 1
    while p < B:
        k = p
        while k >= 1:
            for j in range(k % p, B - k, 2 * k):
                for i in range(min(k, B - j - k)):
                    if (i + j) // (2 * p) == (i + j + k) // (2 * p):
                        pairs.append((i + j, i + j + k))
            k //= 2
        p *= 2
    return tuple(pairs)


def _network_sorted(cols: np.ndarray) -> np.ndarray:
    """The (B, rows) ``cols`` sorted along its first axis, so each row's B
    values are in order, by :func:`_batcher_pairs`: each comparator is one
    ``np.minimum`` and one ``np.maximum`` over two whole columns."""
    c = list(cols)
    for i, j in _batcher_pairs(len(c)):
        c[i], c[j] = np.minimum(c[i], c[j]), np.maximum(c[i], c[j])
    return np.stack(c)


def _blocks(draw, total: int, span: int):
    """The rows of ``total`` draws, made ``span`` rows at a time by ``draw(c)``."""
    for start in range(0, total, span):
        yield from draw(min(span, total - start))


def _langevin(obj: FiniteSumObjective, cfg: SamplerConfig, sched: AnnealSchedule | None, X,
              noise, subsets, rows, stored, record, diverged):
    """The one chain engine behind every runner: cfg.K steps of cfg.variant
    from the (R, d) state X of R chains that step together.

    Epoch s is the m steps from s*m, m = cfg.m for svrg_ld and sarah_ld and
    1 for lmc and sgld, and runs at ``_epoch_params(cfg, sched)(s)``.  The
    runner lays out the random numbers as two block draws, ``noise(c)``, c
    steps of (R, d) noise rows, and ``subsets(c)``, c steps of (R, B) index
    rows, which the engine calls for blocks of c steps of R chains that
    hold c * R * max(d, n) <= ``_BLOCK_VALUES`` values.  An objective with
    identical components reads no index, so it gets one constant valid
    block for every step and ``subsets`` is never called.

    lmc takes the full gradient at every step and sgld a minibatch estimate
    from ``rows(X, IDX)``, the counted row oracle; svrg_ld and sarah_ld take
    the full gradient at each epoch start, then the anchored or the
    recursive estimate at 2B evaluations.  That estimate needs the oracle
    at x_k and at the anchor (svrg_ld) or x_{k-1} (sarah_ld) over one index
    set, so it is one call on the stacked (2, R, d) pair against the step's
    (R, B) index rows, which the row kernel gathers once.  The full gradient
    runs through the uncounted kernel, and the engine counts its n
    evaluations per chain.  ``record(k, X, live, grad_evals, eta, gamma)``
    sees iterate k at each step k of ``stored``, an increasing iterable of
    steps in 0..K: X holds the chains still stepping, ``live`` their start
    rows, grad_evals the per-chain count of component gradients so far;
    step 0, which no step has run yet, is recorded at (nan, nan).

    A chain stops at its first iterate that is non-finite or has a
    non-finite gradient estimate: step k + 1, or k when the estimate at
    iterate k is the non-finite one.  ``diverged(gone, steps, last)`` hears
    of the chains that stop in one pass, by their start rows, with their
    steps and last finite iterates; they leave the state, their rows of
    every later draw are skipped, and the others step on.  Returns the
    final state of the chains still stepping, and m.
    """
    schedule = _epoch_params(cfg, sched)
    variant, K, B, full, n = cfg.variant, cfg.K, cfg.B, obj.full_kernel, obj.n
    plain = variant == "sgld"
    recursive = variant == "sarah_ld"
    m = cfg.m if variant in _ANCHORED else 1
    R = len(X)
    span = max(1, _BLOCK_VALUES // (R * max(obj.d, n)))
    eps_rows = _blocks(noise, K, span)
    if obj.identical_components:
        idx_rows = itertools.repeat(np.broadcast_to(np.arange(B), (R, B)))
    else:
        idx_rows = _blocks(subsets, K if plain else K - K // m, span)
    next_eps, next_idx = eps_rows.__next__, idx_rows.__next__
    live = slice(None)  # the start rows of the chains still stepping
    count = 0
    ref = V_ref = X  # the anchor and its estimate, set at each epoch start
    stored = iter(stored)
    store = next(stored, None)
    if store == 0:
        record(0, X, live, count, math.nan, math.nan)
        store = next(stored, None)
    # overflow is the divergence signal, checked below, not a warning condition
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(K):
            s, l = divmod(k, m)
            if l == 0:
                eta, gamma = schedule(s)
                scale = math.sqrt(2.0 * eta / gamma)
            eps = next_eps()
            if plain:
                idx = next_idx()
                V = rows(X, idx)
                count += B
            elif l == 0:
                V = full(X)
                obj.add_grad_evals(n * len(X))
                count += n
            else:
                idx = next_idx()
                # both terms of the control variate from one oracle call over one gather
                G = rows(np.array((X, ref)), idx)
                V = G[0] - G[1] + V_ref
                count += 2 * B
            new = X - eta * V + scale * eps
            idx = None  # a subset row keeps its block alive: free it before the next draw
            # a finite sum proves every entry finite, at half the cost of isfinite;
            # an overflowing sum of finite entries falls through to the exact check
            if not math.isfinite(np.add.reduce(new, None)):
                bad = ~np.isfinite(new).all(axis=1)
                if bad.any():
                    start = np.arange(R)[live]
                    diverged(start[bad], np.where(np.isfinite(V[bad]).all(axis=1), k + 1, k), X[bad])
                    keep = ~bad
                    live = start[keep]
                    # every later draw gives the rows of the chains still stepping
                    next_eps = map(operator.itemgetter(live), eps_rows).__next__
                    next_idx = map(operator.itemgetter(live), idx_rows).__next__
                    X, V, new, ref, V_ref = X[keep], V[keep], new[keep], ref[keep], V_ref[keep]
                    if not len(X):
                        break
            if recursive or l == 0:
                ref, V_ref = X, V
            X = new
            if k + 1 == store:
                record(k + 1, X, live, count, eta, gamma)
                store = next(stored, None)
    return X, m


def _one_chain_rows(obj: FiniteSumObjective, X, IDX):
    """The row oracle of a single chain: the checked, counted minibatch
    gradient at its one index row (a stacked control-variate pair shares it).
    A non-finite estimate comes back as nan, for the engine to stop at."""
    try:
        return obj.minibatch_gradient(X, IDX[0])
    except NumericalDomainError:
        return np.full(X.shape, np.nan)


def _epoch_params(cfg: SamplerConfig, sched: AnnealSchedule | None):
    """The epoch -> (eta, gamma) map of a run: cfg's constant pair, or the
    schedule's, which only the epoch variants take and which starts at cfg's."""
    if sched is None:
        return lambda s: (cfg.eta, cfg.gamma)
    if cfg.variant not in _ANCHORED:
        raise ValueError("annealed runs support svrg_ld and sarah_ld")
    if (cfg.eta, cfg.gamma) != (sched.eta(0), sched.gamma(0)):
        raise ValueError(f"the schedule supplies the step size and inverse temperature; (eta, gamma) must be its "
                         f"epoch-0 pair {(sched.eta(0), sched.gamma(0))}, got {(cfg.eta, cfg.gamma)}")
    return lambda s: (sched.eta(s), sched.gamma(s))


def _check_count(name: str, count) -> None:
    if not isinstance(count, numbers.Integral) or count < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {count!r}")


def _replicates(obj: FiniteSumObjective, cfg: SamplerConfig, x0, sched: AnnealSchedule | None,
                replicates, rows) -> list[RunTrace]:
    """The chains ``replicates`` of ``cfg`` on their :func:`chain_rngs`
    streams, stepped as one (R, d) state: each step stacks every live
    replicate's noise row and index set, drawn in blocks of steps from its
    own streams."""
    cfg.validate(obj.n)
    n, d, R = obj.n, obj.d, len(replicates)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (d,):
        raise ValueError(f"x0 must have dimension {d}")
    streams = [chain_rngs(cfg.seed, r) for r in replicates]
    steps = np.r_[0:cfg.K + 1:cfg.store_every]  # the stored steps: 0, every store_every-th, and K
    if cfg.K % cfg.store_every:
        steps = np.append(steps, cfg.K)
    iterates = np.full((steps.size, R, d), np.nan)
    grad_evals = np.zeros(steps.size, dtype=np.int64)
    etas, gammas = np.full(steps.size, np.nan), np.full(steps.size, np.nan)
    # each replicate's stored steps, divergence step and final iterate: step K's, or its last finite one
    kept, stops, final = [steps.size] * R, [None] * R, list(iterates[-1])
    t = 0  # the stored steps recorded so far

    def record(k, X, live, count, eta, gamma):
        nonlocal t
        iterates[t, live] = X
        grad_evals[t], etas[t], gammas[t] = count, eta, gamma
        t += 1

    def diverged(gone, at, last):
        for r, step, x in zip(gone.tolist(), at.tolist(), last):
            kept[r], stops[r], final[r] = t, step, x

    _, m = _langevin(obj, cfg, sched, np.tile(x0, (R, 1)),
                     lambda c: np.stack([g.standard_normal((c, d)) for g, _ in streams], axis=1),
                     lambda c: sample_index_set(n, cfg.B, [g for _, g in streams], (c,)),
                     rows, map(int, steps), record, diverged)
    return [
        RunTrace(variant=cfg.variant, steps=steps[:T].copy(), iterates=iterates[:T, r].copy(),
                 grad_evals=grad_evals[:T].copy(), etas=etas[:T].copy(), gammas=gammas[:T].copy(),
                 m=m, final_x=final[r].copy(), diverged=stops[r] is not None, diverged_step=stops[r])
        for r, T in enumerate(kept)
    ]


def run_replicates(obj: FiniteSumObjective, cfg: SamplerConfig, x0, R: int,
                   sched: AnnealSchedule | None = None) -> list[RunTrace]:
    """Replicates 0..R-1 of ``cfg`` from x0, run as one (R, d) state.

    Replicate r reads only its own :func:`chain_rngs` streams, so it is
    ``run_chain(obj, cfg, x0, replicate=r, sched=sched)`` bit for bit.  A
    replicate that diverges stops at its own step, as a single chain does,
    while the others step on.
    """
    _check_count("R", R)
    return _replicates(obj, cfg, x0, sched, range(R), obj.minibatch_gradient_rows)


def run_chain(obj: FiniteSumObjective, cfg: SamplerConfig, x0, replicate: int = 0,
              sched: AnnealSchedule | None = None) -> RunTrace:
    """K steps of ``cfg.variant`` from x0, replicate ``replicate`` of cfg.seed.

    Epoch s runs at cfg's constant (eta, gamma), or with ``sched`` (svrg_ld
    and sarah_ld only, cfg at its epoch-0 pair) at (sched.eta(s),
    sched.gamma(s)), for both the drift and the noise scale.  Per step: lmc
    costs n component evaluations and sgld B; an anchored or recursive epoch
    of m steps costs n + 2B(m - 1).
    A non-finite iterate or gradient ends the run with ``diverged`` set
    instead of raising.
    """
    return _replicates(obj, cfg, x0, sched, [replicate], functools.partial(_one_chain_rows, obj))[0]


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
    the single stream pair ``chain_rngs(seed)``: noise as (c, R, d) blocks,
    and subsets as one :func:`sample_index_set` call of shape (c, R) a block,
    for blocks of c steps with c * R * max(d, n) bounded to a few MB.
    Deterministic in (seed, n_chains, shapes).  Intended for the
    replicate-heavy desk experiments; single chains keep the per-replicate
    stream rule of :func:`chain_rngs`.  ``checkpoints`` are the steps to
    keep, integers in 0..K: None keeps step K, and an empty list keeps none.
    Raises :class:`DivergedError` at the first non-finite iterate or
    gradient.  The chains run at (eta, gamma) or at ``sched``, not both.
    Sizes and steps are checked as :meth:`SamplerConfig.validate` checks
    them, at the schedule's epoch-0 (eta, gamma) when there is one.
    """
    if sched is not None and (eta is not None or gamma is not None):
        raise ValueError("the schedule supplies the step size and inverse temperature; drop eta and gamma")
    if sched is None and (eta is None or gamma is None):
        raise ValueError("need eta and gamma (or a schedule)")
    _check_count("n_chains", n_chains)
    if sched is not None:
        eta, gamma = sched.eta(0), sched.gamma(0)
    cfg = SamplerConfig(variant, eta, gamma, B=B, m=m, K=K, seed=seed)
    cfg.validate(obj.n)
    R, d, n = n_chains, obj.d, obj.n
    noise_rng, index_rng = chain_rngs(seed)
    if x0 is None:
        X = np.zeros((R, d))
    else:
        x0 = np.asarray(x0, dtype=float)
        X = np.tile(x0, (R, 1)) if x0.ndim == 1 else np.array(x0)
    if X.shape != (R, d):
        raise ValueError(f"x0 must broadcast to ({R}, {d})")
    wanted = {K} if checkpoints is None else set(checkpoints)
    bad = [k for k in dict.fromkeys(checkpoints or ()) if not (isinstance(k, numbers.Integral) and 0 <= k <= K)]
    if bad:
        raise ValueError(f"checkpoints [{', '.join(map(str, bad))}] are not integers in 0..{K}")
    out = EnsembleResult(variant=variant, K=K)

    def record(k: int, X, live, count: int, *_) -> None:
        out.checkpoints[k] = X.copy()
        out.grad_evals[k] = count

    def diverged(gone, steps, last):
        raise DivergedError(int(steps.min()))

    out.final, _ = _langevin(
        obj, cfg, sched, X,
        lambda c: noise_rng.standard_normal((c, R, d)), lambda c: sample_index_set(n, B, index_rng, (c, R)),
        obj.minibatch_gradient_rows, sorted(wanted), record, diverged,
    )
    return out

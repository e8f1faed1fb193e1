"""Finite-sum potentials F(x) = (1/n) * sum_i f_i(x) with per-component gradients.

Every objective carries its regularity metadata (smoothness constant L,
dissipativity pair (M, b), known minimum) and a thread-safe counter of
component-gradient evaluations.  Constants that were estimated on a grid
rather than derived analytically are listed in ``estimated_constants`` and
must not be fed silently into theory-mode computations.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "FiniteSumObjective",
    "GaussianMoments",
    "RegularityReport",
    "full_gradient",
    "minibatch_gradient",
    "make_builtin",
    "load_labeled_matrix",
    "probe_regularity",
    "BUILTIN_NAMES",
]


# values per block of leading rows that ``value`` hands to a closed-form
# evaluator, which builds an (rows, n, d) temporary at most: a few MB
_BLOCK_VALUES = 1 << 18


class NumericalDomainError(ArithmeticError):
    """A gradient or value came back non-finite."""


@dataclass
class GaussianMoments:
    """Mean/covariance pair, used as an exact oracle on quadratic targets."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        self.cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        d = self.mean.shape[0]
        if self.cov.shape != (d, d):
            raise ValueError(f"covariance shape {self.cov.shape} does not match mean dim {d}")
        if not np.allclose(self.cov, self.cov.T, atol=1e-12):
            raise ValueError("covariance must be symmetric to 1e-12")
        if np.linalg.eigvalsh(self.cov).min() <= 0:
            raise ValueError("covariance must be positive definite")

    @property
    def d(self) -> int:
        return self.mean.shape[0]


class FiniteSumObjective:
    """F(x) = (1/n) sum_i f_i(x) with component-level access.

    The evaluation counter tallies component-gradient evaluations: a full
    gradient costs n, a minibatch of size B costs B.  Closed-form fast paths
    (``grad_fn``, ``minibatch_fn``, ``rows_fn``) keep the same accounting.
    A full gradient without ``grad_fn`` is ``minibatch_fn`` over all n
    components, the very call a full-batch minibatch makes; the loop over
    components runs only where neither kernel is given.
    Evaluators are pure functions of x and are vectorised over leading axes,
    so the objective itself stays immutable apart from the counter.
    """

    def __init__(
        self,
        name: str,
        n: int,
        d: int,
        component_value: Callable[[int, np.ndarray], np.ndarray],
        component_grad: Callable[[int, np.ndarray], np.ndarray],
        *,
        L: float | None = None,
        M: float | None = None,
        b: float | None = None,
        F_star: float | None = None,
        x_star: np.ndarray | None = None,
        value_fn: Callable[[np.ndarray], np.ndarray] | None = None,
        grad_fn: Callable[[np.ndarray], np.ndarray] | None = None,
        minibatch_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
        rows_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
        estimated_constants: frozenset[str] = frozenset(),
        meta: dict | None = None,
    ):
        if n < 1:
            raise ValueError("component count n must be >= 1")
        if d < 1:
            raise ValueError("dimension d must be >= 1")
        for cname, cval in (("L", L), ("M", M), ("b", b)):
            if cval is not None and cval <= 0:
                raise ValueError(f"declared constant {cname} must be > 0")
        self.name = name
        self.n = n
        self.d = d
        self._component_value = component_value
        self._component_grad = component_grad
        self.L = L
        self.M = M
        self.b = b
        self.F_star = F_star
        self.x_star = None if x_star is None else np.asarray(x_star, dtype=float)
        self._value_fn = value_fn
        self._grad_fn = grad_fn
        self._minibatch_fn = minibatch_fn
        self._rows_fn = rows_fn
        self._all = np.arange(n)
        self.estimated_constants = frozenset(estimated_constants)
        self.meta = dict(meta or {})
        self._grad_evals = 0
        self._lock = threading.Lock()

    # -- evaluation counter -------------------------------------------------

    @property
    def grad_evals(self) -> int:
        return self._grad_evals

    def reset_grad_evals(self) -> None:
        with self._lock:
            self._grad_evals = 0

    def _count(self, k: int) -> None:
        with self._lock:
            self._grad_evals += k

    # -- evaluators ---------------------------------------------------------

    def component_value(self, i: int, x: np.ndarray) -> np.ndarray:
        return self._component_value(i, np.asarray(x, dtype=float))

    def value(self, x: np.ndarray) -> np.ndarray:
        """F(x), vectorised over leading axes of x.

        A closed-form ``value_fn`` runs over blocks of leading rows, so a long
        trace never builds an unbounded (rows, n) temporary; it reduces each
        row on its own, so the blocks join to the single-call result bitwise.
        """
        x = np.asarray(x, dtype=float)
        if self._value_fn is None:
            return sum(self._component_value(i, x) for i in range(self.n)) / self.n
        flat = x.reshape(-1, self.d)
        span = max(1, _BLOCK_VALUES // (self.n * self.d))
        if flat.shape[0] <= span:
            return self._value_fn(x)
        out = np.concatenate([self._value_fn(flat[i:i + span]) for i in range(0, flat.shape[0], span)])
        return out.reshape(x.shape[:-1])

    def component_gradient(self, i: int, x: np.ndarray) -> np.ndarray:
        """grad f_i(x); counts one component-gradient evaluation."""
        if not 0 <= i < self.n:
            raise IndexError(f"component index {i} out of range for n={self.n}")
        self._count(int(np.asarray(x).size // self.d) or 1)
        g = self._component_grad(i, np.asarray(x, dtype=float))
        if not np.all(np.isfinite(g)):
            raise NumericalDomainError(f"component gradient {i} is non-finite")
        return g

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Full gradient (1/n) sum_i grad f_i(x); counts n evaluations."""
        x = np.asarray(x, dtype=float)
        self._count(self.n * (int(x.size // self.d) or 1))
        if self._grad_fn is not None:
            g = self._grad_fn(x)
        elif self._minibatch_fn is not None:
            g = self._minibatch_fn(x, self._all)
        else:
            g = sum(self._component_grad(i, x) for i in range(self.n)) / self.n
        if not np.all(np.isfinite(g)):
            raise NumericalDomainError("full gradient is non-finite")
        return g

    def minibatch_gradient(self, x: np.ndarray, idx) -> np.ndarray:
        """(1/|idx|) sum_{i in idx} grad f_i(x) for a distinct in-range idx."""
        idx = np.asarray(idx, dtype=int)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("index set must be a nonempty 1-d sequence")
        # python ints: a set and min/max cost a fraction of np.unique here
        ids = idx.tolist()
        if len(set(ids)) != len(ids):
            raise ValueError(f"index set contains duplicates: {ids}")
        if min(ids) < 0 or max(ids) >= self.n:
            raise ValueError(f"index set out of range [0, {self.n}): {ids}")
        x = np.asarray(x, dtype=float)
        self._count(int(idx.size) * (int(x.size // self.d) or 1))
        if self._minibatch_fn is not None:
            g = self._minibatch_fn(x, idx)
        else:
            g = sum(self._component_grad(int(i), x) for i in idx) / idx.size
        if not np.all(np.isfinite(g)):
            raise NumericalDomainError("minibatch gradient is non-finite")
        return g

    def minibatch_gradient_rows(self, X: np.ndarray, IDX: np.ndarray) -> np.ndarray:
        """Row-wise minibatch gradients for an ensemble of chains.

        X has shape (R, d) and IDX shape (R, B); row r gets the minibatch
        gradient over IDX[r].  Counts R*B component evaluations.
        """
        X = np.asarray(X, dtype=float)
        IDX = np.asarray(IDX, dtype=int)
        self._count(int(IDX.size))
        if self._rows_fn is not None:
            return self._rows_fn(X, IDX)
        out = np.empty_like(X)
        for r in range(X.shape[0]):
            out[r] = sum(self._component_grad(int(i), X[r]) for i in IDX[r]) / IDX.shape[1]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FiniteSumObjective({self.name!r}, n={self.n}, d={self.d}, L={self.L})"


# -- free-function wrappers ----------------------------------------------------


def full_gradient(obj: FiniteSumObjective, x: np.ndarray) -> np.ndarray:
    return obj.gradient(x)


def minibatch_gradient(obj: FiniteSumObjective, x: np.ndarray, idx) -> np.ndarray:
    return obj.minibatch_gradient(x, idx)


# -- built-in potentials ------------------------------------------------------


def _gaussian_quadratic(params: dict) -> FiniteSumObjective:
    """f_i(x) = s_i/2 * ||x - c_i||^2.

    Default scales s_i = 1 give the plain quadratic family with L = 1 and
    M = 1/2.  Optional per-component ``scales`` produce heterogeneous
    component curvatures (useful for exercising the stochastic-gradient
    variance identities, which vanish identically when all Hessians agree).
    Documented constants: L = max s_i, M = mean(s)/2, b = (mean(s) + ||u||^2/mean(s))/2
    with u = (1/n) sum_i s_i c_i, from <grad F, x> >= mean(s)||x||^2 - <u, x>.
    """
    centers = params.get("centers")
    if centers is not None:
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        n, d = centers.shape
    else:
        n = int(params["n"])
        d = int(params["d"])
        rng = np.random.default_rng(int(params.get("seed", 0)))
        spread = float(params.get("spread", 1.0))
        centers = spread * rng.standard_normal((n, d))
        if params.get("zero_mean", False):
            centers = centers - centers.mean(axis=0)
    scales = params.get("scales")
    if scales is None:
        s = np.ones(n)
    else:
        s = np.asarray(scales, dtype=float)
        if s.shape != (n,) or np.any(s <= 0):
            raise ValueError("scales must be positive with one entry per component")
    s_mean = float(s.mean())
    u = (s[:, None] * centers).mean(axis=0)
    x_star = u / s_mean
    F_star = float(0.5 * np.mean(s * np.sum((x_star - centers) ** 2, axis=1)))

    def comp_value(i, x):
        return 0.5 * s[i] * np.sum((x - centers[i]) ** 2, axis=-1)

    def comp_grad(i, x):
        return s[i] * (x - centers[i])

    def value_fn(x):
        # F(x) = F* + mean(s)/2 ||x - x*||^2: O(d) per row and exact at x*
        diff = x - x_star
        return F_star + 0.5 * s_mean * np.sum(diff * diff, axis=-1)

    def grad_fn(x):
        return s_mean * x - u

    def minibatch_fn(x, idx):
        return np.mean(s[idx]) * x - (s[idx, None] * centers[idx]).mean(axis=0)

    def rows_fn(X, IDX):
        sb = s[IDX]  # (R, B)
        return sb.mean(axis=1)[:, None] * X - (sb[:, :, None] * centers[IDX]).mean(axis=1)

    return FiniteSumObjective(
        "gaussian_quadratic",
        n,
        d,
        comp_value,
        comp_grad,
        L=float(s.max()),
        M=s_mean / 2.0,
        b=0.5 * (s_mean + float(u @ u) / s_mean),
        F_star=F_star,
        x_star=x_star,
        value_fn=value_fn,
        grad_fn=grad_fn,
        minibatch_fn=minibatch_fn,
        rows_fn=rows_fn,
        meta={"centers": centers, "scales": s},
    )


def _double_well(params: dict) -> FiniteSumObjective:
    """Quartic double well, replicated n_copies times as identical components.

    1-d: F(x) = (x^2 - a^2)^2 / 4, minima at +-a, saddle at 0, F* = 0.
    2-d adds a quadratic confinement in the second coordinate:
    F(x, y) = (x^2 - a^2)^2 / 4 + y^2 / 2.

    The quartic is not globally L-smooth; L is declared as the curvature
    maximum over the documented box [-r, r]^d (r = ``box``) and flagged as
    box-restricted.  Dissipativity holds globally with M = 1/2 and
    b = (a^2 + 1/2)^2 / 4 (+ nothing extra for the quadratic coordinate):
    <F'(x), x> = x^4 - a^2 x^2 >= x^2/2 - b  iff  b >= (a^2 + 1/2)^2 / 4.
    """
    a = float(params.get("a", 1.0))
    d = int(params.get("d", 1))
    if d not in (1, 2):
        raise ValueError("double_well supports d in {1, 2}")
    n = int(params.get("n_copies", 1))
    r = float(params.get("box", 2.0))
    if r < a:
        raise ValueError("box must contain the wells (box >= a)")
    L_box = max(3.0 * r * r - a * a, 1.0 if d == 2 else 0.0)
    if L_box <= 0:
        L_box = a * a  # degenerate tiny box; curvature at the saddle
    b_diss = (a * a + 0.5) ** 2 / 4.0

    def quartic(x1):
        return 0.25 * (x1**2 - a * a) ** 2

    def quartic_grad(x1):
        return (x1**2 - a * a) * x1

    if d == 1:

        def comp_value(i, x):
            return quartic(x[..., 0])

        def comp_grad(i, x):
            return quartic_grad(x)

        def grad_fn(x):
            return quartic_grad(x)

        x_star = np.array([a])
    else:

        def comp_value(i, x):
            return quartic(x[..., 0]) + 0.5 * x[..., 1] ** 2

        def comp_grad(i, x):
            g = np.empty_like(x)
            g[..., 0] = quartic_grad(x[..., 0])
            g[..., 1] = x[..., 1]
            return g

        def grad_fn(x):
            return comp_grad(0, x)

        x_star = np.array([a, 0.0])

    def value_fn(x):
        return comp_value(0, x)

    def rows_fn(X, IDX):
        # identical components: any minibatch gradient equals the full one
        return grad_fn(X)

    return FiniteSumObjective(
        "double_well",
        n,
        d,
        comp_value,
        comp_grad,
        L=L_box,
        M=0.5,
        b=b_diss,
        F_star=0.0,
        x_star=x_star,
        value_fn=value_fn,
        grad_fn=grad_fn,
        minibatch_fn=lambda x, idx: grad_fn(x),
        rows_fn=rows_fn,
        estimated_constants=frozenset({"L"}),
        meta={"a": a, "box": r},
    )


def _gaussian_mixture(params: dict) -> FiniteSumObjective:
    """Negative log density of the two-component mixture (N(+mu, s^2 I) + N(-mu, s^2 I)) / 2.

    F(x) = (||x||^2 + ||mu||^2) / (2 s^2) - log cosh(<mu, x> / s^2) + (d/2) log(2 pi s^2).
    Hessian = I/s^2 - (mu mu^T / s^4) sech^2(<mu, x>/s^2), so
    L = max(1, |1 - ||mu||^2 / s^2|) / s^2 analytically, and
    <grad F, x> >= ||x||^2/(2 s^2) - ||mu||^2/(2 s^2) gives (M, b).
    Replicated ``n_copies`` times as identical components.
    """
    mu = np.atleast_1d(np.asarray(params.get("mu", [1.0]), dtype=float))
    sigma = float(params.get("sigma", 1.0))
    n = int(params.get("n_copies", 1))
    d = mu.shape[0]
    s2 = sigma * sigma
    mu2 = float(mu @ mu)
    L = max(1.0, abs(1.0 - mu2 / s2)) / s2
    norm_const = 0.5 * d * math.log(2.0 * math.pi * s2)

    def comp_value(i, x):
        # einsum, not a BLAS dot, so that each row's sum is the same in any batch
        t = np.einsum("...d,d->...", x, mu) / s2
        # log cosh computed stably: |t| + log1p(exp(-2|t|)) - log 2
        logcosh = np.abs(t) + np.log1p(np.exp(-2.0 * np.abs(t))) - math.log(2.0)
        return (np.sum(x * x, axis=-1) + mu2) / (2.0 * s2) - logcosh + norm_const

    def comp_grad(i, x):
        t = np.tensordot(x, mu, axes=([-1], [0])) / s2
        return (x - np.tanh(t)[..., None] * mu) / s2

    def grad_fn(x):
        return comp_grad(0, x)

    return FiniteSumObjective(
        "gaussian_mixture",
        n,
        d,
        comp_value,
        comp_grad,
        L=L,
        M=1.0 / (2.0 * s2),
        b=max(mu2, s2) / (2.0 * s2),
        value_fn=lambda x: comp_value(0, x),
        grad_fn=grad_fn,
        minibatch_fn=lambda x, idx: grad_fn(x),
        rows_fn=lambda X, IDX: grad_fn(X),
        meta={"mu": mu, "sigma": sigma},
    )


def load_labeled_matrix(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a plain-text matrix: one sample row per line, whitespace-separated,
    last column the {0, 1} label."""
    raw = np.loadtxt(path, dtype=float, ndmin=2)
    if raw.shape[1] < 2:
        raise ValueError("data file needs at least one feature column plus a label")
    rows, labels = raw[:, :-1], raw[:, -1]
    if not np.all(np.isin(labels, (0.0, 1.0))):
        raise ValueError("labels must be 0 or 1")
    return rows, labels


def _logistic_l2(params: dict) -> FiniteSumObjective:
    """Regularised logistic loss over supplied rows.

    f_i(x) = log(1 + exp(-y_i <a_i, x>)) + lam/2 ||x||^2 with y_i in {-1, +1}.
    L = lam + max_i ||a_i||^2 / 4 (logistic Hessian bound), and
    <grad f_i, x> >= lam ||x||^2 - ||a_i|| ||x|| gives
    M = lam / 2, b = max_i ||a_i||^2 / (2 lam).
    """
    if "data_file" in params:
        rows, labels = load_labeled_matrix(params["data_file"])
    else:
        rows = np.atleast_2d(np.asarray(params["rows"], dtype=float))
        labels = np.asarray(params["labels"], dtype=float)
    lam = float(params.get("lam", params.get("lambda", 0.1)))
    if lam <= 0:
        raise ValueError("logistic_l2 needs lam > 0")
    n, d = rows.shape
    if labels.shape != (n,):
        raise ValueError("labels length must match row count")
    y = np.where(labels > 0.5, 1.0, -1.0)
    row_norm2 = np.sum(rows * rows, axis=1)
    L = lam + float(row_norm2.max()) / 4.0

    def margin(i, x):
        return y[i] * np.tensordot(x, rows[i], axes=([-1], [0]))

    def comp_value(i, x):
        t = margin(i, x)
        # log(1 + exp(-t)) stably
        return np.logaddexp(0.0, -t) + 0.5 * lam * np.sum(x * x, axis=-1)

    def comp_grad(i, x):
        t = margin(i, x)
        sig = 1.0 / (1.0 + np.exp(t))  # sigmoid(-t)
        return (-sig * y[i])[..., None] * rows[i] + lam * x

    def value_fn(x):
        # einsum, not matmul: BLAS sums a row differently with the batch size,
        # and blocked evaluation must agree with one call
        t = np.einsum("...d,nd->...n", x, rows) * y
        return np.logaddexp(0.0, -t).mean(axis=-1) + 0.5 * lam * np.sum(x * x, axis=-1)

    def minibatch_fn(x, idx):
        A, yb = rows[idx], y[idx]
        sig = 1.0 / (1.0 + np.exp((x @ A.T) * yb))  # sigmoid(-margin)
        return ((sig * yb) @ A) * (-1.0 / idx.shape[0]) + lam * x

    def rows_fn(X, IDX):
        A = rows[IDX]  # (R, B, d)
        t = np.einsum("rbd,rd->rb", A, X) * y[IDX]
        sig = 1.0 / (1.0 + np.exp(t))
        return -((sig * y[IDX])[:, :, None] * A).mean(axis=1) + lam * X

    return FiniteSumObjective(
        "logistic_l2",
        n,
        d,
        comp_value,
        comp_grad,
        L=L,
        M=lam / 2.0,
        b=float(row_norm2.max()) / (2.0 * lam) + lam / 2.0,
        value_fn=value_fn,
        minibatch_fn=minibatch_fn,
        rows_fn=rows_fn,
        meta={"lam": lam},
    )


_BUILTINS = {
    "gaussian_quadratic": _gaussian_quadratic,
    "double_well": _double_well,
    "gaussian_mixture": _gaussian_mixture,
    "logistic_l2": _logistic_l2,
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def make_builtin(name: str, params: dict | None = None) -> FiniteSumObjective:
    """Construct one of the built-in test potentials by name."""
    try:
        builder = _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown potential {name!r}; choose from {BUILTIN_NAMES}") from None
    return builder(dict(params or {}))


# -- numerical regularity probing ---------------------------------------------


@dataclass
class RegularityReport:
    """Worst-case finite-difference estimates over a probe grid."""

    max_local_lipschitz: float
    min_dissipativity_slack: float | None
    worst_lipschitz_point: np.ndarray
    declared_L: float | None = None
    declared_M: float | None = None
    declared_b: float | None = None
    notes: list[str] = field(default_factory=list)


def _fd_hessian_norm(obj: FiniteSumObjective, x: np.ndarray, h: float) -> float:
    d = obj.d
    H = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        H[:, j] = (obj.gradient(x + e) - obj.gradient(x - e)) / (2.0 * h)
    H = 0.5 * (H + H.T)
    return float(np.abs(np.linalg.eigvalsh(H)).max())


def probe_regularity(
    obj: FiniteSumObjective,
    grid: np.ndarray,
    *,
    M: float | None = None,
    b: float | None = None,
    h: float = 1e-5,
) -> RegularityReport:
    """Report the max finite-difference Hessian norm and the min dissipativity
    slack <grad F(x), x> - M||x||^2 + b over the probe points.

    Uses declared (M, b) when none are passed; with neither available the
    slack is omitted and the report carries estimates only.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.shape[0] == 0:
        raise ValueError("probe grid must be nonempty")
    M = obj.M if M is None else M
    b = obj.b if b is None else b
    max_lip = -np.inf
    worst = grid[0]
    min_slack = np.inf
    for x in grid:
        lip = _fd_hessian_norm(obj, x, h)
        if lip > max_lip:
            max_lip, worst = lip, x
        if M is not None and b is not None:
            g = obj.gradient(x)
            slack = float(g @ x - M * (x @ x) + b)
            min_slack = min(min_slack, slack)
    notes = []
    if obj.L is not None and max_lip > obj.L * (1.0 + 1e-6):
        notes.append(
            f"finite-difference Hessian norm {max_lip:.6g} exceeds declared L={obj.L:.6g}"
        )
    if "L" in obj.estimated_constants:
        notes.append("declared L is a grid/box estimate, not an analytic bound")
    return RegularityReport(
        max_local_lipschitz=float(max_lip),
        min_dissipativity_slack=None if M is None or b is None else float(min_slack),
        worst_lipschitz_point=np.asarray(worst),
        declared_L=obj.L,
        declared_M=M,
        declared_b=b,
        notes=notes,
    )

"""Finite-sum potentials F(x) = (1/n) * sum_i f_i(x) with per-component gradients.

Every objective carries its regularity metadata (smoothness constant L,
dissipativity pair (M, b), known minimum) and a counter of
component-gradient evaluations.  An L that holds only on a box
[-r, r]^d, not on all of R^d, declares r as ``L_box``: the theory-driven
modes refuse such an L, and a run notes each replicate that leaves the box.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "FiniteSumObjective",
    "GaussianMoments",
    "make_builtin",
    "load_labeled_matrix",
    "BUILTIN_NAMES",
]


# values per block of leading rows that ``value`` or a full gradient hands to
# a kernel, which builds an (rows, n, d) temporary at most: a few MB
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
    gradient costs n, a minibatch of size B costs B.  Each objective has one
    row kernel, ``rows_fn(X, IDX)``: X is shaped (..., R, d) against (R, B)
    index rows, and row r of X gets the minibatch gradient over IDX[r] for
    every leading index.  So a control-variate step evaluates its pair
    (x, anchor) as one (2, R, d) call over one gather of the index rows.  A
    minibatch gradient is that kernel on one row, and a full gradient without
    ``grad_fn`` is that kernel over all n components, the very call a
    full-batch minibatch makes; without ``rows_fn`` the kernel loops over
    leading indices and components.  With ``identical_components`` every f_i
    is f_0, so ``value_fn`` and ``grad_fn`` default to f_0's and the row
    kernel is ``grad_fn``, which reads no index; the runners then draw no
    subsets.  ``L_box`` is the half-width r of the box [-r, r]^d
    on which L holds, None when L holds everywhere.  ``full_kernel`` and
    ``rows_kernel`` are the two kernels without counting or checks; a step
    loop that calls ``full_kernel`` counts for itself with ``add_grad_evals``.
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
        rows_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
        identical_components: bool = False,
        L_box: float | None = None,
        meta: dict | None = None,
    ):
        if n < 1:
            raise ValueError("component count n must be >= 1")
        if d < 1:
            raise ValueError("dimension d must be >= 1")
        if identical_components and rows_fn is not None:
            raise ValueError("identical components take no rows_fn: every minibatch gradient is grad f_0")
        for cname, cval in (("L", L), ("M", M), ("b", b), ("L_box", L_box)):
            if cval is not None and cval <= 0:
                raise ValueError(f"declared constant {cname} must be > 0")
        self.name = name
        self.n = n
        self.d = d
        self._component_value = component_value
        self._component_grad = component_grad
        self.L = L
        self.L_box = L_box
        self.M = M
        self.b = b
        self.F_star = F_star
        self.x_star = None if x_star is None else np.asarray(x_star, dtype=float)
        if identical_components:
            # F = f_0
            value_fn = value_fn or (lambda x: component_value(0, x))
            grad_fn = grad_fn or (lambda x: component_grad(0, x))
            rows_fn = lambda X, IDX: grad_fn(X)
        self._value_fn = value_fn
        self._all = np.arange(n)
        self.identical_components = identical_components
        self.rows_kernel = rows_fn if rows_fn is not None else self._component_rows
        self.full_kernel = grad_fn if grad_fn is not None else lambda x: self._rows_at(x, self._all)
        self.meta = dict(meta or {})
        self._grad_evals = 0

    # -- evaluation counter -------------------------------------------------

    @property
    def grad_evals(self) -> int:
        return self._grad_evals

    def reset_grad_evals(self) -> None:
        self._grad_evals = 0

    def add_grad_evals(self, k: int) -> None:
        """Count k evaluations made through the uncounted kernels."""
        self._grad_evals += k

    # -- evaluators ---------------------------------------------------------

    def _component_rows(self, X: np.ndarray, IDX: np.ndarray) -> np.ndarray:
        # the loop over components, for an objective with no row kernel
        if X.ndim > 2:
            return np.array([self._component_rows(x, IDX) for x in X]).reshape(X.shape)
        return np.array([sum(self._component_grad(int(i), x) for i in idx) / len(idx)
                         for x, idx in zip(X, IDX)]).reshape(X.shape)

    def _rows_at(self, x: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """The row kernel at every row of x, each over the same index set, in
        blocks of rows of a few MB; rows are independent, so blocks join bitwise."""
        flat, span = x.reshape(-1, self.d), max(1, _BLOCK_VALUES // (idx.size * self.d))
        return np.concatenate([self.rows_kernel(X, np.broadcast_to(idx, (len(X), idx.size)))
                               for X in np.split(flat, range(span, len(flat), span))]).reshape(x.shape)

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
        self.add_grad_evals(int(np.asarray(x).size // self.d) or 1)
        g = self._component_grad(i, np.asarray(x, dtype=float))
        if not np.all(np.isfinite(g)):
            raise NumericalDomainError(f"component gradient {i} is non-finite")
        return g

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Full gradient (1/n) sum_i grad f_i(x); counts n evaluations."""
        x = np.asarray(x, dtype=float)
        self.add_grad_evals(self.n * (int(x.size // self.d) or 1))
        g = self.full_kernel(x)
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
        self.add_grad_evals(int(idx.size) * (int(x.size // self.d) or 1))
        g = self._rows_at(x, idx)
        if not np.all(np.isfinite(g)):
            raise NumericalDomainError("minibatch gradient is non-finite")
        return g

    def minibatch_gradient_rows(self, X: np.ndarray, IDX: np.ndarray) -> np.ndarray:
        """The row kernel at a float array X shaped (..., R, d) and an integer
        array IDX of its (R, B) index rows; counts B component evaluations for
        every row of X.  It takes arrays as they are: the step loop calls it."""
        self._grad_evals += X.size // self.d * IDX.shape[-1]
        return self.rows_kernel(X, IDX)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FiniteSumObjective({self.name!r}, n={self.n}, d={self.d}, L={self.L})"


# -- built-in potentials ------------------------------------------------------


def _one_source(builder: str, source: str, value, parts: dict) -> None:
    """``source``, when given (``value`` not None), sets ``parts`` (name ->
    value): a part given beside it, or missing without it, is refused by name."""
    wrong = ", ".join(k for k, v in parts.items() if (v is None) == (value is None))
    if wrong:
        raise ValueError(f"{builder} takes {', '.join(parts)} from {source}; drop {wrong}" if value is not None
                         else f"{builder} needs {wrong}, or {source}")


def _column_sum(G: np.ndarray) -> np.ndarray:
    """The sum over the first axis of a (B, R, k) gather, one whole (R, k)
    slab at a time, bit for bit ``np.add.reduce(G.swapaxes(0, 1), axis=1)``,
    which starts at 0.0: for k > 1 numpy adds the B slabs in turn, and for
    k = 1 it runs its pairwise_sum on each row, in order up to 7 terms, in
    8 accumulators up to 128, and above that as the sum of two parts split
    at B/2 rounded down to a multiple of 8.  Only the sign of a nan made
    from nans of both signs may differ: operand order decides it.  G is
    scratch, summed in place: fresh temporaries of its size made the heap
    shrink and fault back in at every step of the desk ensemble."""
    B = len(G)
    if G.shape[-1] > 1 or B < 8:
        return np.add.reduce(G, axis=0)
    if B > 128:
        h = B // 2 - B // 2 % 8
        return _column_sum(G[:h]) + _column_sum(G[h:])
    r = G[:8]
    for i in range(8, B - B % 8, 8):
        np.add(r, G[i:i + 8], out=r)
    np.add(r[0::2], r[1::2], out=r[0::2])
    np.add(r[0::4], r[2::4], out=r[0::4])
    res = np.add(r[0], r[4], out=r[0])
    for g in G[B - B % 8:]:
        np.add(res, g, out=res)
    return np.add(0.0, res, out=res)


def _gaussian_quadratic(n=None, d=None, seed=0, spread=1.0, zero_mean=False, scales=None,
                        centers=None) -> FiniteSumObjective:
    """f_i(x) = s_i/2 * ||x - c_i||^2.

    Default scales s_i = 1 give the plain quadratic family with L = 1 and
    M = 1/2.  Optional per-component ``scales`` produce heterogeneous
    component curvatures (useful for exercising the stochastic-gradient
    variance identities, which vanish identically when all Hessians agree).
    Documented constants: L = max s_i, M = mean(s)/2, b = (mean(s) + ||u||^2/mean(s))/2
    with u = (1/n) sum_i s_i c_i, from <grad F, x> >= mean(s)||x||^2 - <u, x>.
    Given ``centers``, n and d are its shape; otherwise the n centers are
    ``spread`` times seeded standard normals in R^d, shifted to mean zero
    when ``zero_mean`` is set.
    """
    _one_source("gaussian_quadratic", "centers", centers, {"n": n, "d": d})
    if centers is not None:
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        n, d = centers.shape
    else:
        n, d = int(n), int(d)
        centers = float(spread) * np.random.default_rng(int(seed)).standard_normal((n, d))
        if zero_mean:
            centers = centers - centers.mean(axis=0)
    if scales is None:
        s = np.ones(n)
    else:
        s = np.asarray(scales, dtype=float)
        if s.shape != (n,) or np.any(s <= 0):
            raise ValueError("scales must be positive with one entry per component")
    s_mean = float(s.mean())
    sc = s[:, None] * centers  # s_i c_i, gathered by the row kernel
    u = sc.mean(axis=0)
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

    # take, not sc[IDX]: the same gather from an (n, d) table, 2x (d = 1) to 13x (d = 2)
    # faster at R = 20,000 and B = 8.  It gathers along IDX.T, contiguous for the network
    # draw's rows, so _column_sum adds whole slabs: at d = 1 the pair's kernel takes 0.20 ms
    # against 0.53 ms for np.add.reduce(gather, axis=1), 8-element inner loops
    if np.all(s == 1.0):

        def rows_fn(X, IDX):
            # B ones sum to B and 1.0 X is X: the general kernel, bit for bit
            return X - _column_sum(sc.take(IDX.T, axis=0)) / IDX.shape[-1]
    else:
        s1 = s[:, None]

        def rows_fn(X, IDX):
            B = IDX.shape[-1]  # a sum / B is bitwise .mean
            return _column_sum(s1.take(IDX.T, axis=0)) / B * X - _column_sum(sc.take(IDX.T, axis=0)) / B

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
        rows_fn=rows_fn,
        meta={"centers": centers, "scales": s},
    )


def _double_well(a=1.0, d=1, n_copies=1, box=2.0) -> FiniteSumObjective:
    """Quartic double well, replicated n_copies times as identical components.

    1-d: F(x) = (x^2 - a^2)^2 / 4, minima at +-a, saddle at 0, F* = 0.
    2-d adds a quadratic confinement in the second coordinate:
    F(x, y) = (x^2 - a^2)^2 / 4 + y^2 / 2.

    The quartic is not globally L-smooth: L is the exact maximum of |F''| over
    the box [-r, r]^d (r = ``box``, which must hold both wells), declared as
    ``L_box = r``.  Dissipativity holds globally with M = 1/2 and
    b = (a^2 + 1/2)^2 / 4 (+ nothing extra for the quadratic coordinate):
    <F'(x), x> = x^4 - a^2 x^2 >= x^2/2 - b  iff  b >= (a^2 + 1/2)^2 / 4.
    """
    a, d, r = float(a), int(d), float(box)
    if d not in (1, 2):
        raise ValueError("double_well supports d in {1, 2}")
    if not r > 0:
        raise ValueError(f"double_well needs box > 0, got {r}")
    if r < abs(a):
        raise ValueError(f"the box must hold both wells: need box >= |a|, got box={r}, a={a}")
    # |F''| = |3 x^2 - a^2| peaks at the box edge, since 3 r^2 - a^2 >= 2 a^2 >= a^2
    L = max(3.0 * r * r - a * a, 1.0 if d == 2 else 0.0)
    b_diss = (a * a + 0.5) ** 2 / 4.0

    def comp_value(i, x):
        f = 0.25 * (x[..., 0] ** 2 - a * a) ** 2
        return f + 0.5 * x[..., 1] ** 2 if d == 2 else f

    # chosen once: the 1-d gradient is the step loop's whole oracle
    if d == 1:

        def comp_grad(i, x):
            return (x**2 - a * a) * x
    else:

        def comp_grad(i, x):
            g = np.empty_like(x)
            g[..., 0] = (x[..., 0] ** 2 - a * a) * x[..., 0]
            g[..., 1] = x[..., 1]
            return g

    return FiniteSumObjective(
        "double_well",
        int(n_copies),
        d,
        comp_value,
        comp_grad,
        L=L,
        M=0.5,
        b=b_diss,
        F_star=0.0,
        x_star=np.r_[a, np.zeros(d - 1)],
        identical_components=True,
        L_box=r,
    )


def _gaussian_mixture(mu=(1.0,), sigma=1.0, n_copies=1) -> FiniteSumObjective:
    """Negative log density of the two-component mixture (N(+mu, s^2 I) + N(-mu, s^2 I)) / 2.

    F(x) = (||x||^2 + ||mu||^2) / (2 s^2) - log cosh(<mu, x> / s^2) + (d/2) log(2 pi s^2).
    Hessian = I/s^2 - (mu mu^T / s^4) sech^2(<mu, x>/s^2), so
    L = max(1, |1 - ||mu||^2 / s^2|) / s^2 analytically, and
    <grad F, x> >= ||x||^2/(2 s^2) - ||mu||^2/(2 s^2) gives (M, b).
    Replicated ``n_copies`` times as identical components.
    """
    mu, sigma = np.atleast_1d(np.asarray(mu, dtype=float)), float(sigma)
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
        t = np.einsum("...d,d->...", x, mu) / s2
        return (x - np.tanh(t)[..., None] * mu) / s2

    return FiniteSumObjective(
        "gaussian_mixture",
        int(n_copies),
        d,
        comp_value,
        comp_grad,
        L=L,
        M=1.0 / (2.0 * s2),
        b=max(mu2, s2) / (2.0 * s2),
        identical_components=True,
    )


def load_labeled_matrix(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a plain-text matrix: one sample row per line, whitespace-separated,
    last column the {0, 1} label."""
    raw = np.loadtxt(path, dtype=float, ndmin=2)
    if raw.shape[1] < 2:
        raise ValueError("data file needs at least one feature column plus a label")
    rows, labels = raw[:, :-1], raw[:, -1]
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise ValueError("labels must be 0 or 1")
    return rows, labels


def _logistic_l2(data_file=None, rows=None, labels=None, lam=0.1) -> FiniteSumObjective:
    """Regularised logistic loss over supplied rows.

    f_i(x) = log(1 + exp(-y_i <a_i, x>)) + lam/2 ||x||^2 with y_i in {-1, +1}.
    L = lam + max_i ||a_i||^2 / 4 (logistic Hessian bound), and
    <grad f_i, x> >= lam ||x||^2 - ||a_i|| ||x|| gives
    M = lam / 2, b = max_i ||a_i||^2 / (2 lam).  The rows and their {0, 1}
    labels come from ``data_file`` (see ``load_labeled_matrix``) when given.
    """
    _one_source("logistic_l2", "data_file", data_file, {"rows": rows, "labels": labels})
    if data_file is not None:
        rows, labels = load_labeled_matrix(data_file)
    else:
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        labels = np.asarray(labels, dtype=float)
    lam = float(lam)
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

    def rows_fn(X, IDX):
        # C-order index rows give C-order gathers, whose sums over B keep their order
        IDX = np.ascontiguousarray(IDX)
        A, yb = rows[IDX], y[IDX]  # (R, B, d), (R, B)
        # einsum, not matmul, so that a row's gradient is the same in any batch
        t = np.einsum("rbd,...rd->...rb", A, X) * yb
        sig = 1.0 / (1.0 + np.exp(t))  # sigmoid(-margin)
        # add.reduce / B is bitwise .mean, without numpy's Python wrapper
        return -np.add.reduce((sig * yb)[..., None] * A, axis=-2) / IDX.shape[-1] + lam * X

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
        rows_fn=rows_fn,
    )


_BUILTINS = {
    "gaussian_quadratic": _gaussian_quadratic,
    "double_well": _double_well,
    "gaussian_mixture": _gaussian_mixture,
    "logistic_l2": _logistic_l2,
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def make_builtin(name: str, params: dict | None = None) -> FiniteSumObjective:
    """Construct one of the built-in test potentials by name, with ``params``
    as keyword arguments of its builder.  A builder's parameters and their
    defaults are its signature; a key outside it is refused, not ignored."""
    try:
        builder = _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown potential {name!r}; choose from {BUILTIN_NAMES}") from None
    params = params or {}
    taken = inspect.signature(builder).parameters
    for key in params:
        if key not in taken:
            raise ValueError(f"{name} takes no {key}; its parameters are {', '.join(taken)}")
    return builder(**params)

"""Measured counterparts of the closed-form bounds: exact Gaussian moment
oracles for the full-gradient chain on quadratics, closed-form KL and W2
between Gaussians, empirical 1-d W2, suboptimality estimates, and the exact
subset-enumeration identities for the stochastic-gradient estimators.  The
identities take a point's n component gradients in one row-kernel call and
share one enumeration of the size-B subsets, guarded to n <= 12.

KL against general targets is never estimated nonparametrically here: on
quadratic targets the chain law is Gaussian (or near-Gaussian), so the
first two moments against the Gibbs moments give a surrogate that is exact
for the full-gradient chain and clearly labeled a surrogate otherwise.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .potentials import _BLOCK_VALUES, FiniteSumObjective, GaussianMoments, NumericalDomainError
from .theory import minibatch_variance_factor

__all__ = [
    "gaussian_moment_oracle_lmc",
    "lmc_stationary_covariance",
    "kl_gaussians",
    "w2_gaussians",
    "w2_empirical_1d",
    "gibbs_moments",
    "moments_of",
    "moment_kl_surrogate",
    "moment_w2_surrogate",
    "moment_surrogates",
    "suboptimality",
    "svrg_subset_mean",
    "sarah_increment_mean",
    "svrg_variance_identity_check",
    "kl_gaussian_vs_gibbs_1d",
    "gibbs_log_partition_1d",
]


# -- exact Gaussian machinery -----------------------------------------------------


def gaussian_moment_oracle_lmc(
    eta: float, gamma: float, k: int, m0: np.ndarray, S0: np.ndarray
) -> GaussianMoments:
    """Exact law of the full-gradient chain on F(x) = ||x||^2 / 2 after k steps
    from a Gaussian start: mean contracts by (1 - eta) per step and the
    covariance obeys S <- (1 - eta)^2 S + (2 eta / gamma) I."""
    if not 0.0 < eta < 2.0:
        raise ValueError(f"moment recursion is stable only for 0 < eta < 2, got {eta}")
    m0 = np.atleast_1d(np.asarray(m0, dtype=float))
    S0 = np.atleast_2d(np.asarray(S0, dtype=float))
    d = m0.shape[0]
    a = 1.0 - eta
    q = 2.0 * eta / gamma
    # closed form of the linear recursion
    mean = a**k * m0
    if abs(1.0 - a * a) < 1e-15:
        cov = S0 + k * q * np.eye(d)
    else:
        cov = a ** (2 * k) * S0 + q * (1.0 - a ** (2 * k)) / (1.0 - a * a) * np.eye(d)
    if k == 0:
        mean, cov = m0.copy(), S0.copy()
    return GaussianMoments(mean=mean, cov=cov)


def lmc_stationary_covariance(eta: float, gamma: float, d: int) -> np.ndarray:
    """Fixed point (2 eta / gamma) / (1 - (1 - eta)^2) I = I / (gamma (1 - eta/2))."""
    if not 0.0 < eta < 2.0:
        raise ValueError("need 0 < eta < 2")
    return np.eye(d) / (gamma * (1.0 - eta / 2.0))


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over leading axes, summed along the last axis: unlike BLAS or a
    3-operand einsum, a row's result does not depend on the rows beside it."""
    return (a[..., :, None, :] * np.swapaxes(b, -1, -2)[..., None, :, :]).sum(axis=-1)


def _divergences(mean: np.ndarray, cov: np.ndarray, target: GaussianMoments) -> tuple[np.ndarray, np.ndarray]:
    """KL(N(mean_t, cov_t) || target) and Bures W2, W2^2 = ||m - mq||^2 +
    tr(S + Sq - 2 (Sq^1/2 S Sq^1/2)^1/2), for each t of a (T, d) / (T, d, d) stack."""
    if mean.shape[1] != target.d:
        raise ValueError("dimension mismatch")
    w, V = np.linalg.eigh(target.cov)
    root = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T
    prec = np.linalg.inv(target.cov)
    dm = mean - target.mean
    quad = (dm * (prec * dm[:, None, :]).sum(axis=-1)).sum(axis=-1)
    trace = (prec * np.swapaxes(cov, 1, 2)).sum(axis=-1).sum(axis=-1)
    kl = 0.5 * (trace + quad - target.d + np.linalg.slogdet(target.cov)[1] - np.linalg.slogdet(cov)[1])
    cross = np.sqrt(np.clip(np.linalg.eigvalsh(_matmul(_matmul(root, cov), root)), 0.0, None)).sum(axis=-1)
    w2sq = (dm * dm).sum(axis=-1) + np.trace(cov, axis1=1, axis2=2) + np.trace(target.cov) - 2.0 * cross
    return np.maximum(kl, 0.0), np.sqrt(np.maximum(w2sq, 0.0))


def kl_gaussians(p: GaussianMoments, q: GaussianMoments) -> float:
    """KL(N(mp, Sp) || N(mq, Sq)) in closed form; nonnegative, zero iff equal."""
    return float(_divergences(p.mean[None], p.cov[None], q)[0][0])


def w2_gaussians(p: GaussianMoments, q: GaussianMoments) -> float:
    """Bures 2-Wasserstein distance between Gaussians (see :func:`_divergences`)."""
    return float(_divergences(p.mean[None], p.cov[None], q)[1][0])


def w2_empirical_1d(xs: np.ndarray, ys: np.ndarray) -> float:
    """Exact 2-Wasserstein distance between two 1-d empirical measures via the
    sorted-quantile coupling (piecewise-constant quantile functions integrated
    over the union of their breakpoints)."""
    xs = np.sort(np.asarray(xs, dtype=float).ravel())
    ys = np.sort(np.asarray(ys, dtype=float).ravel())
    nx, ny = xs.size, ys.size
    if nx == 0 or ny == 0:
        raise ValueError("need nonempty samples")
    if nx == ny:
        return math.sqrt(float(np.mean((xs - ys) ** 2)))
    breaks = np.union1d(np.arange(1, nx) / nx, np.arange(1, ny) / ny)
    edges = np.concatenate(([0.0], breaks, [1.0]))
    widths = np.diff(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    qx = xs[np.minimum((mids * nx).astype(int), nx - 1)]
    qy = ys[np.minimum((mids * ny).astype(int), ny - 1)]
    return math.sqrt(float(np.sum(widths * (qx - qy) ** 2)))


def gibbs_moments(obj: FiniteSumObjective, gamma: float) -> GaussianMoments | None:
    """Exact Gibbs moments when the target is Gaussian, i.e. for the quadratic
    family: N(x_star, I / (gamma * mean_scale)).  None for other potentials."""
    if obj.name != "gaussian_quadratic":
        return None
    s_mean = float(np.mean(obj.meta["scales"]))
    return GaussianMoments(mean=obj.x_star, cov=np.eye(obj.d) / (gamma * s_mean))


def _moments(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean (T, d) and covariance (T, d, d) of each checkpoint of a (T, R, d)
    stack, symmetrised, and lifted to eigenvalue 1e-12 where it is not PD."""
    mean = X.mean(axis=1)
    centered = X - mean[:, None, :]
    cov = _matmul(np.swapaxes(centered, 1, 2), centered) * (1.0 / (X.shape[1] - 1))
    cov = 0.5 * (cov + cov.swapaxes(1, 2))
    # tiny jitter guards the PD requirement for near-degenerate ensembles,
    # such as step 0, where every replicate sits at x0
    eig_min = np.linalg.eigvalsh(cov).min(axis=1)
    cov += np.where(eig_min <= 0, 1e-12 - eig_min, 0.0)[:, None, None] * np.eye(X.shape[2])
    return mean, cov


def moments_of(samples: np.ndarray) -> GaussianMoments:
    X = np.atleast_2d(np.asarray(samples, dtype=float))
    if X.shape[0] < 2:
        raise ValueError("need at least two samples")
    mean, cov = _moments(X[None])
    return GaussianMoments(mean=mean[0], cov=cov[0])


def moment_kl_surrogate(samples: np.ndarray, target: GaussianMoments) -> float:
    """KL between the Gaussian with the samples' first two moments and the
    target moments.  Exact for Gaussian chain laws, a labeled surrogate
    otherwise."""
    return kl_gaussians(moments_of(samples), target)


def moment_w2_surrogate(samples: np.ndarray, target: GaussianMoments) -> float:
    return w2_gaussians(moments_of(samples), target)


def moment_surrogates(iterates: np.ndarray, target: GaussianMoments) -> tuple[np.ndarray, np.ndarray]:
    """:func:`moment_kl_surrogate` and :func:`moment_w2_surrogate` at every
    checkpoint of a (T, R, d) stack of R replicates, in blocks of a few MB
    that join bitwise.  A checkpoint with an entry that is non-finite or of
    magnitude >= 1e100 has no value: it reads nan in both arrays."""
    X = np.asarray(iterates, dtype=float)
    if X.ndim != 3 or X.shape[1] < 2 or X.shape[2] != target.d:
        raise ValueError(f"need a (T, R >= 2, {target.d}) stack of iterates, got shape {X.shape}")
    T, R, d = X.shape
    kl, w2 = np.full(T, np.nan), np.full(T, np.nan)
    span = max(1, _BLOCK_VALUES // (max(R, d) * d * d))
    with np.errstate(over="ignore", invalid="ignore"):
        for t0 in range(0, T, span):
            block = X[t0:t0 + span]
            ok = (np.abs(block) < 1e100).all(axis=(1, 2))  # false for inf and nan too
            mean, cov = _moments(np.ascontiguousarray(block[ok]))
            kl[t0:t0 + span][ok], w2[t0:t0 + span][ok] = _divergences(mean, cov, target)
    return kl, w2


# -- suboptimality -----------------------------------------------------------------


def suboptimality(obj: FiniteSumObjective, samples: np.ndarray) -> tuple[float, float]:
    """(mean F over samples - F*, standard error); needs a declared F*."""
    if obj.F_star is None:
        raise ValueError(f"objective {obj.name!r} declares no F_star")
    X = np.atleast_2d(np.asarray(samples, dtype=float))
    if X.shape[0] < 2:
        raise ValueError("need at least two samples")
    fs = np.asarray(obj.value(X), dtype=float)
    return float(fs.mean()) - obj.F_star, float(fs.std(ddof=1) / math.sqrt(X.shape[0]))


# -- exact subset-enumeration identities ---------------------------------------------


def _component_grads(obj: FiniteSumObjective, x) -> np.ndarray:
    """The (n, d) table of grad f_i(x): one counted row-kernel call on the
    index rows (0), (1), ..., (n - 1), so it books n evaluations."""
    n = obj.n
    g = obj.minibatch_gradient_rows(np.broadcast_to(np.asarray(x, dtype=float), (n, obj.d)), np.arange(n)[:, None])
    if not np.all(np.isfinite(g)):
        raise NumericalDomainError("component gradient table is non-finite")
    return g


def _subset_means(w: np.ndarray, B: int) -> np.ndarray:
    """The mean of the rows of the (n, d) table w over every size-B subset,
    a (C(n, B), d) array: one gather, for n <= 12 only."""
    n = len(w)
    if n > 12:
        raise ValueError("exhaustive enumeration is limited to n <= 12")
    if not 1 <= B <= n:
        raise ValueError(f"need 1 <= B <= n, got B={B}, n={n}")
    return w[np.array(list(combinations(range(n), B)))].mean(axis=1)


def svrg_subset_mean(obj: FiniteSumObjective, x, anchor, B: int) -> dict:
    """Average of the anchored estimator over all C(n, B) subsets against the
    full gradient at x (the estimator's conditional mean)."""
    gx, ga = _component_grads(obj, x), _component_grads(obj, anchor)
    mean = _subset_means(gx - ga, B).mean(axis=0) + ga.mean(axis=0)
    target = gx.mean(axis=0)
    return {"mean": mean, "target": target, "gap": float(np.linalg.norm(mean - target))}


def sarah_increment_mean(obj: FiniteSumObjective, x, x_prev, B: int) -> dict:
    """Average of the recursive estimator's increment over all C(n, B) subsets
    against grad F(x) - grad F(x_prev) (the martingale increment)."""
    gx, gp = _component_grads(obj, x), _component_grads(obj, x_prev)
    mean = _subset_means(gx - gp, B).mean(axis=0)
    target = gx.mean(axis=0) - gp.mean(axis=0)
    return {"mean": mean, "target": target, "gap": float(np.linalg.norm(mean - target))}


def svrg_variance_identity_check(obj: FiniteSumObjective, x, anchor, B: int) -> dict:
    """Exhaustive-subset variance of the anchored estimator against the
    closed-form factor: the estimator's deviation from grad F(x) satisfies

      E_I || (1/B) sum_{i in I} w_i ||^2 = Xi * (1/n) sum_i ||w_i||^2

    with w_i = grad f_i(x) - grad f_i(anchor) + grad F(anchor) - grad F(x)
    and Xi = (n - B)/(B (n - 1)).  Enumerates all C(n, B) subsets (n <= 12).
    """
    gx, ga = _component_grads(obj, x), _component_grads(obj, anchor)
    w = gx - ga + ga.mean(axis=0) - gx.mean(axis=0)
    v = _subset_means(w, B)
    lhs = float(np.mean(np.sum(v * v, axis=1)))
    rhs = minibatch_variance_factor(obj.n, B) * float(np.mean(np.sum(w * w, axis=1)))
    return {"lhs": lhs, "rhs": rhs, "gap": abs(lhs - rhs)}


# -- 1-d Gibbs quadrature ------------------------------------------------------------------


def gibbs_log_partition_1d(obj: FiniteSumObjective, gamma: float) -> float:
    """log Z = log integral exp(-gamma F) for a 1-d objective, by adaptive
    quadrature over the window where gamma (F - min F) <= 60 (the rest of the
    line contributes nothing at double precision).  scipy is imported here,
    so that only this quadrature pays for loading it."""
    from scipy import integrate

    if obj.d != 1:
        raise ValueError("partition quadrature supports d = 1 only")
    scan = np.linspace(-50.0, 50.0, 20001)
    fvals = np.asarray(obj.value(scan[:, None]), dtype=float)
    fmin = float(fvals.min())
    keep = scan[gamma * (fvals - fmin) <= 60.0]
    lo, hi = float(keep.min() - 1.0), float(keep.max() + 1.0)

    def shifted_density(t: float) -> float:
        return math.exp(-gamma * (float(obj.value(np.array([t]))) - fmin))

    z_shifted, _ = integrate.quad(shifted_density, lo, hi, limit=400)
    return math.log(z_shifted) - gamma * fmin


def kl_gaussian_vs_gibbs_1d(mean: float, var: float, obj: FiniteSumObjective, gamma: float) -> float:
    """Exact KL(N(mean, var) || Gibbs(gamma)) for a 1-d objective:
    -(1/2) log(2 pi e var) + gamma E_N[F] + log Z_gamma, with E_N[F] by
    Gauss-Hermite quadrature and Z by adaptive quadrature."""
    if obj.d != 1:
        raise ValueError("supports d = 1 only")
    if var <= 0:
        raise ValueError("need var > 0")
    nodes, weights = np.polynomial.hermite.hermgauss(200)
    pts = mean + math.sqrt(2.0 * var) * nodes
    ef = float(np.sum(weights * np.asarray(obj.value(pts[:, None]), dtype=float)) / math.sqrt(math.pi))
    log_z = gibbs_log_partition_1d(obj, gamma)
    return -0.5 * math.log(2.0 * math.pi * math.e * var) + gamma * ef + log_z

"""Output checks.  Each returns a ``Check``; a failed check counts as a failed
operation in the benchmark's result.

Wherever one exists, the reference does not depend on the RNG layout: exact
gradient counts, an exact Gaussian law, a closed-form oracle.  The checks
run outside the timed region.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


def grad_accounting(label: str, variant: str, steps, counts, n: int, B: int, m: int, grad_evals_at) -> Check:
    """Every stored cumulative count equals the closed-form count."""
    want = [grad_evals_at(variant, int(k), n, B, m) for k in steps]
    bad = [(int(k), int(c), w) for k, c, w in zip(steps, counts, want) if int(c) != w]
    detail = f"{len(want)} stored steps" if not bad else f"step, got, want: {bad[:3]}"
    return Check(f"grad accounting {label}", not bad and len(want) > 0, detail)


def counter_total(got: int, want: int) -> Check:
    """The objective's own counter equals the closed-form total."""
    return Check("gradient counter total", got == want, f"got {got}, want {want}")


def iterates_match(label: str, got, want, tol: float = 1e-10) -> Check:
    """Iterates agree with a reference run to ``tol`` in max-abs."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return Check(f"iterates {label}", False, f"shape {got.shape} vs reference {want.shape}")
    gap = float(np.max(np.abs(got - want))) if got.size else 0.0
    return Check(f"iterates {label}", gap <= tol, f"max gap {gap:.3g} (tol {tol:g})")


def gaussian_law(X, var: float, mean: float = 0.0, n_se: float = 4.0) -> list[Check]:
    """Sample mean and variance of a 1-d ensemble lie within ``n_se`` standard
    errors of N(mean, var)."""
    X = np.asarray(X, dtype=float).ravel()
    R = X.size
    dm = abs(float(X.mean()) - mean)
    dv = abs(float(X.var(ddof=1)) - var)
    se_m = math.sqrt(var / R)
    se_v = var * math.sqrt(2.0 / R)
    return [
        Check("ensemble mean", dm <= n_se * se_m, f"|mean - {mean:g}| = {dm:.3g}, {n_se:g} SE = {n_se * se_m:.3g}"),
        Check("ensemble variance", dv <= n_se * se_v, f"|var - {var:.6g}| = {dv:.3g}, {n_se:g} SE = {n_se * se_v:.3g}"),
    ]


def logistic_closed_form(A, labels, lam: float, X):
    """(F, grad F) of the l2-regularised logistic loss at the rows of X."""
    A = np.asarray(A, dtype=float)
    y = np.where(np.asarray(labels) > 0.5, 1.0, -1.0)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    t = (X @ A.T) * y                                    # (P, n) margins
    value = np.logaddexp(0.0, -t).mean(axis=1) + 0.5 * lam * np.sum(X * X, axis=1)
    weight = -y / (1.0 + np.exp(t))                      # -y * sigmoid(-t)
    grad = weight @ A / A.shape[0] + lam * X
    return value, grad


def oracle_matches(label: str, got, want, rtol: float = 1e-9) -> Check:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = max(1.0, float(np.max(np.abs(want))))
    gap = float(np.max(np.abs(got - want))) / scale if got.shape == want.shape else math.inf
    return Check(f"oracle {label}", gap <= rtol, f"relative gap {gap:.3g} (tol {rtol:g})")


def same_digest(digests: list[str]) -> Check:
    """Every repetition produced byte-identical outputs."""
    distinct = sorted(set(digests))
    return Check("rerun digest", len(distinct) == 1,
                 f"{len(digests)} repetitions, {len(distinct)} distinct digest(s)")

"""Closed-form step-size caps, KL decay/bias bounds, Log-Sobolev constants,
and gradient-complexity formulas for the variance-reduced Langevin chains.

Everything here is pure real arithmetic; overflow-prone exponentials are also
returned in log space.  Hypothesis violations raise
:class:`HypothesisViolation` naming the failed inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

__all__ = [
    "HypothesisViolation",
    "Violation",
    "check_hypotheses",
    "SVRG",
    "SARAH",
    "UPSILON_UNIVERSAL_CAP",
    "minibatch_variance_factor",
    "variance_reduction_factors",
    "step_size_cap",
    "bias_term",
    "bias_term_coarse",
    "kl_decay",
    "kl_bound",
    "KlBound",
    "eta_for_eps",
    "recommended_eta",
    "iterations_for_eps",
    "gradient_complexity",
    "talagrand_w2_bound",
    "lsi_constant_dissipative",
    "LsiDissipative",
    "lsi_constant_weak_morse",
    "LsiWeakMorse",
    "inverse_temperature_for_accuracy",
    "gibbs_suboptimality_bound",
    "suboptimality_decomposition",
    "kl_target_for_suboptimality",
    "optimization_step_size",
    "chi_constant",
    "anneal_sigma_floor",
    "anneal_validate",
    "AnnealReport",
    "cf_grid_estimate",
]

SVRG = "svrg_ld"
SARAH = "sarah_ld"

# The epoch-dependent bias factor for the anchored variant never exceeds this.
UPSILON_UNIVERSAL_CAP = 7.0


class HypothesisViolation(ValueError):
    """An input violates a hypothesis of the bound being evaluated."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise HypothesisViolation(msg)


def _check_variant(variant: str) -> str:
    v = variant.lower()
    if v in ("svrg", SVRG):
        return SVRG
    if v in ("sarah", SARAH):
        return SARAH
    raise ValueError(f"variant must be one of ({SVRG!r}, {SARAH!r}), got {variant!r}")


# -- subset variance factor ----------------------------------------------------


def minibatch_variance_factor(n: int, B: int) -> float:
    """(n - B) / (B (n - 1)): variance shrinkage of a size-B uniform subset
    drawn without replacement from n components.

    Equals 0 at B = n (full batch) and 1 at (n, B) = (2, 1).  By convention
    n = 1 returns 0, since the single-component "subset" is always exact.
    """
    if not 1 <= B <= n:
        raise ValueError(f"need 1 <= B <= n, got B={B}, n={n}")
    if n == 1:
        return 0.0
    return (n - B) / (B * (n - 1))


def variance_reduction_factors(n: int, B: int, m: int) -> tuple[float, float, float]:
    """(Xi, Lambda, Upsilon) for the anchored-variant bias bound:
    Xi = (n-B)/(B(n-1)), Lambda = 1 + 2 Xi, Upsilon = Lambda + Xi + 1 + 2 m Xi.
    """
    xi = minibatch_variance_factor(n, B)
    lam = 1.0 + 2.0 * xi
    upsilon = lam + xi + 1.0 + 2.0 * m * xi
    return xi, lam, upsilon


# -- step-size caps and KL bounds ---------------------------------------------


def step_size_cap(variant: str, alpha: float, L: float, m: int, gamma: float) -> float:
    """Strict upper bound on the step size for geometric KL decay.

    Anchored variant: alpha / (16 sqrt(6) L^2 m gamma); recursive variant:
    alpha / (16 sqrt(2) L^2 m gamma) (a factor sqrt(3) larger).
    """
    _require(alpha > 0 and L > 0 and m >= 1 and gamma > 0, "need alpha, L, m, gamma > 0")
    root = math.sqrt(6.0) if _check_variant(variant) == SVRG else math.sqrt(2.0)
    return alpha / (16.0 * root * L * L * m * gamma)


def bias_term(
    variant: str, eta: float, gamma: float, d: int, L: float, alpha: float, n: int, B: int, m: int
) -> float:
    """Asymptotic KL bias (the part of the bound that survives k -> infinity).

    Anchored variant: (32 eta gamma d L^2 / (3 alpha)) * Upsilon;
    recursive variant: (32 eta gamma d L^2 / (3 alpha)) * (2 + Xi + 2 m Xi).
    Evaluated as a formula; hypothesis checks live in :func:`kl_bound`.
    """
    xi, _, upsilon = variance_reduction_factors(n, B, m)
    base = 32.0 * eta * gamma * d * L * L / (3.0 * alpha)
    if _check_variant(variant) == SVRG:
        return base * upsilon
    return base * (2.0 + xi + 2.0 * m * xi)


def bias_term_coarse(eta: float, gamma: float, d: int, L: float, alpha: float) -> float:
    """Coarse anchored-variant bias 224 eta gamma d L^2 / (3 alpha), obtained
    from the tight form by the universal cap Upsilon <= 7."""
    return 224.0 * eta * gamma * d * L * L / (3.0 * alpha)


def kl_decay(H0: float, k: int, eta: float, gamma: float, alpha: float) -> float:
    """The decay part exp(-alpha eta k / gamma) H0 of :func:`kl_bound`, the
    only part that depends on k; evaluated without hypothesis checks."""
    return math.exp(-alpha * eta * k / gamma) * H0


@dataclass(frozen=True)
class KlBound:
    decay: float
    bias: float
    bias_coarse: float

    @property
    def total(self) -> float:
        return self.decay + self.bias


def kl_bound(
    variant: str,
    H0: float,
    k: int,
    eta: float,
    gamma: float,
    alpha: float,
    d: int,
    L: float,
    n: int,
    B: int,
    m: int,
) -> KlBound:
    """KL(law of step k || Gibbs) <= exp(-alpha eta k / gamma) H0 + bias.

    Raises :class:`HypothesisViolation` on the first violation
    :func:`check_hypotheses` finds; its notes do not stop the bound.
    """
    variant = _check_variant(variant)
    _require(H0 >= 0, "need H0 >= 0")
    for found in check_hypotheses(variant, eta, gamma, alpha, L, B, m):
        _require(found.kind != "violation", found.message)
    bias = bias_term(variant, eta, gamma, d, L, alpha, n, B, m)
    return KlBound(decay=kl_decay(H0, k, eta, gamma, alpha), bias=bias,
                   bias_coarse=bias_term_coarse(eta, gamma, d, L, alpha))


def eta_for_eps(
    variant: str,
    eps: float,
    gamma: float,
    alpha: float,
    d: int,
    L: float,
    n: int | None = None,
    B: int | None = None,
    m: int | None = None,
) -> float:
    """Largest step size keeping the bias at or below eps / 2.

    Anchored variant: 3 alpha eps / (448 gamma d L^2); recursive variant:
    3 alpha eps / (64 gamma d L^2 (2 + Xi + 2 m Xi)) (needs n, B, m).
    """
    _require(eps > 0, "need eps > 0")
    if _check_variant(variant) == SVRG:
        return 3.0 * alpha * eps / (448.0 * gamma * d * L * L)
    if n is None or B is None or m is None:
        raise ValueError("recursive-variant eta_for_eps needs n, B, m")
    xi = minibatch_variance_factor(n, B)
    return 3.0 * alpha * eps / (64.0 * gamma * d * L * L * (2.0 + xi + 2.0 * m * xi))


def recommended_eta(variant: str, eps: float, gamma: float, alpha: float, d: int, L: float, n: int) -> float:
    """Step size for the B = m = sqrt(n) configuration: the step cap at
    m = sqrt(n) capped by the epsilon-driven value (coarse constants 448/320).
    """
    variant = _check_variant(variant)
    root_n = math.sqrt(n)
    if variant == SVRG:
        return min(
            alpha / (16.0 * math.sqrt(6.0) * L * L * root_n * gamma),
            3.0 * alpha * eps / (448.0 * d * L * L * gamma),
        )
    return min(
        alpha / (16.0 * math.sqrt(2.0) * L * L * root_n * gamma),
        3.0 * alpha * eps / (320.0 * d * L * L * gamma),
    )


def iterations_for_eps(eps: float, H0: float, gamma: float, alpha: float, eta: float) -> int:
    """Smallest k with exp(-alpha eta k / gamma) H0 <= eps / 2, i.e.
    k = ceil((gamma / (alpha eta)) log(2 H0 / eps)); 0 when eps >= 2 H0."""
    _require(eps > 0, "need eps > 0")
    _require(H0 > 0, "need H0 > 0")
    arg = 2.0 * H0 / eps
    if arg <= 1.0:
        return 0
    return int(math.ceil(gamma / (alpha * eta) * math.log(arg)))


def gradient_complexity(k: int, B: int, m: int, n: int) -> int:
    """Exact component-gradient count of a k-step anchored/recursive run:
    (k / m) * (n + 2 B (m - 1)), requiring m | k."""
    if k % m != 0:
        raise ValueError(f"epoch length m={m} must divide step count k={k}")
    return (k // m) * (n + 2 * B * (m - 1))


def talagrand_w2_bound(H: float, alpha: float) -> float:
    """W2(rho, nu) <= sqrt(2 H / alpha) under a log-Sobolev constant alpha
    (Talagrand's transport inequality)."""
    _require(H >= 0, "need H >= 0")
    _require(alpha > 0, "need alpha > 0")
    return math.sqrt(2.0 * H / alpha)


# -- Log-Sobolev constants ------------------------------------------------------


@dataclass(frozen=True)
class LsiDissipative:
    alpha: float
    log_alpha: float
    C1: float
    C2: float


def lsi_constant_dissipative(
    gamma: float,
    L: float,
    M: float,
    b: float,
    d: int,
    A_star: float,
    B_star: float,
    C_star: float = 1.0,
) -> LsiDissipative:
    """alpha = gamma C1 exp(-C2 gamma) for a smooth dissipative potential.

    C1 = [ (2M^2 + 2L^2)/(M^2 L)
           + (6 L d / M + 2) (1/(M d) + (2 C* d / M) e^{(2d/M)(L + B*)}) ]^{-1},
    C2 = (2b/M)(L + B*) + (A* + B*) + b + 1.

    C_star is a universal constant with no known value; callers supply it
    (default 1.0) and downstream output flags the caveat.  Requires
    gamma >= 2/M.  ``log_alpha`` carries log(gamma) + log(C1) - C2 gamma so the
    result stays usable when the linear value underflows.
    """
    _require(gamma >= 2.0 / M, f"hypothesis gamma >= 2/M violated: gamma={gamma}, 2/M={2.0 / M}")
    _require(min(L, M, b, C_star) > 0 and d >= 1, "need positive L, M, b, C_star and d >= 1")
    inv_c1 = (2.0 * M * M + 2.0 * L * L) / (M * M * L) + (6.0 * L * d / M + 2.0) * (
        1.0 / (M * d) + (2.0 * C_star * d / M) * math.exp((2.0 * d / M) * (L + B_star))
    )
    C1 = 1.0 / inv_c1
    C2 = (2.0 * b / M) * (L + B_star) + (A_star + B_star) + b + 1.0
    log_alpha = math.log(gamma) + math.log(C1) - C2 * gamma
    alpha = math.exp(log_alpha) if log_alpha > -700.0 else 0.0
    return LsiDissipative(alpha=alpha, log_alpha=log_alpha, C1=C1, C2=C2)


@dataclass(frozen=True)
class LsiWeakMorse:
    alpha: float
    gamma_floor: float
    C3: float
    bracket: float


def weak_morse_gamma_floor(d: int, L: float, L_prime: float, lambda_dagger: float, C_F: float) -> float:
    """gamma floor max(1, a^2 4 d L'^2 / lambda^2, 4 L'^2 a^6) evaluated at
    the smallest admissible a^2 = 24 d L / C_F^2."""
    a2 = 24.0 * d * L / (C_F * C_F)
    return max(1.0, a2 * 4.0 * d * L_prime * L_prime / (lambda_dagger * lambda_dagger), 4.0 * L_prime * L_prime * a2**3)


def lsi_constant_weak_morse(
    gamma: float,
    lambda_dagger: float,
    M: float,
    L: float,
    d: int,
    L_prime: float,
    C_F: float,
) -> LsiWeakMorse:
    """alpha = C3 / gamma under the weak-Morse spectral-gap condition.

    1/alpha = [ (2M^2 + 8L^2)/(M^2 L) + (6 L (d+1)/M + 2) * 35/lambda ] * gamma,
    valid for gamma at or above the floor returned alongside.  C3 is the
    reciprocal bracket, so alpha * gamma is constant in gamma.
    """
    _require(0.0 < lambda_dagger <= 1.0, f"need lambda_dagger in (0, 1], got {lambda_dagger}")
    _require(min(M, L, L_prime, C_F) > 0 and d >= 1, "need positive constants and d >= 1")
    _require(C_F <= 1.0, f"need C_F <= 1, got {C_F}")
    floor = weak_morse_gamma_floor(d, L, L_prime, lambda_dagger, C_F)
    a2 = 24.0 * d * L / (C_F * C_F)
    terms = {
        "1": 1.0,
        "a^2 * 4 d L'^2 / lambda^2": a2 * 4.0 * d * L_prime**2 / lambda_dagger**2,
        "4 L'^2 a^6": 4.0 * L_prime**2 * a2**3,
    }
    if gamma < floor:
        failing = max(terms, key=terms.get)
        raise HypothesisViolation(
            f"gamma={gamma} is below the weak-Morse floor {floor} (binding term: {failing})"
        )
    bracket = (2.0 * M * M + 8.0 * L * L) / (M * M * L) + (6.0 * L * (d + 1) / M + 2.0) * (
        35.0 / lambda_dagger
    )
    C3 = 1.0 / bracket
    return LsiWeakMorse(alpha=C3 / gamma, gamma_floor=floor, C3=C3, bracket=bracket)


# -- optimization-mode constants -------------------------------------------------


def inverse_temperature_for_accuracy(eps: float, d: int, L: float, M: float, b: float) -> float:
    """gamma = (4d/eps) log(e L / M) v 16 d b / eps^2 v 1 v 2/M, the inverse
    temperature that forces :func:`gibbs_suboptimality_bound` <= eps / 4.

    eps / 4 is what the optimization recipe needs: the sampling target of
    :func:`kl_target_for_suboptimality` leaves L W2^2 <= eps / 2 and
    :func:`suboptimality_decomposition` adds twice the Gibbs bound.  Proof:
    gamma >= (4d/eps) log(e L / M) puts the log(e L / M) part of the bound at
    <= eps / 8; log(1 + x) <= sqrt(x) puts the other part at
    <= (1/2) sqrt(d b / gamma), which is <= eps / 8 once gamma >= 16 d b / eps^2.
    The published floor 8 d b / eps^2 is a factor 2 short: at eps = 1/2, d = 1,
    L = M = 1, b = 1/4 it gives gamma = 8 and a bound (1 + ln 3)/16 > 1/8.
    Requires L >= M so the log term is >= 1."""
    _require(eps > 0, "need eps > 0")
    _require(L >= M > 0 and b > 0 and d >= 1, "need L >= M > 0, b > 0, d >= 1")
    return max(
        4.0 * d / eps * math.log(math.e * L / M),
        16.0 * d * b / (eps * eps),
        1.0,
        2.0 / M,
    )


def gibbs_suboptimality_bound(gamma: float, d: int, L: float, M: float, b: float) -> float:
    """E_nu[F] - F* <= (d / 2 gamma) log((e L / M)(b gamma / d + 1)) for
    gamma >= 2/M."""
    _require(gamma >= 2.0 / M, f"hypothesis gamma >= 2/M violated: gamma={gamma}, 2/M={2.0 / M}")
    return d / (2.0 * gamma) * math.log(math.e * L / M * (b * gamma / d + 1.0))


def suboptimality_decomposition(
    w2: float, L: float, gamma: float, d: int, M: float, b: float
) -> float:
    """E[F(X_k)] - F* <= L * W2^2 + 2 * (Gibbs suboptimality bound)."""
    _require(w2 >= 0, "need W2 >= 0")
    return L * w2 * w2 + 2.0 * gibbs_suboptimality_bound(gamma, d, L, M, b)


def kl_target_for_suboptimality(alpha: float, eps: float, L: float) -> float:
    """KL level alpha * eps / (4 L) that makes L * W2^2 <= eps / 2 via
    Talagrand, the sampling accuracy the optimization recipe asks for."""
    _require(min(alpha, eps, L) > 0, "need positive alpha, eps, L")
    return alpha * eps / (4.0 * L)


def optimization_step_size(alpha: float, L: float, n: int, gamma: float, d: int, eps: float) -> float:
    """eta = alpha / (16 sqrt(6) L^2 sqrt(n) gamma)  ^  (3/1792) alpha^2 eps / (L^2 d gamma)."""
    _require(min(alpha, L, gamma, eps) > 0 and n >= 1 and d >= 1, "need positive inputs")
    return min(
        alpha / (16.0 * math.sqrt(6.0) * L * L * math.sqrt(n) * gamma),
        (3.0 / 1792.0) * alpha * alpha * eps / (L * L * d * gamma),
    )


def chi_constant(d: int, L: float, M: float, b: float) -> float:
    """max over gamma >= 1 of (d / gamma) log((e L / M)(b gamma / d + 1)),
    located numerically (the maximiser is assumed to exist; the objective
    decays like log(gamma)/gamma, so a bounded search suffices)."""
    _require(L >= M > 0 and b > 0 and d >= 1, "need L >= M > 0, b > 0, d >= 1")

    def neg(log_gamma: float) -> float:
        g = math.exp(log_gamma)
        return -(d / g) * math.log(math.e * L / M * (b * g / d + 1.0))

    res = optimize.minimize_scalar(neg, bounds=(0.0, 60.0), method="bounded")
    return max(-float(res.fun), -neg(0.0))


# -- annealing schedule constants -------------------------------------------------


def anneal_sigma_floor(L: float, g: float, eta_bar: float, mu: float, C1: float, C2: float) -> float:
    """sigma = 3 v (8 L g^2 / (C1^2 eta_bar))^{mu/(mu-3)} v (2 / (mu C2 L^2 eta_bar^2))^{mu/(mu-2)}."""
    _require(mu > 3.0, f"need mu > 3, got {mu}")
    _require(g >= math.e, f"need g >= e, got {g}")
    _require(min(L, eta_bar, C1, C2) > 0, "need positive L, eta_bar, C1, C2")
    t2 = (8.0 * L * g * g / (C1 * C1 * eta_bar)) ** (mu / (mu - 3.0))
    t3 = (2.0 / (mu * C2 * L * L * eta_bar * eta_bar)) ** (mu / (mu - 2.0))
    return max(3.0, t2, t3)


@dataclass
class AnnealReport:
    ok: bool
    first_violation: int | None
    violated: str | None  # the inequality that fails at first_violation
    max_eta2L2: float
    notes: list[str] = field(default_factory=list)


def anneal_validate(sched, L: float, C1: float | None = None, C2: float | None = None,
                    epochs: int = 100) -> AnnealReport:
    """Check the schedule consequences for epochs s = 0..epochs-1:

      (a) dgamma_s <= eta_s^2 L^2 <= 1/4, and
      (b) dgamma_s * 2L / alpha_{s-1} <= alpha_s eta_s / (2 gamma_s)

    with alpha_s = gamma_s C1 exp(-C2 gamma_s) and dgamma_s = gamma_s - gamma_{s-1}.
    (b) is checked only when C1 is given.  C2 defaults to 1 / gamma_bar (the
    coupling the schedule analysis fixes); a differing explicit C2 is flagged.
    """
    notes: list[str] = []
    if C1 is not None and C2 is None:
        C2 = 1.0 / sched.gamma_bar
    elif C1 is not None and abs(C2 * sched.gamma_bar - 1.0) > 1e-9:
        notes.append(
            f"gamma_bar={sched.gamma_bar} is not 1/C2={1.0 / C2}; the decay/anneal coupling assumes it"
        )

    def alpha_at(s: int) -> float:
        gam = sched.gamma(s)
        return gam * C1 * math.exp(-C2 * gam)

    first_violation = violated = None
    max_eta2l2 = 0.0
    for s in range(epochs):
        eta_s = sched.eta(s)
        gam_s = sched.gamma(s)
        dgam = gam_s - sched.gamma(s - 1)
        eta2l2 = eta_s * eta_s * L * L
        max_eta2l2 = max(max_eta2l2, eta2l2)
        checks = [("dgamma_s <= eta_s^2 L^2", dgam <= eta2l2), ("eta_s^2 L^2 <= 1/4", eta2l2 <= 0.25)]
        if C1 is not None:
            checks.append(("dgamma_s 2L / alpha_{s-1} <= alpha_s eta_s / (2 gamma_s)",
                           dgam * 2.0 * L / alpha_at(s - 1) <= alpha_at(s) * eta_s / (2.0 * gam_s)))
        failed = [name for name, holds in checks if not holds]
        if failed and first_violation is None:
            first_violation, violated = s, failed[0]
    if max_eta2l2 > 0.25:
        notes.append(f"eta_s^2 L^2 reaches {max_eta2l2:.6g} > 1/4; shrink eta_bar below 1/(4L)")
    return AnnealReport(ok=first_violation is None, first_violation=first_violation, violated=violated,
                        max_eta2L2=max_eta2l2, notes=notes)


# -- the hypothesis checker -------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """A finding of :func:`check_hypotheses`: kind "violation" or "note"."""

    kind: str
    message: str


def check_hypotheses(variant: str, eta: float, gamma: float, alpha: float | None, L: float | None,
                     B: int, m: int, *, M: float | None = None, sched=None, epochs: int = 0,
                     C1: float | None = None, C2: float | None = None,
                     L_estimated: bool = False) -> list[Violation]:
    """Every hypothesis of the KL bound the inputs violate, then the notes,
    each inequality stated once.  Violations: gamma >= 1; B >= m for the
    anchored variant; with alpha and L known, 0 < eta < the variant's step cap
    and alpha <= gamma L; gamma >= 2/M when ``M`` is given (an LSI-formula
    alpha); and for an annealing ``sched`` (whose epochs cap the step instead)
    :func:`anneal_validate` over ``epochs`` epochs, with condition (b) only
    when C1, C2 are known.  Notes: L < 1, the validator's notes, a step cap
    and alpha <= gamma L left unchecked because L is a grid estimate, which
    bounds nothing beyond its grid, and a schedule left unchecked because L
    is unknown or a grid estimate.
    """
    violations: list[str] = []
    notes: list[str] = []
    if gamma < 1.0:
        violations.append(f"gamma >= 1 violated: gamma={gamma}")
    if variant == SVRG and B < m:
        violations.append(f"B >= m violated for the anchored variant: B={B}, m={m}")
    capped = sched is None and alpha is not None and L is not None and variant in (SVRG, SARAH)
    if capped and L_estimated:
        notes.append("the step cap and alpha <= gamma*L are not checked: L is a grid estimate")
    elif capped:
        cap = step_size_cap(variant, alpha, L, m, gamma)
        if not 0.0 < eta < cap:
            violations.append(f"step cap 0 < eta < alpha/(16*sqrt({6 if variant == SVRG else 2})*L^2*m*gamma) "
                              f"violated: eta={eta}, cap={cap}")
        if alpha > gamma * L:
            violations.append(f"alpha <= gamma*L violated: alpha={alpha}, gamma*L={gamma * L}")
    if M is not None and gamma < 2.0 / M:
        violations.append(f"gamma >= 2/M violated: gamma={gamma}, 2/M={2.0 / M}")
    if L is not None and L < 1.0:
        notes.append(f"L={L} < 1; several closed-form constants assume L >= 1")
    if sched is not None and (L is None or L_estimated):
        notes.append("the [anneal] schedule is not checked: it needs a smoothness bound L, and "
                     + ("L is a grid estimate" if L_estimated else "none is declared"))
    elif sched is not None:
        report = anneal_validate(sched, L, C1, C2, epochs=epochs)
        if not report.ok:
            violations.append(f"annealed schedule violates {report.violated} at epoch "
                              f"{report.first_violation} (epochs 0..{epochs - 1} checked)")
        notes.extend(report.notes)
    return [Violation("violation", v) for v in violations] + [Violation("note", n) for n in notes]


# -- heuristic gradient-floor constant ------------------------------------------


def cf_grid_estimate(obj, lambda_dagger: float, L_prime: float, *, half_width: float = 4.0,
                     points: int = 2001) -> float:
    """Grid lower estimate of the gradient-floor constant
    min(1, lambda/2, inf ||grad F(x)|| / dist(x, stationary set)) for 1-d and
    2-d objectives.  Heuristic: the infimum is scanned on a finite box, so the
    result is an estimate, not a certified bound.
    """
    if obj.d > 2:
        raise ValueError("grid estimate only supports d <= 2")
    if obj.d == 1:
        xs = np.linspace(-half_width, half_width, points)[:, None]
    else:
        side = int(math.isqrt(points))
        g = np.linspace(-half_width, half_width, side)
        xs = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    grads = np.stack([obj.gradient(x) for x in xs])
    gnorm = np.linalg.norm(grads, axis=1)
    stationary = xs[gnorm < 1e-6 * (1.0 + gnorm.max())]
    if stationary.shape[0] == 0:
        # refine: take the local gradient-norm minima as stationary candidates
        order = np.argsort(gnorm)
        stationary = xs[order[: max(1, points // 100)]]
    dists = np.min(
        np.linalg.norm(xs[:, None, :] - stationary[None, :, :], axis=2), axis=1
    )
    cutoff = lambda_dagger / (4.0 * obj.d * L_prime)
    mask = dists > cutoff
    ratio = np.min(gnorm[mask] / dists[mask]) if np.any(mask) else 1.0
    return float(min(1.0, lambda_dagger / 2.0, ratio))

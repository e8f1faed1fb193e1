"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
in the terminal summary (see conftest).  Tolerances are pinned in the tests.

Three criteria rest on analysis that the assertion messages repeat:

  * criterion 6: the linear-in-eta claim is about the bias *bound*, so the
    log-log slope window 1 +- 0.3 applies to theory.bias_term.  The measured
    stationary moment-KL of a quadratic-target chain scales as eta^2 (KL is
    locally quadratic in the Theta(eta) moment error) and is gated at
    slope 2 +- 0.3, below the bound at every step size.
  * criteria 8 and 9: the inverse-temperature recipe must force the Gibbs
    suboptimality bound under eps/4.  Its floor is 16 d b / eps^2; the
    published 8 d b / eps^2 is a factor 2 short where the b-term binds
    (at eps = 0.5, d = 1, L = M = 1, b = 1/4 it gives (1 + ln 3)/16 > 0.125,
    see test_theory.py::test_published_constant_fails_its_own_target).
"""

import math
from itertools import combinations

import numpy as np
import pytest
from scipy import stats

from vrld import diagnostics as dg
from vrld import samplers, theory
from vrld.potentials import GaussianMoments, make_builtin
from vrld.samplers import SamplerConfig, run_ensemble


def heterogeneous_quadratic(n, d=2, seed=0):
    rng = np.random.default_rng(seed)
    return make_builtin(
        "gaussian_quadratic",
        {"n": n, "d": d, "seed": seed, "scales": rng.uniform(0.5, 2.0, n)},
    )


def test_c01_variance_identity(acceptance):
    """Exhaustive-subset estimator variance equals the closed-form factor,
    n in 2..8, every batch size, 20 random (x, anchor) pairs each."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for n in range(2, 9):
        obj = make_builtin("gaussian_quadratic", {"n": n, "d": 2, "seed": n})
        for B in range(1, n + 1):
            for _ in range(20):
                x = rng.standard_normal(2)
                anchor = rng.standard_normal(2)
                res = dg.svrg_variance_identity_check(obj, x, anchor, B)
                rel = res["gap"] / (1.0 + res["rhs"])
                worst = max(worst, rel)
    ok = worst <= 1e-12
    acceptance(1, "subset variance identity (n <= 8, all B)", ok, f"worst rel gap {worst:.2e}")
    assert ok


def test_c02_estimator_conditional_means(acceptance):
    """Subset averages of both estimators hit their conditional-mean targets
    to 1e-12 at n = 6, B in {1, 2, 3} (heterogeneous components)."""
    rng = np.random.default_rng(102)
    rows = rng.standard_normal((6, 2))
    labels = (rng.random(6) > 0.5).astype(float)
    obj = make_builtin("logistic_l2", {"rows": rows, "labels": labels, "lam": 0.3})
    worst = 0.0
    for B in (1, 2, 3):
        for _ in range(5):
            x, other = rng.standard_normal(2), rng.standard_normal(2)
            r1 = dg.svrg_subset_mean(obj, x, other, B)
            r2 = dg.sarah_increment_mean(obj, x, other, B)
            worst = max(
                worst,
                r1["gap"] / (1.0 + np.linalg.norm(r1["target"])),
                r2["gap"] / (1.0 + np.linalg.norm(r2["target"])),
            )
    ok = worst <= 1e-12
    acceptance(2, "estimator conditional means (n = 6)", ok, f"worst rel gap {worst:.2e}")
    assert ok


def test_c03_reduction_to_full_gradient_chain(acceptance):
    """B = n and m = 1 make all three chains bitwise identical for 1000 steps."""
    obj = make_builtin("gaussian_quadratic", {"n": 8, "d": 2, "seed": 3})
    x0 = np.array([2.0, -1.0])
    kw = dict(eta=0.01, gamma=1.0, B=obj.n, m=1, K=1000, seed=42)
    t_lmc = samplers.run_chain(obj, SamplerConfig(variant="lmc", **kw), x0)
    t_svrg = samplers.run_chain(obj, SamplerConfig(variant="svrg_ld", **kw), x0)
    t_sarah = samplers.run_chain(obj, SamplerConfig(variant="sarah_ld", **kw), x0)
    ok = np.array_equal(t_lmc.iterates, t_svrg.iterates) and np.array_equal(
        t_lmc.iterates, t_sarah.iterates
    )
    acceptance(3, "B = n, m = 1 reduction is bitwise", ok)
    assert ok


def test_c04_gradient_accounting(acceptance):
    """Measured gradient counters match the exact closed-form counts."""
    rng = np.random.default_rng(104)
    ok = True
    details = []
    for _ in range(10):
        n = int(rng.integers(2, 13))
        B = int(rng.integers(1, n + 1))
        m = int(rng.integers(1, 9))
        K = m * int(rng.integers(1, 7))
        obj = heterogeneous_quadratic(n, d=1, seed=n)
        x0 = np.zeros(1)
        for variant in ("svrg_ld", "sarah_ld"):
            cfg = SamplerConfig(variant=variant, eta=1e-4, B=B, m=m, K=K, seed=1)
            obj.reset_grad_evals()
            trace = samplers.run_chain(obj, cfg, x0)
            want = theory.gradient_complexity(K, B, m, n)
            ok &= trace.total_grad_evals == want == obj.grad_evals
        cfg = SamplerConfig(variant="sgld", eta=1e-4, B=B, K=K, seed=1)
        obj.reset_grad_evals()
        ok &= samplers.run_chain(obj, cfg, x0).total_grad_evals == K * B == obj.grad_evals
        cfg = SamplerConfig(variant="lmc", eta=1e-4, K=K, seed=1)
        obj.reset_grad_evals()
        ok &= samplers.run_chain(obj, cfg, x0).total_grad_evals == K * n == obj.grad_evals
        details.append((n, B, m, K))
    acceptance(4, "gradient-evaluation accounting", ok, f"{len(details)} random configs")
    assert ok


def test_c05_moment_oracle_vs_simulation(acceptance):
    """1e5 full-gradient chains on the quadratic, d = 2, eta = 0.05, gamma = 2:
    moments within 4 SE of the exact recursion at k in {1, 10, 100};
    stationary covariance within 2% of I / (gamma (1 - eta/2))."""
    obj = make_builtin("gaussian_quadratic", {"n": 4, "d": 2, "seed": 11, "zero_mean": True})
    R, eta, gamma = 100_000, 0.05, 2.0
    x0 = np.array([1.0, 1.0])
    res = run_ensemble(obj, "lmc", R, 400, eta=eta, gamma=gamma, seed=5, x0=x0,
                       checkpoints=[1, 10, 100, 400])
    ok = True
    worst_z = 0.0
    for k in (1, 10, 100):
        orc = dg.gaussian_moment_oracle_lmc(eta, gamma, k, x0, np.zeros((2, 2)))
        X = res.checkpoints[k]
        se_mean = np.sqrt(np.diag(orc.cov) / R)
        z_mean = np.abs(X.mean(axis=0) - orc.mean) / se_mean
        S_emp = np.cov(X, rowvar=False)
        se_cov = np.sqrt((np.outer(np.diag(orc.cov), np.diag(orc.cov)) + orc.cov**2) / R)
        z_cov = np.abs(S_emp - orc.cov) / se_cov
        worst_z = max(worst_z, z_mean.max(), z_cov.max())
        ok &= z_mean.max() <= 4.0 and z_cov.max() <= 4.0
    S_stat = np.cov(res.checkpoints[400], rowvar=False)
    target = dg.lmc_stationary_covariance(eta, gamma, 2)
    rel = np.abs(S_stat - target).max() / target[0, 0]
    ok &= rel <= 0.02
    acceptance(5, "moment oracle vs 1e5 chains", ok, f"worst z {worst_z:.2f}, stat rel {rel:.4f}")
    assert ok


@pytest.mark.slow
def test_c06_bias_scaling_in_step_size(acceptance):
    """Eta sweep {0.005, 0.01, 0.02, 0.04} of the anchored chain on the
    quadratic (n = 64, B = m = 8, alpha = gamma = 1): every stationary
    moment-KL lies below the tight bias bound, the bound is linear in eta
    (log-log slope 1 +- 0.3), and the measured KL follows its exact local
    behaviour eta^2 (log-log slope 2 +- 0.3).

    The moment-KL here is exact, not sampled: on the equal-curvature
    quadratic the anchored estimator is exact for every subset, so the chain
    law is the full-gradient chain's Gaussian law whose stationary variance
    is 1/(gamma (1 - eta/2)).  Its KL against the Gibbs law is
    (d/2)(u - 1 - log u) with u = 1/(1 - eta/2), about d eta^2 / 16.  An
    ensemble run cross-checks the two largest step sizes against that law at
    4 SE before the exact values are used.
    """
    n, B, m, d, gamma, alpha = 64, 8, 8, 1, 1.0, 1.0
    obj = make_builtin("gaussian_quadratic", {"n": n, "d": d, "seed": 2, "zero_mean": True})
    gibbs = dg.gibbs_moments(obj, gamma)
    etas = [0.005, 0.01, 0.02, 0.04]
    kl_values = []
    closed_forms = []
    for eta in etas:
        stationary = GaussianMoments(gibbs.mean, dg.lmc_stationary_covariance(eta, gamma, d))
        kl_values.append(dg.kl_gaussians(stationary, gibbs))
        u = 1.0 / (1.0 - eta / 2.0)
        closed_forms.append(0.5 * d * (u - 1.0 - math.log(u)))
    closed_ok = all(abs(kl - c) <= 1e-12 * c for kl, c in zip(kl_values, closed_forms))
    sim_ok = True
    for eta in (0.02, 0.04):
        K = int(math.ceil(12.0 / eta / m) * m)
        R = 20_000
        res = run_ensemble(obj, "svrg_ld", R, K, eta=eta, gamma=gamma, B=B, m=m,
                           seed=9, checkpoints=[K])
        X = res.checkpoints[K][:, 0]
        var_target = 1.0 / (gamma * (1.0 - eta / 2.0))
        sim_ok &= abs(X.mean()) <= 4.0 * math.sqrt(var_target / R)
        sim_ok &= abs(X.var(ddof=1) - var_target) <= 4.0 * var_target * math.sqrt(2.0 / R)
    bounds = [theory.bias_term("svrg_ld", eta, gamma, d, obj.L, alpha, n, B, m) for eta in etas]
    below = all(kl <= b for kl, b in zip(kl_values, bounds))
    bound_slope = stats.linregress(np.log(etas), np.log(bounds)).slope
    kl_slope = stats.linregress(np.log(etas), np.log(kl_values)).slope
    bound_slope_ok = 0.7 <= bound_slope <= 1.3
    kl_slope_ok = 1.7 <= kl_slope <= 2.3
    acceptance(
        6,
        "stationary bias vs step size",
        closed_ok and sim_ok and below and bound_slope_ok and kl_slope_ok,
        f"bound slope {bound_slope:.3f} (window 1 +- 0.3), KL slope {kl_slope:.3f} "
        f"(window 2 +- 0.3), below bound: {below}, sim 4SE: {sim_ok}",
    )
    assert closed_ok, "moment-KL from diagnostics disagrees with (d/2)(u - 1 - log u)"
    assert sim_ok, "ensemble law disagrees with the exact Gaussian law"
    assert below, "stationary moment-KL exceeded the tight bias bound"
    assert bound_slope_ok, (
        f"log-log slope of the bias bound vs eta is {bound_slope:.3f}, outside 1 +- 0.3: "
        "the bound is meant to be linear in eta."
    )
    assert kl_slope_ok, (
        f"log-log slope of the stationary moment-KL vs eta is {kl_slope:.3f}, outside "
        "2 +- 0.3: the chain's stationary moment error is Theta(eta) and KL is locally "
        "quadratic in the moment error, so the exact KL scales as eta^2."
    )


@pytest.mark.slow
def test_c07_geometric_decay_envelope(acceptance):
    """The measured moment-KL stays below exp(-alpha eta k / gamma) H0 + bias
    at every checkpoint of an anchored-chain run started from a Gaussian law."""
    n, B, m, d, gamma, alpha, eta = 16, 4, 4, 2, 1.0, 1.0, 0.005
    obj = make_builtin("gaussian_quadratic", {"n": n, "d": d, "seed": 4, "zero_mean": True})
    gibbs = dg.gibbs_moments(obj, gamma)
    m0, S0 = np.array([3.0, -2.0]), 0.25 * np.eye(2)
    H0 = dg.kl_gaussians(GaussianMoments(m0, S0), gibbs)
    R, K = 20_000, 1500
    rng = np.random.default_rng(123)
    X0 = m0 + rng.standard_normal((R, 2)) * 0.5
    ckpts = list(range(0, K + 1, 50))
    res = run_ensemble(obj, "svrg_ld", R, K, eta=eta, gamma=gamma, B=B, m=m,
                       seed=21, x0=X0, checkpoints=ckpts)
    ok = True
    worst = 0.0
    for k in ckpts:
        kl = dg.moment_kl_surrogate(res.checkpoints[k], gibbs)
        envelope = theory.kl_bound("svrg_ld", H0, k, eta, gamma, alpha, d, obj.L, n, B, m).total
        worst = max(worst, kl / envelope)
        ok &= kl <= envelope
    acceptance(7, "KL decay + bias envelope dominates", ok, f"worst ratio {worst:.3f}")
    assert ok


def test_c08_theory_spot_values(acceptance):
    """Closed-form spot values to 1e-12, including the Gibbs suboptimality
    bound at the recipe's inverse temperature against eps/4."""
    checks_ok = True
    xi = theory.minibatch_variance_factor(16, 4)
    checks_ok &= abs(xi - 0.2) <= 1e-12
    _, _, upsilon = theory.variance_reduction_factors(16, 4, 4)
    checks_ok &= abs(upsilon - 4.2) <= 1e-12
    checks_ok &= upsilon <= theory.UPSILON_UNIVERSAL_CAP
    cap = theory.step_size_cap("svrg_ld", 1.0, 1.0, 4, 1.0)
    checks_ok &= abs(cap - 1.0 / (64.0 * math.sqrt(6.0))) <= 1e-12
    gamma = theory.inverse_temperature_for_accuracy(0.5, 1, 1.0, 1.0, 0.25)
    checks_ok &= abs(gamma - 16.0) <= 1e-12
    bound = theory.gibbs_suboptimality_bound(gamma, 1, 1.0, 1.0, 0.25)
    checks_ok &= abs(bound - (1.0 + math.log(5.0)) / 32.0) <= 1e-12
    rider_ok = bound <= 0.125
    acceptance(
        8,
        "theory formula spot values",
        checks_ok and rider_ok,
        f"values to 1e-12: {checks_ok}; bound {bound:.6f} <= 0.125: {rider_ok}",
    )
    assert checks_ok
    assert rider_ok, (
        f"the Gibbs suboptimality bound at the recipe's gamma is {bound:.6f}, NOT <= 0.125 = "
        "eps/4: the 16 d b / eps^2 floor should give (1 + ln 5)/32 = 0.0815; the published "
        "8 d b / eps^2 gives (1 + ln 3)/16 = 0.1312 "
        "(test_theory.py::test_published_constant_fails_its_own_target)."
    )


def test_c09_end_to_end_quarter_eps_property(acceptance):
    """gibbs_suboptimality_bound(inverse_temperature_for_accuracy(...)) <= eps/4
    over a 100-point grid with L >= M."""
    eps_grid = [0.1, 0.2, 0.5, 1.0, 2.0]
    b_grid = [0.02, 0.1, 0.25, 1.0, 4.0]
    d_grid = [1, 4]
    lm_grid = [(1.0, 1.0), (4.0, 0.5)]
    violations = []
    total = 0
    for eps in eps_grid:
        for b in b_grid:
            for d in d_grid:
                for L, M in lm_grid:
                    total += 1
                    gamma = theory.inverse_temperature_for_accuracy(eps, d, L, M, b)
                    bound = theory.gibbs_suboptimality_bound(gamma, d, L, M, b)
                    if bound > eps / 4.0 + 1e-12:
                        violations.append((eps, d, L, M, b, bound, eps / 4.0))
    ok = not violations
    acceptance(
        9,
        "temperature recipe forces Gibbs bound under eps/4",
        ok,
        f"{len(violations)}/{total} grid points violate",
    )
    assert total == 100
    assert ok, (
        f"{len(violations)} of {total} grid points exceed eps/4, e.g. "
        f"(eps, d, L, M, b, bound, eps/4) = {violations[0]}.  The 16 d b / eps^2 temperature "
        "floor forces the bound under eps/4 wherever the b-term binds, and the "
        "(4d/eps) log(eL/M) term elsewhere; the published 8 d b / eps^2 is a factor 2 short "
        "(test_theory.py::test_published_constant_fails_its_own_target)."
    )


@pytest.mark.slow
def test_c10_optimization_desk_experiment(acceptance):
    """Double-well optimization run configured entirely by the closed forms:
    gamma from the accuracy recipe at eps = 0.5, the recipe step size, and the
    recipe step count; 32 recursive-variant replicates must land at mean
    suboptimality <= eps + 3 SE.

    Desk-scale declared constants: the quartic's smoothness L = 11 is its
    curvature maximum over the documented box [-2, 2]; the dissipativity pair
    (M, b) = (1/2, 1) holds globally; alpha = 8 is a declared constant (the
    target's true log-Sobolev constant is exponentially small in gamma, which
    would put the faithful step count far beyond desk scale - the run gates
    the recipe's measured outcome, not the constant).
    """
    eps = 0.5
    obj = make_builtin("double_well", {"a": 1.0, "d": 1, "n_copies": 16, "box": 2.0})
    M, b = 0.5, 1.0
    gamma = theory.inverse_temperature_for_accuracy(eps, obj.d, obj.L, M, b)
    alpha = 8.0
    eta = theory.optimization_step_size(alpha, obj.L, obj.n, gamma, obj.d, eps)
    B = m = round(math.sqrt(obj.n))
    assert eta < theory.step_size_cap("sarah_ld", alpha, obj.L, m, gamma)
    var0 = 1.0 / (gamma * obj.L)
    H0 = dg.kl_gaussian_vs_gibbs_1d(0.0, var0, obj, gamma)
    kl_target = theory.kl_target_for_suboptimality(alpha, eps, obj.L)
    k = theory.iterations_for_eps(kl_target, H0, gamma, alpha, eta)
    K = ((k + m - 1) // m) * m
    R = 32
    rng = np.random.default_rng(2024)
    X0 = rng.standard_normal((R, 1)) * math.sqrt(var0)
    res = run_ensemble(obj, "sarah_ld", R, K, eta=eta, gamma=gamma, B=B, m=m,
                       seed=77, x0=X0, checkpoints=[K])
    sub, se = dg.suboptimality(obj, res.checkpoints[K])
    ok = sub <= eps + 3.0 * se
    acceptance(
        10,
        "optimization recipe on the double well",
        ok,
        f"suboptimality {sub:.4f} +- {se:.4f} after K = {K} steps (gate {eps})",
    )
    assert ok


def test_c11_annealing_schedule(acceptance):
    """Schedule values match the closed forms to 1e-12 for s = 0..100, the
    validator accepts the schedule at the sigma floor, and the schedules are
    strictly monotone."""
    eta_bar, gamma_bar, mu, g, L, C1, C2 = 0.01, 1.0, 13.0, math.e, 1.0, 1.0, 1.0
    sigma = theory.anneal_sigma_floor(L, g, eta_bar, mu, C1, C2)
    sched = samplers.AnnealSchedule(eta_bar=eta_bar, gamma_bar=gamma_bar, sigma=sigma, mu=mu, g=g)
    worst = 0.0
    for s in range(101):
        eta_direct = eta_bar * (s + sigma) ** (-1.0 / mu)
        gamma_direct = gamma_bar * math.log(g * (s + sigma) ** (1.0 / mu))
        worst = max(worst, abs(sched.eta(s) - eta_direct), abs(sched.gamma(s) - gamma_direct))
    values_ok = worst <= 1e-12
    report = theory.anneal_validate(sched, L, C1, epochs=101)
    etas = [sched.eta(s) for s in range(101)]
    gammas = [sched.gamma(s) for s in range(101)]
    mono_ok = all(a > b for a, b in zip(etas, etas[1:])) and all(
        a < b for a, b in zip(gammas, gammas[1:])
    )
    ok = values_ok and report.ok and report.max_eta2L2 <= 0.25 and mono_ok
    acceptance(
        11,
        "annealing schedule and validator",
        ok,
        f"worst formula gap {worst:.1e}, validator ok {report.ok}, monotone {mono_ok}",
    )
    assert ok


def test_c12_talagrand_on_gaussians(acceptance):
    """(gamma/2) W2^2 <= KL for 50 random Gaussian laws against N(0, I/gamma)."""
    rng = np.random.default_rng(112)
    ok = True
    worst = -np.inf
    for _ in range(50):
        d = int(rng.integers(1, 5))
        gamma = float(rng.uniform(0.5, 8.0))
        nu = GaussianMoments(np.zeros(d), np.eye(d) / gamma)
        A = rng.standard_normal((d, d))
        rho = GaussianMoments(rng.standard_normal(d), A @ A.T + 0.05 * np.eye(d))
        w2 = dg.w2_gaussians(rho, nu)
        kl = dg.kl_gaussians(rho, nu)
        gap = 0.5 * gamma * w2 * w2 - kl
        worst = max(worst, gap)
        ok &= gap <= 1e-12
    acceptance(12, "Talagrand inequality on Gaussian pairs", ok, f"worst slack {worst:.2e}")
    assert ok

"""Unit tests for the measurement machinery (moment oracles, divergences,
subset-enumeration identities, suboptimality, and spot bound checks)."""

import math

import numpy as np
import pytest

from vrld import diagnostics as dg
from vrld.potentials import GaussianMoments, NumericalDomainError, make_builtin
from vrld.samplers import run_ensemble


def gaussian(mean, cov):
    return GaussianMoments(np.asarray(mean, float), np.asarray(cov, float))


class TestMomentOracle:
    def test_identity_at_step_zero(self):
        m0, S0 = np.array([1.0, -1.0]), np.diag([0.5, 2.0])
        orc = dg.gaussian_moment_oracle_lmc(0.1, 1.0, 0, m0, S0)
        np.testing.assert_array_equal(orc.mean, m0)
        np.testing.assert_array_equal(orc.cov, S0)

    def test_fixed_point_covariance(self):
        """S* solves S = (1-eta)^2 S + (2 eta / gamma) I, i.e. I/(gamma(1 - eta/2))."""
        eta, gamma = 0.05, 2.0
        orc = dg.gaussian_moment_oracle_lmc(eta, gamma, 5000, np.zeros(2), np.zeros((2, 2)))
        np.testing.assert_allclose(
            orc.cov, dg.lmc_stationary_covariance(eta, gamma, 2), rtol=1e-12
        )

    def test_small_step_limit_is_gibbs_covariance(self):
        cov = dg.lmc_stationary_covariance(1e-9, 4.0, 1)
        np.testing.assert_allclose(cov, np.eye(1) / 4.0, rtol=1e-8)

    def test_one_step_recursion(self):
        m0, S0 = np.array([2.0]), np.array([[0.3]])
        orc = dg.gaussian_moment_oracle_lmc(0.1, 1.0, 1, m0, S0)
        np.testing.assert_allclose(orc.mean, 0.9 * m0, rtol=1e-15)
        np.testing.assert_allclose(orc.cov, 0.81 * S0 + 0.2 * np.eye(1), rtol=1e-15)

    def test_step_size_domain(self):
        with pytest.raises(ValueError):
            dg.gaussian_moment_oracle_lmc(2.5, 1.0, 1, np.zeros(1), np.eye(1))

    def test_matches_simulation_within_four_se(self):
        obj = make_builtin("gaussian_quadratic", {"n": 4, "d": 2, "seed": 1, "zero_mean": True})
        R = 20000
        res = run_ensemble(obj, "lmc", R, 10, eta=0.05, gamma=2.0, seed=3,
                           x0=np.array([1.0, 1.0]), checkpoints=[1, 10])
        for k in (1, 10):
            orc = dg.gaussian_moment_oracle_lmc(0.05, 2.0, k, np.array([1.0, 1.0]), np.zeros((2, 2)))
            X = res.checkpoints[k]
            se = np.sqrt(np.diag(orc.cov) / R)
            assert np.all(np.abs(X.mean(axis=0) - orc.mean) <= 4 * se)


class TestKlGaussians:
    def test_zero_iff_equal(self):
        p = gaussian([0.3, -0.2], [[1.0, 0.2], [0.2, 0.8]])
        assert dg.kl_gaussians(p, p) == 0.0

    def test_one_dimensional_spot_value(self):
        p = gaussian([0.0], [[1.0]])
        q = gaussian([0.0], [[2.0]])
        assert dg.kl_gaussians(p, q) == pytest.approx(0.5 * (0.5 + math.log(2) - 1), rel=1e-12)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            A = rng.standard_normal((3, 3))
            B = rng.standard_normal((3, 3))
            p = gaussian(rng.standard_normal(3), A @ A.T + 0.1 * np.eye(3))
            q = gaussian(rng.standard_normal(3), B @ B.T + 0.1 * np.eye(3))
            assert dg.kl_gaussians(p, q) >= 0.0

    def test_symmetrised_exceeds_each_direction(self):
        p = gaussian([0.0], [[1.0]])
        q = gaussian([1.0], [[0.5]])
        sym = dg.kl_gaussians(p, q) + dg.kl_gaussians(q, p)
        assert sym >= dg.kl_gaussians(p, q) and sym >= dg.kl_gaussians(q, p)


class TestW2:
    def test_identical_is_zero(self):
        p = gaussian([1.0, 2.0], [[1.0, 0.3], [0.3, 2.0]])
        assert dg.w2_gaussians(p, p) == pytest.approx(0.0, abs=1e-7)

    def test_pure_mean_shift(self):
        p = gaussian([0.0], [[1.0]])
        q = gaussian([1.0], [[1.0]])
        assert dg.w2_gaussians(p, q) == pytest.approx(1.0, rel=1e-12)

    def test_empirical_converges_to_gaussian_value(self):
        rng = np.random.default_rng(11)
        xs = rng.standard_normal(40000)
        ys = 1.0 + rng.standard_normal(40000)
        assert dg.w2_empirical_1d(xs, ys) == pytest.approx(1.0, abs=0.05)

    def test_empirical_metric_properties(self):
        """Symmetry, identity, and the triangle inequality on random triples."""
        rng = np.random.default_rng(12)
        for _ in range(20):
            x = rng.standard_normal(rng.integers(5, 40))
            y = rng.standard_normal(rng.integers(5, 40)) * 2.0
            z = rng.standard_normal(rng.integers(5, 40)) + 0.5
            dxy = dg.w2_empirical_1d(x, y)
            dyx = dg.w2_empirical_1d(y, x)
            assert dxy == pytest.approx(dyx, abs=1e-12)
            assert dg.w2_empirical_1d(x, x) <= 1e-12
            assert dxy <= dg.w2_empirical_1d(x, z) + dg.w2_empirical_1d(z, y) + 1e-12

    def test_empirical_exact_on_point_masses(self):
        assert dg.w2_empirical_1d([0.0], [3.0]) == pytest.approx(3.0, rel=1e-15)


class TestTalagrandOnGaussians:
    def test_fifty_random_pairs(self):
        """(alpha/2) W2^2 <= KL with alpha = gamma for the Gibbs law N(0, I/gamma)."""
        rng = np.random.default_rng(21)
        for _ in range(50):
            d = int(rng.integers(1, 4))
            gamma = float(rng.uniform(0.5, 5.0))
            nu = gaussian(np.zeros(d), np.eye(d) / gamma)
            A = rng.standard_normal((d, d))
            rho = gaussian(rng.standard_normal(d), A @ A.T + 0.05 * np.eye(d))
            w2 = dg.w2_gaussians(rho, nu)
            kl = dg.kl_gaussians(rho, nu)
            assert 0.5 * gamma * w2**2 <= kl + 1e-12


class TestSuboptimality:
    def test_zero_at_minimiser(self):
        obj = make_builtin("gaussian_quadratic", {"n": 3, "d": 2, "seed": 5})
        samples = np.tile(obj.x_star, (10, 1))
        val, _ = dg.suboptimality(obj, samples)
        assert val == pytest.approx(0.0, abs=1e-14)

    def test_gaussian_plugin_value(self):
        """E F - F* = tr(S)/2 + ||m - x*||^2 / 2 for the unit quadratic."""
        obj = make_builtin("gaussian_quadratic", {"n": 4, "d": 2, "seed": 6, "zero_mean": True})
        rng = np.random.default_rng(3)
        m, sd = np.array([0.5, -0.25]), 0.3
        samples = m + sd * rng.standard_normal((200000, 2))
        val, se = dg.suboptimality(obj, samples)
        expected = 0.5 * (2 * sd**2) + 0.5 * float(m @ m)
        assert val == pytest.approx(expected, abs=4 * se)

    def test_needs_two_samples(self):
        obj = make_builtin("gaussian_quadratic", {"n": 3, "d": 2, "seed": 5})
        with pytest.raises(ValueError, match="at least two samples"):
            dg.suboptimality(obj, np.zeros((1, 2)))

    def test_requires_declared_minimum(self):
        obj = make_builtin("gaussian_mixture", {"mu": [1.0]})
        with pytest.raises(ValueError, match="F_star"):
            dg.suboptimality(obj, np.zeros((5, 1)))


class TestVarianceIdentity:
    def test_zero_when_x_equals_anchor(self):
        obj = make_builtin("gaussian_quadratic", {"n": 6, "d": 2, "seed": 7, "scales": np.linspace(0.5, 2, 6)})
        x = np.array([0.3, -0.6])
        res = dg.svrg_variance_identity_check(obj, x, x, 2)
        assert res["lhs"] == 0.0 and res["rhs"] == 0.0

    def test_zero_at_full_batch(self):
        obj = make_builtin("gaussian_quadratic", {"n": 6, "d": 2, "seed": 7, "scales": np.linspace(0.5, 2, 6)})
        rng = np.random.default_rng(1)
        res = dg.svrg_variance_identity_check(obj, rng.standard_normal(2), rng.standard_normal(2), 6)
        assert res["lhs"] == pytest.approx(0.0, abs=1e-28)
        assert res["rhs"] == 0.0

    def test_exact_identity_heterogeneous(self):
        """The enumeration average equals the closed-form factor exactly on a
        potential whose component Hessians differ."""
        rng = np.random.default_rng(14)
        rows = rng.standard_normal((6, 2))
        labels = (rng.random(6) > 0.5).astype(float)
        obj = make_builtin("logistic_l2", {"rows": rows, "labels": labels, "lam": 0.2})
        for B in range(1, 7):
            res = dg.svrg_variance_identity_check(
                obj, rng.standard_normal(2), rng.standard_normal(2), B
            )
            assert res["gap"] <= 1e-12 * (1.0 + res["rhs"])

    def test_all_small_n_and_batch_sizes(self):
        rng = np.random.default_rng(15)
        for n in range(2, 9):
            obj = make_builtin(
                "gaussian_quadratic",
                {"n": n, "d": 2, "seed": n, "scales": rng.uniform(0.5, 2.0, n)},
            )
            for B in range(1, n + 1):
                res = dg.svrg_variance_identity_check(
                    obj, rng.standard_normal(2), rng.standard_normal(2), B
                )
                assert res["gap"] <= 1e-12 * (1.0 + res["rhs"])
        # identical components: the row kernel runs on a read-only broadcast view
        for obj in (make_builtin("double_well", {"d": 2, "n_copies": 5}),
                    make_builtin("gaussian_mixture", {"mu": [1.2, -0.3], "n_copies": 5})):
            for B in range(1, 6):
                res = dg.svrg_variance_identity_check(
                    obj, rng.standard_normal(2), rng.standard_normal(2), B
                )
                assert res["gap"] <= 1e-12 * (1.0 + res["rhs"])

    def test_enumeration_size_guard(self):
        """Every identity enumerates its subsets under one guard: C(16, 2)
        is small, but the guard is on n, before any subset is made.  A
        gradient table that overflows is refused, not averaged into nan, and
        so is a batch size with no subsets to average."""
        obj = make_builtin("gaussian_quadratic", {"n": 16, "d": 1, "seed": 0})
        well = make_builtin("double_well", {"d": 2, "n_copies": 4})
        for check in (dg.svrg_variance_identity_check, dg.svrg_subset_mean, dg.sarah_increment_mean):
            with pytest.raises(ValueError, match="n <= 12"):
                check(obj, np.zeros(1), np.ones(1), 2)
            for B in (0, 5):
                with pytest.raises(ValueError, match=f"need 1 <= B <= n, got B={B}, n=4"):
                    check(well, np.zeros(2), np.ones(2), B)
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalDomainError):
                check(well, np.full(2, 1e200), np.ones(2), 2)


class TestGibbsQuadrature:
    def test_matches_closed_form_on_quadratic(self):
        """The quadrature KL agrees with the Gaussian closed form when the
        1-d target is itself Gaussian."""
        obj = make_builtin("gaussian_quadratic", {"centers": [[0.25], [-0.25], [0.0]]})
        gamma = 3.0
        gibbs = dg.gibbs_moments(obj, gamma)
        for mean, var in ((0.0, 0.5), (1.2, 0.1), (-0.7, 1.5)):
            via_quad = dg.kl_gaussian_vs_gibbs_1d(mean, var, obj, gamma)
            closed = dg.kl_gaussians(gaussian([mean], [[var]]), gibbs)
            assert via_quad == pytest.approx(closed, abs=1e-9)

    def test_gibbs_moments_only_for_quadratics(self):
        obj = make_builtin("double_well", {})
        assert dg.gibbs_moments(obj, 2.0) is None


def _kl_reference(p, q):
    """KL by solves, one checkpoint at a time: the per-checkpoint formula the
    batched kernel replaced."""
    dm = q.mean - p.mean
    quad = float(dm @ np.linalg.solve(q.cov, dm))
    kl = 0.5 * (np.trace(np.linalg.solve(q.cov, p.cov)) + quad - p.d
                + np.linalg.slogdet(q.cov)[1] - np.linalg.slogdet(p.cov)[1])
    return max(float(kl), 0.0)


def _w2_reference(p, q):
    w, V = np.linalg.eigh(q.cov)
    root_q = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T
    cross = np.sum(np.sqrt(np.clip(np.linalg.eigvalsh(root_q @ p.cov @ root_q), 0.0, None)))
    dm = p.mean - q.mean
    return math.sqrt(max(float(dm @ dm + np.trace(p.cov) + np.trace(q.cov) - 2.0 * cross), 0.0))


def _moments_reference(X):
    cov = np.cov(X, rowvar=False, ddof=1).reshape(X.shape[1], X.shape[1])
    cov = 0.5 * (cov + cov.T)
    eig_min = np.linalg.eigvalsh(cov).min()
    if eig_min <= 0:
        cov = cov + (1e-12 - eig_min) * np.eye(cov.shape[0])
    return GaussianMoments(X.mean(axis=0), cov)


def _stack(d, R=9, T=40, seed=0):
    """Random (T, R, d) checkpoints with a degenerate one (every replicate at
    one point, the jitter path) and two with no value (huge, non-finite)."""
    rng = np.random.default_rng(seed + d)
    X = rng.standard_normal((T, R, d)) * rng.uniform(0.2, 3.0, (T, 1, d)) + rng.standard_normal((T, 1, d))
    X[0] = 0.75
    X[5, 2, 0] = 1e120
    X[6, 1, -1] = np.inf
    A = rng.standard_normal((d, d))
    return X, GaussianMoments(rng.standard_normal(d), A @ A.T + 0.3 * np.eye(d))


class TestMomentSurrogates:
    def test_moments_psd(self):
        rng = np.random.default_rng(31)
        X = rng.standard_normal((100, 3))
        mom = dg.moments_of(X)
        assert np.linalg.eigvalsh(mom.cov).min() > 0

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_per_checkpoint_formulas(self, d):
        X, target = _stack(d)
        kl, w2 = dg.moment_surrogates(X, target)
        assert kl.shape == w2.shape == (X.shape[0],)
        for t in range(X.shape[0]):
            if t in (5, 6):
                assert math.isnan(kl[t]) and math.isnan(w2[t])
                continue
            p = _moments_reference(X[t])
            assert kl[t] == pytest.approx(_kl_reference(p, target), rel=1e-12, abs=0)
            assert w2[t] == pytest.approx(_w2_reference(p, target), rel=1e-12, abs=0)
            assert dg.kl_gaussians(p, target) == pytest.approx(kl[t], rel=1e-12, abs=0)
            assert dg.w2_gaussians(p, target) == pytest.approx(w2[t], rel=1e-12, abs=0)
            # one formula: the T = 1 wrappers are the batched kernel's row
            assert dg.moment_kl_surrogate(X[t], target) == kl[t]
            assert dg.moment_w2_surrogate(X[t], target) == w2[t]

    def test_degenerate_checkpoint_takes_the_jitter(self):
        X, target = _stack(2)
        mom = dg.moments_of(X[0])
        np.testing.assert_array_equal(mom.cov, 1e-12 * np.eye(2))
        assert dg.moment_surrogates(X, target)[0][0] == dg.kl_gaussians(mom, target)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("span", [1, 3, 7])
    def test_blocked_equals_one_call(self, d, span, monkeypatch):
        X, target = _stack(d, T=50)
        whole = dg.moment_surrogates(X, target)
        monkeypatch.setattr(dg, "_BLOCK_VALUES", span * X.shape[1] * d * d)
        blocked = dg.moment_surrogates(X, target)
        for a, b in zip(whole, blocked):
            assert np.array_equal(a, b, equal_nan=True)

    def test_rejects_a_stack_of_the_wrong_shape(self):
        target = GaussianMoments(np.zeros(2), np.eye(2))
        for shape in ((4, 2), (4, 1, 2), (4, 5, 3)):
            with pytest.raises(ValueError, match="stack of iterates"):
                dg.moment_surrogates(np.zeros(shape), target)

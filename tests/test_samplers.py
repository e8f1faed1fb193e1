"""Unit tests for the Langevin chain runners and their exact accounting."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

import vrld
from vrld import diagnostics
from vrld.potentials import make_builtin
from vrld.samplers import (
    _RANKED_MAX_N,
    VARIANTS,
    AnnealSchedule,
    DivergedError,
    SamplerConfig,
    chain_rngs,
    grad_evals_at,
    run_annealed,
    run_chain,
    run_ensemble,
    run_replicates,
    sample_index_set,
)


def quadratic(n=8, d=2, seed=3, **kw):
    return make_builtin("gaussian_quadratic", {"n": n, "d": d, "seed": seed, **kw})


def heterogeneous(n=6, d=2, seed=5):
    scales = np.linspace(0.5, 2.0, max(n, 2))[:n]
    return make_builtin("gaussian_quadratic", {"n": n, "d": d, "seed": seed, "scales": scales})


class TestSteps:
    def test_lmc_contraction_spot_value(self):
        """One lmc step from 1 toward the center 0 lands at 0.9 plus the
        chain's first noise draw scaled by sqrt(2 eta / gamma)."""
        obj = make_builtin("gaussian_quadratic", {"centers": [[0.0]]})
        trace = run_chain(obj, SamplerConfig(variant="lmc", eta=0.1, K=1, seed=4), np.array([1.0]))
        eps = chain_rngs(4)[0].standard_normal(1)
        np.testing.assert_allclose(trace.final_x, 0.9 + math.sqrt(0.2) * eps, rtol=1e-15)

    def test_sgld_singleton_average_is_lmc_step(self):
        """On the same noise, a one-step sgld chain on the subset {i} misses
        the lmc step by eta (grad F - grad f_i); the two misses cancel."""
        obj = make_builtin("gaussian_quadratic", {"centers": [[1.0], [-1.0]]})
        kw = dict(eta=0.1, gamma=1.0, B=1, K=1, seed=0)
        sgld = run_replicates(obj, SamplerConfig(variant="sgld", **kw), np.array([0.4]), 8)
        lmc = run_replicates(obj, SamplerConfig(variant="lmc", **kw), np.array([0.4]), 8)
        misses = {round(float(s.final_x[0] - l.final_x[0]), 12) for s, l in zip(sgld, lmc)}
        assert len(misses) == 2 and abs(sum(misses)) <= 1e-12


class TestIndexSampling:
    def test_full_batch_always_everything(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            np.testing.assert_array_equal(sample_index_set(6, 6, rng), np.arange(6))

    def test_uniform_over_subsets(self):
        """Chi-square over the 6 subsets of size 2 from 4, 60000 draws."""
        rng = np.random.default_rng(123)
        counts = {}
        for _ in range(60000):
            key = tuple(sample_index_set(4, 2, rng))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        observed = np.array(list(counts.values()))
        stat = np.sum((observed - 10000.0) ** 2 / 10000.0)
        assert stat < stats.chi2.ppf(0.999, df=5)

    @pytest.mark.parametrize(("n", "B", "subsets", "each"), [(5, 3, 10, 5000), (_RANKED_MAX_N + 1, 1, _RANKED_MAX_N + 1, 50)])
    def test_uniform_over_subsets_in_a_block(self, n, B, subsets, each):
        """Chi-square over every size-B subset of n, one block of ``each``
        draws a subset, on each side of the ranked draw's size cap."""
        draws = sample_index_set(n, B, np.random.default_rng(321), (each * subsets,))
        keys, observed = np.unique(draws, axis=0, return_counts=True)
        assert len(keys) == subsets and (np.diff(draws, axis=1) > 0).all()
        stat = np.sum((observed - each) ** 2 / each)
        assert stat < stats.chi2.ppf(0.999, df=subsets - 1)

    @pytest.mark.parametrize(("n", "B"), [(10, 1), (10, 4), (10, 10), (_RANKED_MAX_N + 1, 3)])
    def test_block_equals_single_draws(self, n, B):
        """A (c,) block is c one-subset calls bit for bit, and leaves the
        stream where they leave it, on each side of the ranked draw's size cap."""
        block_rng, single_rng = chain_rngs(5)[1], chain_rngs(5)[1]
        block = sample_index_set(n, B, block_rng, (37,))
        single = np.array([sample_index_set(n, B, single_rng) for _ in range(37)])
        assert block.shape == (37, B) and block.dtype == single.dtype
        assert block.tobytes() == single.tobytes()
        assert block_rng.random() == single_rng.random()

    def test_full_batch_draws_nothing(self):
        rng = chain_rngs(5)[1]
        np.testing.assert_array_equal(sample_index_set(6, 6, rng, (3,)), np.tile(np.arange(6), (3, 1)))
        sample_index_set(6, 6, rng)
        assert rng.random() == chain_rngs(5)[1].random()

    def test_deterministic_given_seed(self):
        a = [tuple(sample_index_set(10, 3, chain_rngs(99)[1])) for _ in range(1)]
        b = [tuple(sample_index_set(10, 3, chain_rngs(99)[1])) for _ in range(1)]
        assert a == b

    def test_batch_too_large(self):
        with pytest.raises(ValueError):
            sample_index_set(4, 5, np.random.default_rng(0))


class TestDeterminism:
    @pytest.mark.parametrize("variant", ["lmc", "sgld", "svrg_ld", "sarah_ld"])
    def test_same_inputs_same_trace(self, variant):
        obj = heterogeneous()
        cfg = SamplerConfig(variant=variant, eta=0.002, gamma=1.0, B=3, m=3, K=30, seed=7)
        x0 = np.ones(obj.d)
        t1 = run_chain(obj, cfg, x0)
        t2 = run_chain(obj, cfg, x0)
        assert np.array_equal(t1.iterates, t2.iterates)
        assert np.array_equal(t1.grad_evals, t2.grad_evals)

    def test_replicates_use_distinct_streams(self):
        obj = quadratic()
        cfg = SamplerConfig(variant="lmc", eta=0.01, K=10, seed=7)
        t0 = run_chain(obj, cfg, np.zeros(obj.d), replicate=0)
        t1 = run_chain(obj, cfg, np.zeros(obj.d), replicate=1)
        assert not np.array_equal(t0.iterates, t1.iterates)


class TestDegenerateReduction:
    def test_full_batch_single_epoch_matches_lmc_bitwise(self):
        obj = quadratic()
        x0 = np.array([1.5, -0.5])
        kw = dict(eta=0.01, gamma=1.0, B=obj.n, m=1, K=500, seed=11)
        t_lmc = vrld.run_lmc(obj, SamplerConfig(variant="lmc", **kw), x0)
        t_svrg = vrld.run_svrg_ld(obj, SamplerConfig(variant="svrg_ld", **kw), x0)
        t_sarah = vrld.run_sarah_ld(obj, SamplerConfig(variant="sarah_ld", **kw), x0)
        assert np.array_equal(t_lmc.iterates, t_svrg.iterates)
        assert np.array_equal(t_lmc.iterates, t_sarah.iterates)

    def test_full_batch_single_epoch_matches_lmc_bitwise_on_logistic(self):
        """Without a closed-form full gradient, lmc and a B = n minibatch make one oracle call."""
        rng = np.random.default_rng(4)
        obj = make_builtin("logistic_l2", {
            "rows": rng.standard_normal((24, 3)), "labels": (rng.random(24) > 0.5).astype(float), "lam": 0.2})
        kw = dict(eta=0.05, gamma=1.0, B=obj.n, m=1, K=300, seed=11)
        t_lmc, *others = [run_chain(obj, SamplerConfig(variant=v, **kw), np.ones(obj.d)) for v in VARIANTS]
        for t in others:
            assert np.array_equal(t_lmc.iterates, t.iterates), t.variant


class TestGradientAccounting:
    def test_epoch_increment_exact(self):
        """Each anchored epoch consumes n + 2 B (m - 1) component gradients."""
        obj = heterogeneous(n=6)
        cfg = SamplerConfig(variant="svrg_ld", eta=0.001, B=4, m=3, K=12, seed=0)
        trace = vrld.run_svrg_ld(obj, cfg, np.zeros(obj.d))
        per_epoch = np.diff(trace.grad_evals[:: cfg.m])
        assert np.all(per_epoch == obj.n + 2 * cfg.B * (cfg.m - 1))

    @pytest.mark.parametrize("variant", ["lmc", "sgld", "svrg_ld", "sarah_ld"])
    def test_counter_matches_trace(self, variant):
        obj = heterogeneous(n=6)
        cfg = SamplerConfig(variant=variant, eta=0.001, B=2, m=2, K=8, seed=4)
        obj.reset_grad_evals()
        trace = run_chain(obj, cfg, np.zeros(obj.d))
        assert obj.grad_evals == trace.total_grad_evals
        assert trace.total_grad_evals == grad_evals_at(variant, cfg.K, obj.n, cfg.B, cfg.m)

    def test_grad_evals_nondecreasing(self):
        obj = quadratic()
        cfg = SamplerConfig(variant="sarah_ld", eta=0.001, B=4, m=4, K=16, seed=1)
        trace = run_chain(obj, cfg, np.zeros(obj.d))
        assert np.all(np.diff(trace.grad_evals) >= 0)


class TestVarianceReducedEstimators:
    def test_anchored_estimator_unbiased_over_subsets(self):
        """The subset average of the anchored estimator is the full gradient
        for every n <= 8 and every batch size."""
        rng = np.random.default_rng(8)
        for n in range(2, 9):
            obj = heterogeneous(n=n, seed=n)
            for B in range(1, n + 1):
                res = diagnostics.svrg_subset_mean(
                    obj, rng.standard_normal(obj.d), rng.standard_normal(obj.d), B
                )
                assert res["gap"] <= 1e-12 * (1 + np.linalg.norm(res["target"]))

    def test_recursive_increment_is_martingale(self):
        obj = heterogeneous(n=6)
        rng = np.random.default_rng(9)
        for B in (1, 2, 3):
            res = diagnostics.sarah_increment_mean(
                obj, rng.standard_normal(obj.d), rng.standard_normal(obj.d), B
            )
            assert res["gap"] <= 1e-12 * (1 + np.linalg.norm(res["target"]))

    def test_anchored_estimator_exact_at_anchor(self):
        """With x at the anchor the correction vanishes for any subset."""
        obj = heterogeneous(n=6)
        rng = np.random.default_rng(10)
        anchor = rng.standard_normal(obj.d)
        full = obj.gradient(anchor)
        for B in (1, 3, 6):
            idx = sample_index_set(obj.n, B, rng)
            v = obj.minibatch_gradient(anchor, idx) - obj.minibatch_gradient(anchor, idx) + full
            np.testing.assert_allclose(v, full, rtol=1e-15)


class TestDivergence:
    def test_oversized_step_aborts_with_prefix(self):
        obj = quadratic()
        cfg = SamplerConfig(variant="lmc", eta=1e8, gamma=1.0, K=2000, seed=0)
        trace = vrld.run_lmc(obj, cfg, np.array([1.0, 1.0]))
        assert trace.diverged
        assert trace.diverged_step is not None
        assert trace.steps[-1] <= trace.diverged_step

    def test_ensemble_divergence_raises_with_step(self):
        obj = quadratic()
        with pytest.raises(vrld.samplers.DivergedError):
            run_ensemble(obj, "lmc", 4, 2000, eta=1e8, gamma=1.0, seed=0,
                         x0=np.ones(obj.d), checkpoints=[2000])

    # From x0 = 30 with eta = 0.9 the quartic's gradient first overflows at
    # iterate 4, whatever the estimator: the components are identical.
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_chain_reports_the_exact_step_for_any_stride(self, variant):
        obj = make_builtin("double_well", {"a": 1.0, "n_copies": 8})
        kw = dict(variant=variant, eta=0.9, B=4, m=4, K=400, seed=0)
        dense = run_chain(obj, SamplerConfig(**kw), np.array([30.0]))
        for store_every in (1, 10):
            t = run_chain(obj, SamplerConfig(store_every=store_every, **kw), np.array([30.0]))
            assert t.diverged and t.diverged_step == 4
            assert np.all(np.isfinite(t.final_x))
            np.testing.assert_array_equal(t.final_x, dense.iterates[4])

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_ensemble_reports_the_chain_step(self, variant):
        obj = make_builtin("double_well", {"a": 1.0, "n_copies": 8})
        with pytest.raises(DivergedError) as info:
            run_ensemble(obj, variant, 4, 400, eta=0.9, gamma=1.0, B=4, m=4, x0=np.array([30.0]))
        assert info.value.step == 4


class TestNoInputIgnored:
    @pytest.mark.parametrize("variant", ["lmc", "sgld"])
    def test_ensemble_schedule_needs_an_epoch_variant(self, variant):
        sched = AnnealSchedule(eta_bar=0.01, gamma_bar=1.0, sigma=3.0, mu=13.0, g=math.e)
        with pytest.raises(ValueError, match="svrg_ld and sarah_ld"):
            run_ensemble(quadratic(n=16), variant, 8, 40, B=4, sched=sched)

    @pytest.mark.parametrize("B", [0, -3, 9])
    def test_ensemble_batch_out_of_range(self, B):
        with pytest.raises(ValueError, match="1 <= B"):
            run_ensemble(quadratic(n=8), "svrg_ld", 4, 8, eta=0.01, gamma=1.0, B=B, m=4)

    @pytest.mark.parametrize("runner", [vrld.run_lmc, vrld.run_sgld, vrld.run_svrg_ld, vrld.run_sarah_ld])
    def test_runner_rejects_another_variant(self, runner):
        own = runner.__name__.removeprefix("run_")
        for other in VARIANTS:
            if other != own:
                with pytest.raises(ValueError, match="is not"):
                    runner(quadratic(), SamplerConfig(variant=other, eta=0.01, B=2, m=2, K=4), np.zeros(2))


class TestConfigValidation:
    def test_partial_epochs_rejected(self):
        obj = quadratic()
        cfg = SamplerConfig(variant="svrg_ld", eta=0.001, B=4, m=3, K=10, seed=0)
        with pytest.raises(ValueError, match="partial epochs"):
            vrld.run_svrg_ld(obj, cfg, np.zeros(obj.d))

    def test_gamma_below_one_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            SamplerConfig(variant="lmc", eta=0.1, gamma=0.5, K=5).validate(4)

    def test_batch_bounds(self):
        with pytest.raises(ValueError, match="batch"):
            SamplerConfig(variant="sgld", eta=0.1, B=9, K=5).validate(8)


class TestThinning:
    def test_stride_keeps_final_state(self):
        obj = quadratic()
        cfg = SamplerConfig(variant="lmc", eta=0.01, K=103, seed=2, store_every=10)
        trace = vrld.run_lmc(obj, cfg, np.zeros(obj.d))
        assert trace.steps[0] == 0
        assert trace.steps[-1] == 103
        assert np.array_equal(trace.iterates[-1], trace.final_x)
        full = vrld.run_lmc(obj, SamplerConfig(variant="lmc", eta=0.01, K=103, seed=2), np.zeros(obj.d))
        np.testing.assert_array_equal(full.iterates[trace.steps], trace.iterates)


class TestAnnealedRunner:
    def setup_method(self):
        self.sched = AnnealSchedule(eta_bar=0.01, gamma_bar=1.0, sigma=3.0, mu=13.0, g=math.e)

    def test_schedule_spot_values(self):
        assert self.sched.eta(0) == pytest.approx(0.01 * 3 ** (-1 / 13), rel=1e-14)
        assert self.sched.gamma(0) == pytest.approx(1 + math.log(3) / 13, rel=1e-14)

    def test_monotone_schedules(self):
        etas = [self.sched.eta(s) for s in range(100)]
        gammas = [self.sched.gamma(s) for s in range(100)]
        assert all(a > b for a, b in zip(etas, etas[1:]))
        assert all(a < b for a, b in zip(gammas, gammas[1:]))

    def test_single_epoch_matches_constant_parameter_run(self):
        """For one epoch the annealed chain is the constant-(eta_0, gamma_0) chain."""
        obj = quadratic()
        x0 = np.ones(obj.d)
        t_ann = run_annealed(obj, "svrg_ld", self.sched, B=4, m=4, K=4, seed=3, x0=x0)
        cfg = SamplerConfig(
            variant="svrg_ld", eta=self.sched.eta(0), gamma=self.sched.gamma(0),
            B=4, m=4, K=4, seed=3,
        )
        t_const = vrld.run_svrg_ld(obj, cfg, x0)
        np.testing.assert_array_equal(t_ann.iterates, t_const.iterates)

    def test_trace_records_schedule_values(self):
        obj = quadratic()
        t = run_annealed(obj, "sarah_ld", self.sched, B=4, m=2, K=6, seed=3, x0=np.zeros(obj.d))
        # stored steps after 0 belong to epochs 0, 0, 1, 1, 2, 2
        np.testing.assert_allclose(
            t.etas[1:], [self.sched.eta(s) for s in (0, 0, 1, 1, 2, 2)], rtol=1e-15
        )
        np.testing.assert_allclose(
            t.gammas[1:], [self.sched.gamma(s) for s in (0, 0, 1, 1, 2, 2)], rtol=1e-15
        )

    def test_schedule_parameter_validation(self):
        with pytest.raises(ValueError, match="mu"):
            AnnealSchedule(eta_bar=0.01, gamma_bar=1.0, sigma=3.0, mu=3.0, g=math.e)
        with pytest.raises(ValueError, match="g >= e"):
            AnnealSchedule(eta_bar=0.01, gamma_bar=1.0, sigma=3.0, mu=13.0, g=2.0)
        with pytest.raises(ValueError, match="sigma"):
            AnnealSchedule(eta_bar=0.01, gamma_bar=1.0, sigma=2.0, mu=13.0, g=math.e)


class TestEnsemble:
    def test_matches_single_chain_law(self):
        """Ensemble mean/cov at a checkpoint agrees with the exact oracle."""
        obj = quadratic(zero_mean=True)
        res = run_ensemble(
            obj, "lmc", 20000, 60, eta=0.05, gamma=2.0, seed=6,
            x0=np.array([1.0, 1.0]), checkpoints=[10, 60],
        )
        orc = diagnostics.gaussian_moment_oracle_lmc(0.05, 2.0, 10, np.array([1.0, 1.0]), np.zeros((2, 2)))
        X = res.checkpoints[10]
        se = np.sqrt(np.diag(orc.cov) / 20000)
        assert np.all(np.abs(X.mean(axis=0) - orc.mean) <= 4 * se)

    def test_deterministic(self):
        obj = quadratic()
        kw = dict(eta=0.01, gamma=1.0, B=4, m=4, seed=5, checkpoints=[8])
        a = run_ensemble(obj, "svrg_ld", 50, 8, **kw)
        b = run_ensemble(obj, "svrg_ld", 50, 8, **kw)
        assert np.array_equal(a.checkpoints[8], b.checkpoints[8])

    def test_grad_accounting(self):
        obj = quadratic()
        res = run_ensemble(obj, "sarah_ld", 10, 12, eta=0.001, gamma=1.0, B=4, m=4,
                           seed=1, checkpoints=[12])
        assert res.grad_evals[12] == grad_evals_at("sarah_ld", 12, obj.n, 4, 4)


# -- reference transcription ------------------------------------------------------
#
# Plain per-variant updates, the reference the runners are held to bitwise.
# Single chains draw one noise vector per step from stream 0 of chain_rngs and,
# where the estimator needs one, one subset from stream 1; ensembles draw from
# chain_rngs(seed) in blocks of whole epochs, bounded to a few MB, with each
# chain's subset the B smallest of n iid uniforms.


def reference_chain(obj, variant, x0, K, m, B, seed, schedule, store_every, replicate):
    noise_rng, index_rng = chain_rngs(seed, replicate)
    if variant in ("lmc", "sgld"):
        m = 1
    x = np.array(x0, dtype=float)
    stored = [(0, x, 0, math.nan, math.nan)]
    count = 0
    for k in range(K):
        eta, gamma = schedule(k // m)
        eps = noise_rng.standard_normal(obj.d)
        if variant == "lmc":
            v = obj.gradient(x)
            count += obj.n
        elif variant == "sgld":
            v = obj.minibatch_gradient(x, sample_index_set(obj.n, B, index_rng))
            count += B
        elif k % m == 0:
            v = anchor_v = obj.gradient(x)
            anchor = x
            count += obj.n
        else:
            idx = sample_index_set(obj.n, B, index_rng)
            if variant == "svrg_ld":
                v = obj.minibatch_gradient(x, idx) - obj.minibatch_gradient(anchor, idx) + anchor_v
            else:
                v = obj.minibatch_gradient(x, idx) - obj.minibatch_gradient(x_prev, idx) + v_prev
            count += 2 * B
        x_prev, v_prev = x, v
        x = x - eta * v + math.sqrt(2.0 * eta / gamma) * eps
        if (k + 1) % store_every == 0 or k + 1 == K:
            stored.append((k + 1, x, count, eta, gamma))
    return stored, x, m


def reference_ensemble(obj, variant, R, K, m, B, seed, schedule, X, wanted):
    noise_rng, index_rng = chain_rngs(seed)
    n, d = obj.n, obj.d
    if variant in ("lmc", "sgld"):
        m = 1
    subsets_per_epoch = {"lmc": 0, "sgld": 1}.get(variant, m - 1)
    epochs_per_block = max(1, max(1, 2_000_000 // (R * max(d, n))) // m)
    out = {0: (X, 0)} if 0 in wanted else {}
    count = 0
    for s0 in range(0, K // m, epochs_per_block):
        c = min(epochs_per_block, K // m - s0)
        EPS = noise_rng.standard_normal((c, m, R, d))
        if subsets_per_epoch:
            U = index_rng.random((c, subsets_per_epoch, R, n))
            IDX = np.argpartition(U, B - 1, axis=-1)[..., :B]
        for e in range(c):
            eta, gamma = schedule(s0 + e)
            for l in range(m):
                if variant == "lmc":
                    V = obj.gradient(X)
                    count += n
                elif variant == "sgld":
                    V = obj.minibatch_gradient_rows(X, IDX[e, 0])
                    count += B
                elif l == 0:
                    V = anchor_V = obj.gradient(X)
                    anchor = X
                    count += n
                else:
                    idx = IDX[e, l - 1]
                    ref, ref_V = (anchor, anchor_V) if variant == "svrg_ld" else (X_prev, V_prev)
                    V = obj.minibatch_gradient_rows(X, idx) - obj.minibatch_gradient_rows(ref, idx) + ref_V
                    count += 2 * B
                X_prev, V_prev = X, V
                X = X - eta * V + math.sqrt(2.0 * eta / gamma) * EPS[e, l]
                k = (s0 + e) * m + l + 1
                if k in wanted:
                    out[k] = (X, count)
    return out, X


def assert_bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def logistic(n=12, d=3, seed=4):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, d))
    labels = (rng.random(n) < 0.5).astype(float)
    return make_builtin("logistic_l2", {"rows": rows, "labels": labels, "lam": 0.5})


class TestReferenceEquivalence:
    SCHED = AnnealSchedule(eta_bar=0.02, gamma_bar=1.0, sigma=3.0, mu=13.0, g=math.e)

    def check_trace(self, trace, ref):
        stored, final, m = ref
        assert trace.m == m and not trace.diverged
        assert trace.steps.tolist() == [row[0] for row in stored]
        assert_bitwise(trace.iterates, [row[1] for row in stored])
        assert trace.grad_evals.tolist() == [row[2] for row in stored]
        assert_bitwise(trace.etas, [row[3] for row in stored])
        assert_bitwise(trace.gammas, [row[4] for row in stored])
        assert_bitwise(trace.final_x, final)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_runners_match_reference(self, variant):
        for obj in (logistic(), heterogeneous(n=6)):
            x0 = np.full(obj.d, 0.3)
            for B, m, K in ((3, 3, 42), (obj.n, 1, 30)):
                for store_every in (1, 7):
                    for replicate in (0, 2):
                        cfg = SamplerConfig(variant=variant, eta=0.01, gamma=2.0, B=B, m=m, K=K,
                                            seed=9, store_every=store_every)
                        self.check_trace(
                            run_chain(obj, cfg, x0, replicate=replicate),
                            reference_chain(obj, variant, x0, K, m, B, 9, lambda s: (0.01, 2.0),
                                            store_every, replicate),
                        )
                        if variant in ("svrg_ld", "sarah_ld"):
                            sched = self.SCHED
                            self.check_trace(
                                run_annealed(obj, variant, sched, B, m, K, 11, x0,
                                             store_every=store_every, replicate=replicate),
                                reference_chain(obj, variant, x0, K, m, B, 11,
                                                lambda s: (sched.eta(s), sched.gamma(s)),
                                                store_every, replicate),
                            )
        # n = 64 makes the R = 3000 ensembles span several blocks
        for obj in (logistic(), quadratic(n=64)):
            for R, K, B, m in ((1, 30, 3, 3), (5, 60, obj.n, 1), (3000, 24, 5, 3), (3000, 24, 5, 8)):
                X0 = np.random.default_rng(R).standard_normal((R, obj.d))
                wanted = [0, 7, K]
                scheds = [None, self.SCHED] if variant in ("svrg_ld", "sarah_ld") else [None]
                for sched in scheds:
                    schedule = ((lambda s: (0.01, 2.0)) if sched is None
                                else (lambda s: (sched.eta(s), sched.gamma(s))))
                    res = run_ensemble(obj, variant, R, K, eta=0.01, gamma=2.0, B=B, m=m, seed=3,
                                       x0=X0, checkpoints=wanted, sched=sched)
                    ref, final = reference_ensemble(obj, variant, R, K, m, B, 3, schedule, X0, wanted)
                    assert sorted(res.checkpoints) == sorted(ref) == sorted(res.grad_evals)
                    for k, (X, count) in ref.items():
                        assert_bitwise(res.checkpoints[k], X)
                        assert res.grad_evals[k] == count
                    assert_bitwise(res.final, final)


# -- the replicate engine, for any sizes --------------------------------------------


@st.composite
def engine_sizes(draw):
    variant = draw(st.sampled_from(VARIANTS))
    n = draw(st.integers(1, 8) | st.just(_RANKED_MAX_N + 1))  # subsets ranked, or drawn by rng.choice
    B = draw(st.integers(1, n))
    m = draw(st.integers(1, 4))  # lmc and sgld run without epochs whatever m is
    K = m * draw(st.integers(1, 6))
    return variant, n, B, m, K, draw(st.integers(1, 5)), draw(st.integers(1, 9)), draw(st.integers(0, 2**16))


class TestReplicateEngine:
    @given(engine_sizes(), st.sampled_from(["quadratic", "logistic"]))
    def test_each_replicate_is_its_reference_chain(self, sizes, kind):
        """Replicate r of one (R, d) run equals the reference transcription of
        replicate r bitwise, and the count is exact per step and in total."""
        variant, n, B, m, K, store_every, R, seed = sizes
        obj = heterogeneous(n=n) if kind == "quadratic" else logistic(n=n)
        x0 = np.full(obj.d, 0.3)
        cfg = SamplerConfig(variant=variant, eta=0.01, gamma=2.0, B=B, m=m, K=K, seed=seed,
                            store_every=store_every)
        traces = run_replicates(obj, cfg, x0, R)
        assert obj.grad_evals == sum(t.total_grad_evals for t in traces)
        for r, trace in enumerate(traces):
            TestReferenceEquivalence().check_trace(
                trace, reference_chain(obj, variant, x0, K, m, B, seed, lambda s: (0.01, 2.0), store_every, r))
            assert trace.grad_evals.tolist() == [grad_evals_at(variant, k, n, B, m) for k in trace.steps.tolist()]
        if variant in ("svrg_ld", "sarah_ld"):
            sched = TestReferenceEquivalence.SCHED
            for r, trace in enumerate(run_replicates(obj, cfg, x0, R, sched=sched)):
                TestReferenceEquivalence().check_trace(trace, reference_chain(
                    obj, variant, x0, K, m, B, seed, lambda s: (sched.eta(s), sched.gamma(s)), store_every, r))

    # Replicates that diverge unevenly: the double well's on their own noise,
    # from 2.5 with eta in [0.35, 0.45] at steps from 7 to beyond 60, and the
    # heterogeneous quadratic's on their own subsets, from 1e250 at eta = 6 at
    # steps from 70 to 77.
    @given(st.sampled_from(VARIANTS), st.integers(1, 9), st.integers(0, 2**16),
           st.sampled_from([1, 4]), st.booleans(), st.floats(0.35, 0.45))
    def test_each_replicate_stops_where_it_stops_alone(self, variant, R, seed, store_every, well, eta):
        if well:
            obj, x0 = make_builtin("double_well", {"a": 1.0, "n_copies": 6}), np.array([2.5])
        else:
            obj, x0, eta = heterogeneous(n=6), np.full(2, 1e250), 6.0
        cfg = SamplerConfig(variant=variant, eta=eta, B=2, m=4, K=80, seed=seed, store_every=store_every)
        traces = run_replicates(obj, cfg, x0, R)
        together = obj.grad_evals
        obj.reset_grad_evals()
        for r, trace in enumerate(traces):
            alone = run_chain(obj, cfg, x0, replicate=r)
            assert (trace.diverged, trace.diverged_step) == (alone.diverged, alone.diverged_step)
            assert_bitwise(trace.final_x, alone.final_x)
            assert_bitwise(trace.iterates, alone.iterates)
            assert trace.steps.tolist() == alone.steps.tolist()
        assert together == obj.grad_evals
        # a replicate that stopped at step k evaluated through step k, or k + 1
        # when the estimate at its iterate k was the non-finite one
        count = [[grad_evals_at(variant, t.diverged_step + j if t.diverged else 80, 6, 2, 4) for t in traces]
                 for j in (0, 1)]
        assert sum(count[0]) <= together <= sum(count[1])

    def test_a_replicate_that_stops_mid_block_leaves_the_others_subsets(self):
        """From 1e300, each sgld step scales x by 0.9 or -2 as its one index
        falls, so the replicates overflow at their own steps inside one
        120-step block of subsets, or not at all.  The others still read
        their own rows of the block: each replicate equals its R = 1 run."""
        obj = make_builtin("gaussian_quadratic", {"n": 6, "d": 1, "zero_mean": True, "scales": [0.1] * 4 + [3.0] * 2})
        cfg = SamplerConfig(variant="sgld", eta=1.0, B=1, K=120, seed=0)
        traces = run_replicates(obj, cfg, np.array([1e300]), 6)
        stops = [t.diverged_step for t in traces]
        assert None in stops and len(set(stops)) > 3
        for r, trace in enumerate(traces):
            alone = run_chain(obj, cfg, np.array([1e300]), replicate=r)
            assert trace.diverged_step == alone.diverged_step
            assert_bitwise(trace.iterates, alone.iterates)

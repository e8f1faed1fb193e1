"""Unit tests for the closed-form constants, caps, and bounds."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import vrld.theory as th
from vrld.samplers import AnnealSchedule


class TestVarianceFactor:
    def test_full_batch_is_zero(self):
        for n in (2, 5, 16):
            assert th.minibatch_variance_factor(n, n) == 0.0

    def test_two_components_single_draw(self):
        assert th.minibatch_variance_factor(2, 1) == 1.0

    def test_spot_value(self):
        assert th.minibatch_variance_factor(16, 4) == pytest.approx(0.2, abs=1e-15)

    def test_single_component_convention(self):
        assert th.minibatch_variance_factor(1, 1) == 0.0

    def test_range_check(self):
        with pytest.raises(ValueError):
            th.minibatch_variance_factor(4, 5)

    def test_lies_in_unit_interval(self):
        for n in range(2, 20):
            for B in range(1, n + 1):
                assert 0.0 <= th.minibatch_variance_factor(n, B) <= 1.0

    def test_m_xi_below_one_when_batch_dominates_epoch(self):
        """m * Xi <= 1 whenever B >= m, for every n <= 32."""
        for n in range(2, 33):
            for B in range(1, n + 1):
                for m in range(1, B + 1):
                    assert m * th.minibatch_variance_factor(n, B) <= 1.0 + 1e-15

    def test_upsilon_universal_cap(self):
        for n in range(2, 33):
            for B in range(1, n + 1):
                for m in range(1, B + 1):
                    _, _, upsilon = th.variance_reduction_factors(n, B, m)
                    assert upsilon <= th.UPSILON_UNIVERSAL_CAP + 1e-12


class TestStepCap:
    def test_spot_values(self):
        assert th.step_size_cap("svrg_ld", 1, 1, 4, 1) == pytest.approx(
            1 / (64 * math.sqrt(6)), rel=1e-15
        )
        assert th.step_size_cap("sarah_ld", 1, 1, 4, 1) == pytest.approx(
            1 / (64 * math.sqrt(2)), rel=1e-15
        )

    def test_recursive_cap_is_sqrt3_larger(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            alpha, L, gamma = rng.uniform(0.1, 3, size=3)
            m = rng.integers(1, 20)
            ratio = th.step_size_cap("sarah_ld", alpha, L, m, gamma) / th.step_size_cap(
                "svrg_ld", alpha, L, m, gamma
            )
            assert ratio == pytest.approx(math.sqrt(3), rel=1e-12)

    def test_cap_halves_when_epoch_doubles(self):
        assert th.step_size_cap("svrg_ld", 1, 1, 8, 1) == pytest.approx(
            th.step_size_cap("svrg_ld", 1, 1, 4, 1) / 2, rel=1e-15
        )


class TestKlBound:
    ARGS = dict(H0=2.0, eta=0.001, gamma=1.0, alpha=1.0, d=2, L=1.0, n=16, B=4, m=4)

    def test_upsilon_spot_value(self):
        xi, lam, upsilon = th.variance_reduction_factors(16, 4, 4)
        assert (xi, lam) == (pytest.approx(0.2), pytest.approx(1.4))
        assert upsilon == pytest.approx(4.2, abs=1e-12)

    def test_limit_is_bias_alone(self):
        kb = th.kl_bound("svrg_ld", k=10**9, **self.ARGS)
        assert kb.decay == pytest.approx(0.0, abs=1e-300)
        assert kb.total == pytest.approx(kb.bias)

    def test_bias_linear_in_eta(self):
        a = dict(self.ARGS)
        b1 = th.kl_bound("svrg_ld", k=1, **a).bias
        a["eta"] = 2 * a["eta"]
        b2 = th.kl_bound("svrg_ld", k=1, **a).bias
        assert b2 == pytest.approx(2 * b1, rel=1e-14)

    def test_monotone_in_k_eta_d(self):
        ks = [1, 10, 100, 1000]
        totals = [th.kl_bound("svrg_ld", k=k, **self.ARGS).total for k in ks]
        assert all(a >= b for a, b in zip(totals, totals[1:]))
        a = dict(self.ARGS)
        for field, values in (("eta", [0.0005, 0.001, 0.002]), ("d", [1, 2, 5])):
            biases = []
            for v in values:
                a2 = dict(a)
                a2[field] = v
                biases.append(th.kl_bound("svrg_ld", k=5, **a2).bias)
            assert all(x <= y for x, y in zip(biases, biases[1:]))

    def test_anchored_requires_batch_at_least_epoch(self):
        a = dict(self.ARGS)
        a["B"], a["m"] = 2, 4
        with pytest.raises(th.HypothesisViolation, match="B >= m"):
            th.kl_bound("svrg_ld", k=1, **a)
        th.kl_bound("sarah_ld", k=1, **a)  # recursive variant has no such hypothesis

    def test_step_cap_enforced(self):
        a = dict(self.ARGS)
        a["eta"] = 1.0
        with pytest.raises(th.HypothesisViolation, match="eta"):
            th.kl_bound("svrg_ld", k=1, **a)

    def test_gamma_floor_enforced(self):
        a = dict(self.ARGS)
        a["gamma"] = 0.5
        with pytest.raises(th.HypothesisViolation, match="gamma >= 1"):
            th.kl_bound("svrg_ld", k=1, **a)

    def test_coarse_bias_dominates_tight(self):
        kb = th.kl_bound("svrg_ld", k=1, **self.ARGS)
        assert kb.bias <= th.bias_term_coarse(0.001, 1.0, 2, 1.0, 1.0)

    def test_coarse_bias_is_the_tight_bias_at_the_cap(self):
        """At B = m = 1, Xi = 1 and Upsilon = 7 exactly: the coarse bias is the
        anchored bias itself, bitwise, so rounding cannot put it below."""
        rng = np.random.default_rng(28)
        for _ in range(200):
            eta, gamma, L, alpha = rng.uniform(1e-4, 4.0, 4)
            d, n = int(rng.integers(1, 6)), int(rng.integers(2, 65))
            assert th.bias_term("svrg_ld", eta, gamma, d, L, alpha, n, 1, 1) == th.bias_term_coarse(
                eta, gamma, d, L, alpha)

    def test_recursive_bias_factor(self):
        xi = th.minibatch_variance_factor(16, 4)
        expected = 32 * 0.001 * 1 * 2 * 1 / (3 * 1) * (2 + xi + 2 * 4 * xi)
        assert th.kl_bound("sarah_ld", k=1, **self.ARGS).bias == pytest.approx(expected, rel=1e-14)

    def test_bounds_nonnegative_and_finite_under_preconditions(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            alpha = rng.uniform(0.05, 1.0)
            L = rng.uniform(max(alpha, 0.5), 4.0)
            gamma = rng.uniform(1.0, 5.0)
            n = int(rng.integers(2, 65))
            m = int(rng.integers(1, min(8, n) + 1))
            B = int(rng.integers(m, n + 1))
            d = int(rng.integers(1, 6))
            cap = th.step_size_cap("svrg_ld", alpha, L, m, gamma)
            eta = cap * rng.uniform(0.05, 0.95)
            kb = th.kl_bound("svrg_ld", rng.uniform(0, 10), int(rng.integers(0, 1000)),
                             eta, gamma, alpha, d, L, n, B, m)
            coarse = th.bias_term_coarse(eta, gamma, d, L, alpha)
            for v in (kb.decay, kb.bias, kb.total, coarse):
                assert np.isfinite(v) and v >= 0.0
            assert kb.bias <= coarse

    def test_recommended_eta_coarse_constants(self):
        """B = m = sqrt(n) recommendations: cap vs 448/320-constant branches."""
        got = th.recommended_eta("svrg_ld", 1e9, 1.0, 1.0, 1, 1.0, 16)
        assert got == pytest.approx(1 / (64 * math.sqrt(6)), rel=1e-15)
        got = th.recommended_eta("svrg_ld", 0.01, 1.0, 1.0, 1, 1.0, 16)
        assert got == pytest.approx(3 * 0.01 / 448, rel=1e-15)
        got = th.recommended_eta("sarah_ld", 0.01, 1.0, 1.0, 1, 1.0, 16)
        assert got == pytest.approx(3 * 0.01 / 320, rel=1e-15)


class TestIterationCounts:
    def test_zero_steps_when_eps_twice_h0(self):
        assert th.iterations_for_eps(2.0, 1.0, 1.0, 1.0, 0.01) == 0

    def test_spot_value(self):
        assert th.iterations_for_eps(0.1, 1.0, 1.0, 1.0, 0.001) == 2996

    def test_halving_eps_adds_log_only(self):
        k1 = th.iterations_for_eps(0.1, 1.0, 1.0, 1.0, 0.001)
        k2 = th.iterations_for_eps(0.05, 1.0, 1.0, 1.0, 0.001)
        assert k2 - k1 == pytest.approx(1000 * math.log(2), abs=1)

    def test_eta_for_eps_anchored(self):
        assert th.eta_for_eps("svrg_ld", 0.1, 1.0, 1.0, 2, 1.0) == pytest.approx(
            3 * 0.1 / (448 * 2), rel=1e-15
        )

    def test_eta_for_eps_recursive_needs_shape(self):
        with pytest.raises(ValueError, match="needs n, B, m"):
            th.eta_for_eps("sarah_ld", 0.1, 1.0, 1.0, 2, 1.0)

    def test_gradient_complexity(self):
        assert th.gradient_complexity(8, 4, 4, 16) == 80
        assert th.gradient_complexity(10, 16, 1, 16) == 160  # m=1, B=n: k*n
        with pytest.raises(ValueError, match="divide"):
            th.gradient_complexity(10, 4, 3, 16)


class TestTalagrand:
    def test_zero_kl_zero_distance(self):
        assert th.talagrand_w2_bound(0.0, 1.0) == 0.0

    def test_spot_value(self):
        assert th.talagrand_w2_bound(1.0, 2.0) == 1.0


class TestLsiDissipative:
    def test_c2_spot_value(self):
        res = th.lsi_constant_dissipative(2.0, 1.0, 1.0, 1.0, 1, 0.0, 0.0, 1.0)
        assert res.C2 == pytest.approx(4.0, abs=1e-15)

    def test_gamma_floor(self):
        with pytest.raises(th.HypothesisViolation, match="2/M"):
            th.lsi_constant_dissipative(1.0, 1.0, 1.0, 1.0, 1, 0.0, 0.0)

    def test_log_alpha_affine_in_gamma(self):
        """log(alpha / gamma) = log C1 - C2 gamma, affine with slope -C2."""
        gammas = np.linspace(2.0, 12.0, 11)
        logs = []
        for g in gammas:
            res = th.lsi_constant_dissipative(g, 1.0, 1.0, 0.5, 2, 0.3, 0.2, 1.0)
            logs.append(res.log_alpha - math.log(g))
        res = th.lsi_constant_dissipative(2.0, 1.0, 1.0, 0.5, 2, 0.3, 0.2, 1.0)
        slopes = np.diff(logs) / np.diff(gammas)
        np.testing.assert_allclose(slopes, -res.C2, atol=1e-10)

    def test_underflow_returns_log_value(self):
        res = th.lsi_constant_dissipative(100.0, 26.0, 0.5, 1.0, 1, 0.25, 0.0, 1.0)
        assert res.alpha == 0.0
        assert math.isfinite(res.log_alpha) and res.log_alpha < -700


class TestLsiWeakMorse:
    def test_bracket_spot_value(self):
        res = th.lsi_constant_weak_morse(60000.0, 1.0, 1.0, 1.0, 1, 1.0, 1.0)
        assert res.bracket == pytest.approx(500.0, abs=1e-12)
        assert res.alpha == pytest.approx(1.0 / (500.0 * 60000.0), rel=1e-14)

    def test_gamma_floor_spot_value(self):
        res = th.lsi_constant_weak_morse(60000.0, 1.0, 1.0, 1.0, 1, 1.0, 1.0)
        assert res.gamma_floor == pytest.approx(55296.0, abs=1e-9)

    def test_alpha_gamma_product_constant(self):
        floor = th.lsi_constant_weak_morse(math.inf, 0.5, 1.0, 2.0, 2, 1.0, 0.5).gamma_floor
        products = [
            th.lsi_constant_weak_morse(g, 0.5, 1.0, 2.0, 2, 1.0, 0.5).alpha * g
            for g in (floor, 2 * floor, 5 * floor)
        ]
        assert max(products) - min(products) <= 1e-18 * max(products)

    def test_floor_violation_names_term(self):
        with pytest.raises(th.HypothesisViolation, match="binding term"):
            th.lsi_constant_weak_morse(10.0, 1.0, 1.0, 1.0, 1, 1.0, 1.0)

    def test_lambda_dagger_outside_unit_interval_rejected(self):
        with pytest.raises(th.HypothesisViolation, match="lambda_dagger"):
            th.lsi_constant_weak_morse(60000.0, 1.5, 1.0, 1.0, 1, 1.0, 1.0)


class TestOptimizationMode:
    def test_gamma_spot_value(self):
        assert th.inverse_temperature_for_accuracy(0.5, 1, 1.0, 1.0, 0.25) == pytest.approx(
            16.0, abs=1e-12
        )

    def test_gamma_scaling_in_eps(self):
        g1 = th.inverse_temperature_for_accuracy(0.1, 1, 1.0, 1.0, 10.0)
        g2 = th.inverse_temperature_for_accuracy(0.05, 1, 1.0, 1.0, 10.0)
        assert g2 == pytest.approx(4 * g1, rel=1e-12)  # b-term dominant regime

    def test_gamma_floor_terms(self):
        assert th.inverse_temperature_for_accuracy(100.0, 1, 2.0, 2.0, 1e-9) >= 1.0

    def test_gibbs_bound_spot_value(self):
        bound = th.gibbs_suboptimality_bound(8.0, 1, 1.0, 1.0, 0.25)
        assert bound == pytest.approx((1 + math.log(3)) / 16, rel=1e-14)

    def test_gibbs_bound_vanishes_at_large_gamma(self):
        assert th.gibbs_suboptimality_bound(1e12, 1, 1.0, 1.0, 0.25) < 1e-9

    def test_published_constant_fails_its_own_target(self):
        """The published floor 8 d b / eps^2 does NOT force the Gibbs bound
        under eps/4 (counterexample eps=0.5, d=1, L=M=1, b=1/4: gamma = 8 and
        the bound is (1+ln 3)/16 = 0.1312 > 0.125).  The library's recipe uses
        16 d b / eps^2, which does: (4d/eps) log(eL/M) caps the log(eL/M) part
        at eps/8, and log(1+x) <= sqrt(x) caps the rest at sqrt(db/gamma)/2 <= eps/8."""

        def published(eps, d, L, M, b):
            return max(4 * d / eps * math.log(math.e * L / M), 8 * d * b / eps**2, 1.0, 2.0 / M)

        eps = 0.5
        gamma = published(eps, 1, 1.0, 1.0, 0.25)
        assert gamma == 8.0
        assert th.gibbs_suboptimality_bound(gamma, 1, 1.0, 1.0, 0.25) > eps / 4

        rng = np.random.default_rng(0)
        for _ in range(200):
            eps = rng.uniform(0.05, 2.0)
            d = int(rng.integers(1, 6))
            M = rng.uniform(0.2, 2.0)
            L = M * rng.uniform(1.0, 10.0)
            b = rng.uniform(0.01, 5.0)
            gamma_fixed = max(
                4 * d / eps * math.log(math.e * L / M),
                16 * d * b / eps**2,
                1.0,
                2.0 / M,
            )
            gamma = th.inverse_temperature_for_accuracy(eps, d, L, M, b)
            assert gamma == pytest.approx(gamma_fixed, rel=1e-15)
            assert th.gibbs_suboptimality_bound(gamma, d, L, M, b) <= eps / 4 + 1e-12

    def test_suboptimality_decomposition(self):
        val = th.suboptimality_decomposition(0.1, 1.0, 8.0, 1, 1.0, 0.25)
        assert val == pytest.approx(0.01 + 2 * (1 + math.log(3)) / 16, rel=1e-12)

    def test_kl_target(self):
        assert th.kl_target_for_suboptimality(2.0, 0.5, 4.0) == pytest.approx(1 / 16)

    def test_optimization_step_size_spot_value(self):
        eta = th.optimization_step_size(1.0, 1.0, 16, 1.0, 1, 1.0)
        assert eta == pytest.approx(3 / 1792, rel=1e-15)

    def test_optimization_step_size_sqrt_n_branch(self):
        e16 = th.optimization_step_size(1.0, 1.0, 16, 1.0, 1, 1e9)
        e64 = th.optimization_step_size(1.0, 1.0, 64, 1.0, 1, 1e9)
        assert e16 / e64 == pytest.approx(2.0, rel=1e-12)


class TestAnnealingConstants:
    def test_floor_defaults_to_three(self):
        assert th.anneal_sigma_floor(1.0, math.e, 2.0, 13.0, 10.0, 10.0) == 3.0

    def test_floor_spot_value(self):
        sigma = th.anneal_sigma_floor(1.0, math.e, 0.01, 13.0, 1.0, 1.0)
        t2 = (8 * math.e**2 / 0.01) ** (13 / 10)
        t3 = (2 / (13 * 1e-4)) ** (13 / 11)
        assert sigma == pytest.approx(max(3.0, t2, t3), rel=1e-14)

    def test_validator_passes_at_floor(self):
        sigma = th.anneal_sigma_floor(1.0, math.e, 0.01, 13.0, 1.0, 1.0)
        sched = AnnealSchedule(eta_bar=0.01, gamma_bar=1.0, sigma=sigma, mu=13.0, g=math.e)
        report = th.anneal_validate(sched, 1.0, 1.0, epochs=101)
        assert report.ok and report.first_violation is None
        assert report.max_eta2L2 <= 0.25

    def test_validator_reports_first_violation(self):
        sched = AnnealSchedule(eta_bar=0.9, gamma_bar=1.0, sigma=3.0, mu=13.0, g=math.e)
        report = th.anneal_validate(sched, 40.0, 1.0, epochs=20)
        assert not report.ok
        assert report.first_violation == 0

    def test_chi_constant_positive_and_dominates_gamma_one(self):
        chi = th.chi_constant(1, 1.0, 1.0, 0.25)
        at_one = 1.0 * math.log(math.e * (0.25 + 1.0))
        assert chi >= at_one - 1e-9


class TestCheckHypotheses:
    BASE = dict(variant="svrg_ld", eta=0.001, gamma=1.0, alpha=1.0, L=1.0, B=4, m=4)

    def check(self, **changes):
        return th.check_hypotheses(**{**self.BASE, **changes})

    def test_clean_inputs_give_nothing(self):
        assert self.check() == []

    def test_alpha_above_gamma_L_is_a_violation(self):
        found = self.check(alpha=3.0, gamma=2.0, eta=1e-6)
        assert [f.kind for f in found] == ["violation"] and "alpha <= gamma*L" in found[0].message

    def test_small_L_is_a_note(self):
        found = self.check(L=0.5, alpha=0.1)
        assert [f.kind for f in found] == ["note"] and "L=0.5 < 1" in found[0].message

    def test_each_inequality_is_named_once(self):
        found = self.check(gamma=0.5, B=2, eta=1.0, M=0.5)
        assert [f.kind for f in found] == ["violation"] * 5
        for needle, f in zip(("gamma >= 1", "B >= m", "step cap", "alpha <= gamma*L", "gamma >= 2/M"), found):
            assert needle in f.message

    def test_schedule_names_the_epoch_and_the_inequality(self):
        sched = AnnealSchedule(eta_bar=5.0, gamma_bar=1.0, sigma=3.0, mu=4.0, g=math.e)
        found = self.check(sched=sched, epochs=100)
        assert found[0].kind == "violation"
        assert "eta_s^2 L^2 <= 1/4 at epoch 0" in found[0].message
        assert any(f.kind == "note" and "14.43" in f.message for f in found)

    @pytest.mark.parametrize("L, L_box, reason", [(None, None, "none is declared"),
                                                  (11.0, 2.0, "L holds only on the box |x_j| <= 2.0")])
    def test_schedule_without_a_smoothness_bound_is_a_note(self, L, L_box, reason):
        sched = AnnealSchedule(eta_bar=5.0, gamma_bar=1.0, sigma=3.0, mu=4.0, g=math.e)
        found = self.check(sched=sched, epochs=100, L=L, L_box=L_box)
        assert [f.kind for f in found] == ["note"] and "not checked" in found[0].message
        assert found[0].message.endswith(reason)

    def test_box_restricted_L_leaves_the_step_cap_unchecked(self):
        """An L that holds only on a box bounds nothing beyond it: the step cap and
        alpha <= gamma L it would set are a note, as an unchecked schedule is."""
        found = self.check(eta=1.0, alpha=30.0, L=11.0, L_box=2.0)
        assert [f.kind for f in found] == ["note"]
        assert found[0].message == ("the step cap and alpha <= gamma*L are not checked: "
                                    "L holds only on the box |x_j| <= 2.0")
        assert [f.kind for f in self.check(gamma=0.5, L=11.0, L_box=2.0)] == ["violation", "note"]

    @pytest.mark.parametrize("M", [0.5, 0.3, 1.7])
    def test_gamma_at_2_over_M_is_the_edge(self, M):
        """gamma >= 2/M holds with equality at gamma = 2/M, and fails one float below."""
        edge = 2.0 / M
        assert self.check(gamma=edge, alpha=1e-3, eta=1e-9, M=M) == []
        [found] = self.check(gamma=math.nextafter(edge, 0.0), alpha=1e-3, eta=1e-9, M=M)
        assert found.kind == "violation" and found.message.startswith("gamma >= 2/M violated")

    @given(st.sampled_from(["svrg_ld", "sarah_ld"]), st.floats(-12.0, -1.0), st.floats(0.5, 4.0),
           st.floats(0.01, 8.0), st.floats(0.3, 4.0), st.integers(1, 64), st.data())
    def test_no_violation_exactly_when_kl_bound_holds(self, variant, log_eta, gamma, alpha, L, n, data):
        B = data.draw(st.integers(1, n))
        m = data.draw(st.integers(1, 16))
        eta = math.exp(log_eta)
        clean = not any(f.kind == "violation" for f in th.check_hypotheses(variant, eta, gamma, alpha, L, B, m))
        try:
            th.kl_bound(variant, 1.0, 10, eta, gamma, alpha, 2, L, n, B, m)
            holds = True
        except th.HypothesisViolation:
            holds = False
        assert clean == holds

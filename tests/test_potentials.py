"""Unit tests for the finite-sum potentials and their regularity metadata."""

import re

import numpy as np
import pytest

from vrld import potentials
from vrld.potentials import (
    BUILTIN_NAMES,
    FiniteSumObjective,
    GaussianMoments,
    make_builtin,
)


def builtin_zoo():
    rng = np.random.default_rng(7)
    rows = rng.standard_normal((6, 3))
    labels = (rng.random(6) > 0.5).astype(float)
    return [
        make_builtin("gaussian_quadratic", {"n": 5, "d": 2, "seed": 1}),
        make_builtin("gaussian_quadratic", {"n": 4, "d": 2, "seed": 2, "scales": [0.5, 1.0, 1.5, 2.0]}),
        make_builtin("double_well", {"a": 1.0}),
        make_builtin("double_well", {"a": 1.0, "d": 2, "n_copies": 3}),
        make_builtin("gaussian_mixture", {"mu": [1.2, -0.3], "sigma": 1.0}),
        make_builtin("logistic_l2", {"rows": rows, "labels": labels, "lam": 0.25}),
    ]


def fd_gradient(obj, x, h=1e-5):
    g = np.empty(obj.d)
    for j in range(obj.d):
        e = np.zeros(obj.d)
        e[j] = h
        g[j] = (obj.value(x + e) - obj.value(x - e)) / (2 * h)
    return g


class TestMeanOfComponents:
    def test_full_gradient_is_component_mean(self):
        """Full gradient equals the arithmetic mean of component gradients."""
        rng = np.random.default_rng(42)
        for obj in builtin_zoo():
            for _ in range(100):
                x = rng.standard_normal(obj.d)
                full = obj.gradient(x)
                mean = sum(obj.component_gradient(i, x) for i in range(obj.n)) / obj.n
                gap = np.linalg.norm(full - mean)
                assert gap <= 1e-12 * (1.0 + np.linalg.norm(full)), obj.name

    def test_finite_difference_matches_gradient(self):
        rng = np.random.default_rng(3)
        for obj in builtin_zoo():
            for _ in range(10):
                x = rng.standard_normal(obj.d)
                g = obj.gradient(x)
                fd = fd_gradient(obj, x)
                assert np.linalg.norm(fd - g) <= 1e-6 * (1.0 + np.linalg.norm(g)), obj.name

    def test_minimizer_consistency(self):
        for obj in builtin_zoo():
            if obj.x_star is not None:
                assert np.linalg.norm(obj.gradient(obj.x_star)) <= 1e-8, obj.name


class TestFullGradientExamples:
    def test_symmetric_centers_cancel_at_origin(self):
        obj = make_builtin("gaussian_quadratic", {"centers": [[1.0], [-1.0]]})
        np.testing.assert_allclose(obj.gradient(np.zeros(1)), [0.0], atol=1e-15)

    def test_quadratic_gradient_away_from_center_mean(self):
        obj = make_builtin("gaussian_quadratic", {"centers": [[1.0], [-1.0]]})
        np.testing.assert_allclose(obj.gradient(np.array([2.0])), [2.0], rtol=1e-15)

    def test_double_well_stationary_at_minimum(self):
        obj = make_builtin("double_well", {"a": 1.0, "n_copies": 4})
        np.testing.assert_allclose(obj.gradient(np.array([1.0])), [0.0], atol=1e-15)


class TestMinibatchGradient:
    def setup_method(self):
        self.obj = make_builtin("gaussian_quadratic", {"centers": [[1.0], [-1.0]]})

    def test_full_index_set_equals_full_gradient(self):
        x = np.array([0.37])
        np.testing.assert_allclose(
            self.obj.minibatch_gradient(x, [0, 1]), self.obj.gradient(x), rtol=1e-15
        )

    def test_single_component(self):
        np.testing.assert_allclose(
            self.obj.minibatch_gradient(np.zeros(1), [0]), [-1.0], rtol=1e-15
        )

    def test_singleton_average_recovers_full_gradient(self):
        x = np.array([0.8])
        avg = 0.5 * (
            self.obj.minibatch_gradient(x, [0]) + self.obj.minibatch_gradient(x, [1])
        )
        np.testing.assert_allclose(avg, self.obj.gradient(x), rtol=1e-14)

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError, match="duplicates"):
            self.obj.minibatch_gradient(np.zeros(1), [0, 0])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            self.obj.minibatch_gradient(np.zeros(1), [0, 5])

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            self.obj.minibatch_gradient(np.zeros(1), [-1, 0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            self.obj.minibatch_gradient(np.zeros(1), [])

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError, match="1-d"):
            self.obj.minibatch_gradient(np.zeros(1), [[0], [1]])


class TestVectorisedOracle:
    """The closed-form and vectorised evaluators against the component loop."""

    @pytest.mark.parametrize("k", range(len(builtin_zoo())))
    @pytest.mark.parametrize("R", [None, 5])
    def test_gradient_and_value_are_component_sums(self, k, R):
        obj = builtin_zoo()[k]
        rng = np.random.default_rng(17 + k)
        x = rng.standard_normal(obj.d if R is None else (R, obj.d))
        grad = sum(obj.component_gradient(i, x) for i in range(obj.n)) / obj.n
        value = sum(obj.component_value(i, x) for i in range(obj.n)) / obj.n
        g, v = obj.gradient(x), obj.value(x)
        assert g.shape == x.shape and np.shape(v) == x.shape[:-1], obj.name
        gap = np.linalg.norm(g - grad, axis=-1)
        assert np.all(gap <= 1e-12 * np.linalg.norm(grad, axis=-1)), obj.name
        assert np.all(np.abs(v - value) <= 1e-12 * np.abs(value)), obj.name

    @pytest.mark.parametrize("k", range(len(builtin_zoo())))
    def test_blocked_value_equals_row_by_row(self, k, monkeypatch):
        obj = builtin_zoo()[k]
        monkeypatch.setattr(potentials, "_BLOCK_VALUES", 7 * obj.n * obj.d)
        blocks = []
        value_fn = obj._value_fn
        monkeypatch.setattr(obj, "_value_fn", lambda x: blocks.append(len(x)) or value_fn(x))
        trace = np.random.default_rng(k).standard_normal((40, 3, obj.d))
        blocked = obj.value(trace)
        assert blocks == [7] * 17 + [1], obj.name
        rows = np.array([[obj.value(x) for x in step] for step in trace])
        assert blocked.shape == (40, 3) and np.array_equal(blocked, rows), obj.name
        assert np.array_equal(blocked, value_fn(trace)), obj.name


    def test_blocked_full_gradient_equals_row_by_row(self, monkeypatch):
        """Without a closed-form gradient the row kernel runs over all n
        components in blocks of rows, which join bitwise."""
        obj = builtin_zoo()[-1]
        monkeypatch.setattr(potentials, "_BLOCK_VALUES", 7 * obj.n * obj.d)
        blocks = []
        rows_kernel = obj.rows_kernel
        monkeypatch.setattr(obj, "rows_kernel", lambda X, IDX: blocks.append(len(X)) or rows_kernel(X, IDX))
        trace = np.random.default_rng(5).standard_normal((40, 3, obj.d))
        blocked = obj.gradient(trace)
        assert blocks == [7] * 17 + [1]
        rows = np.array([[obj.gradient(x) for x in step] for step in trace])
        assert blocked.shape == trace.shape and np.array_equal(blocked, rows)


def pair_zoo():
    """Every built-in, the quadratic with unequal scales in d = 3, and an
    objective with no row kernel, whose rows run through the component loop."""
    rng = np.random.default_rng(11)
    rows = rng.standard_normal((7, 3))
    labels = (rng.random(7) > 0.5).astype(float)
    centers = rng.standard_normal((5, 2))
    return [
        make_builtin("gaussian_quadratic", {"n": 6, "d": 3, "seed": 4, "scales": np.linspace(0.5, 2.0, 6)}),
        make_builtin("logistic_l2", {"rows": rows, "labels": labels, "lam": 0.25}),
        make_builtin("double_well", {"a": 1.0, "n_copies": 4}),
        make_builtin("double_well", {"a": 1.0, "d": 2, "n_copies": 4}),
        make_builtin("gaussian_mixture", {"mu": [1.2, -0.3], "n_copies": 4}),
        FiniteSumObjective(
            "loop", 5, 2,
            component_value=lambda i, x: 0.5 * np.sum((x - centers[i]) ** 2, axis=-1),
            component_grad=lambda i, x: x - centers[i],
        ),
    ]


class TestPairContract:
    """A row kernel takes X shaped (..., R, d) against (R, B) index rows: the
    (x, anchor) pair of a control-variate step is one call over one gather."""

    R, B = 4, 3

    def pair(self, obj):
        rng = np.random.default_rng(obj.n)
        X, ref = rng.standard_normal((2, self.R, obj.d))
        idx = np.array([np.sort(rng.choice(obj.n, self.B, replace=False)) for _ in range(self.R)])
        return X, ref, idx

    @pytest.mark.parametrize("k", range(len(pair_zoo())))
    def test_pair_equals_the_stacked_rows(self, k):
        obj = pair_zoo()[k]
        X, ref, idx = self.pair(obj)
        pair = obj.rows_kernel(np.array((X, ref)), idx)
        stacked = obj.rows_kernel(np.concatenate((X, ref)), np.concatenate((idx, idx)))
        assert pair.shape == (2, self.R, obj.d), obj.name
        assert np.array_equal(pair.reshape(stacked.shape), stacked), obj.name

    @pytest.mark.parametrize("k", range(len(pair_zoo())))
    def test_counted_pair_counts_every_row(self, k):
        obj = pair_zoo()[k]
        X, ref, idx = self.pair(obj)
        obj.reset_grad_evals()
        G = obj.minibatch_gradient_rows(np.array((X, ref)), idx)
        assert obj.grad_evals == 2 * self.R * self.B, obj.name
        assert np.array_equal(G, obj.rows_kernel(np.array((X, ref)), idx)), obj.name


class TestRowKernelsBitwise:
    """The row kernels equal the plain expressions they replace, bit for bit:
    the quadratic's curvature-weighted gather (exactly X minus the centre mean
    when every s_i is 1) and the logistic kernel's ``.mean`` over the batch,
    for index rows in C order, as ``idx[live]`` and the row sort give them,
    and column-major, as the network draw returns them."""

    n, R = 20, 6

    def draw(self, d, B, stacked):
        rng = np.random.default_rng(100 * d + B)
        X = rng.standard_normal((2, self.R, d) if stacked else (self.R, d))
        IDX = np.array([np.sort(rng.choice(self.n, B, replace=False)) for _ in range(self.R)])
        return X, IDX

    @staticmethod
    def layouts(IDX):
        return IDX, np.moveaxis(np.ascontiguousarray(IDX.T), 0, -1)

    @pytest.mark.parametrize("scales", ["default", "ones", "unequal"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("B", [1, 7, 8, 9, 16, 17, 127, 128, 129, 200])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_quadratic_kernel(self, scales, d, B, stacked):
        """At every B where numpy's pairwise sum changes its course, and with
        rows that gather only -0.0 (against an X of -0.0, so a zero's sign
        shows), a +inf, a +inf and a -inf, and a nan, beside random rows."""
        n, rng = 450, np.random.default_rng(100 * d + B)
        centers = rng.standard_normal((n, d))
        centers[:200] = -0.0
        centers[200:203, 0] = np.inf, -np.inf, np.nan
        params = {"centers": centers}
        if scales == "ones":
            params["scales"] = np.ones(n)
        elif scales == "unequal":
            params["scales"] = rng.uniform(0.5, 2.0, n)
        with np.errstate(invalid="ignore"):  # the constants of a table that holds inf and nan
            obj = make_builtin("gaussian_quadratic", params)
        s = obj.meta["scales"]
        sc = s[:, None] * obj.meta["centers"]
        finite = np.arange(203, n)
        IDX = np.sort([np.arange(B), np.r_[200, finite[:B - 1]], np.r_[201, 200, finite[:B - 2]][:B],
                       np.r_[202, finite[:B - 1]], *(rng.choice(np.r_[:200, finite], B, replace=False)
                                                     for _ in range(2))])
        X = rng.standard_normal((2, len(IDX), d) if stacked else (len(IDX), d))
        X[..., 0, :] = -0.0
        with np.errstate(invalid="ignore"):
            expected = (np.add.reduce(s[IDX], axis=1) / B)[:, None] * X - np.add.reduce(sc[IDX], axis=1) / B
            for rows in self.layouts(IDX):
                got = obj.rows_kernel(X, rows)
                assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("B", [1, 7, 8, 16])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_logistic_kernel(self, d, B, stacked):
        rng = np.random.default_rng(d)
        rows = rng.standard_normal((self.n, d))
        labels = (rng.random(self.n) > 0.5).astype(float)
        lam = 0.3
        obj = make_builtin("logistic_l2", {"rows": rows, "labels": labels, "lam": lam})
        y = np.where(labels > 0.5, 1.0, -1.0)
        X, IDX = self.draw(d, B, stacked)
        A, yb = rows[IDX], y[IDX]
        sig = 1.0 / (1.0 + np.exp(np.einsum("rbd,...rd->...rb", A, X) * yb))
        expected = -((sig * yb)[..., None] * A).mean(axis=-2) + lam * X
        for rows in self.layouts(IDX):
            got = obj.rows_kernel(X, rows)
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


class TestMakeBuiltin:
    def test_names(self):
        assert set(BUILTIN_NAMES) == {
            "gaussian_quadratic", "double_well", "gaussian_mixture", "logistic_l2",
        }

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown potential"):
            make_builtin("does_not_exist")

    @pytest.mark.parametrize("name, params, key", [
        ("double_well", {"n": 10}, "n"),
        ("gaussian_quadratic", {"n": 4, "d": 1, "scale": [1.0, 2.0, 3.0, 4.0]}, "scale"),
        ("logistic_l2", {"rows": [[1.0]], "labels": [1.0], "lambda": 0.3}, "lambda"),
    ], ids=["double_well-n", "gaussian_quadratic-scale", "logistic_l2-lambda"])
    def test_a_key_the_builder_does_not_take_is_refused(self, name, params, key):
        """A key outside the builder's signature would be ignored, so it is
        refused by name, with the parameters the builder does take."""
        with pytest.raises(ValueError, match=rf"^{name} takes no {key}; its parameters are "):
            make_builtin(name, params)

    @pytest.mark.parametrize("name, params, message", [
        ("gaussian_quadratic", {"centers": [[1.0], [-1.0]], "n": 5, "d": 3},
         "gaussian_quadratic takes n, d from centers; drop n, d"),
        ("gaussian_quadratic", {"centers": [[1.0], [-1.0]], "d": 1},
         "gaussian_quadratic takes n, d from centers; drop d"),
        ("logistic_l2", {"data_file": "rows.txt", "rows": [[1.0]], "labels": [1.0]},
         "logistic_l2 takes rows, labels from data_file; drop rows, labels"),
        ("logistic_l2", {"data_file": "rows.txt", "labels": [1.0]},
         "logistic_l2 takes rows, labels from data_file; drop labels"),
    ], ids=["quadratic-n-d", "quadratic-d", "logistic-rows-labels", "logistic-labels"])
    def test_a_parameter_another_one_sets_is_refused(self, name, params, message):
        """centers sets the quadratic's n and d, and data_file the logistic
        loss's rows and labels: a second value beside it would be ignored, so
        it is refused by name."""
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            make_builtin(name, params)

    @pytest.mark.parametrize("name, params, message", [
        ("gaussian_quadratic", {}, "gaussian_quadratic needs n, d, or centers"),
        ("gaussian_quadratic", {"n": 4}, "gaussian_quadratic needs d, or centers"),
        ("logistic_l2", {}, "logistic_l2 needs rows, labels, or data_file"),
        ("logistic_l2", {"rows": [[1.0]]}, "logistic_l2 needs labels, or data_file"),
    ], ids=["quadratic-empty", "quadratic-no-d", "logistic-empty", "logistic-no-labels"])
    def test_a_missing_parameter_is_refused_by_name(self, name, params, message):
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            make_builtin(name, params)

    def test_quadratic_complete_the_square(self):
        rng = np.random.default_rng(5)
        centers = rng.standard_normal((6, 3))
        obj = make_builtin("gaussian_quadratic", {"centers": centers})
        cbar = centers.mean(axis=0)
        np.testing.assert_allclose(obj.x_star, cbar, rtol=1e-14)
        expected = 0.5 * np.mean(np.sum((cbar - centers) ** 2, axis=1))
        np.testing.assert_allclose(obj.F_star, expected, rtol=1e-14)
        # F(x) = ||x - cbar||^2 / 2 + F*
        x = rng.standard_normal(3)
        np.testing.assert_allclose(
            obj.value(x), 0.5 * np.sum((x - cbar) ** 2) + obj.F_star, rtol=1e-12
        )

    def test_double_well_minima(self):
        obj = make_builtin("double_well", {"a": 1.0})
        assert obj.F_star == 0.0
        assert obj.value(np.array([1.0])) == 0.0
        assert obj.value(np.array([-1.0])) == 0.0
        assert obj.value(np.array([0.0])) == 0.25

    @pytest.mark.parametrize("params, message", [
        ({"a": -1.0, "box": 0.7}, r"box >= \|a\|, got box=0.7, a=-1.0"),
        ({"a": 0.0, "box": 0.0}, r"box > 0, got 0.0"),
        ({"a": 1.0, "box": -2.0}, r"box > 0, got -2.0"),
    ])
    def test_double_well_box_must_hold_the_wells(self, params, message):
        """A box that misses a well at -|a| would declare an L that |F''| exceeds
        on it: box = 0.7 with a = -1 gives L = 0.47, but |F''(0)| = 1."""
        with pytest.raises(ValueError, match=message):
            make_builtin("double_well", params)

    def test_logistic_smoothness_constant(self):
        """L = lam + max row-norm^2 / 4; TestDeclaredConstants checks that it
        bounds the Hessian."""
        rng = np.random.default_rng(11)
        rows = rng.standard_normal((8, 3)) * 1.5
        labels = (rng.random(8) > 0.4).astype(float)
        lam = 0.3
        obj = make_builtin("logistic_l2", {"rows": rows, "labels": labels, "lam": lam})
        assert obj.L == pytest.approx(lam + np.max(np.sum(rows**2, axis=1)) / 4)

    def test_logistic_file_loading(self, tmp_path):
        data = tmp_path / "rows.txt"
        data.write_text("1.0 2.0 1\n-0.5 0.25 0\n0.1 -1.0 1\n")
        obj = make_builtin("logistic_l2", {"data_file": data, "lam": 0.5})
        assert obj.n == 3 and obj.d == 2

    def test_logistic_bad_labels(self, tmp_path):
        data = tmp_path / "rows.txt"
        data.write_text("1.0 2.0 3\n")
        with pytest.raises(ValueError, match="labels"):
            make_builtin("logistic_l2", {"data_file": data})


def _logistic_params():
    rng = np.random.default_rng(11)
    return {"rows": rng.standard_normal((8, 3)) * 1.5, "labels": (rng.random(8) > 0.4).astype(float), "lam": 0.3}


# a built-in each, with constants that are not all trivial
DECLARED_CASES = {
    "gaussian_quadratic": {"n": 4, "d": 2, "seed": 9, "scales": [0.5, 1.0, 1.5, 2.0]},
    "double_well": {"a": 1.0, "d": 2, "box": 3.0},
    "gaussian_mixture": {"mu": [1.5, -0.5], "sigma": 0.8},
    "logistic_l2": _logistic_params(),
}


class TestDeclaredConstants:
    @pytest.mark.parametrize("name", sorted(DECLARED_CASES))
    def test_declared_L_M_b_hold_on_a_grid(self, name):
        """On a seeded grid, with the corners of its box, the declared L bounds
        the finite-difference Hessian norm of the full gradient, and
        <grad F(x), x> >= M ||x||^2 - b.  The double well's grid is its box,
        where its L is |F''| at the corners."""
        obj = make_builtin(name, DECLARED_CASES[name])
        r, h = obj.L_box or 3.0, 1e-5
        corners = np.array(np.meshgrid(*[[-r, r]] * obj.d)).reshape(obj.d, -1).T
        grid = np.vstack([corners, np.random.default_rng(4).uniform(-r, r, (200, obj.d))])
        E = h * np.eye(obj.d)
        for x in grid:
            H = (obj.gradient(x + E) - obj.gradient(x - E)).T / (2.0 * h)  # column j: d grad / d x_j
            assert np.abs(np.linalg.eigvalsh(0.5 * (H + H.T))).max() <= obj.L * (1 + 1e-6), x
        slack = np.sum(obj.gradient(grid) * grid, axis=1) - obj.M * np.sum(grid * grid, axis=1) + obj.b
        assert slack.min() >= 0.0
        if name == "double_well":
            assert obj.L == 3.0 * r * r - 1.0


class TestGaussianMoments:
    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            GaussianMoments(np.zeros(2), np.array([[1.0, 0.5], [0.1, 1.0]]))

    def test_indefinite_covariance_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            GaussianMoments(np.zeros(2), np.diag([1.0, -0.1]))


class TestEvaluationCounter:
    def test_counts_components(self):
        obj = make_builtin("gaussian_quadratic", {"n": 6, "d": 2, "seed": 0})
        obj.reset_grad_evals()
        obj.gradient(np.zeros(2))
        assert obj.grad_evals == 6
        obj.minibatch_gradient(np.zeros(2), [0, 3])
        assert obj.grad_evals == 8
        obj.component_gradient(1, np.zeros(2))
        assert obj.grad_evals == 9

    def test_batched_rows_count(self):
        obj = make_builtin("gaussian_quadratic", {"n": 6, "d": 2, "seed": 0})
        obj.reset_grad_evals()
        obj.minibatch_gradient_rows(np.zeros((5, 2)), np.tile([0, 1], (5, 1)))
        assert obj.grad_evals == 10

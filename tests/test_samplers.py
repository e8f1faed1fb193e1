"""Unit tests for the Langevin chain runners and their exact accounting."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import stats

import vrld
from vrld import diagnostics
from vrld.potentials import make_builtin
from vrld.samplers import (
    VARIANTS,
    AnnealSchedule,
    DivergedError,
    SamplerConfig,
    chain_rngs,
    grad_evals_at,
    run_chain,
    run_ensemble,
    run_replicates,
    _NETWORK_B,
    _batcher_pairs,
    _network_sorted,
    _word_columns,
    _words,
    sample_index_set,
)


def quadratic(n=8, d=2, seed=3, **kw):
    return make_builtin("gaussian_quadratic", {"n": n, "d": d, "seed": seed, **kw})


def heterogeneous(n=6, d=2, seed=5):
    scales = np.linspace(0.5, 2.0, max(n, 2))[:n]
    return make_builtin("gaussian_quadratic", {"n": n, "d": d, "seed": seed, "scales": scales})


def identical(n=6):
    """The two built-ins with identical components, at d = 2."""
    return (make_builtin("double_well", {"d": 2, "n_copies": n}),
            make_builtin("gaussian_mixture", {"mu": [1.2, -0.3], "n_copies": n}))


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


def floyd_subset(n, B, g):
    """Floyd's algorithm (Bentley & Floyd 1987), one index at a time: index j
    draws t uniform on 0..n-B+j and keeps n-B+j if t is already taken.
    B = n takes every index and draws nothing."""
    if B == n:
        return list(range(n))
    row = []
    for j in range(B):
        t = int(g.integers(0, n - B + j + 1))
        row.append(n - B + j if t in row else t)
    return sorted(row)


def stream_state(rng):
    """The whole state of a generator's bit stream, with the buffered 32-bit
    half of a 64-bit word that ``random()`` neither reads nor moves."""
    def plain(value):
        if isinstance(value, dict):
            return {key: plain(v) for key, v in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value
    return plain(rng.bit_generator.state)


@st.composite
def floyd_sizes(draw):
    n = draw(st.integers(1, 70) | st.just(513))
    return n, draw(st.sampled_from(sorted({1, max(n - 1, 1), n})) | st.integers(1, n))


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

    @pytest.mark.parametrize(("n", "B", "subsets", "each"), [(5, 3, 10, 5000), (513, 1, 513, 50)])
    def test_uniform_over_subsets_in_a_block(self, n, B, subsets, each):
        """Chi-square over every size-B subset of n, one block of ``each``
        draws a subset, for a small and a large n."""
        draws = sample_index_set(n, B, np.random.default_rng(321), (each * subsets,))
        keys, observed = np.unique(draws, axis=0, return_counts=True)
        assert len(keys) == subsets and (np.diff(draws, axis=1) > 0).all()
        stat = np.sum((observed - each) ** 2 / each)
        assert stat < stats.chi2.ppf(0.999, df=subsets - 1)

    @pytest.mark.parametrize(("n", "B"), [(10, 1), (10, 4), (10, 10), (513, 3)])
    def test_block_equals_single_draws(self, n, B):
        """A (c,) block is c one-subset calls bit for bit, and leaves the
        stream where they leave it, for a small and a large n."""
        block_rng, single_rng = chain_rngs(5)[1], chain_rngs(5)[1]
        block = sample_index_set(n, B, block_rng, (37,))
        single = np.array([sample_index_set(n, B, single_rng) for _ in range(37)])
        assert block.shape == (37, B) and block.dtype == single.dtype
        assert block.tobytes() == single.tobytes()
        assert stream_state(block_rng) == stream_state(single_rng)

    def test_uniform_where_the_replacement_fires_most(self):
        """Chi-square over the 15 subsets of size 4 from 6: with B > n/2 most
        rows take Floyd's replacement n-B+j at least once, so a replacement
        index off by one shows here as a law that is not uniform."""
        draws = sample_index_set(6, 4, np.random.default_rng(4), (15 * 4000,))
        keys, observed = np.unique(draws, axis=0, return_counts=True)
        assert len(keys) == 15
        stat = np.sum((observed - 4000.0) ** 2 / 4000.0)
        assert stat < stats.chi2.ppf(0.999, df=14)

    @given(st.integers(1, 600).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
           st.sampled_from([(), (7,), (3, 5)]), st.sampled_from([None, 1, 3]), st.integers(0, 2**16))
    def test_a_block_is_its_one_subset_calls(self, sizes, shape, chains, seed):
        """Every row holds B distinct sorted indices in 0..n-1, and a block
        equals its one-subset calls in C order bit for bit, leaving the
        stream where they leave it; with a list of R generators, chain r's
        rows are those of its own generator."""
        n, B = sizes
        streams = [chain_rngs(seed, r)[1] for r in range(chains or 1)]
        block = sample_index_set(n, B, streams if chains else streams[0], shape)
        assert block.shape == (*shape, chains, B) if chains else (*shape, B)
        rows = block.reshape(-1, B)
        assert (np.diff(rows, axis=1) > 0).all() and rows.min() >= 0 and rows.max() < n
        for r, rng in enumerate(streams):
            alone = chain_rngs(seed, r)[1]
            single = np.array([sample_index_set(n, B, alone) for _ in range(math.prod(shape))])
            own = block[..., r, :] if chains else block
            assert own.reshape(-1, B).tobytes() == single.tobytes()
            assert stream_state(rng) == stream_state(alone)

    @given(floyd_sizes(), st.sampled_from([(), (5,), (2, 3)]), st.sampled_from([None, 1, 3]), st.integers(0, 2**16))
    @example((64, 1), (4,), None, 0)
    @example((64, 63), (4,), 3, 1)
    @example((64, 48), (2, 3), 3, 2)
    @example((513, 48), (5,), None, 3)
    @example((513, 512), (), 3, 4)
    @example((3 * 2**30, 5), (2, 3), None, 0)  # numpy rejects about 1 word in 4: the block rewinds
    @example((2**32, 3), (5,), 3, 0)  # the top bound's range is the whole 32-bit word
    @example((2**32 + 1, 3), (5,), None, 0)  # numpy draws 64-bit words for the bound n
    @example((3 * 2**30, 2), (2,), 3, 17)  # chain 1 alone meets a rejected word
    @example((3 * 2**30, 5), (300,), 3, 0)  # a rewound block that the network sorts
    def test_equals_floyds_algorithm_one_index_at_a_time(self, sizes, shape, chains, seed):
        """Each row is the subset that Floyd's algorithm, transcribed one
        index at a time, draws from the row's own generator in C order, and
        the block leaves every stream where the transcription leaves it,
        also at the 32-bit edges of numpy's bounded draw."""
        n, B = sizes
        streams = [chain_rngs(seed, r)[1] for r in range(chains or 1)]
        block = sample_index_set(n, B, streams if chains else streams[0], shape)
        for r, rng in enumerate(streams):
            alone = chain_rngs(seed, r)[1]
            own = block[..., r, :] if chains else block
            assert own.reshape(-1, B).tolist() == [floyd_subset(n, B, alone) for _ in range(math.prod(shape))]
            assert stream_state(rng) == stream_state(alone)

    @pytest.mark.parametrize("B", [1, 2, 8, 9])
    @pytest.mark.parametrize("n", [255, 256, 257, 65535, 65536, 65537])
    @pytest.mark.parametrize("chains", [None, 2])
    def test_equals_floyds_algorithm_at_the_edges_of_a_column_dtype(self, n, B, chains):
        """Where n - 1 crosses 2**8 or 2**16, the bounds of the narrow
        column dtypes, each row is still the transcribed subset of its own
        stream, every stream ends where the transcription leaves it, and the
        block is int64 with its B columns C-contiguous, the column-major
        layout of the network draw, so the transposed index that the
        quadratic row kernel takes is never cast."""
        streams = [chain_rngs(n + B, r)[1] for r in range(chains or 1)]
        block = sample_index_set(n, B, streams if chains else streams[0], (2000,))
        assert block.dtype == np.int64 and np.moveaxis(block, -1, 0).flags.c_contiguous
        for r, rng in enumerate(streams):
            alone = chain_rngs(n + B, r)[1]
            own = block[:, r] if chains else block
            assert own.tolist() == [floyd_subset(n, B, alone) for _ in range(2000)]
            assert stream_state(rng) == stream_state(alone)

    @pytest.mark.parametrize("B", range(1, _NETWORK_B + 1))
    def test_the_network_sorts_every_binary_column(self, B):
        """The 0-1 principle (Knuth, TAOCP 3, 5.3.4): a comparator network
        that sorts all 2**B columns of 0s and 1s sorts every column, so this
        proves the network for each B the draw gives it."""
        zero_one = (np.arange(2**B) >> np.arange(B)[:, None] & 1).astype(np.uint8)
        assert (_network_sorted(zero_one) == np.sort(zero_one, axis=0)).all()

    @pytest.mark.parametrize("B", range(1, _NETWORK_B + 2))
    def test_the_network_equals_np_sort(self, B):
        """On 200 random blocks of uint8 columns, with repeated values, at
        each B the draw gives the network and at one B past it; each
        comparator is (i, j) with i < j."""
        rng = np.random.default_rng(B)
        assert all(0 <= i < j < B for i, j in _batcher_pairs(B))
        for _ in range(200):
            cols = rng.integers(0, 2 * B, (B, 50), dtype=np.uint8)
            assert (_network_sorted(cols) == np.sort(cols, axis=0)).all()

    def test_a_block_without_a_rejected_word_takes_the_word_draw(self):
        """With no rejected word the block is drawn from 32-bit words, not by
        the rewind: the columns are numpy's bounded integers of the same
        stream, which ends where numpy's own draw leaves it."""
        rng, ref = chain_rngs(3)[1], chain_rngs(3)[1]
        cols = np.empty((8, 1000), np.uint64)
        assert _word_columns(64, 8, [rng], (1000, 8), cols)
        assert cols.T.tolist() == ref.integers(0, np.arange(57, 65), size=(1000, 8)).tolist()
        assert stream_state(rng) == stream_state(ref)

    @pytest.mark.parametrize("bits", [np.random.Philox, np.random.PCG64, np.random.SFC64])
    @pytest.mark.parametrize("count", [0, 1, 2, 7, 160000])
    @pytest.mark.parametrize("pending", [False, True])
    def test_the_raw_words_are_numpys_32_bit_fill(self, bits, count, pending):
        """The words cut from raw 64-bit outputs are those of numpy's
        ``integers(0, 2**32, count, np.uint32)``, and the whole state ends
        where that call leaves it, entered with a pending 32-bit half or
        without one, its stale ``uinteger`` included."""
        rng, ref = np.random.Generator(bits(11)), np.random.Generator(bits(11))
        for g in (rng, ref):
            g.integers(0, 2**32, 3 if pending else 2, np.uint32)
        assert rng.bit_generator.state["has_uint32"] == pending
        words = _words(rng.bit_generator, rng.bit_generator.state, count)
        assert words.dtype == np.uint32 and words.tolist() == ref.integers(0, 2**32, count, np.uint32).tolist()
        assert stream_state(rng) == stream_state(ref)

    @pytest.mark.parametrize("bits", [np.random.Philox, np.random.PCG64, np.random.SFC64, np.random.MT19937])
    @pytest.mark.parametrize("chains", [None, 3])
    def test_blocks_of_odd_word_counts_are_their_one_subset_calls(self, bits, chains):
        """A run of blocks whose word counts are odd (B = 1, or odd B over
        odd rows) leaves 32-bit halves pending between blocks; each block
        still equals its one-subset calls and leaves every stream where they
        leave it.  MT19937 keeps no pending half, so it takes numpy's loop."""
        streams = [np.random.Generator(bits(r)) for r in range(chains or 1)]
        alone = [np.random.Generator(bits(r)) for r in range(chains or 1)]
        for n, B, rows in [(64, 1, 3), (64, 3, 5), (9, 1, 1), (64, 5, 1201), (64, 8, 4), (300, 7, 2001)]:
            block = sample_index_set(n, B, streams if chains else streams[0], (rows,))
            for r, (rng, ref) in enumerate(zip(streams, alone)):
                own = block[:, r] if chains else block
                assert own.tolist() == [sample_index_set(n, B, ref).tolist() for _ in range(rows)]
                assert stream_state(rng) == stream_state(ref)
        fresh = np.random.Generator(bits(0))
        assert _word_columns(64, 8, [fresh], (4, 8), np.empty((8, 4), np.uint8)) == (bits is not np.random.MT19937)

    def test_memory_does_not_grow_with_n(self):
        """A draw holds O(rows * B) values, so n = 2**40 is as cheap as n = 64."""
        n, rng, ref = 2**40, chain_rngs(1)[1], chain_rngs(1)[1]
        rows = sample_index_set(n, 3, rng, (1000,))
        assert rows.shape == (1000, 3) and (np.diff(rows, axis=1) > 0).all()
        assert rows.min() >= 0 and rows.max() < n
        assert rows.tolist() == [floyd_subset(n, 3, ref) for _ in range(1000)]
        assert stream_state(rng) == stream_state(ref)

    def test_full_batch_draws_nothing(self):
        rng = chain_rngs(5)[1]
        np.testing.assert_array_equal(sample_index_set(6, 6, rng, (3,)), np.tile(np.arange(6), (3, 1)))
        sample_index_set(6, 6, rng)
        assert stream_state(rng) == stream_state(chain_rngs(5)[1])

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
        t_lmc = run_chain(obj, SamplerConfig(variant="lmc", **kw), x0)
        t_svrg = run_chain(obj, SamplerConfig(variant="svrg_ld", **kw), x0)
        t_sarah = run_chain(obj, SamplerConfig(variant="sarah_ld", **kw), x0)
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
        trace = run_chain(obj, cfg, np.zeros(obj.d))
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
        for obj in identical(n=6):
            for B in range(1, 7):
                res = diagnostics.svrg_subset_mean(
                    obj, rng.standard_normal(obj.d), rng.standard_normal(obj.d), B
                )
                assert res["gap"] <= 1e-12 * (1 + np.linalg.norm(res["target"]))

    def test_recursive_increment_is_martingale(self):
        rng = np.random.default_rng(9)
        for obj in (heterogeneous(n=6), *identical(n=6)):
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
        trace = run_chain(obj, cfg, np.array([1.0, 1.0]))
        assert trace.diverged
        assert trace.diverged_step is not None
        assert trace.steps[-1] <= trace.diverged_step

    def test_ensemble_divergence_raises_with_step(self):
        obj = quadratic()
        with pytest.raises(vrld.samplers.DivergedError):
            run_ensemble(obj, "lmc", 4, 2000, eta=1e8, gamma=1.0, seed=0,
                         x0=np.ones(obj.d), checkpoints=[2000])

    # From entries near the largest float, the state's sum overflows to inf
    # while every entry and every gradient stays finite: no chain stops.
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_an_overflowing_sum_of_finite_entries_stops_no_chain(self, variant):
        obj = quadratic()
        x0 = np.full(obj.d, 1e308)
        traces = run_replicates(obj, SamplerConfig(variant=variant, eta=0.01, B=2, m=4, K=8, seed=0), x0, 3)
        res = run_ensemble(obj, variant, 3, 8, eta=0.01, gamma=1.0, B=2, m=4, x0=x0, checkpoints=[4, 8])
        for X in [t.iterates for t in traces] + [res.final]:
            assert np.all(np.isfinite(X))
            with np.errstate(over="ignore"):
                assert np.all(np.isinf(X.sum(axis=-1)))
        assert not any(t.diverged for t in traces)
        assert [t.steps[-1] for t in traces] == [8] * 3

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

    @pytest.mark.parametrize("kw", [dict(eta=5.0), dict(gamma=1e6), dict(eta=5.0, gamma=1e6)])
    def test_ensemble_refuses_eta_or_gamma_next_to_a_schedule(self, kw):
        """The schedule supplies every epoch's (eta, gamma): an eta or gamma
        beside it would go unused."""
        sched = AnnealSchedule(eta_bar=0.01, gamma_bar=1.0, sigma=3.0, mu=13.0, g=math.e)
        with pytest.raises(ValueError, match="the schedule supplies the step size and inverse temperature"):
            run_ensemble(quadratic(n=8), "svrg_ld", 4, 8, B=2, m=4, sched=sched, **kw)

    @pytest.mark.parametrize("many", [False, True])
    @pytest.mark.parametrize("kw", [dict(eta=0.9, gamma=1e6), dict(eta=0.9), dict(gamma=1e6)])
    def test_chain_refuses_a_pair_other_than_the_schedules_first(self, kw, many):
        """cfg's (eta, gamma) must be the schedule's epoch-0 pair, the one
        the chain runs at first; any other pair would go unused."""
        sched = AnnealSchedule(eta_bar=0.01, gamma_bar=1.0, sigma=3.0, mu=13.0, g=math.e)
        cfg = dataclasses.replace(
            SamplerConfig(variant="svrg_ld", eta=sched.eta(0), gamma=sched.gamma(0), B=2, m=4, K=8), **kw)
        with pytest.raises(ValueError, match="the schedule supplies the step size and inverse temperature"):
            if many:
                run_replicates(quadratic(n=8), cfg, np.zeros(2), 3, sched=sched)
            else:
                run_chain(quadratic(n=8), cfg, np.zeros(2), sched=sched)

    @pytest.mark.parametrize("B", [0, -3, 9])
    def test_ensemble_batch_out_of_range(self, B):
        with pytest.raises(ValueError, match="1 <= B"):
            run_ensemble(quadratic(n=8), "svrg_ld", 4, 8, eta=0.01, gamma=1.0, B=B, m=4)

    @pytest.mark.parametrize(("checkpoints", "bad"), [([-3, 5], "-3"), ([2.5, 10], "2.5"), ([4, 11, 12], "11, 12")])
    def test_ensemble_checkpoints_outside_the_steps(self, checkpoints, bad):
        """A checkpoint that is not an integer in 0..K is refused by name,
        not dropped from the result."""
        with pytest.raises(ValueError, match=rf"checkpoints \[{bad}\] are not integers in 0\.\.10"):
            run_ensemble(quadratic(n=8), "sgld", 4, 10, eta=0.01, gamma=1.0, B=2, checkpoints=checkpoints)

    @pytest.mark.parametrize("variant", ["lmc", "sgld"])
    @pytest.mark.parametrize("many", [False, True])
    def test_chain_schedule_needs_an_epoch_variant(self, variant, many):
        sched = AnnealSchedule(eta_bar=0.01, gamma_bar=1.0, sigma=3.0, mu=13.0, g=math.e)
        cfg = SamplerConfig(variant=variant, eta=0.01, B=4, K=40)
        with pytest.raises(ValueError, match="svrg_ld and sarah_ld"):
            if many:
                run_replicates(quadratic(n=16), cfg, np.zeros(2), 3, sched=sched)
            else:
                run_chain(quadratic(n=16), cfg, np.zeros(2), sched=sched)

    # each of these ran, or failed deep inside the step loop, before the
    # ensemble checked its sizes as SamplerConfig.validate does
    @pytest.mark.parametrize(("kw", "message"), [
        (dict(m=0), "epoch length m must be >= 1"),
        (dict(m=-4), "epoch length m must be >= 1"),
        (dict(m=3), "must divide K=8"),
        (dict(eta=-0.1), "step size eta must be > 0"),
        (dict(eta=0.0), "step size eta must be > 0"),
        (dict(eta=math.nan), "eta and gamma must be finite, got eta=nan"),
        (dict(eta=math.inf), "eta and gamma must be finite, got eta=inf"),
        (dict(gamma=math.nan), "eta and gamma must be finite, got eta=0.01, gamma=nan"),
        (dict(gamma=math.inf), "eta and gamma must be finite, got eta=0.01, gamma=inf"),
        (dict(gamma=0.0), "gamma must be >= 1"),
        (dict(gamma=0.5), "gamma must be >= 1"),
        (dict(K=0), "total steps K must be >= 1"),
        (dict(variant="sgd"), "variant must be one of"),
        (dict(n_chains=0), "n_chains must be an integer >= 1, got 0"),
        (dict(n_chains=2.5), "n_chains must be an integer >= 1, got 2.5"),
    ])
    def test_ensemble_checks_sizes_and_step(self, kw, message):
        args = dict(variant="svrg_ld", n_chains=4, K=8, eta=0.01, gamma=1.0, B=2, m=4) | kw
        with pytest.raises(ValueError, match=message):
            run_ensemble(quadratic(n=8), **args)

    def test_ensemble_checks_the_schedule_epoch_zero(self):
        """With a schedule, its epoch-0 (eta, gamma) is what is checked: here
        gamma_0 = 0.1 (1 + log 3 / 13) < 1."""
        sched = AnnealSchedule(eta_bar=0.01, gamma_bar=0.1, sigma=3.0, mu=13.0, g=math.e)
        with pytest.raises(ValueError, match="gamma must be >= 1"):
            run_ensemble(quadratic(n=8), "svrg_ld", 4, 8, B=2, m=4, sched=sched)

    @pytest.mark.parametrize("many", [False, True])
    @pytest.mark.parametrize("x0", [np.zeros(3), np.zeros(1), np.zeros((1, 2)), np.float64(0.0)])
    def test_x0_of_another_dimension_is_refused(self, x0, many):
        obj, cfg = quadratic(n=8, d=2), SamplerConfig(variant="sgld", eta=0.01, B=2, K=4)
        with pytest.raises(ValueError, match="x0 must have dimension 2"):
            run_replicates(obj, cfg, x0, 3) if many else run_chain(obj, cfg, x0)

    @pytest.mark.parametrize("R", [0, -1, 2.5, "3"])
    def test_replicate_count_must_be_a_positive_integer(self, R):
        cfg = SamplerConfig(variant="sgld", eta=0.01, B=2, K=4)
        with pytest.raises(ValueError, match=f"R must be an integer >= 1, got {R!r}"):
            run_replicates(quadratic(n=8), cfg, np.zeros(2), R)


class TestConfigValidation:
    def test_partial_epochs_rejected(self):
        obj = quadratic()
        cfg = SamplerConfig(variant="svrg_ld", eta=0.001, B=4, m=3, K=10, seed=0)
        with pytest.raises(ValueError, match="partial epochs"):
            run_chain(obj, cfg, np.zeros(obj.d))

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
        trace = run_chain(obj, cfg, np.zeros(obj.d))
        assert trace.steps[0] == 0
        assert trace.steps[-1] == 103
        assert np.array_equal(trace.iterates[-1], trace.final_x)
        full = run_chain(obj, SamplerConfig(variant="lmc", eta=0.01, K=103, seed=2), np.zeros(obj.d))
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
        cfg = SamplerConfig(
            variant="svrg_ld", eta=self.sched.eta(0), gamma=self.sched.gamma(0),
            B=4, m=4, K=4, seed=3,
        )
        t_ann = run_chain(obj, cfg, x0, sched=self.sched)
        t_const = run_chain(obj, cfg, x0)
        np.testing.assert_array_equal(t_ann.iterates, t_const.iterates)

    def test_trace_records_schedule_values(self):
        obj = quadratic()
        cfg = SamplerConfig(variant="sarah_ld", eta=self.sched.eta(0), gamma=self.sched.gamma(0),
                            B=4, m=2, K=6, seed=3)
        t = run_chain(obj, cfg, np.zeros(obj.d), sched=self.sched)
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

    @pytest.mark.parametrize("checkpoints", [None, [12], [0], [7, 0, 7], []])
    def test_grad_accounting(self, checkpoints):
        """The result keeps exactly the listed steps, step K when none are
        given and none for an empty list, each with its exact count; final
        is step K's state either way."""
        obj = quadratic()
        kw = dict(eta=0.001, gamma=1.0, B=4, m=4, seed=1)
        res = run_ensemble(obj, "sarah_ld", 10, 12, checkpoints=checkpoints, **kw)
        every = run_ensemble(obj, "sarah_ld", 10, 12, checkpoints=list(range(13)), **kw)
        wanted = sorted({12} if checkpoints is None else set(checkpoints))
        assert sorted(res.checkpoints) == sorted(res.grad_evals) == wanted
        for k in wanted:
            assert res.grad_evals[k] == grad_evals_at("sarah_ld", k, obj.n, 4, 4)
            assert_bitwise(res.checkpoints[k], every.checkpoints[k])
        assert_bitwise(res.final, every.checkpoints[12])

    def test_double_well_ignores_the_subsets(self):
        """The double well's components are copies of one quartic, so its row
        oracle ignores the indices and the batch size moves only the count:
        the sarah_ld checkpoints are bitwise equal for B = 2 and B = 4 (c10's
        potential, R, m and seed, 400 steps), whatever draws the subsets."""
        obj = make_builtin("double_well", {"a": 1.0, "d": 1, "n_copies": 16, "box": 2.0})
        X0 = np.random.default_rng(2024).standard_normal((32, 1)) * 0.3
        runs = {B: run_ensemble(obj, "sarah_ld", 32, 400, eta=0.002, gamma=4.0, B=B, m=4, seed=77,
                                x0=X0, checkpoints=[0, 100, 400]) for B in (2, 4)}
        for k in (0, 100, 400):
            assert_bitwise(runs[2].checkpoints[k], runs[4].checkpoints[k])
            assert runs[2].grad_evals[k] == grad_evals_at("sarah_ld", k, 16, 2, 4)
            assert runs[4].grad_evals[k] == grad_evals_at("sarah_ld", k, 16, 4, 4)
        assert runs[2].grad_evals[400] < runs[4].grad_evals[400]
        assert_bitwise(runs[2].final, runs[4].final)


# -- reference transcription ------------------------------------------------------
#
# Plain per-variant updates, the reference the runners are held to bitwise.
# Single chains draw one noise vector per step from stream 0 of chain_rngs and,
# where the estimator needs one, one subset from stream 1; ensembles draw from
# chain_rngs(seed) in blocks of whole epochs, bounded to a few MB, with each
# chain's subset one sample_index_set row, in C order over (epoch, step, chain).


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
            IDX = sample_index_set(n, B, index_rng, (c, subsets_per_epoch, R))
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
                            annealed = dataclasses.replace(cfg, eta=sched.eta(0), gamma=sched.gamma(0), seed=11)
                            self.check_trace(
                                run_chain(obj, annealed, x0, replicate=replicate, sched=sched),
                                reference_chain(obj, variant, x0, K, m, B, 11,
                                                lambda s: (sched.eta(s), sched.gamma(s)),
                                                store_every, replicate),
                            )
        # n = 64 makes the R = 3000 ensembles span several blocks
        for obj in (logistic(), quadratic(n=64), heterogeneous(n=64)):
            for R, K, B, m in ((1, 30, 3, 3), (5, 60, obj.n, 1), (3000, 24, 5, 3), (3000, 24, 5, 8)):
                X0 = np.random.default_rng(R).standard_normal((R, obj.d))
                wanted = [0, 7, K]
                scheds = [None, self.SCHED] if variant in ("svrg_ld", "sarah_ld") else [None]
                for sched in scheds:
                    schedule = ((lambda s: (0.01, 2.0)) if sched is None
                                else (lambda s: (sched.eta(s), sched.gamma(s))))
                    pair = dict(eta=0.01, gamma=2.0) if sched is None else {}
                    res = run_ensemble(obj, variant, R, K, **pair, B=B, m=m, seed=3,
                                       x0=X0, checkpoints=wanted, sched=sched)
                    ref, final = reference_ensemble(obj, variant, R, K, m, B, 3, schedule, X0, wanted)
                    assert sorted(res.checkpoints) == sorted(ref) == sorted(res.grad_evals)
                    for k, (X, count) in ref.items():
                        assert_bitwise(res.checkpoints[k], X)
                        assert res.grad_evals[k] == count
                    assert_bitwise(res.final, final)


class TestIdenticalComponents:
    """An objective declared with identical components reads no index, so the
    runners draw no subsets for it: every output and count equals the same
    objective's run without the declaration, which draws them and ignores them."""

    @staticmethod
    def pair(kind):
        params = {"double_well": {"a": 1.0, "n_copies": 6}, "double_well_2d": {"a": 1.0, "d": 2, "n_copies": 6},
                  "gaussian_mixture": {"mu": [1.2, -0.3], "n_copies": 6}}[kind]
        declared, plain = (make_builtin(kind.removesuffix("_2d"), params) for _ in range(2))
        assert declared.identical_components
        plain.identical_components = False
        return declared, plain

    @staticmethod
    def run(obj, runner, variant, x0, eta):
        cfg = SamplerConfig(variant=variant, eta=eta, gamma=2.0, B=3, m=3, K=24, seed=5, store_every=2)
        if runner == "run_chain":
            traces = [run_chain(obj, cfg, x0, replicate=1)]
        elif runner == "run_replicates":
            traces = run_replicates(obj, cfg, x0, 4)
        else:
            try:
                res = run_ensemble(obj, variant, 50, 24, eta=eta, gamma=2.0, B=3, m=3, seed=5,
                                   x0=np.random.default_rng(0).normal(x0, 1.0, (50, obj.d)), checkpoints=[0, 7, 24])
            except DivergedError as exc:
                return exc.step, obj.grad_evals
            return [res.checkpoints[k].tobytes() for k in (0, 7, 24)], res.grad_evals, res.final.tobytes(), \
                obj.grad_evals
        return [(t.steps.tolist(), t.iterates.tobytes(), t.grad_evals.tolist(), t.final_x.tobytes(),
                 t.diverged_step) for t in traces], obj.grad_evals

    @pytest.mark.parametrize("kind", ["double_well", "double_well_2d", "gaussian_mixture"])
    @pytest.mark.parametrize("runner", ["run_chain", "run_replicates", "run_ensemble"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_runs_equal_the_undeclared_objective_and_draw_nothing(self, kind, runner, variant, monkeypatch):
        declared, plain = self.pair(kind)
        # from 2.5 at eta = 0.4 the double well's chains overflow at their own steps
        starts = [(0.3, 0.05), (2.5, 0.4)] if kind.startswith("double_well") else [(0.3, 0.05)]
        undeclared = [self.run(plain, runner, variant, np.full(plain.d, x0), eta) for x0, eta in starts]

        def no_draw(*args, **kwargs):
            raise AssertionError("sample_index_set called for identical components")

        monkeypatch.setattr(vrld.samplers, "sample_index_set", no_draw)
        assert [self.run(declared, runner, variant, np.full(declared.d, x0), eta)
                for x0, eta in starts] == undeclared

    def test_a_row_kernel_is_refused(self):
        with pytest.raises(ValueError, match="identical components take no rows_fn"):
            vrld.FiniteSumObjective("f", 2, 1, lambda i, x: x[..., 0], lambda i, x: x,
                                    rows_fn=lambda X, IDX: X, identical_components=True)

    def test_value_and_gradient_default_to_f_0s(self):
        """Built without value_fn or grad_fn, identical components evaluate F
        and grad F as f_0 and grad f_0, bit for bit.  Here f_1 = 2 f_0, so a
        mean over the components would show."""
        obj = vrld.FiniteSumObjective("f", 2, 2, lambda i, x: (i + 1) * np.sin(x).sum(axis=-1),
                                      lambda i, x: (i + 1) * np.cos(x), identical_components=True)
        X = np.random.default_rng(0).standard_normal((5, 2))
        assert obj.value(X).tobytes() == np.sin(X).sum(axis=-1).tobytes()
        assert obj.gradient(X).tobytes() == np.cos(X).tobytes()
        for builtin in identical(n=3):
            assert builtin.value(X).tobytes() == builtin.component_value(0, X).tobytes()
            assert builtin.gradient(X).tobytes() == builtin.component_gradient(0, X).tobytes()


# -- the replicate engine, for any sizes --------------------------------------------


@st.composite
def engine_sizes(draw):
    variant = draw(st.sampled_from(VARIANTS))
    n = draw(st.integers(1, 8) | st.just(513))  # a large n: subsets from a wide index range
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
            cfg = dataclasses.replace(cfg, eta=sched.eta(0), gamma=sched.gamma(0))
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

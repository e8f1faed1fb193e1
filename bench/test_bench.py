"""The benchmark's own tests: every output check rejects a wrong answer, the
tracer survives absent names, and the smoke sizes of all three workloads run
clean.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import vrld  # noqa: E402
from vrld.samplers import grad_evals_at  # noqa: E402


def test_iterate_check_rejects_a_perturbed_iterate():
    obj = vrld.make_builtin("gaussian_quadratic", {"n": 16, "d": 2, "seed": 1, "zero_mean": True})
    cfg = vrld.SamplerConfig(variant="lmc", eta=0.005, gamma=1.0, K=50, seed=3)
    ref = vrld.run_chain(obj, cfg, np.zeros(2)).iterates
    assert checks.iterates_match("r", ref.copy(), ref).ok
    bad = ref.copy()
    bad[17, 1] += 1e-6
    assert not checks.iterates_match("r", bad, ref).ok
    assert not checks.iterates_match("r", ref[:-1], ref).ok


def test_accounting_checks_reject_a_miscount():
    steps = np.arange(0, 33)
    counts = [grad_evals_at("svrg_ld", int(k), 64, 4, 4) for k in steps]
    assert checks.grad_accounting("r", "svrg_ld", steps, counts, 64, 4, 4, grad_evals_at).ok
    counts[9] += 4
    assert not checks.grad_accounting("r", "svrg_ld", steps, counts, 64, 4, 4, grad_evals_at).ok
    assert not checks.grad_accounting("r", "svrg_ld", [], [], 64, 4, 4, grad_evals_at).ok
    assert checks.counter_total(992, 992).ok
    assert not checks.counter_total(993, 992).ok


def test_digest_check_rejects_a_changed_digest():
    assert checks.same_digest(["ab", "ab", "ab"]).ok
    assert not checks.same_digest(["ab", "ac", "ab"]).ok


def test_law_check_rejects_a_shifted_ensemble():
    X = np.random.default_rng(0).standard_normal(20_000)
    assert all(c.ok for c in checks.gaussian_law(X, 1.0))
    assert not checks.gaussian_law(X + 0.1, 1.0)[0].ok
    assert not checks.gaussian_law(1.1 * X, 1.0)[1].ok


def test_oracle_check_matches_the_program_and_rejects_a_wrong_one():
    A, labels = workloads.logistic_data(5, 40, 3)
    obj = vrld.make_builtin("logistic_l2", {"rows": A, "labels": labels, "lam": 0.5})
    P = np.random.default_rng(1).standard_normal((4, 3))
    value, grad = checks.logistic_closed_form(A, labels, 0.5, P)
    assert checks.oracle_matches("value", obj.value(P), value).ok
    assert checks.oracle_matches("gradient", obj.gradient(P), grad).ok
    _, wrong = checks.logistic_closed_form(A, labels, 0.6, P)
    assert not checks.oracle_matches("gradient", obj.gradient(P), wrong).ok


def test_tracer_records_self_time_and_skips_absent_names():
    tracer = tracing.Tracer()
    sites = tracing.SITES + (("samplers.deleted_name", "vrld.samplers", "no_such_function"),
                             ("gone.module", "vrld.no_such_module", "f"))
    original = vrld.samplers.run_chain
    with tracing.Patches() as patches:
        installed = tracer.install(patches, sites)
        obj = vrld.make_builtin("gaussian_quadratic", {"n": 8, "d": 1})
        vrld.samplers.run_chain(obj, vrld.SamplerConfig(variant="sgld", eta=0.01, B=2, K=20), np.zeros(1))
    assert vrld.samplers.run_chain is original
    assert "samplers.deleted_name" not in installed and "gone.module" not in installed
    stats = tracer.stats()
    calls, total, self_time = stats["samplers.run_chain"]
    children = stats["potentials.minibatch_gradient"][1] + stats["samplers.sample_index_set"][1]
    assert calls == 1 and stats["potentials.minibatch_gradient"][0] == 20
    assert self_time == pytest.approx(total - children)


def test_benchmark_json_names_the_metrics_the_runner_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_size_runs_clean(name):
    result = run.run_workload(name, seed=7, seconds=0, trace=False, smoke=True)
    line = result["line"]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert set(line["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_traced_smoke_reports_every_layer_metric():
    result = run.run_workload("ensemble-desk", seed=7, seconds=0, trace=True, smoke=True)
    metrics = result["line"]["metrics"]
    assert result["line"]["correct"] and set(metrics) == set(run.PER_LAYER)
    assert metrics["potentials.minibatch_gradient_rows.calls"]["value"] > 0
    assert metrics["samplers.subset_uniforms_per_index"]["value"] == pytest.approx(64 / 8)

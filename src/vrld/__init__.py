"""Variance-reduced stochastic gradient Langevin dynamics over finite-sum
potentials, with a closed-form theory calculator and desk-scale diagnostics."""

from .potentials import (
    FiniteSumObjective,
    GaussianMoments,
    full_gradient,
    make_builtin,
    minibatch_gradient,
    probe_regularity,
)
from .samplers import (
    AnnealSchedule,
    RunTrace,
    SamplerConfig,
    run_annealed,
    run_chain,
    run_ensemble,
    run_lmc,
    run_replicates,
    run_sarah_ld,
    run_sgld,
    run_svrg_ld,
    sample_index_set,
)

__version__ = "0.1.0"

__all__ = [
    "FiniteSumObjective",
    "GaussianMoments",
    "full_gradient",
    "minibatch_gradient",
    "make_builtin",
    "probe_regularity",
    "SamplerConfig",
    "AnnealSchedule",
    "RunTrace",
    "run_lmc",
    "run_sgld",
    "run_svrg_ld",
    "run_sarah_ld",
    "run_annealed",
    "run_chain",
    "run_replicates",
    "run_ensemble",
    "sample_index_set",
    "__version__",
]

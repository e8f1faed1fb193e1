"""Variance-reduced stochastic gradient Langevin dynamics over finite-sum
potentials, with a closed-form theory calculator and desk-scale diagnostics."""

from .potentials import FiniteSumObjective, GaussianMoments, make_builtin
from .samplers import (
    AnnealSchedule,
    RunTrace,
    SamplerConfig,
    run_chain,
    run_ensemble,
    run_replicates,
    sample_index_set,
)

__version__ = "0.1.0"

__all__ = [
    "FiniteSumObjective",
    "GaussianMoments",
    "make_builtin",
    "SamplerConfig",
    "AnnealSchedule",
    "RunTrace",
    "run_chain",
    "run_replicates",
    "run_ensemble",
    "sample_index_set",
    "__version__",
]

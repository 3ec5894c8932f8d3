"""Gaussian Process Regression substrate (replaces scikit-learn 0.18.dev0).

Public API::

    from repro.gp import GaussianProcessRegressor, SquaredExponential, default_kernel
"""

from .gpr import GaussianProcessRegressor, default_kernel
from .incremental import NotPositiveDefiniteError, cholesky_append
from .kernels import SquaredExponential, kernel_from_dict, kernel_to_dict
from .loocv import (
    LOOResult,
    fit_loocv,
    loo_pseudo_likelihood,
    loo_residuals,
    loo_standardized_residuals,
)
from .optimize import OptimizeOutcome, minimize_with_restarts
from .solvers import AUTO_EXACT_MAX, SolverConfig, resolve_solver
from .trend import TrendGPR, polynomial_basis

__all__ = [
    "GaussianProcessRegressor",
    "default_kernel",
    "SolverConfig",
    "resolve_solver",
    "AUTO_EXACT_MAX",
    "NotPositiveDefiniteError",
    "cholesky_append",
    "SquaredExponential",
    "kernel_to_dict",
    "kernel_from_dict",
    "OptimizeOutcome",
    "minimize_with_restarts",
    "LOOResult",
    "loo_residuals",
    "loo_standardized_residuals",
    "loo_pseudo_likelihood",
    "fit_loocv",
    "TrendGPR",
    "polynomial_basis",
]

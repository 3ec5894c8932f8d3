"""Leave-one-out cross-validation (pseudo-likelihood) model selection.

The paper (Section III, citing Rasmussen & Williams Ch. 5) names two routes
for fitting GPR hyperparameters: Bayesian inference with the marginal
likelihood — the route the paper uses — and leave-one-out cross-validation
with the pseudo-likelihood, whose empirical comparison the paper defers to
future work.  This module implements that second route so the comparison can
actually be run (``benchmarks/bench_ablation_loocv.py``).

The LOO residuals come for free from one Cholesky factorization
(R&W Eqs. 5.10-5.12):

    mu_i      = y_i - [K_y^{-1} y]_i / [K_y^{-1}]_ii
    sigma_i^2 = 1 / [K_y^{-1}]_ii

and the pseudo log-likelihood is the sum of the per-point predictive log
densities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky

from .gpr import GaussianProcessRegressor, _LOG_2PI
from .optimize import OptimizeOutcome, minimize_with_restarts
from .solvers import add_noise_diagonal
from .validate import as_1d_array, as_2d_array, check_consistent_rows

__all__ = [
    "loo_residuals",
    "loo_standardized_residuals",
    "loo_pseudo_likelihood",
    "fit_loocv",
    "LOOResult",
]


@dataclass
class LOOResult:
    """Leave-one-out predictive summary for a fitted hyperparameter setting.

    Attributes
    ----------
    mean:
        Per-point LOO predictive means.
    std:
        Per-point LOO predictive standard deviations.
    pseudo_log_likelihood:
        Sum of LOO predictive log densities (higher is better).
    """

    mean: np.ndarray
    std: np.ndarray
    pseudo_log_likelihood: float


def _loo_from_K(K_y: np.ndarray, y: np.ndarray) -> LOOResult:
    L = cholesky(K_y, lower=True, check_finite=False)
    K_inv = cho_solve((L, True), np.eye(K_y.shape[0]), check_finite=False)
    K_inv_y = K_inv @ y
    diag = np.diag(K_inv)
    var = 1.0 / diag
    mean = y - K_inv_y / diag
    resid = y - mean
    logpdf = -0.5 * (np.log(var) + resid**2 / var + _LOG_2PI)
    return LOOResult(mean=mean, std=np.sqrt(var), pseudo_log_likelihood=float(np.sum(logpdf)))


def loo_residuals(model: GaussianProcessRegressor) -> LOOResult:
    """LOO predictive means/stds of a *fitted* regressor, in original units.

    Heteroscedastic fits (per-point ``alpha``, see
    :meth:`GaussianProcessRegressor.fit`) are supported: the per-point
    variances join the diagonal of the rebuilt ``K_y``, so the held-out
    predictive variance of a noisy probe is correspondingly wider.
    """
    if not model.fitted:
        raise RuntimeError("model is not fitted")
    fit = model._fit
    assert fit is not None and model.kernel_ is not None
    K = add_noise_diagonal(
        model.kernel_(fit.X),
        model.noise_variance_,
        model.jitter,
        None if fit.noise_alpha is None else fit.noise_alpha / fit.y_std**2,
    )
    res = _loo_from_K(K, fit.y)
    return LOOResult(
        mean=res.mean * fit.y_std + fit.y_mean,
        std=res.std * fit.y_std,
        pseudo_log_likelihood=res.pseudo_log_likelihood,
    )


def loo_standardized_residuals(model: GaussianProcessRegressor) -> np.ndarray:
    """LOO standardized residuals (z-scores) of a *fitted* regressor.

    For every training point ``i`` this is

        z_i = (y_i - mu_{-i}) / sigma_{-i},

    the held-out residual of point ``i`` under the GP trained on all other
    points, in units of that prediction's standard deviation — the
    diagnostic R&W Section 5.4.2 recommends for spotting observations the
    model cannot explain.  Under a well-specified model the z-scores are
    approximately standard normal, so ``|z_i| > 3`` marks ``y_i`` as an
    outlier (a corrupted measurement, or a point from a different regime
    after a cluster slowdown).  :class:`repro.al.guardrails.ModelHealth`
    uses the fraction of such outliers as an overfitting/poisoning alarm.

    Computed from the single Cholesky factorization cached by the fit
    (no refits); scale-invariant, so target normalization cancels.
    """
    if not model.fitted:
        raise RuntimeError("model is not fitted")
    res = loo_residuals(model)
    y = model.y_train_
    return (y - res.mean) / res.std


def loo_pseudo_likelihood(
    model: GaussianProcessRegressor, theta: np.ndarray, X, y
) -> float:
    """Pseudo log-likelihood of hyperparameters ``theta`` on data ``(X, y)``.

    ``theta`` uses the same joint layout as
    :meth:`GaussianProcessRegressor.log_marginal_likelihood`.  Scalar-noise
    only: the LOOCV selection route predates per-point ``alpha`` support
    and the ablation benches that use it are homoscedastic.
    """
    X = as_2d_array(X)
    y = as_1d_array(y)
    check_consistent_rows(X, y)
    kernel, noise = model._at_theta(theta, X.shape[1])
    K = add_noise_diagonal(kernel(X), noise, model.jitter)
    try:
        return _loo_from_K(K, y).pseudo_log_likelihood
    except np.linalg.LinAlgError:
        return -np.inf


def fit_loocv(
    model: GaussianProcessRegressor,
    X,
    y,
    *,
    n_restarts: int | None = None,
    fd_step: float = 1e-5,
) -> OptimizeOutcome:
    """Fit ``model`` by maximizing the LOO pseudo-likelihood instead of the LML.

    The gradient is approximated by central finite differences in log space
    (the pseudo-likelihood's analytic gradient exists but offers no accuracy
    benefit at the problem sizes of this study).  On return the model is
    fitted: hyperparameters installed and the posterior cached.
    """
    X = as_2d_array(X)
    y = as_1d_array(y)
    check_consistent_rows(X, y)
    if model.kernel_ is None:
        model.kernel_ = model._template_kernel(X.shape[1])
    theta0 = model._theta()
    bounds = model._theta_bounds()
    restarts = model.n_restarts if n_restarts is None else n_restarts
    if theta0.size == 0:
        # Nothing to optimize: every hyperparameter is fixed.
        saved_optimizer, saved_kernel = model.optimizer, model.kernel
        model.optimizer = None
        model.kernel = model.kernel_
        try:
            model.fit(X, y)
        finally:
            model.optimizer = saved_optimizer
            model.kernel = saved_kernel
        value = -loo_pseudo_likelihood(model, theta0, X, y)
        return OptimizeOutcome(theta=theta0, value=value, n_restarts=0)

    def objective(theta: np.ndarray):
        value = -loo_pseudo_likelihood(model, theta, X, y)
        grad = np.empty_like(theta)
        for j in range(theta.size):
            step = np.zeros_like(theta)
            step[j] = fd_step
            hi = -loo_pseudo_likelihood(model, theta + step, X, y)
            lo = -loo_pseudo_likelihood(model, theta - step, X, y)
            grad[j] = (hi - lo) / (2.0 * fd_step)
        return value, grad

    outcome = minimize_with_restarts(
        objective, theta0, bounds, n_restarts=restarts, rng=model.rng
    )
    model._set_theta(outcome.theta)
    # Cache the posterior at the chosen hyperparameters without re-optimizing.
    # fit() restarts from the template attributes, so temporarily make the
    # LOO optimum the template.
    saved_optimizer = model.optimizer
    saved_kernel = model.kernel
    saved_noise_template = model.noise_variance
    model.optimizer = None
    model.kernel = model.kernel_
    model.noise_variance = model.noise_variance_
    try:
        model.fit(X, y)
    finally:
        model.optimizer = saved_optimizer
        model.kernel = saved_kernel
        model.noise_variance = saved_noise_template
    return outcome

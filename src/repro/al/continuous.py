"""Continuous-domain candidate selection (paper Section VI).

"Realistic simulations often involve continuous or near-continuous
parameters, such that the active set cannot be treated as finite.  We
expect that this could be handled by choosing the best option within a
finite subset or, preferably, by using continuous optimization.
Gradient-based methods, which are available with GPR, would provide an
important benefit for problems with high-dimensional parameter spaces."

This module implements exactly that: acquisition functions over a
continuous box, maximized with multi-start L-BFGS-B using the GP's
*analytic* input-space gradients (:meth:`GaussianProcessRegressor.
predict_gradient`), plus a continuous AL loop driven by a user-supplied
experiment function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..gp.gpr import GaussianProcessRegressor

__all__ = [
    "AcquisitionResult",
    "maximize_sd",
    "maximize_cost_efficiency",
    "ContinuousActiveLearner",
    "ContinuousTrace",
]


@dataclass(frozen=True)
class AcquisitionResult:
    """Outcome of one acquisition maximization."""

    x: np.ndarray
    value: float
    n_starts: int


def _check_bounds(bounds) -> np.ndarray:
    bounds = np.asarray(bounds, dtype=float)
    if bounds.ndim != 2 or bounds.shape[1] != 2:
        raise ValueError(f"bounds must have shape (d, 2), got {bounds.shape}")
    if np.any(bounds[:, 0] >= bounds[:, 1]):
        raise ValueError("bounds must satisfy low < high per dimension")
    return bounds


def _maximize(
    model: GaussianProcessRegressor,
    bounds: np.ndarray,
    value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    *,
    n_starts: int,
    rng,
) -> AcquisitionResult:
    from scipy.optimize import minimize  # deferred: costly, rarely needed

    bounds = _check_bounds(bounds)
    if not model.fitted:
        raise RuntimeError("model is not fitted")
    rng = np.random.default_rng(rng)
    d = bounds.shape[0]
    # Starts: random points plus the training point closest to each corner
    # region is unnecessary — uniform random restarts suffice in the smooth
    # posterior landscapes at these dimensions.
    starts = rng.uniform(bounds[:, 0], bounds[:, 1], size=(n_starts, d))

    def negative(x):
        value, grad = value_and_grad(x)
        return -value, -grad

    best_x, best_val = None, -np.inf
    for start in starts:
        res = minimize(
            negative, start, jac=True, method="L-BFGS-B", bounds=bounds
        )
        if -res.fun > best_val:
            best_val = float(-res.fun)
            best_x = np.asarray(res.x)
    assert best_x is not None
    return AcquisitionResult(x=best_x, value=best_val, n_starts=n_starts)


def maximize_sd(
    model: GaussianProcessRegressor,
    bounds,
    *,
    n_starts: int = 8,
    rng=None,
) -> AcquisitionResult:
    """Continuous Variance Reduction: ``argmax_x sigma(x)`` over a box."""

    def value_and_grad(x):
        _, sd = model.predict(x[np.newaxis, :], return_std=True)
        _, d_sd = model.predict_gradient(x)
        return float(sd[0]), d_sd

    return _maximize(model, np.asarray(bounds, float), value_and_grad,
                     n_starts=n_starts, rng=rng)


def maximize_cost_efficiency(
    model: GaussianProcessRegressor,
    bounds,
    *,
    cost_weight: float = 1.0,
    n_starts: int = 8,
    rng=None,
) -> AcquisitionResult:
    """Continuous Cost Efficiency: ``argmax_x sigma(x) - w * mu(x)`` (Eq. 14)."""

    def value_and_grad(x):
        mu, sd = model.predict(x[np.newaxis, :], return_std=True)
        d_mu, d_sd = model.predict_gradient(x)
        return float(sd[0] - cost_weight * mu[0]), d_sd - cost_weight * d_mu

    return _maximize(model, np.asarray(bounds, float), value_and_grad,
                     n_starts=n_starts, rng=rng)


@dataclass
class ContinuousTrace:
    """History of a continuous AL run."""

    X: list = field(default_factory=list)
    y: list = field(default_factory=list)
    acquisition_values: list = field(default_factory=list)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Visited inputs and responses as ``(X, y)`` arrays."""
        return np.asarray(self.X), np.asarray(self.y)


class ContinuousActiveLearner:
    """AL over a continuous input box with a real experiment function.

    Parameters
    ----------
    experiment:
        Callable ``x -> y`` running one experiment at input ``x`` (shape
        ``(d,)``) and returning the measured (possibly noisy) response.
    bounds:
        ``(d, 2)`` box of the input space.
    strategy:
        ``"variance"`` (continuous Variance Reduction) or
        ``"cost-efficiency"``.
    model_factory:
        Builds a fresh regressor per refit; defaults to the paper's robust
        settings.
    """

    def __init__(
        self,
        experiment: Callable[[np.ndarray], float],
        bounds,
        *,
        strategy: str = "variance",
        model_factory: Callable[[], GaussianProcessRegressor] | None = None,
        n_starts: int = 6,
        rng=None,
    ):
        if strategy not in ("variance", "cost-efficiency"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.experiment = experiment
        self.bounds = _check_bounds(bounds)
        self.strategy = strategy
        from .learner import default_model_factory

        self.model_factory = model_factory or default_model_factory(1e-2)
        self.n_starts = int(n_starts)
        self.rng = np.random.default_rng(rng)
        self.trace = ContinuousTrace()
        self.model: GaussianProcessRegressor | None = None

    def seed(self, x=None) -> float:
        """Run the seeding experiment (default: the box center)."""
        if x is None:
            x = self.bounds.mean(axis=1)
        x = np.asarray(x, dtype=float)
        y = float(self.experiment(x))
        self.trace.X.append(x)
        self.trace.y.append(y)
        self.trace.acquisition_values.append(np.nan)
        return y

    def step(self) -> tuple[np.ndarray, float]:
        """Fit, maximize the acquisition, run the experiment there."""
        if not self.trace.X:
            self.seed()
        X, y = self.trace.as_arrays()
        model = self.model_factory()
        model.fit(X, y)
        self.model = model
        if self.strategy == "variance":
            acq = maximize_sd(
                model, self.bounds, n_starts=self.n_starts, rng=self.rng
            )
        else:
            acq = maximize_cost_efficiency(
                model, self.bounds, n_starts=self.n_starts, rng=self.rng
            )
        y_new = float(self.experiment(acq.x))
        self.trace.X.append(acq.x)
        self.trace.y.append(y_new)
        self.trace.acquisition_values.append(acq.value)
        return acq.x, y_new

    def run(self, n_iterations: int) -> ContinuousTrace:
        """Run ``n_iterations`` AL steps (seeding first if needed)."""
        if n_iterations < 0:
            raise ValueError("n_iterations must be >= 0")
        for _ in range(n_iterations):
            self.step()
        return self.trace

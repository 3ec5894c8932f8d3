"""Experiment: Fig. 3 — 1-D GPR predictive distributions vs problem size.

The paper fixes NP=32, freq=2.4, operator=poisson1 and regresses log
runtime on log problem size, showing

(a) GPRs with four hand-set (length scale, amplitude) pairs on *all*
    measurements: the means nearly coincide, but smaller length scales blow
    up the confidence interval between measurement points;
(b) the same on a random 4-point subset: uncertainty is exaggerated at the
    domain edge with no measurement nearby, and even the means disagree.

``run`` reproduces both panels: predictive mean/CI curves per
hyperparameter setting, plus the summary statistics the paper's prose
relies on (mean-curve disagreement, average CI width between points).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gp.gpr import GaussianProcessRegressor
from ..gp.kernels import SquaredExponential
from .common import DEFAULT_SEED, one_d_subset

__all__ = ["GPRCurve", "Fig3Panel", "Fig3Result", "run"]

#: The four (length_scale, sigma_f) settings compared in each panel;
#: expressed in log10-problem-size units (the x-axis spans ~6 decades).
DEFAULT_HYPERS = ((0.5, 1.0), (1.0, 1.0), (2.0, 1.0), (0.5, 3.0))


@dataclass(frozen=True)
class GPRCurve:
    """Predictive distribution of one hyperparameter setting on a grid."""

    length_scale: float
    sigma_f: float
    grid: np.ndarray
    mean: np.ndarray
    sd: np.ndarray

    @property
    def ci_low(self) -> np.ndarray:
        """Lower edge of the 95% confidence band (mean - 2 sd)."""
        return self.mean - 2.0 * self.sd

    @property
    def ci_high(self) -> np.ndarray:
        """Upper edge of the 95% confidence band (mean + 2 sd)."""
        return self.mean + 2.0 * self.sd


@dataclass(frozen=True)
class Fig3Panel:
    """One panel: training data plus one curve per hyperparameter setting."""

    X_train: np.ndarray
    y_train: np.ndarray
    curves: list

    def mean_disagreement(self) -> float:
        """Max pointwise spread among the predictive means."""
        means = np.vstack([c.mean for c in self.curves])
        return float(np.max(means.max(axis=0) - means.min(axis=0)))

    def mean_ci_width(self, length_scale: float) -> float:
        """Average CI width of the curve with the given length scale."""
        for c in self.curves:
            if c.length_scale == length_scale:
                return float(np.mean(c.ci_high - c.ci_low))
        raise KeyError(f"no curve with length_scale={length_scale}")


@dataclass(frozen=True)
class Fig3Result:
    all_points: Fig3Panel
    four_points: Fig3Panel
    grid: np.ndarray


def _fit_curves(X, y, grid, hypers, noise_variance) -> list[GPRCurve]:
    curves = []
    for length_scale, sigma_f in hypers:
        kernel = SquaredExponential(
            sigma_f**2,
            length_scale,
            signal_variance_bounds="fixed",
            length_scale_bounds="fixed",
        )
        model = GaussianProcessRegressor(
            kernel=kernel,
            noise_variance=noise_variance,
            noise_variance_bounds="fixed",
            optimizer=None,
        )
        model.fit(X, y)
        mean, sd = model.predict(grid[:, np.newaxis], return_std=True)
        curves.append(
            GPRCurve(
                length_scale=length_scale,
                sigma_f=sigma_f,
                grid=grid,
                mean=mean,
                sd=sd,
            )
        )
    return curves


def run(
    seed: int = DEFAULT_SEED,
    *,
    hypers=DEFAULT_HYPERS,
    n_grid: int = 120,
    noise_variance: float = 1e-2,
    subset_size: int = 4,
) -> Fig3Result:
    """Build both Fig. 3 panels."""
    X, y = one_d_subset(seed)
    grid = np.linspace(X.min(), X.max(), n_grid)
    panel_all = Fig3Panel(
        X_train=X,
        y_train=y,
        curves=_fit_curves(X, y, grid, hypers, noise_variance),
    )
    rng = np.random.default_rng(seed)
    idx = rng.choice(X.shape[0], size=subset_size, replace=False)
    panel_four = Fig3Panel(
        X_train=X[idx],
        y_train=y[idx],
        curves=_fit_curves(X[idx], y[idx], grid, hypers, noise_variance),
    )
    return Fig3Result(all_points=panel_all, four_points=panel_four, grid=grid)

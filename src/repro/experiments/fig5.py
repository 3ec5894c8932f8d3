"""Experiment: Fig. 5 — 2-D GPR surfaces on a small training set.

Varying Problem Size and CPU Frequency with four randomly selected training
points, the paper shows (a) the predictive-mean surface between the two
confidence-interval surfaces, with candidate experiments drawn as vertical
segments whose length is the local CI width — widest far from the training
points — and (b) a *shallow* LML landscape (contrast with Fig. 4) that
still yields a usable optimum.

``run`` returns the three surfaces on a grid, the per-candidate CI widths,
and the LML grid with a shallowness metric comparable against Fig. 4's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gp.gpr import GaussianProcessRegressor
from ..gp.kernels import SquaredExponential
from .common import DEFAULT_SEED, fig6_subset
from .fig4 import LMLGrid, count_local_maxima

__all__ = ["Fig5Result", "run"]


@dataclass(frozen=True)
class Fig5Result:
    """Surfaces and LML landscape of the small-data 2-D GPR."""

    X_train: np.ndarray
    y_train: np.ndarray
    size_grid: np.ndarray  # log10 problem size axis
    freq_grid: np.ndarray  # GHz axis
    mean_surface: np.ndarray  # shape (n_size, n_freq)
    ci_low_surface: np.ndarray
    ci_high_surface: np.ndarray
    candidates: np.ndarray  # (n, 2) pool points
    candidate_ci_width: np.ndarray  # (n,)
    lml_grid: LMLGrid
    n_local_maxima: int
    lml_range: float

    def widest_candidate(self) -> np.ndarray:
        """The pool point with the widest confidence interval."""
        return self.candidates[int(np.argmax(self.candidate_ci_width))]


def run(
    seed: int = DEFAULT_SEED,
    *,
    n_train: int = 4,
    n_grid: int = 30,
    n_lml: int = 21,
) -> Fig5Result:
    """Fit the 4-point 2-D GPR and scan its surfaces and LML landscape."""
    X, y, _ = fig6_subset(seed)
    rng = np.random.default_rng(seed + 5)
    idx = rng.choice(X.shape[0], size=n_train, replace=False)
    X_train, y_train = X[idx], y[idx]

    model = GaussianProcessRegressor(
        noise_variance=1e-1,
        noise_variance_bounds=(1e-1, 1e2),
        n_restarts=4,
        normalize_y=True,
        rng=seed,
    )
    model.fit(X_train, y_train)

    size_grid = np.linspace(X[:, 0].min(), X[:, 0].max(), n_grid)
    freq_grid = np.linspace(X[:, 1].min(), X[:, 1].max(), n_grid)
    SS, FF = np.meshgrid(size_grid, freq_grid, indexing="ij")
    query = np.column_stack([SS.ravel(), FF.ravel()])
    mean, sd = model.predict(query, return_std=True)
    mean = mean.reshape(n_grid, n_grid)
    sd = sd.reshape(n_grid, n_grid)

    _, cand_sd = model.predict(X, return_std=True)

    # LML landscape over (length scale, noise variance) with other
    # hyperparameters held at their fitted values.
    ls_axis = np.geomspace(3e-2, 3e1, n_lml)
    nv_axis = np.geomspace(1e-2, 1e2, n_lml)
    fitted_amp = float(model.kernel_.signal_variance)
    probe = GaussianProcessRegressor(
        kernel=SquaredExponential(
            fitted_amp,
            1.0,
            signal_variance_bounds="fixed",
            length_scale_bounds=(1e-2, 1e3),
        ),
        noise_variance=model.noise_variance_,
        noise_variance_bounds=(1e-2, 1e2),
        normalize_y=True,
    )
    lml = np.empty((n_lml, n_lml))
    for i, ls in enumerate(ls_axis):
        for j, nv in enumerate(nv_axis):
            lml[i, j] = probe.log_marginal_likelihood(
                np.log([ls, nv]), X=X_train, y=y_train
            )
    lml_grid = LMLGrid(length_scales=ls_axis, noise_variances=nv_axis, lml=lml)

    return Fig5Result(
        X_train=X_train,
        y_train=y_train,
        size_grid=size_grid,
        freq_grid=freq_grid,
        mean_surface=mean,
        ci_low_surface=mean - 2 * sd,
        ci_high_surface=mean + 2 * sd,
        candidates=X,
        candidate_ci_width=4.0 * cand_sd,
        lml_grid=lml_grid,
        n_local_maxima=count_local_maxima(lml),
        lml_range=float(np.max(lml) - np.median(lml)),
    )

"""Experiment: Fig. 4 — LML landscape over (length scale, noise level).

For the abundant-data 1-D subset of Fig. 3(a), the paper plots the log
marginal likelihood as a function of the hyperparameters ``l`` and
``sigma_n`` and observes "a straightforward optimization problem with a
unique global optimum" findable by "gradient ascend with a single randomly
selected starting point".

``run`` computes the LML grid, locates its peak, counts grid-local maxima
(uniqueness check), and verifies that a single-start L-BFGS ascent lands at
the same peak as a multi-restart search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gp.gpr import GaussianProcessRegressor
from ..gp.kernels import SquaredExponential
from .common import DEFAULT_SEED, one_d_subset

__all__ = ["LMLGrid", "Fig4Result", "run", "count_local_maxima"]


@dataclass(frozen=True)
class LMLGrid:
    """LML evaluated on a (length_scale x noise_variance) log grid."""

    length_scales: np.ndarray
    noise_variances: np.ndarray
    lml: np.ndarray  # shape (n_ls, n_nv)

    def peak(self) -> tuple[float, float, float]:
        """(length_scale, noise_variance, lml) at the grid maximum."""
        i, j = np.unravel_index(int(np.argmax(self.lml)), self.lml.shape)
        return (
            float(self.length_scales[i]),
            float(self.noise_variances[j]),
            float(self.lml[i, j]),
        )


def count_local_maxima(grid: np.ndarray) -> int:
    """Strict interior local maxima of a 2-D array (4-neighbourhood)."""
    core = grid[1:-1, 1:-1]
    return int(
        np.count_nonzero(
            (core > grid[:-2, 1:-1])
            & (core > grid[2:, 1:-1])
            & (core > grid[1:-1, :-2])
            & (core > grid[1:-1, 2:])
        )
    )


@dataclass(frozen=True)
class Fig4Result:
    grid: LMLGrid
    n_local_maxima: int
    single_start_optimum: tuple  # (length_scale, noise_variance)
    multi_start_optimum: tuple
    optima_agree: bool
    lml_range: float  # peakedness: max - median over the grid


def _grid_model(sigma_f2: float) -> GaussianProcessRegressor:
    kernel = SquaredExponential(
        sigma_f2, 1.0, signal_variance_bounds="fixed", length_scale_bounds=(1e-2, 1e3)
    )
    return GaussianProcessRegressor(
        kernel=kernel, noise_variance=1e-2, noise_variance_bounds=(1e-8, 1e3)
    )


def run(
    seed: int = DEFAULT_SEED,
    *,
    n_ls: int = 25,
    n_nv: int = 25,
    ls_range=(3e-2, 3e1),
    nv_range=(1e-6, 1e1),
    sigma_f2: float = 4.0,
) -> Fig4Result:
    """Scan the LML landscape and check peak uniqueness/findability."""
    X, y = one_d_subset(seed)
    model = _grid_model(sigma_f2)
    length_scales = np.geomspace(*ls_range, n_ls)
    noise_vars = np.geomspace(*nv_range, n_nv)
    lml = np.empty((n_ls, n_nv))
    for i, ls in enumerate(length_scales):
        for j, nv in enumerate(noise_vars):
            theta = np.log([ls, nv])
            lml[i, j] = model.log_marginal_likelihood(theta, X=X, y=y)
    grid = LMLGrid(length_scales=length_scales, noise_variances=noise_vars, lml=lml)

    # Single random start vs multi-restart search.
    single = _grid_model(sigma_f2)
    single.n_restarts = 0
    rng = np.random.default_rng(seed)
    single.kernel.length_scale = float(rng.uniform(0.1, 10.0))
    single.fit(X, y)
    multi = _grid_model(sigma_f2)
    multi.n_restarts = 6
    multi.rng = np.random.default_rng(seed + 1)
    multi.fit(X, y)

    def optimum(m: GaussianProcessRegressor) -> tuple[float, float]:
        return (float(m.kernel_.length_scale), float(m.noise_variance_))

    s_opt, m_opt = optimum(single), optimum(multi)
    agree = bool(
        np.allclose(np.log(s_opt), np.log(m_opt), atol=0.3)
    )  # same basin, log scale
    return Fig4Result(
        grid=grid,
        n_local_maxima=count_local_maxima(lml),
        single_start_optimum=s_opt,
        multi_start_optimum=m_opt,
        optima_agree=agree,
        lml_range=float(np.max(lml) - np.median(lml)),
    )

"""Ablation: plain GPR vs semi-parametric (trend + GP) extrapolation.

The paper's responses look near-linear in log-log space (Fig. 2), so one
might expect an explicit linear trend (universal kriging,
:class:`repro.gp.TrendGPR`) to extrapolate from cheap small-problem
measurements to unmeasured large problems much better than a zero-mean GP.

The measured outcome is more nuanced — and worth recording:

* a plain GP with *wide length-scale bounds* fits l ~ 3 (in log10-size
  units) and effectively carries the trend itself, extrapolating well;
* the *global* linear trend is biased by the setup-time floor that
  dominates small problems (fitted slope ~0.5 instead of the ~1.0 of the
  work-dominated tail), so TrendGPR extrapolates *worse* here;
* TrendGPR wins when the trend is genuinely global (see
  ``tests/gp/test_trend.py::test_extrapolates_better_than_plain_gp``).

Moral for practitioners: prefer generous length-scale bounds over drift
terms when the surface has regime changes; use explicit trends only for
regime-free responses.
"""

import numpy as np
from conftest import banner

from repro.al.metrics import rmse as rmse_metric
from repro.experiments.common import fig6_subset
from repro.gp import GaussianProcessRegressor, SquaredExponential, TrendGPR


def _trend_rmse(model, X_test, y_test):
    pred = model.predict(X_test)
    return float(np.sqrt(np.mean((pred - y_test) ** 2)))


def _narrow_kernel():
    return SquaredExponential(
        1.0, 1.0, signal_variance_bounds=(1e-3, 1e3), length_scale_bounds=(1e-2, 2.0)
    )


def _compare(X, y, n_reps=5):
    median_size = np.median(X[:, 0])
    small = X[:, 0] <= median_size
    test_idx = np.flatnonzero(~small)
    rows = []
    rng = np.random.default_rng(0)
    for rep in range(n_reps):
        train_idx = rng.choice(np.flatnonzero(small), size=40, replace=False)

        wide = GaussianProcessRegressor(
            noise_variance=1e-1, noise_variance_bounds=(1e-2, 1e2),
            n_restarts=2, rng=rep,
        ).fit(X[train_idx], y[train_idx])
        narrow = GaussianProcessRegressor(
            kernel=_narrow_kernel(),
            noise_variance=1e-1, noise_variance_bounds=(1e-2, 1e2),
            n_restarts=2, rng=rep,
        ).fit(X[train_idx], y[train_idx])
        trend = TrendGPR(
            degree=1,
            gp_factory=lambda: GaussianProcessRegressor(
                kernel=_narrow_kernel(),
                noise_variance=1e-1, noise_variance_bounds=(1e-2, 1e2),
                n_restarts=2, rng=rep,
            ),
        ).fit(X[train_idx], y[train_idx])

        rows.append((
            rmse_metric(wide, X[test_idx], y[test_idx]),
            rmse_metric(narrow, X[test_idx], y[test_idx]),
            _trend_rmse(trend, X[test_idx], y[test_idx]),
            float(trend.trend_coefficients[1]),
        ))
    return np.asarray(rows)


def test_trend_extrapolation(once):
    X, y, _ = fig6_subset()
    rows = once(_compare, X, y)
    banner("ABLATION — extrapolating to unmeasured large problems "
           "(train on the cheap half)")
    print(f"{'rep':>4} {'wide-l GPR':>11} {'narrow-l GPR':>13} "
          f"{'trend GPR':>10} {'fitted slope':>13}")
    for i, (wide, narrow, trend, slope) in enumerate(rows):
        print(f"{i:>4} {wide:>11.4f} {narrow:>13.4f} {trend:>10.4f} "
              f"{slope:>13.3f}")
    print(f"\nmeans: wide {rows[:, 0].mean():.4f}, narrow {rows[:, 1].mean():.4f}, "
          f"trend {rows[:, 2].mean():.4f}")
    print("finding: the setup-time floor biases the global linear trend "
          "(slope ~0.5 << 1), so the wide-length-scale GP extrapolates best "
          "on this regime-switching surface.")
    # The reproducible finding: wide length-scale bounds dominate here.
    assert rows[:, 0].mean() < rows[:, 1].mean()
    assert rows[:, 0].mean() < rows[:, 2].mean()
    # The trend slope is visibly dragged below the tail's ~1.0.
    assert rows[:, 3].mean() < 0.8

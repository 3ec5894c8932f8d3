"""Tests for predictive-interval coverage diagnostics."""

import numpy as np
import pytest

from repro.al.calibration import CoverageReport, coverage_curve, interval_coverage
from repro.gp import GaussianProcessRegressor, SquaredExponential


def _well_specified_model(n_train=60, n_test=400, noise_sd=0.1, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 6, size=(n_train, 1))
    f = np.sin(X[:, 0])
    y = f + noise_sd * rng.standard_normal(n_train)
    model = GaussianProcessRegressor(
        noise_variance=noise_sd**2, noise_variance_bounds="fixed",
        kernel=SquaredExponential(
            1.0, 1.0, signal_variance_bounds="fixed", length_scale_bounds="fixed"
        ),
        optimizer=None,
    ).fit(X, y)
    X_test = rng.uniform(0, 6, size=(n_test, 1))
    y_test = np.sin(X_test[:, 0]) + noise_sd * rng.standard_normal(n_test)
    return model, X_test, y_test


def test_well_specified_model_is_calibrated():
    model, X_test, y_test = _well_specified_model()
    report = interval_coverage(model, X_test, y_test)
    assert report.is_calibrated(tol=0.08)
    assert report.mean_absolute_miscalibration < 0.05


def test_overconfident_model_detected():
    """Shrinking the claimed noise makes intervals too narrow -> low coverage."""
    model, X_test, y_test = _well_specified_model(noise_sd=0.2)
    overconfident = GaussianProcessRegressor(
        noise_variance=1e-6, noise_variance_bounds="fixed",
        kernel=SquaredExponential(
            1.0, 1.0, signal_variance_bounds="fixed", length_scale_bounds="fixed"
        ),
        optimizer=None,
    ).fit(model.X_train_, model.y_train_)
    report = interval_coverage(overconfident, X_test, y_test)
    assert not report.is_calibrated(tol=0.15)
    # Nominal 95% interval covers far fewer points.
    i95 = report.levels.index(0.95)
    assert report.empirical[i95] < 0.7


def test_underconfident_model_wide_but_covered():
    model, X_test, y_test = _well_specified_model(noise_sd=0.05)
    padded = GaussianProcessRegressor(
        noise_variance=1.0, noise_variance_bounds="fixed",
        kernel=SquaredExponential(
            1.0, 1.0, signal_variance_bounds="fixed", length_scale_bounds="fixed"
        ),
        optimizer=None,
    ).fit(model.X_train_, model.y_train_)
    report = interval_coverage(padded, X_test, y_test)
    # Everything is inside the bloated intervals...
    assert min(report.empirical) > 0.9
    # ...which calibration flags via the low-level mismatch.
    assert not report.is_calibrated(tol=0.15)
    # And sharpness reveals the cost of the padding.
    sharp = interval_coverage(model, X_test, y_test).sharpness
    assert report.sharpness > 3 * sharp


def test_levels_validation():
    model, X_test, y_test = _well_specified_model(n_train=10, n_test=20)
    with pytest.raises(ValueError):
        interval_coverage(model, X_test, y_test, levels=(0.0, 0.5))
    with pytest.raises(ValueError):
        interval_coverage(model, X_test, y_test, levels=())
    with pytest.raises(ValueError):
        interval_coverage(model, X_test, y_test[:-1])


def test_coverage_curve_format():
    report = CoverageReport(
        levels=(0.5, 0.95),
        empirical=(0.48, 0.93),
        mean_absolute_miscalibration=0.02,
        sharpness=0.3,
    )
    text = coverage_curve(report)
    assert "nominal" in text and "95%" in text and "93.0%" in text


def test_al_fitted_model_calibration(fig6_data):
    """The paper-default model (1e-1 floor) is conservative but covering."""
    from repro.al import default_model_factory, random_partition

    X, y, _ = fig6_data
    part = random_partition(X.shape[0], rng=0)
    model = default_model_factory(1e-1)()
    model.fit(X[part.active], y[part.active])
    report = interval_coverage(model, X[part.test], y[part.test])
    # The raised noise floor makes intervals conservative: coverage at or
    # above nominal everywhere (never overconfident).
    assert all(e >= l - 0.05 for e, l in zip(report.empirical, report.levels))

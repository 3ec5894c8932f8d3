"""Tests for leave-one-out pseudo-likelihood model selection."""

import numpy as np
import pytest

from repro.gp import (
    GaussianProcessRegressor,
    SquaredExponential,
    fit_loocv,
    loo_pseudo_likelihood,
    loo_residuals,
)


def _model_and_data(seed=0, n=14):
    rng = np.random.default_rng(seed)
    X = np.sort(rng.uniform(0, 6, size=n))[:, np.newaxis]
    y = np.sin(X[:, 0]) + 0.05 * rng.standard_normal(n)
    model = GaussianProcessRegressor(
        kernel=SquaredExponential(
            1.0, 1.0, signal_variance_bounds="fixed", length_scale_bounds="fixed"
        ),
        noise_variance=0.01,
        noise_variance_bounds="fixed",
        optimizer=None,
    ).fit(X, y)
    return model, X, y


def test_loo_matches_brute_force():
    """The O(1) LOO formulas must equal actually refitting without point i."""
    model, X, y = _model_and_data()
    res = loo_residuals(model)
    for i in range(len(y)):
        mask = np.ones(len(y), dtype=bool)
        mask[i] = False
        sub = GaussianProcessRegressor(
            kernel=model.kernel_,
            noise_variance=model.noise_variance_,
            noise_variance_bounds="fixed",
            optimizer=None,
        ).fit(X[mask], y[mask])
        mu_i, sd_i = sub.predict(X[i : i + 1], return_std=True, include_noise=True)
        assert res.mean[i] == pytest.approx(mu_i[0], rel=1e-6, abs=1e-8)
        assert res.std[i] == pytest.approx(sd_i[0], rel=1e-5, abs=1e-8)


def test_loo_requires_fitted_model():
    model = GaussianProcessRegressor()
    with pytest.raises(RuntimeError):
        loo_residuals(model)


def test_pseudo_likelihood_prefers_reasonable_hypers():
    rng = np.random.default_rng(0)
    X = np.sort(rng.uniform(0, 6, size=14))[:, np.newaxis]
    y = np.sin(X[:, 0]) + 0.05 * rng.standard_normal(14)
    model = GaussianProcessRegressor(
        kernel=SquaredExponential(
            1.0, 1.0, signal_variance_bounds="fixed", length_scale_bounds=(1e-3, 1e3)
        ),
        noise_variance=0.01,
        noise_variance_bounds="fixed",
        optimizer=None,
    ).fit(X, y)
    good = loo_pseudo_likelihood(model, np.log([1.0]), X, y)
    bad = loo_pseudo_likelihood(model, np.log([100.0]), X, y)
    assert good > bad


def test_pseudo_likelihood_shape_validated():
    model, X, y = _model_and_data()  # fully fixed: theta is empty
    with pytest.raises(ValueError, match="shape"):
        loo_pseudo_likelihood(model, np.log([0.01]), X, y)


def test_fit_loocv_improves_pseudo_likelihood():
    model, X, y = _model_and_data()
    # Free the length scale and noise for the LOO fit.
    model = GaussianProcessRegressor(
        kernel=SquaredExponential(
            1.0,
            5.0,
            signal_variance_bounds=(1e-2, 1e2),
            length_scale_bounds=(1e-2, 1e2),
        ),
        noise_variance=0.5,
        noise_variance_bounds=(1e-4, 10.0),
        n_restarts=1,
        rng=0,
    )
    before = loo_pseudo_likelihood(
        model,
        np.log([1.0, 5.0, 0.5]),
        X,
        y,
    )
    outcome = fit_loocv(model, X, y, n_restarts=1)
    assert -outcome.value >= before - 1e-9
    assert model.fitted
    # The fitted model predicts well.
    pred = model.predict(X)
    assert np.sqrt(np.mean((pred - y) ** 2)) < 0.2


def test_fit_loocv_restores_optimizer_setting():
    model, X, y = _model_and_data()
    model.optimizer = "lbfgs"
    fit_loocv(model, X, y, n_restarts=0)
    assert model.optimizer == "lbfgs"


def test_pseudo_likelihood_state_restored():
    model, X, y = _model_and_data()
    before = model._theta().copy()
    loo_pseudo_likelihood(model, before + 0.7, X, y)
    np.testing.assert_allclose(model._theta(), before)


def test_standardized_residuals_flag_planted_outlier():
    """A grossly corrupted target gets |z| >> 3; clean points stay small."""
    rng = np.random.default_rng(3)
    X = np.sort(rng.uniform(0, 6, size=20))[:, np.newaxis]
    y = np.sin(X[:, 0]) + 0.02 * rng.standard_normal(20)
    y[7] += 4.0  # planted outlier, ~200 noise SDs off the surface
    model = GaussianProcessRegressor(
        kernel=SquaredExponential(
            1.0, 1.0, signal_variance_bounds="fixed", length_scale_bounds="fixed"
        ),
        noise_variance=0.02**2,
        noise_variance_bounds="fixed",
        optimizer=None,
    ).fit(X, y)

    from repro.gp import loo_standardized_residuals

    z = loo_standardized_residuals(model)
    assert z.shape == (20,)
    assert abs(z[7]) > 10.0
    assert np.argmax(np.abs(z)) == 7
    clean = np.abs(np.delete(z, 7))
    # The outlier dominates; most clean points stay far below it (its
    # immediate neighbours are contaminated through the smooth kernel).
    assert np.median(clean) < abs(z[7]) / 10


def test_standardized_residuals_near_standard_normal_when_clean():
    rng = np.random.default_rng(11)
    X = np.sort(rng.uniform(0, 6, size=40))[:, np.newaxis]
    y = np.sin(X[:, 0]) + 0.05 * rng.standard_normal(40)
    model = GaussianProcessRegressor(
        kernel=SquaredExponential(
            1.0, 1.0, signal_variance_bounds="fixed", length_scale_bounds="fixed"
        ),
        noise_variance=0.05**2,
        noise_variance_bounds="fixed",
        optimizer=None,
        normalize_y=True,
    ).fit(X, y)

    from repro.gp import loo_standardized_residuals

    z = loo_standardized_residuals(model)
    # Well-specified model: z-scores are ~N(0, 1) regardless of
    # normalize_y (the standardization cancels the target scaling).
    assert np.mean(np.abs(z) > 3.0) <= 0.05
    assert 0.3 < np.std(z) < 3.0


def test_standardized_residuals_require_fitted_model():
    with pytest.raises(RuntimeError):
        from repro.gp import loo_standardized_residuals

        loo_standardized_residuals(GaussianProcessRegressor())

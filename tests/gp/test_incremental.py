"""Tests for incremental (rank-1) GP posterior updates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cholesky

from repro.gp import (
    GaussianProcessRegressor,
    NotPositiveDefiniteError,
    SquaredExponential,
    cholesky_append,
)


def _fixed_model(noise=0.01, **kw):
    return GaussianProcessRegressor(
        kernel=SquaredExponential(
            1.0, 1.0, signal_variance_bounds="fixed", length_scale_bounds="fixed"
        ),
        noise_variance=noise,
        noise_variance_bounds="fixed",
        optimizer=None,
        **kw,
    )


def _dataset(n, d, seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3, 3, size=(n, d))
    y = np.sin(X[:, 0]) + 0.1 * rng.standard_normal(n)
    return X, y


# ------------------------------------------------------------ cholesky_append


def test_cholesky_append_matches_full_factorization():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((6, 6))
    K = A @ A.T + 6 * np.eye(6)
    L = cholesky(K[:5, :5], lower=True)
    L_ext = cholesky_append(L, K[5, :5], K[5, 5])
    np.testing.assert_allclose(L_ext, cholesky(K, lower=True), atol=1e-12)


def test_cholesky_append_rejects_indefinite_border():
    L = cholesky(np.eye(3), lower=True)
    # Border makes the matrix singular: k = e1, k_self = 1 -> pivot^2 = 0.
    with pytest.raises(NotPositiveDefiniteError):
        cholesky_append(L, np.array([1.0, 0.0, 0.0]), 1.0)


def test_cholesky_append_validates_shapes():
    L = cholesky(np.eye(3), lower=True)
    with pytest.raises(ValueError, match="shape"):
        cholesky_append(L, np.zeros(2), 1.0)


# ------------------------------------------------------- update() exactness


def _assert_update_matches_cold_fit(model, X0, y0, X1, y1, atol=1e-8):
    """`update` must match a cold fixed-theta fit on the concatenated data."""
    model.fit(X0, y0)
    for i in range(X1.shape[0]):
        model.update(X1[i], y1[i])

    ref = GaussianProcessRegressor(
        kernel=model.kernel_.clone_with_theta(model.kernel_.theta),
        noise_variance=model.noise_variance_,
        noise_variance_bounds="fixed",
        optimizer=None,
    )
    ref.fit(np.vstack([X0, X1]), np.concatenate([y0, y1]))

    Xq = np.linspace(-4, 4, 25)[:, np.newaxis]
    if X0.shape[1] > 1:
        Xq = np.tile(Xq, (1, X0.shape[1]))
    mu_u, sd_u = model.predict(Xq, return_std=True)
    mu_c, sd_c = ref.predict(Xq, return_std=True)
    np.testing.assert_allclose(mu_u, mu_c, atol=atol)
    np.testing.assert_allclose(sd_u, sd_c, atol=atol)
    assert model.lml_ == pytest.approx(ref.lml_, abs=atol)


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(3, 20),
    m=st.integers(1, 6),
    d=st.integers(1, 3),
    seed=st.integers(0, 100),
)
def test_property_update_matches_cold_fit(n, m, d, seed):
    """Across random datasets, update() == cold fit() at fixed theta."""
    X, y = _dataset(n + m, d, seed)
    _assert_update_matches_cold_fit(
        _fixed_model(), X[:n], y[:n], X[n:], y[n:]
    )


@settings(max_examples=10, deadline=None)
@given(n=st.integers(3, 15), seed=st.integers(0, 100))
def test_property_update_with_duplicate_rows(n, seed):
    """Repeated x-rows (the paper's repeated measurements) stay exact."""
    X, y = _dataset(n, 1, seed)
    rng = np.random.default_rng(seed)
    dup = rng.integers(0, n, size=3)
    X1 = X[dup]
    y1 = y[dup] + 0.05 * rng.standard_normal(3)
    _assert_update_matches_cold_fit(_fixed_model(), X, y, X1, y1)


def test_update_matches_after_hyperparameter_fit():
    """Exactness also holds at *optimized* hyperparameters."""
    X, y = _dataset(25, 2, 0)
    model = GaussianProcessRegressor(n_restarts=1, rng=0)
    model.fit(X[:20], y[:20])
    theta_before = model.kernel_.theta.copy()
    model.update(X[20:], y[20:])
    # Hyperparameters must not move during an update.
    np.testing.assert_array_equal(model.kernel_.theta, theta_before)

    ref = GaussianProcessRegressor(
        kernel=model.kernel_.clone_with_theta(model.kernel_.theta),
        noise_variance=model.noise_variance_,
        noise_variance_bounds="fixed",
        optimizer=None,
    )
    ref.fit(X, y)
    Xq = np.random.default_rng(1).uniform(-3, 3, size=(30, 2))
    mu_u, sd_u = model.predict(Xq, return_std=True)
    mu_c, sd_c = ref.predict(Xq, return_std=True)
    np.testing.assert_allclose(mu_u, mu_c, atol=1e-8)
    np.testing.assert_allclose(sd_u, sd_c, atol=1e-8)
    assert model.lml_ == pytest.approx(ref.lml_, abs=1e-8)


def test_update_normalized_targets_keep_frozen_constants():
    """With normalize_y, update() reuses the last fit's normalization."""
    X, y = _dataset(12, 1, 3)
    model = _fixed_model(normalize_y=True)
    model.fit(X[:10], y[:10])
    y_mean = model._fit.y_mean
    model.update(X[10:], y[10:])
    assert model._fit.y_mean == y_mean
    # Training targets round-trip through the frozen constants.
    np.testing.assert_allclose(model.y_train_, y, atol=1e-12)


def test_update_requires_fit():
    with pytest.raises(RuntimeError, match="fit"):
        _fixed_model().update(np.zeros((1, 1)), 0.0)


def test_update_rejects_wrong_dimension():
    X, y = _dataset(8, 2, 0)
    model = _fixed_model().fit(X, y)
    with pytest.raises(ValueError, match="features"):
        model.update(np.zeros((1, 3)), 0.0)


def test_update_falls_back_to_full_factorization(monkeypatch):
    """When the bordered pivot degenerates, update rebuilds and stays exact."""
    import repro.gp.gpr as gpr_mod

    def always_degenerate(L, k, k_self, **kw):
        raise NotPositiveDefiniteError("forced")

    monkeypatch.setattr(gpr_mod, "cholesky_append", always_degenerate)
    X, y = _dataset(10, 1, 5)
    model = _fixed_model().fit(X[:8], y[:8])
    model.update(X[8:], y[8:])  # must not raise
    ref = _fixed_model().fit(X, y)
    Xq = np.linspace(-3, 3, 17)[:, np.newaxis]
    np.testing.assert_allclose(model.predict(Xq), ref.predict(Xq), atol=1e-10)


# --------------------------------------------------------------- clone_fitted


def test_clone_fitted_is_isolated_and_frozen():
    X, y = _dataset(15, 1, 7)
    model = GaussianProcessRegressor(n_restarts=1, rng=0).fit(X, y)
    clone = model.clone_fitted()
    Xq = np.linspace(-3, 3, 11)[:, np.newaxis]
    mu_before = model.predict(Xq).copy()
    clone.update(np.array([[0.5]]), 0.0)
    np.testing.assert_array_equal(model.predict(Xq), mu_before)
    assert clone.optimizer is None
    assert clone.noise_variance_bounds == "fixed"
    assert clone._fit.X.shape[0] == X.shape[0] + 1


def test_clone_fitted_requires_fit():
    with pytest.raises(RuntimeError, match="fitted"):
        GaussianProcessRegressor().clone_fitted()


# ----------------------------------------------------------------- warm_start


def test_warm_start_begins_from_previous_optimum():
    X, y = _dataset(20, 1, 11)
    model = GaussianProcessRegressor(n_restarts=0, rng=0)
    model.fit(X[:15], y[:15])
    theta_opt = model.kernel_.theta.copy()
    model.fit(X, y, warm_start=True)
    # The warm search started from theta_opt, not the template; with zero
    # restarts the outcome's first recorded start is the deterministic one.
    start = model._fit.optimize_outcome.all_thetas
    assert len(start) == 1
    # A cold fit from the template must differ in its search start whenever
    # the previous optimum moved away from the template.
    template = GaussianProcessRegressor(n_restarts=0, rng=0)
    template.fit(X, y)
    np.testing.assert_allclose(
        model.kernel_.theta, template.kernel_.theta, atol=1.0
    )  # both converge near the same optimum on this easy problem


def test_warm_start_on_unfitted_model_is_cold():
    X, y = _dataset(10, 1, 0)
    model = GaussianProcessRegressor(n_restarts=0, rng=0)
    model.fit(X, y, warm_start=True)  # no previous state: behaves like cold
    assert model.fitted

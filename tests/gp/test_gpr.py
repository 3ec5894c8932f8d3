"""Tests for the Gaussian Process regressor (paper Eqs. 3-13)."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gp import (
    RBF,
    ConstantKernel,
    GaussianProcessRegressor,
    WhiteKernel,
    default_kernel,
)


def _fitted(small_1d_problem, **kw):
    X, y = small_1d_problem
    defaults = dict(rng=0, n_restarts=2)
    defaults.update(kw)
    return GaussianProcessRegressor(**defaults).fit(X, y), X, y


def test_posterior_mean_tracks_data(small_1d_problem):
    model, X, y = _fitted(small_1d_problem)
    pred = model.predict(X)
    assert np.sqrt(np.mean((pred - y) ** 2)) < 0.15


def test_predict_interpolates_noise_free():
    """With a tiny fixed noise, the posterior mean interpolates exactly."""
    X = np.linspace(0, 1, 7)[:, np.newaxis]
    y = np.cos(3 * X[:, 0])
    model = GaussianProcessRegressor(
        kernel=ConstantKernel(1.0, "fixed") * RBF(0.3, "fixed"),
        noise_variance=1e-10,
        noise_variance_bounds="fixed",
        optimizer=None,
    ).fit(X, y)
    np.testing.assert_allclose(model.predict(X), y, atol=1e-5)


def test_latent_sd_near_zero_at_training_points():
    X = np.linspace(0, 1, 7)[:, np.newaxis]
    y = np.cos(3 * X[:, 0])
    model = GaussianProcessRegressor(
        kernel=ConstantKernel(1.0, "fixed") * RBF(0.3, "fixed"),
        noise_variance=1e-10,
        noise_variance_bounds="fixed",
        optimizer=None,
    ).fit(X, y)
    _, sd = model.predict(X, return_std=True, include_noise=False)
    assert sd.max() < 1e-4


def test_observation_sd_floor_is_sigma_n(small_1d_problem):
    """With include_noise, SD at training points stays >= sigma_n.

    This is what lets AL recommend repeated measurements (Section III).
    """
    model, X, y = _fitted(small_1d_problem)
    _, sd = model.predict(X, return_std=True, include_noise=True)
    assert sd.min() >= np.sqrt(model.noise_variance_) * 0.999


def test_uncertainty_grows_away_from_data(small_1d_problem):
    model, X, y = _fitted(small_1d_problem)
    _, sd_in = model.predict(np.array([[5.0]]), return_std=True)
    _, sd_out = model.predict(np.array([[30.0]]), return_std=True)
    assert sd_out[0] > sd_in[0]


def test_noise_variance_recovered(small_1d_problem):
    """The fitted sigma_n^2 should approximate the true 0.1^2 = 0.01."""
    model, _, _ = _fitted(small_1d_problem)
    assert 1e-3 < model.noise_variance_ < 1e-1


def test_lml_gradient_matches_finite_differences(small_1d_problem):
    model, X, y = _fitted(small_1d_problem)
    theta = model._theta()
    lml, grad = model.log_marginal_likelihood(theta, eval_gradient=True)
    eps = 1e-6
    for j in range(theta.size):
        tp, tm = theta.copy(), theta.copy()
        tp[j] += eps
        tm[j] -= eps
        num = (
            model.log_marginal_likelihood(tp) - model.log_marginal_likelihood(tm)
        ) / (2 * eps)
        assert grad[j] == pytest.approx(num, abs=1e-4, rel=1e-4)


def test_lml_evaluation_restores_state(small_1d_problem):
    model, X, y = _fitted(small_1d_problem)
    theta_before = model._theta().copy()
    model.log_marginal_likelihood(theta_before + 1.0)
    np.testing.assert_allclose(model._theta(), theta_before)


def test_lml_evaluation_is_thread_safe(small_1d_problem):
    """Concurrent LML evaluations on one model neither interfere nor mutate it.

    Restart threads share one objective, and a served model may be scored
    while a client evaluates its likelihood; evaluating at ``theta`` must
    therefore read the model without installing ``theta`` on it.
    """
    import sys
    from concurrent.futures import ThreadPoolExecutor

    model, X, y = _fitted(small_1d_problem)
    theta0 = model._theta().copy()
    rng = np.random.default_rng(11)
    thetas = [theta0 + rng.normal(0.0, 0.5, theta0.size) for _ in range(64)]
    serial = [model.log_marginal_likelihood(t, eval_gradient=True) for t in thetas]

    def evaluate(theta):
        return model.log_marginal_likelihood(theta, eval_gradient=True)

    mismatches = 0
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often to expose races
    try:
        with ThreadPoolExecutor(4) as pool:
            for _ in range(5):
                results = pool.map(evaluate, thetas, timeout=120)
                for (lml, grad), (lml_s, grad_s) in zip(results, serial):
                    if lml != lml_s or not np.array_equal(grad, grad_s):
                        mismatches += 1
    finally:
        sys.setswitchinterval(interval)
    assert mismatches == 0, f"{mismatches} of {5 * len(thetas)} calls differed"
    np.testing.assert_array_equal(model._theta(), theta0)


def _hostile_model(duplicates, y_scale, with_alpha, seed=5):
    """A fitted ``normalize_y`` model on a numerically awkward problem."""
    rng = np.random.default_rng(seed)
    X = np.sort(rng.uniform(0.0, 6.0, 12))[:, np.newaxis]
    if duplicates:
        X = np.vstack([X, X[:4], X[:2]])
    y = y_scale * (np.sin(X[:, 0]) + 0.1 * rng.standard_normal(X.shape[0]))
    alpha = (
        np.geomspace(1e-3, 0.5, X.shape[0]) * y_scale**2 if with_alpha else None
    )
    model = GaussianProcessRegressor(normalize_y=True, rng=0, n_restarts=1)
    return model.fit(X, y, alpha=alpha)


@pytest.mark.parametrize("with_alpha", [False, True], ids=["scalar", "alpha"])
@pytest.mark.parametrize("theta_at", ["optimum", "lower", "upper"])
@pytest.mark.parametrize("y_scale", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("duplicates", [False, True], ids=["distinct", "dup"])
def test_lml_gradient_matches_finite_differences_on_hostile_inputs(
    duplicates, y_scale, theta_at, with_alpha
):
    """Duplicate rows, targets at 1e+-6 and hyperparameters on their bounds."""
    model = _hostile_model(duplicates, y_scale, with_alpha)
    theta = model._theta()
    if theta_at != "optimum":
        theta = model._theta_bounds()[:, 0 if theta_at == "lower" else 1].copy()
    lml, grad = model.log_marginal_likelihood(theta, eval_gradient=True)
    assert np.isfinite(lml)
    # Duplicate rows at the noise floor give |LML| ~ 1e7 with cond(K_y) ~ 1e5,
    # so each LML value carries ~1e-4 of round-off; a 1e-6 step would turn
    # that into a finite-difference error of 10 or more.  A 1e-4 step keeps
    # both round-off and truncation well inside the tolerance.
    eps = 1e-4
    for j in range(theta.size):
        tp, tm = theta.copy(), theta.copy()
        tp[j] += eps
        tm[j] -= eps
        num = (
            model.log_marginal_likelihood(tp) - model.log_marginal_likelihood(tm)
        ) / (2 * eps)
        assert grad[j] == pytest.approx(num, abs=1e-4, rel=1e-4)


def test_optimizer_improves_lml(small_1d_problem):
    X, y = small_1d_problem
    unopt = GaussianProcessRegressor(optimizer=None)
    unopt.fit(X, y)
    opt = GaussianProcessRegressor(rng=0, n_restarts=2)
    opt.fit(X, y)
    assert opt.lml_ > unopt.lml_


def test_fitted_lml_matches_recomputation(small_1d_problem):
    model, X, y = _fitted(small_1d_problem)
    assert model.lml_ == pytest.approx(
        model.log_marginal_likelihood(model._theta()), rel=1e-10
    )


def test_prior_prediction_unfitted():
    model = GaussianProcessRegressor(noise_variance=0.04)
    Xq = np.linspace(0, 1, 5)[:, np.newaxis]
    mean, sd = model.predict(Xq, return_std=True)
    np.testing.assert_allclose(mean, 0.0)
    # Prior variance = kernel amplitude (1.0) + noise.
    np.testing.assert_allclose(sd, np.sqrt(1.0 + 0.04), rtol=1e-6)


def test_prior_covariance_unfitted():
    model = GaussianProcessRegressor(noise_variance=0.04)
    Xq = np.linspace(0, 1, 4)[:, np.newaxis]
    mean, cov = model.predict(Xq, return_cov=True)
    assert cov.shape == (4, 4)
    np.testing.assert_allclose(np.diag(cov), 1.04, rtol=1e-6)


def test_return_std_and_cov_mutually_exclusive(small_1d_problem):
    model, X, _ = _fitted(small_1d_problem)
    with pytest.raises(ValueError):
        model.predict(X, return_std=True, return_cov=True)


def test_cov_diag_matches_std(small_1d_problem):
    model, X, _ = _fitted(small_1d_problem)
    Xq = np.linspace(0, 10, 6)[:, np.newaxis]
    _, sd = model.predict(Xq, return_std=True)
    _, cov = model.predict(Xq, return_cov=True)
    np.testing.assert_allclose(np.sqrt(np.diag(cov)), sd, rtol=1e-6, atol=1e-9)


def test_normalize_y_shifts_and_scales():
    X = np.linspace(0, 1, 10)[:, np.newaxis]
    y = 100.0 + 5.0 * np.sin(6 * X[:, 0])
    model = GaussianProcessRegressor(normalize_y=True, rng=0, n_restarts=1)
    model.fit(X, y)
    pred = model.predict(X)
    assert np.abs(pred - y).max() < 2.0
    np.testing.assert_allclose(model.y_train_, y, atol=1e-9)


def test_repeated_inputs_supported():
    """Duplicate x rows (repeated measurements) must not break the solve."""
    X = np.array([[0.0], [0.0], [0.0], [1.0], [1.0]])
    y = np.array([1.0, 1.2, 0.9, 2.0, 2.1])
    model = GaussianProcessRegressor(rng=0, n_restarts=1)
    model.fit(X, y)
    pred = model.predict(np.array([[0.0], [1.0]]))
    assert pred[0] == pytest.approx(np.mean(y[:3]), abs=0.3)
    assert pred[1] == pytest.approx(np.mean(y[3:]), abs=0.3)


def test_sample_y_statistics(small_1d_problem):
    model, X, y = _fitted(small_1d_problem)
    Xq = np.array([[2.0], [7.0]])
    samples = model.sample_y(Xq, n_samples=4000, rng=3)
    assert samples.shape == (2, 4000)
    mean, sd = model.predict(Xq, return_std=True)
    np.testing.assert_allclose(
        samples.mean(axis=1), mean, atol=float(4 * sd.max() / np.sqrt(4000)) + 0.02
    )
    np.testing.assert_allclose(samples.std(axis=1), sd, rtol=0.1)


def test_sample_y_invalid_count(small_1d_problem):
    model, _, _ = _fitted(small_1d_problem)
    with pytest.raises(ValueError):
        model.sample_y(np.array([[0.0]]), n_samples=0)


def test_noise_floor_respected(small_1d_problem):
    """The paper's central knob: sigma_n^2 never drops below its bound."""
    X, y = small_1d_problem
    model = GaussianProcessRegressor(
        noise_variance=0.5, noise_variance_bounds=(0.2, 10.0), rng=0
    )
    model.fit(X, y)
    assert model.noise_variance_ >= 0.2 * 0.999


def test_fixed_noise_not_optimized(small_1d_problem):
    X, y = small_1d_problem
    model = GaussianProcessRegressor(
        noise_variance=0.123, noise_variance_bounds="fixed", rng=0
    )
    model.fit(X, y)
    assert model.noise_variance_ == pytest.approx(0.123)


def test_white_kernel_inside_kernel_equivalent(small_1d_problem):
    """Noise via WhiteKernel ~ explicit noise_variance (same LML optimum)."""
    X, y = small_1d_problem
    m1 = GaussianProcessRegressor(
        kernel=ConstantKernel(1.0, "fixed") * RBF(1.5, "fixed"),
        noise_variance=0.01,
        noise_variance_bounds="fixed",
        optimizer=None,
    ).fit(X, y)
    m2 = GaussianProcessRegressor(
        kernel=ConstantKernel(1.0, "fixed") * RBF(1.5, "fixed")
        + WhiteKernel(0.01, "fixed"),
        noise_variance=1e-12,
        noise_variance_bounds="fixed",
        optimizer=None,
        jitter=0.0,
    ).fit(X, y)
    np.testing.assert_allclose(m1.lml_, m2.lml_, rtol=1e-6)
    Xq = np.linspace(0, 10, 5)[:, np.newaxis]
    np.testing.assert_allclose(m1.predict(Xq), m2.predict(Xq), rtol=1e-6)


def test_input_validation():
    model = GaussianProcessRegressor()
    with pytest.raises(ValueError):
        model.fit(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(ValueError):
        model.fit(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError):
        model.fit(np.array([[np.nan]]), np.array([1.0]))
    with pytest.raises(ValueError):
        GaussianProcessRegressor(noise_variance=-1.0)
    with pytest.raises(ValueError):
        GaussianProcessRegressor(noise_variance_bounds=(0.0, 1.0))
    with pytest.raises(ValueError):
        GaussianProcessRegressor(noise_variance_bounds=(2.0, 1.0))
    with pytest.raises(ValueError):
        GaussianProcessRegressor(optimizer="adam")
    with pytest.raises(ValueError):
        GaussianProcessRegressor(n_restarts=-1)


def test_unfitted_accessors_raise():
    model = GaussianProcessRegressor()
    with pytest.raises(RuntimeError):
        _ = model.lml_
    with pytest.raises(RuntimeError):
        _ = model.X_train_
    with pytest.raises(RuntimeError):
        model.log_marginal_likelihood()


def test_1d_input_promoted(small_1d_problem):
    X, y = small_1d_problem
    model = GaussianProcessRegressor(optimizer=None).fit(X[:, 0], y)
    assert model.X_train_.shape == (len(y), 1)


def test_default_kernel_ard():
    k = default_kernel(3, ard=True)
    assert k.n_dims == 4  # amplitude + 3 length scales


def test_fit_is_deterministic(small_1d_problem):
    X, y = small_1d_problem
    m1 = GaussianProcessRegressor(rng=42, n_restarts=3).fit(X, y)
    m2 = GaussianProcessRegressor(rng=42, n_restarts=3).fit(X, y)
    np.testing.assert_allclose(m1._theta(), m2._theta())


def test_refit_does_not_leak_state(small_1d_problem):
    """Fitting twice from the same template kernel gives the same result."""
    X, y = small_1d_problem
    model = GaussianProcessRegressor(rng=1, n_restarts=0)
    model.fit(X, y)
    theta1 = model._theta().copy()
    model.rng = np.random.default_rng(1)
    model.fit(X, y)
    np.testing.assert_allclose(model._theta(), theta1)


@given(
    n=st.integers(3, 15),
    noise=st.floats(1e-4, 0.5),
)
@settings(max_examples=15, deadline=None)
def test_property_lml_finite_and_sd_positive(n, noise):
    rng = np.random.default_rng(n)
    X = rng.uniform(-1, 1, size=(n, 1))
    y = rng.standard_normal(n)
    model = GaussianProcessRegressor(
        noise_variance=noise, noise_variance_bounds="fixed", optimizer=None
    ).fit(X, y)
    assert np.isfinite(model.lml_)
    _, sd = model.predict(X, return_std=True)
    assert np.all(sd > 0)


@given(scale=st.floats(0.1, 100.0))
@settings(max_examples=15, deadline=None)
def test_property_prediction_scales_with_targets(scale):
    """Scaling y scales the posterior mean identically (normalize_y on)."""
    X = np.linspace(0, 1, 8)[:, np.newaxis]
    y = np.sin(4 * X[:, 0])
    kw = dict(
        kernel=ConstantKernel(1.0, "fixed") * RBF(0.4, "fixed"),
        noise_variance=1e-6,
        noise_variance_bounds="fixed",
        optimizer=None,
        normalize_y=True,
    )
    m1 = GaussianProcessRegressor(**kw).fit(X, y)
    m2 = GaussianProcessRegressor(**kw).fit(X, scale * y)
    Xq = np.linspace(0, 1, 5)[:, np.newaxis]
    np.testing.assert_allclose(m2.predict(Xq), scale * m1.predict(Xq), rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_parallel_restart_fit_matches_serial(backend, small_1d_problem):
    """executor= fans restarts out; hyperparameters must not change a bit."""
    from repro.parallel import ParallelMap

    X, y = small_1d_problem
    kw = dict(noise_variance=0.05, n_restarts=3, rng=0)
    serial = GaussianProcessRegressor(**kw).fit(X, y)
    fanned = GaussianProcessRegressor(
        **kw, executor=ParallelMap(backend, 2)
    ).fit(X, y)
    np.testing.assert_array_equal(serial.kernel_.theta, fanned.kernel_.theta)
    assert serial.noise_variance_ == fanned.noise_variance_
    assert serial.lml_ == fanned.lml_


def _ill_conditioned_fit(shrink):
    """A fitted model whose cached L is shrunk so the posterior variance
    cancellation lands negative — the deterministic trigger for the clamp."""
    X = np.linspace(0, 1, 25)[:, np.newaxis]
    y = np.sin(4 * X[:, 0])
    model = GaussianProcessRegressor(
        kernel=ConstantKernel(1.0, "fixed") * RBF(0.5, "fixed"),
        noise_variance=1e-10,
        noise_variance_bounds="fixed",
        optimizer=None,
    ).fit(X, y)
    model._fit.L = model._fit.L * (1.0 - shrink)
    return model, X


def test_return_cov_clamps_tiny_negative_diagonal():
    """Regression: return_cov silently returned negative diagonal variances
    (NaN after sqrt) where return_std already clamped them."""
    model, X = _ill_conditioned_fit(1e-9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # tiny negatives must NOT warn
        mean, cov = model.predict(X, return_cov=True, include_noise=False)
        _, sd = model.predict(X, return_std=True, include_noise=False)
    diag = np.diag(cov)
    assert np.all(diag >= 0)
    assert not np.any(np.isnan(np.sqrt(diag)))
    np.testing.assert_allclose(np.sqrt(diag), sd, atol=1e-12)


def test_return_cov_warns_on_sizable_negative_diagonal():
    model, X = _ill_conditioned_fit(1e-3)
    with pytest.warns(RuntimeWarning, match="variance clipped"):
        _, cov = model.predict(X, return_cov=True, include_noise=False)
    assert np.all(np.diag(cov) >= 0)
    with pytest.warns(RuntimeWarning, match="variance clipped"):
        model.predict(X, return_std=True, include_noise=False)


def test_return_cov_clamp_keeps_noise_floor():
    """With include_noise, the clamped diagonal still carries sigma_n^2."""
    model, X = _ill_conditioned_fit(1e-9)
    _, cov = model.predict(X, return_cov=True)
    assert np.all(np.diag(cov) >= model.noise_variance_ * model._fit.y_std**2)


def test_sample_y_large_magnitude_targets():
    # Regression: sample_y used a fixed absolute 1e-12 Cholesky jitter.
    # With normalize_y the predictive covariance carries y_std**2 ~ 1e11,
    # so the nudge was pure roundoff and near-singular covariances
    # (duplicated extrapolation points, vanishing noise) raised
    # LinAlgError.  The jitter is now relative to the covariance scale
    # with bounded 10x escalation.
    X = np.linspace(0, 10, 30)[:, np.newaxis]
    y = 1e6 * np.sin(X[:, 0])
    model = GaussianProcessRegressor(
        rng=0, n_restarts=1, normalize_y=True,
        noise_variance=1e-16, noise_variance_bounds="fixed",
    ).fit(X, y)
    Xq = np.repeat(np.linspace(12, 20, 6), 3)[:, np.newaxis]
    samples = model.sample_y(Xq, n_samples=16, rng=2)
    assert samples.shape == (18, 16)
    assert np.all(np.isfinite(samples))
    # Samples live at the data's magnitude, not the normalized one.
    assert np.max(np.abs(samples)) > 1e4

"""Unit consistency across every predictive-uncertainty path.

``return_std``, ``diag(return_cov)``, ``predict_gradient``'s std, and
posterior samples must all describe the same distribution in the same
(target) units — fitted or prior, with or without the noise term, exact
or approximate solver, before and after a registry save/load round-trip.
"""

import numpy as np
import pytest

from repro.gp import GaussianProcessRegressor


def _problem(n=40, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 10.0, size=(n, 2))
    y = np.sin(X[:, 0]) + 0.5 * np.cos(0.7 * X[:, 1]) + 0.1 * rng.standard_normal(n)
    return X, y


def _queries(k=15, seed=1):
    return np.random.default_rng(seed).uniform(-2.0, 12.0, size=(k, 2))


def _fitted(**kw):
    defaults = dict(
        noise_variance=1e-2, noise_variance_bounds=(1e-2, 1e2),
        rng=0, n_restarts=0,
    )
    defaults.update(kw)
    X, y = _problem()
    return GaussianProcessRegressor(**defaults).fit(X, y)


def _assert_std_matches_cov_diag(model, Xq):
    for include_noise in (True, False):
        mean_s, sd = model.predict(Xq, return_std=True, include_noise=include_noise)
        mean_c, cov = model.predict(Xq, return_cov=True, include_noise=include_noise)
        assert np.array_equal(mean_s, mean_c)
        assert sd == pytest.approx(
            np.sqrt(np.clip(np.diag(cov), 0.0, None)), abs=1e-10
        )
    # The noise term adds exactly sigma_n^2 (in target variance units).
    sd_obs = model.predict(Xq, return_std=True)[1]
    sd_lat = model.predict(Xq, return_std=True, include_noise=False)[1]
    y_var_scale = (
        model._fit.y_std**2 if model._fit is not None
        else (model._afit.y_std**2 if model._afit is not None else 1.0)
    )
    assert sd_obs**2 - sd_lat**2 == pytest.approx(
        np.full(len(Xq), model.noise_variance_ * y_var_scale), rel=1e-9
    )


@pytest.mark.parametrize(
    "solver", ["exact", {"name": "nystrom", "n_inducing": 24}]
)
def test_std_matches_cov_diag_fitted(solver):
    model = _fitted(solver=solver)
    _assert_std_matches_cov_diag(model, _queries())


@pytest.mark.parametrize("normalize_y", [False, True])
def test_std_matches_cov_diag_normalized(normalize_y):
    model = _fitted(normalize_y=normalize_y)
    _assert_std_matches_cov_diag(model, _queries())


def test_std_matches_cov_diag_prior():
    model = GaussianProcessRegressor(rng=0)
    _assert_std_matches_cov_diag(model, _queries())


@pytest.mark.parametrize(
    "solver", ["exact", {"name": "nystrom", "n_inducing": 24}]
)
def test_std_matches_cov_diag_after_registry_round_trip(solver, tmp_path):
    from repro.serve.registry import ModelRegistry

    model = _fitted(solver=solver)
    registry = ModelRegistry(tmp_path / "reg")
    registry.publish(model)
    restored, _meta = registry.load()
    Xq = _queries()
    _assert_std_matches_cov_diag(restored, Xq)
    m0, s0 = model.predict(Xq, return_std=True)
    m1, s1 = restored.predict(Xq, return_std=True)
    assert np.allclose(m0, m1, atol=0, rtol=0)
    assert np.allclose(s0, s1, atol=0, rtol=0)


@pytest.mark.parametrize("normalize_y", [False, True])
def test_predict_gradient_matches_observation_std(normalize_y):
    # predict_gradient's d_std is documented as the gradient of the
    # *observation* SD — the include_noise=True predict path, in target
    # units.  Check both gradients against central finite differences.
    model = _fitted(normalize_y=normalize_y, n_restarts=1)
    x0 = np.array([4.3, 5.1])
    d_mean, d_std = model.predict_gradient(x0)
    eps = 1e-5
    for j in range(2):
        step = np.zeros(2)
        step[j] = eps
        mp, sp = model.predict((x0 + step)[np.newaxis, :], return_std=True)
        mm, sm = model.predict((x0 - step)[np.newaxis, :], return_std=True)
        assert d_mean[j] == pytest.approx((mp[0] - mm[0]) / (2 * eps), rel=1e-4, abs=1e-7)
        assert d_std[j] == pytest.approx((sp[0] - sm[0]) / (2 * eps), rel=1e-4, abs=1e-7)


def test_sample_scale_matches_predictive_std():
    # Posterior samples are observation draws: their spread tracks the
    # include_noise=True std, not the latent one.
    model = _fitted(n_restarts=1)
    Xq = _queries(5, seed=7)
    sd = model.predict(Xq, return_std=True)[1]
    samples = model.sample_y(Xq, n_samples=4000, rng=3)
    assert np.std(samples, axis=1) == pytest.approx(sd, rel=0.15)

"""Per-point noise (heteroscedastic alpha) through the GP stack.

Covers the contract of ``fit(..., alpha=...)``: alpha actually changes the
posterior, defaults reproduce the scalar path bit-exactly, precision-fused
repeats match the closed-form pooled observation, serialization round-trips
bit-identically, and the fixed-noise conflict is rejected loudly.
"""

import numpy as np
import pytest

from repro.gp.gpr import GaussianProcessRegressor
from repro.gp.kernels import SquaredExponential


def _data(n=14, seed=0):
    rng = np.random.default_rng(seed)
    X = np.sort(rng.uniform(0, 6, n))[:, np.newaxis]
    y = np.sin(X[:, 0]) + 0.1 * rng.standard_normal(n)
    return X, y


def _fixed_kernel_model(**kw):
    return GaussianProcessRegressor(
        kernel=SquaredExponential(
            1.0, 1.0, signal_variance_bounds="fixed", length_scale_bounds="fixed"
        ),
        optimizer=None,
        **kw,
    )


def test_alpha_defaults_reproduce_scalar_path_bit_identically():
    X, y = _data()
    a = GaussianProcessRegressor(rng=0).fit(X, y)
    b = GaussianProcessRegressor(rng=0).fit(X, y, alpha=None)
    assert a.to_dict() == b.to_dict()
    mu_a, sd_a = a.predict(X, return_std=True)
    mu_b, sd_b = b.predict(X, return_std=True)
    np.testing.assert_array_equal(mu_a, mu_b)
    np.testing.assert_array_equal(sd_a, sd_b)


def test_alpha_widens_posterior_at_noisy_points():
    X, y = _data()
    alpha = np.full(X.shape[0], 1e-8)
    alpha[3] = 4.0  # one wildly unreliable observation
    clean = _fixed_kernel_model(noise_variance=1e-6).fit(X, y)
    noisy = _fixed_kernel_model(noise_variance=1e-6).fit(X, y, alpha=alpha)
    _, sd_clean = clean.predict(X, return_std=True)
    _, sd_noisy = noisy.predict(X, return_std=True)
    # Latent sd at the distrusted point grows (bounded by how strongly the
    # correlated neighbours still pin it down); a trusted far-away point
    # barely moves.
    assert sd_noisy[3] > sd_clean[3] * 1.5
    assert sd_noisy[-1] == pytest.approx(sd_clean[-1], rel=1e-2)
    # And the mean stops interpolating the distrusted observation.
    assert abs(noisy.predict(X[3:4])[0] - y[3]) > abs(
        clean.predict(X[3:4])[0] - y[3]
    )


def test_fused_repeats_match_closed_form_pooled_observation():
    """k repeats with variance s^2 fused to (mean, s^2/k) must give the
    same posterior as feeding the k rows with per-point alpha s^2."""
    X, y = _data(10)
    s2 = 0.3
    k = 4
    x_rep = np.full((k, 1), 2.5)
    rng = np.random.default_rng(3)
    y_rep = 1.0 + np.sqrt(s2) * rng.standard_normal(k)

    X_all = np.vstack([X, x_rep])
    y_all = np.concatenate([y, y_rep])
    alpha_all = np.concatenate([np.full(X.shape[0], 1e-10), np.full(k, s2)])
    raw = _fixed_kernel_model(noise_variance=1e-9).fit(
        X_all, y_all, alpha=alpha_all
    )

    X_fused = np.vstack([X, x_rep[:1]])
    y_fused = np.concatenate([y, [y_rep.mean()]])
    alpha_fused = np.concatenate([np.full(X.shape[0], 1e-10), [s2 / k]])
    fused = _fixed_kernel_model(noise_variance=1e-9).fit(
        X_fused, y_fused, alpha=alpha_fused
    )

    Xq = np.linspace(0, 6, 25)[:, np.newaxis]
    mu_raw, sd_raw = raw.predict(Xq, return_std=True)
    mu_fused, sd_fused = fused.predict(Xq, return_std=True)
    np.testing.assert_allclose(mu_raw, mu_fused, atol=1e-8)
    np.testing.assert_allclose(sd_raw, sd_fused, atol=1e-6)


def test_heteroscedastic_serialization_round_trips_bit_identically():
    X, y = _data()
    alpha = np.geomspace(1e-4, 1.0, X.shape[0])
    model = GaussianProcessRegressor(rng=0).fit(X, y, alpha=alpha)
    payload = model.to_dict()
    assert "noise_alpha" in payload["fit"]
    restored = GaussianProcessRegressor.from_dict(payload)
    assert restored.to_dict() == payload
    Xq = np.linspace(0, 6, 9)[:, np.newaxis]
    mu_a, sd_a = model.predict(Xq, return_std=True)
    mu_b, sd_b = restored.predict(Xq, return_std=True)
    np.testing.assert_array_equal(mu_a, mu_b)
    np.testing.assert_array_equal(sd_a, sd_b)
    np.testing.assert_array_equal(restored.noise_alpha_, alpha)


def test_scalar_fit_payload_has_no_alpha_key():
    """Absence implies scalar: legacy payloads stay byte-identical."""
    X, y = _data()
    model = GaussianProcessRegressor(rng=0).fit(X, y)
    assert "noise_alpha" not in model.to_dict()["fit"]
    assert model.noise_alpha_ is None


def test_alpha_conflicts_with_fixed_noise_bounds():
    X, y = _data()
    model = GaussianProcessRegressor(
        noise_variance=0.1, noise_variance_bounds="fixed"
    )
    with pytest.raises(ValueError, match="fixed"):
        model.fit(X, y, alpha=np.full(X.shape[0], 0.1))


def test_alpha_validation():
    X, y = _data()
    model = GaussianProcessRegressor()
    with pytest.raises(ValueError):
        model.fit(X, y, alpha=np.ones(3))  # wrong length
    with pytest.raises(ValueError):
        model.fit(X, y, alpha=np.full(X.shape[0], -1.0))  # negative
    bad = np.ones(X.shape[0])
    bad[0] = np.nan
    with pytest.raises(ValueError):
        model.fit(X, y, alpha=bad)  # non-finite


def test_update_with_alpha_matches_full_refit_posterior():
    X, y = _data()
    alpha = np.full(X.shape[0], 0.05)
    base = _fixed_kernel_model(noise_variance=1e-2).fit(X, y, alpha=alpha)
    x_new = np.array([[3.3], [4.4]])
    y_new = np.array([0.5, -0.2])
    a_new = np.array([0.4, 0.01])
    base.update(x_new, y_new, alpha=a_new)

    full = _fixed_kernel_model(noise_variance=1e-2).fit(
        np.vstack([X, x_new]),
        np.concatenate([y, y_new]),
        alpha=np.concatenate([alpha, a_new]),
    )
    Xq = np.linspace(0, 6, 17)[:, np.newaxis]
    mu_u, sd_u = base.predict(Xq, return_std=True)
    mu_f, sd_f = full.predict(Xq, return_std=True)
    np.testing.assert_allclose(mu_u, mu_f, atol=1e-8)
    np.testing.assert_allclose(sd_u, sd_f, atol=1e-7)
    np.testing.assert_array_equal(
        base.noise_alpha_, np.concatenate([alpha, a_new])
    )


def test_lml_gradient_with_alpha_matches_finite_differences():
    X, y = _data(12)
    alpha = np.geomspace(1e-3, 0.5, X.shape[0])
    model = GaussianProcessRegressor(rng=0).fit(X, y, alpha=alpha)
    theta = np.append(model.kernel_.theta, np.log(model.noise_variance_))
    _, grad = model.log_marginal_likelihood(theta, eval_gradient=True)
    eps = 1e-6
    for i in range(len(theta)):
        t_hi, t_lo = theta.copy(), theta.copy()
        t_hi[i] += eps
        t_lo[i] -= eps
        fd = (
            model.log_marginal_likelihood(t_hi)
            - model.log_marginal_likelihood(t_lo)
        ) / (2 * eps)
        np.testing.assert_allclose(grad[i], fd, rtol=1e-4, atol=1e-7)


def test_approximate_backend_falls_back_to_exact_with_alpha():
    X, y = _data(30)
    model = GaussianProcessRegressor(solver="nystrom", rng=0)
    with pytest.warns(RuntimeWarning, match="exact"):
        model.fit(X, y, alpha=np.full(X.shape[0], 0.01))
    assert model.solver_info["name"] == "exact"


def test_loocv_accounts_for_alpha():
    from repro.gp.loocv import loo_residuals

    X, y = _data()
    alpha = np.full(X.shape[0], 1e-8)
    alpha[5] = 10.0
    hom = _fixed_kernel_model(noise_variance=1e-2).fit(X, y)
    het = _fixed_kernel_model(noise_variance=1e-2).fit(X, y, alpha=alpha)
    res_hom = loo_residuals(hom)
    res_het = loo_residuals(het)
    assert res_het.std[5] > res_hom.std[5]  # distrusted point: wider LOO band
    assert np.all(np.isfinite(res_het.mean))


def test_model_health_reports_heteroscedastic_and_skips_floor_pin():
    from repro.al.guardrails import HealthConfig, ModelHealth

    X, y = _data(16)
    # Noise pinned at its lower bound would normally flag; with alpha the
    # pin is expected (alpha carries the noise) and must not flag.
    model = GaussianProcessRegressor(
        noise_variance_bounds=(1e-6, 1e3), rng=0
    ).fit(X, y, alpha=np.full(X.shape[0], 0.05))
    report = ModelHealth(HealthConfig()).check(model)
    assert report.heteroscedastic
    assert not any("noise" in issue and "floor" in issue for issue in report.issues)

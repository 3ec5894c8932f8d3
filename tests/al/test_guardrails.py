"""Unit tests for model health checks, rollback, and drift detection."""

import numpy as np
import pytest

from repro.al.guardrails import (
    DriftConfig,
    DriftDetector,
    FitGate,
    GuardrailConfig,
    GuardrailTallies,
    HealthConfig,
    LastKnownGood,
    ModelHealth,
    apply_remediation,
)
from repro.gp import GaussianProcessRegressor, SquaredExponential


def _fit_model(n=16, seed=0, noise=0.05, **kwargs):
    rng = np.random.default_rng(seed)
    X = np.sort(rng.uniform(0, 6, size=n))[:, np.newaxis]
    y = np.sin(X[:, 0]) + noise * rng.standard_normal(n)
    defaults = dict(
        kernel=SquaredExponential(
            1.0, 1.0, signal_variance_bounds="fixed", length_scale_bounds="fixed"
        ),
        noise_variance=noise**2,
        noise_variance_bounds="fixed",
        optimizer=None,
    )
    defaults.update(kwargs)
    return GaussianProcessRegressor(**defaults).fit(X, y), X, y


# ----------------------------------------------------------------- health


def test_config_validation():
    with pytest.raises(ValueError):
        HealthConfig(max_condition_number=1.0)
    with pytest.raises(ValueError):
        HealthConfig(max_outlier_rate=0.0)
    with pytest.raises(ValueError):
        DriftConfig(threshold=0.0)
    with pytest.raises(ValueError):
        GuardrailConfig(drift_action="panic")
    with pytest.raises(ValueError):
        GuardrailConfig(trim_fraction=1.0)


def test_healthy_fit_passes():
    model, _, _ = _fit_model()
    report = ModelHealth().check(model)
    assert report.healthy
    assert report.issues == ()
    assert np.isfinite(report.condition_number)
    assert report.outlier_rate is not None


def test_requires_fitted_model():
    with pytest.raises(RuntimeError):
        ModelHealth().check(GaussianProcessRegressor())


def test_flags_ill_conditioned_kernel():
    # A huge length scale with near-zero noise makes K nearly rank-1.
    model, _, _ = _fit_model(
        kernel=SquaredExponential(
            1.0, 500.0, signal_variance_bounds="fixed", length_scale_bounds="fixed"
        ),
        noise_variance=1e-14,
        jitter=0.0,
    )
    report = ModelHealth(HealthConfig(max_condition_number=1e10)).check(model)
    assert not report.healthy
    assert any("ill-conditioned" in issue for issue in report.issues)


def test_flags_noise_pinned_at_floor():
    # Free noise with a floor right at the optimum's value: optimizing from
    # above collapses onto the bound.
    rng = np.random.default_rng(2)
    X = np.sort(rng.uniform(0, 6, size=20))[:, np.newaxis]
    y = np.sin(X[:, 0])  # noise-free data drives sigma_n to its floor
    model = GaussianProcessRegressor(
        kernel=SquaredExponential(
            1.0, 1.0, signal_variance_bounds="fixed", length_scale_bounds="fixed"
        ),
        noise_variance=1e-2,
        noise_variance_bounds=(1e-4, 1e2),
        n_restarts=1,
        rng=0,
    ).fit(X, y)
    report = ModelHealth(HealthConfig(noise_floor_pin_is_unhealthy=True)).check(model)
    assert report.noise_at_floor
    assert "noise_variance" in report.pinned
    assert not report.healthy


def test_flags_lml_regression_per_point():
    model, _, _ = _fit_model()
    lml_pp = float(model.lml_) / model.X_train_.shape[0]
    cfg = HealthConfig(max_lml_drop_per_point=0.5)
    ok = ModelHealth(cfg).check(model, prev_lml_per_point=lml_pp + 0.4)
    assert ok.healthy
    bad = ModelHealth(cfg).check(model, prev_lml_per_point=lml_pp + 5.0)
    assert any("LML regressed" in issue for issue in bad.issues)


def test_flags_loocv_outliers():
    rng = np.random.default_rng(5)
    X = np.sort(rng.uniform(0, 6, size=16))[:, np.newaxis]
    y = np.sin(X[:, 0]) + 0.02 * rng.standard_normal(16)
    y[::2] += rng.choice([-3.0, 3.0], size=len(y[::2]))  # half the set corrupted
    model = GaussianProcessRegressor(
        kernel=SquaredExponential(
            1.0, 1.0, signal_variance_bounds="fixed", length_scale_bounds="fixed"
        ),
        noise_variance=0.02**2,
        noise_variance_bounds="fixed",
        optimizer=None,
    ).fit(X, y)
    report = ModelHealth(HealthConfig(max_outlier_rate=0.25)).check(model)
    assert report.outlier_rate > 0.25
    assert any("outlier rate" in issue for issue in report.issues)


def test_loocv_skipped_below_min_points():
    model, _, _ = _fit_model(n=5)
    report = ModelHealth(HealthConfig(min_points_for_loocv=8)).check(model)
    assert report.outlier_rate is None


# --------------------------------------------------------------- rollback


def test_last_known_good_restores_with_new_rows():
    model, X, y = _fit_model(n=12)
    lkg = LastKnownGood()
    assert not lkg.available
    lkg.remember(model)
    assert lkg.available and lkg.n_rows == 12

    rng = np.random.default_rng(9)
    X_new = np.vstack([X, rng.uniform(0, 6, size=(3, 1))])
    y_new = np.append(y, np.sin(X_new[12:, 0]))
    restored = lkg.restore(X_new, y_new)
    assert restored.X_train_.shape[0] == 15
    # Hyperparameters are frozen at the snapshot's values.
    assert restored.noise_variance_ == pytest.approx(model.noise_variance_)
    # The restored posterior equals a direct clone+update of the original.
    direct = model.clone_fitted().update(X_new[12:], y_new[12:])
    mu_r = restored.predict(X[:4])
    mu_d = direct.predict(X[:4])
    np.testing.assert_allclose(mu_r, mu_d, rtol=1e-10)
    # The snapshot itself is untouched and restorable again.
    again = lkg.restore(X_new, y_new)
    np.testing.assert_allclose(again.predict(X[:4]), mu_r, rtol=1e-12)


def test_last_known_good_rejects_shrunk_history():
    model, X, y = _fit_model(n=12)
    lkg = LastKnownGood()
    lkg.remember(model)
    with pytest.raises(ValueError, match="append-only"):
        lkg.restore(X[:6], y[:6])
    lkg.reset()
    with pytest.raises(RuntimeError):
        lkg.restore(X, y)


def test_remediation_escalates_restarts_then_floor():
    cfg = GuardrailConfig(remediation_restarts=2, remediation_floor_factor=10.0)

    def fresh():
        return GaussianProcessRegressor(
            noise_variance=1e-2, noise_variance_bounds=(1e-3, 1e3), n_restarts=2
        )

    m0 = apply_remediation(fresh(), 0, cfg)
    assert m0.n_restarts == 2 and m0.noise_variance_bounds == (1e-3, 1e3)
    m1 = apply_remediation(fresh(), 1, cfg)
    assert m1.n_restarts == 4
    assert m1.noise_variance_bounds == (1e-3, 1e3)  # floor untouched at level 1
    m2 = apply_remediation(fresh(), 2, cfg)
    assert m2.n_restarts == 6
    assert m2.noise_variance_bounds[0] == pytest.approx(1e-2)
    assert m2.noise_variance >= 1e-2
    m3 = apply_remediation(fresh(), 3, cfg)
    assert m3.noise_variance_bounds[0] == pytest.approx(1e-1)


def test_remediation_leaves_fixed_noise_alone():
    cfg = GuardrailConfig()
    model = GaussianProcessRegressor(noise_variance_bounds="fixed", n_restarts=1)
    out = apply_remediation(model, 3, cfg)
    assert out.noise_variance_bounds == "fixed"
    assert out.n_restarts > 1


def _grown(X, y, k=3):
    rng = np.random.default_rng(9)
    X_new = np.vstack([X, rng.uniform(0, 6, size=(k, 1))])
    return X_new, np.append(y, np.sin(X_new[-k:, 0]))


def test_fit_gate_without_escalation_never_force_accepts():
    """The shard gate: unbounded rollbacks, no remediation."""
    model, X, y = _fit_model(n=12)
    X_new, y_new = _grown(X, y)
    bad, _, _ = _fit_model(n=15)
    gate = FitGate(HealthConfig(max_condition_number=1.0 + 1e-9))
    assert gate.admit(model, X, y) is model  # nothing to roll back to yet
    for _ in range(5):
        out = gate.admit(bad, X_new, y_new)
        assert out is not bad and out.X_train_.shape[0] == 15
    assert gate.tallies.n_rollbacks == 5 and gate.level == 5
    fresh = GaussianProcessRegressor(n_restarts=1)
    assert gate.remediate(fresh).n_restarts == 1
    assert gate.tallies.n_remediations == 0


def test_fit_gate_escalation_caps_rollbacks_and_remediates():
    model, X, y = _fit_model(n=12)
    X_new, y_new = _grown(X, y)
    gate = FitGate.from_config(
        GuardrailConfig(
            health=HealthConfig(max_condition_number=1.0 + 1e-9, min_points=100),
            max_rollbacks=1,
        )
    )
    gate.admit(model, X, y)
    bad, _, _ = _fit_model(n=15)
    assert gate.admit(bad, X_new, y_new) is not bad
    assert gate.remediate(GaussianProcessRegressor(n_restarts=1)).n_restarts == 3
    assert gate.admit(bad, X_new, y_new) is bad  # out of rollbacks
    assert gate.level == 0 and gate.lkg.n_rows == 15
    # Fits below min_points never become the LML baseline, accepted or not.
    assert gate.prev_lml_per_point is None
    state = gate.state()
    assert state["tallies"]["n_rollbacks"] == 1
    other = FitGate()
    other.load_state(state)
    assert other.state() == state


def test_fit_gate_accepts_when_snapshot_cannot_be_extended(monkeypatch):
    model, X, y = _fit_model(n=12)
    X_new, y_new = _grown(X, y)
    gate = FitGate(HealthConfig(max_condition_number=1.0 + 1e-9))
    gate.admit(model, X, y)

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(gate.lkg, "restore", singular)
    bad, _, _ = _fit_model(n=15)
    assert gate.admit(bad, X_new, y_new) is bad
    assert gate.tallies.n_rollbacks == 0 and gate.tallies.n_unhealthy_fits == 2


# ------------------------------------------------------------------ drift


def test_drift_detector_quiet_on_stationary_stream():
    rng = np.random.default_rng(0)
    det = DriftDetector()
    assert not any(det.update(z) for z in rng.standard_normal(500))


def test_drift_detector_fires_on_mean_shift_either_direction():
    rng = np.random.default_rng(1)
    for shift in (+3.0, -3.0):
        det = DriftDetector()
        for z in rng.standard_normal(30):
            assert not det.update(z)
        fired_at = None
        for i in range(30):
            if det.update(shift + rng.standard_normal()):
                fired_at = i
                break
        assert fired_at is not None and fired_at < 15


def test_drift_detector_respects_min_samples():
    det = DriftDetector(DriftConfig(min_samples=10, threshold=0.5, delta=0.0))
    # Huge shifts, but fewer than min_samples values: never alarms.
    assert not any(det.update(50.0 * (-1) ** i) for i in range(9))


def test_drift_detector_reset_and_batch_update():
    det = DriftDetector()
    # A baseline regime followed by a shifted one alarms within the batch.
    assert det.update_many(np.concatenate([np.zeros(20), 5.0 + np.zeros(20)]))
    det.reset()
    assert det.n_seen == 0
    assert det.statistic == 0.0
    assert not det.update_many(np.zeros(20))


def test_drift_detector_ignores_non_finite():
    det = DriftDetector()
    assert not det.update(float("nan"))
    assert det.n_seen == 0


# ------------------------------------------------------------ aggregation


def test_tallies_roundtrip():
    t = GuardrailTallies(n_rollbacks=2, n_drift_events=1, n_breaker_opens=3)
    d = t.as_dict()
    assert d["n_rollbacks"] == 2
    assert GuardrailTallies.from_dict(d) == t
    assert GuardrailTallies.from_dict(None) == GuardrailTallies()
    # Unknown keys from a future checkpoint version are ignored.
    d["n_future_things"] = 7
    assert GuardrailTallies.from_dict(d) == t

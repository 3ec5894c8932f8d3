"""Tests for the pluggable solver backends (exact / Nystrom / auto)."""

import json
import time

import numpy as np
import pytest

from repro.gp import (
    AUTO_EXACT_MAX,
    GaussianProcessRegressor,
    SolverConfig,
    resolve_solver,
)


def _problem(n, d=2, seed=0, noise=0.1):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 10.0, size=(n, d))
    y = np.sin(X[:, 0]) + 0.5 * np.cos(0.7 * X[:, 1]) + noise * rng.standard_normal(n)
    return X, y


def _model(solver, **kw):
    defaults = dict(
        noise_variance=1e-2,
        noise_variance_bounds=(1e-2, 1e2),
        rng=0,
        n_restarts=0,
        solver=solver,
    )
    defaults.update(kw)
    return GaussianProcessRegressor(**defaults)


# ------------------------------------------------------------ config layer


def test_resolve_solver_coercions():
    assert resolve_solver(None).name == "exact"
    assert resolve_solver("nystrom").name == "nystrom"
    cfg = SolverConfig(name="nystrom", n_inducing=64)
    assert resolve_solver(cfg) is cfg
    assert resolve_solver(cfg.to_dict()) == cfg
    with pytest.raises(ValueError, match="unknown solver"):
        resolve_solver("cg")
    with pytest.raises(ValueError, match="solver must be"):
        resolve_solver(42)


def test_config_round_trip_and_validation():
    cfg = SolverConfig(name="nystrom", n_inducing=32, seed=7)
    assert SolverConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ValueError):
        SolverConfig(n_inducing=0)
    with pytest.raises(ValueError):
        SolverConfig(budget_mean=-1.0)


def test_backend_aware_default_budgets():
    assert SolverConfig(name="nystrom").budget_mean == pytest.approx(0.05)
    assert SolverConfig(name="nystrom").budget_std == pytest.approx(0.10)
    assert SolverConfig(name="nystrom", budget_mean=0.02).budget_mean == pytest.approx(0.02)


def test_removed_rff_backend_names_the_valid_ones():
    with pytest.raises(ValueError, match="'exact', 'nystrom', 'auto'"):
        resolve_solver("rff")
    with pytest.raises(ValueError, match="'exact', 'nystrom', 'auto'"):
        SolverConfig(name="rff")
    payload = _model("exact").fit(*_problem(20)).to_dict()
    payload["solver"] = dict(payload["solver"], name="rff")
    with pytest.raises(ValueError, match="'exact', 'nystrom', 'auto'"):
        GaussianProcessRegressor.from_dict(payload)


def test_payload_with_n_features_still_loads():
    # Payloads written while the random Fourier feature backend existed
    # carry a solver "n_features" entry; from_dict drops unknown keys.
    X, y = _problem(40)
    model = _model({"name": "nystrom", "n_inducing": 16}).fit(X, y)
    payload = json.loads(json.dumps(model.to_dict()))
    payload["solver"]["n_features"] = 256
    restored = GaussianProcessRegressor.from_dict(payload)
    assert restored.solver == model.solver
    Xq, _ = _problem(10, seed=4)
    assert np.array_equal(restored.predict(Xq), model.predict(Xq))


def test_auto_effective_backend():
    cfg = SolverConfig(name="auto", auto_exact_max=50)
    assert cfg.effective_backend(50) == "exact"
    assert cfg.effective_backend(51) == "nystrom"
    assert SolverConfig(name="nystrom").effective_backend(10) == "nystrom"
    assert AUTO_EXACT_MAX >= 500  # sanity: crossover stays in the measured range


# --------------------------------------------------------- exact bit-identity


def test_exact_default_and_bit_identity():
    X, y = _problem(40)
    base = _model("exact").fit(X, y)
    default = _model(None).fit(X, y)
    auto = _model(SolverConfig(name="auto")).fit(X, y)  # 40 <= auto_exact_max
    Xq, _ = _problem(30, seed=1)
    m0, s0 = base.predict(Xq, return_std=True)
    for other in (default, auto):
        assert other._afit is None and other._fit is not None
        m1, s1 = other.predict(Xq, return_std=True)
        assert np.array_equal(m0, m1)
        assert np.array_equal(s0, s1)
    assert base.solver_info == {"name": "exact"}
    assert "solver" not in repr(default)
    assert "nystrom" in repr(_model("nystrom"))


def test_auto_switches_backend_by_pool_size():
    cfg = SolverConfig(name="auto", auto_exact_max=60, n_inducing=32)
    X, y = _problem(50)
    small = _model(cfg).fit(X, y)
    assert small._fit is not None and small._afit is None
    X, y = _problem(90)
    big = _model(cfg).fit(X, y)
    assert big._fit is None and big._afit is not None
    assert big._afit.backend == "nystrom"


# ------------------------------------------------------- accuracy vs exact


@pytest.mark.parametrize("backend", ["nystrom"])
def test_approx_matches_exact_within_budget(backend):
    X, y = _problem(400)
    exact = _model("exact").fit(X, y)
    approx = _model(backend).fit(X, y)
    info = approx.solver_info
    budget = info["error_budget"]
    assert budget["checked"] is True
    assert budget["within_budget"] is True, budget
    Xq, _ = _problem(200, seed=3)
    me, se = exact.predict(Xq, return_std=True)
    ma, sa = approx.predict(Xq, return_std=True)
    y_sd = float(np.std(y))
    assert np.max(np.abs(ma - me)) <= budget["budget_mean"] * y_sd * 1.5
    assert np.max(np.abs(sa - se)) <= budget["budget_std"] * y_sd * 1.5
    assert np.all(sa > 0)


def test_budget_unchecked_above_cap_is_not_passed():
    cfg = SolverConfig(name="nystrom", n_inducing=32, budget_max_exact=50)
    X, y = _problem(80)
    model = _model(cfg).fit(X, y)
    budget = model.solver_info["error_budget"]
    assert budget["checked"] is False
    assert budget["within_budget"] is None


# --------------------------------------------------- posterior API parity


@pytest.mark.parametrize("backend", ["nystrom"])
def test_predict_paths_and_sampling(backend):
    X, y = _problem(120)
    model = _model({"name": backend, "n_inducing": 64})
    model.fit(X, y)
    Xq, _ = _problem(25, seed=5)
    mean = model.predict(Xq)
    m2, sd = model.predict(Xq, return_std=True)
    m3, cov = model.predict(Xq, return_cov=True)
    assert np.array_equal(mean, m2) and np.array_equal(mean, m3)
    assert np.allclose(sd, np.sqrt(np.clip(np.diag(cov), 0.0, None)), atol=1e-8)
    sd_lat = model.predict(Xq, return_std=True, include_noise=False)[1]
    assert np.all(sd_lat <= sd + 1e-12)
    samples = model.sample_y(Xq, n_samples=8, rng=1)
    assert samples.shape == (25, 8)
    assert np.all(np.isfinite(samples))


def test_predict_gradient_unsupported_for_approx():
    X, y = _problem(60)
    model = _model({"name": "nystrom", "n_inducing": 32}).fit(X, y)
    with pytest.raises(NotImplementedError, match="exact solver"):
        model.predict_gradient(X[0])


def test_lml_accessors_approx():
    X, y = _problem(60)
    model = _model({"name": "nystrom", "n_inducing": 32}).fit(X, y)
    assert np.isfinite(model.lml_)
    with pytest.raises(RuntimeError, match="approximate"):
        model.log_marginal_likelihood()


# ------------------------------------------------ update / clone / serialize


def test_update_and_clone_approx():
    X, y = _problem(80)
    model = _model({"name": "nystrom", "n_inducing": 32}).fit(X, y)
    h0 = model.training_hash()
    clone = model.clone_fitted()
    Xn, yn = _problem(5, seed=9)
    model.update(Xn, yn)
    assert model.n_train_ == 85
    assert clone.n_train_ == 80  # clone untouched by the update
    assert model.training_hash() != h0
    Xq, _ = _problem(10, seed=11)
    assert np.all(np.isfinite(model.predict(Xq, return_std=True)[1]))


def test_serialize_round_trip_approx():
    X, y = _problem(90)
    model = _model({"name": "nystrom", "n_inducing": 32}).fit(X, y)
    payload = json.loads(json.dumps(model.to_dict()))
    restored = GaussianProcessRegressor.from_dict(payload)
    Xq, _ = _problem(20, seed=2)
    m0, s0 = model.predict(Xq, return_std=True)
    m1, s1 = restored.predict(Xq, return_std=True)
    assert np.allclose(m0, m1, atol=0, rtol=0)
    assert np.allclose(s0, s1, atol=0, rtol=0)
    assert restored.training_hash() == model.training_hash()
    assert restored.solver_info["name"] == "nystrom"
    # Compact factors only: training data is not serialized, so update
    # and training-set accessors must refuse rather than mispredict.
    with pytest.raises(RuntimeError):
        restored.update(X[:1], y[:1])
    with pytest.raises(RuntimeError):
        _ = restored.X_train_


def test_registry_publish_records_solver(tmp_path):
    from repro.serve.registry import ModelRegistry

    X, y = _problem(70)
    model = _model({"name": "nystrom", "n_inducing": 32}).fit(X, y)
    registry = ModelRegistry(tmp_path / "reg")
    registry.publish(model)
    meta = registry.versions()[-1]
    assert meta.extra["solver"]["name"] == "nystrom"
    assert meta.extra["solver"]["error_budget"]["checked"] is True
    assert meta.n_train == 70


# ----------------------------------------------------------- model health


def test_model_health_reports_solver_and_blown_budget():
    from repro.al.guardrails import ModelHealth

    X, y = _problem(300, noise=0.02)
    # Two inducing points cannot represent the surface: the budget check
    # must fail and ModelHealth must surface it as an issue.
    cfg = SolverConfig(name="nystrom", n_inducing=2, budget_probes=64)
    model = _model(cfg).fit(X, y)
    budget = model.solver_info["error_budget"]
    assert budget["within_budget"] is False
    report = ModelHealth().check(model)
    assert report.solver["name"] == "nystrom"
    assert report.outlier_rate is None
    assert any("error budget" in issue for issue in report.issues)
    assert not report.healthy


def test_model_health_approx_healthy_and_exact_solver_field():
    from repro.al.guardrails import ModelHealth

    X, y = _problem(200)
    approx = _model({"name": "nystrom", "n_inducing": 64}).fit(X, y)
    report = ModelHealth().check(approx)
    assert report.healthy, report.issues
    assert report.n_train == 200

    exact = _model("exact").fit(*_problem(60))
    assert ModelHealth().check(exact).solver == {"name": "exact"}


# ------------------------------------------------------------- scale test


def test_nystrom_100k_pool_under_60s():
    # ISSUE acceptance: an approximate backend fits and predicts a
    # 10^5-point synthetic pool in well under a minute.
    X, y = _problem(100_000, seed=17)
    t0 = time.perf_counter()
    model = _model("nystrom").fit(X, y)
    Xq, _ = _problem(2_000, seed=19)
    mean, sd = model.predict(Xq, return_std=True)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"fit+predict took {elapsed:.1f}s"
    assert model.n_train_ == 100_000
    assert np.all(np.isfinite(mean)) and np.all(sd > 0)
    rmse = float(np.sqrt(np.mean((mean - (np.sin(Xq[:, 0]) + 0.5 * np.cos(0.7 * Xq[:, 1]))) ** 2)))
    assert rmse < 0.1

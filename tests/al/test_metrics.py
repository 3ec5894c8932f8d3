"""Tests for AL convergence metrics."""

import math

import numpy as np
import pytest

from repro.al import amsd, evaluate_model, gmsd, nlpd, rmse
from repro.gp import GaussianProcessRegressor, SquaredExponential


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 5, size=(15, 1))
    y = X[:, 0] + 0.1 * rng.standard_normal(15)
    m = GaussianProcessRegressor(
        kernel=SquaredExponential(
            1.0, 1.0, signal_variance_bounds="fixed", length_scale_bounds="fixed"
        ),
        noise_variance=0.01,
        noise_variance_bounds="fixed",
        optimizer=None,
    )
    return m.fit(X, y)


def test_rmse_formula(model):
    X_test = np.array([[1.0], [2.0], [3.0]])
    y_test = np.array([1.0, 2.0, 3.0])
    pred = model.predict(X_test)
    expected = math.sqrt(np.mean((pred - y_test) ** 2))
    assert rmse(model, X_test, y_test) == pytest.approx(expected)


def test_rmse_zero_for_perfect_predictions(model):
    X_test = np.array([[1.5]])
    y_test = model.predict(X_test)
    assert rmse(model, X_test, y_test) == pytest.approx(0.0, abs=1e-12)


def test_amsd_is_mean_sd(model):
    X = np.linspace(0, 8, 9)[:, np.newaxis]
    _, sd = model.predict(X, return_std=True)
    assert amsd(model, X) == pytest.approx(float(np.mean(sd)))


def test_gmsd_leq_amsd(model):
    """Geometric mean never exceeds the arithmetic mean."""
    X = np.linspace(0, 8, 9)[:, np.newaxis]
    assert gmsd(model, X) <= amsd(model, X) + 1e-12


def test_nlpd_formula(model):
    X_test = np.array([[2.0]])
    y_test = np.array([2.0])
    mu, sd = model.predict(X_test, return_std=True)
    expected = 0.5 * math.log(2 * math.pi) + math.log(sd[0]) + 0.5 * (
        (y_test[0] - mu[0]) / sd[0]
    ) ** 2
    assert nlpd(model, X_test, y_test) == pytest.approx(expected)


def test_nlpd_penalizes_confident_misses(model):
    """A miss far outside the predictive band must cost more."""
    X_test = np.array([[2.0]])
    good = nlpd(model, X_test, model.predict(X_test))
    bad = nlpd(model, X_test, model.predict(X_test) + 5.0)
    assert bad > good + 1.0


def test_evaluate_model_consistency(model):
    X_active = np.linspace(0, 8, 9)[:, np.newaxis]
    X_test = np.array([[1.0], [4.0]])
    y_test = np.array([1.0, 4.0])
    out = evaluate_model(model, X_active, X_test, y_test)
    assert out["rmse"] == pytest.approx(rmse(model, X_test, y_test))
    assert out["amsd"] == pytest.approx(amsd(model, X_active))
    assert out["gmsd"] == pytest.approx(gmsd(model, X_active))
    assert out["nlpd"] == pytest.approx(nlpd(model, X_test, y_test))


def test_evaluate_model_is_exactly_the_public_functions(model):
    """Regression for the inline-formula drift: evaluate_model must agree
    with the module's public metric functions *bitwise*, including any SD
    flooring, so the definitions cannot diverge again."""
    X_active = np.linspace(0, 8, 9)[:, np.newaxis]
    X_test = np.linspace(0.5, 7.5, 8)[:, np.newaxis]
    y_test = np.linspace(0.5, 7.5, 8)
    out = evaluate_model(model, X_active, X_test, y_test)
    assert out["rmse"] == rmse(model, X_test, y_test)
    assert out["amsd"] == amsd(model, X_active)
    assert out["gmsd"] == gmsd(model, X_active)
    assert out["nlpd"] == nlpd(model, X_test, y_test)


def test_single_sd_floor_shared_by_gmsd_and_nlpd():
    """gmsd and nlpd historically used different SD floors (1e-300 vs
    1e-12); there is exactly one floor now."""
    from repro.al import metrics as metrics_mod

    floor = metrics_mod._SD_FLOOR
    sd = np.array([0.0, floor / 10])
    # Both helpers must clamp with the same constant.
    assert metrics_mod._gmsd_from(sd) == pytest.approx(floor)
    expected_nlpd = 0.5 * math.log(2 * math.pi) + math.log(floor)
    assert metrics_mod._nlpd_from(
        np.zeros(2), sd, np.zeros(2)
    ) == pytest.approx(expected_nlpd)

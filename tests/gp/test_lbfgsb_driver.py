"""The L-BFGS-B driver loop against ``scipy.optimize.minimize``, bit for bit.

:mod:`repro.gp.optimize` drives scipy's ``setulb`` itself instead of calling
``minimize(method="L-BFGS-B", jac=True)``.  Each case runs one descent both
ways, on the same guarded objective, and requires the same ``x``, ``fun``,
``success`` and evaluation count, and the same sequence of points the
objective was called with.  The cases cover a bounded quadratic, Rosenbrock
in a box, the GP fit objective at several training-set sizes and kernel
configurations, starts on a bound, one-sided and point boxes, and
objectives that are non-finite on part of the box or everywhere.

The driver is only used when the installed ``setulb`` has the signature it
was written against; otherwise every start goes through ``minimize``, and
the comparisons here are skipped.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import minimize

from repro import telemetry as tm
from repro.gp import GaussianProcessRegressor, SquaredExponential, minimize_with_restarts
from repro.gp import optimize
from repro.gp.gpr import _FitObjective

needs_driver = pytest.mark.skipif(
    optimize._lbfgsb_routine() is None,
    reason="the installed scipy's setulb is not the one the driver was written for",
)


class _Recorder:
    """Wrap an objective and keep a copy of every point it is called with."""

    def __init__(self, objective):
        self.objective = objective
        self.points = []

    def __call__(self, theta):
        self.points.append(np.array(theta))
        return self.objective(theta)


def _descend_both_ways(objective, start, bounds):
    """Run one descent through the driver and one through ``minimize``."""
    start = np.asarray(start, dtype=float)
    bounds = np.asarray(bounds, dtype=float)
    runs = []
    for use_driver in (True, False):
        recorder = _Recorder(objective)
        task = optimize._StartTask(recorder, bounds)
        if use_driver:
            x, fun, success, nfev = task.descend(start, optimize._lbfgsb_routine())
        else:
            res = minimize(task.guarded, start, jac=True, method="L-BFGS-B", bounds=bounds)
            x, fun, success, nfev = res.x, res.fun, res.success, res.nfev
        runs.append((x, fun, success, nfev, recorder.points))
    return runs


def _assert_same_descent(objective, start, bounds):
    (x, fun, success, nfev, points), (rx, rfun, rsuccess, rnfev, rpoints) = (
        _descend_both_ways(objective, start, bounds)
    )
    np.testing.assert_array_equal(x, rx)
    assert fun == rfun
    assert type(fun) is type(rfun)
    assert success == rsuccess
    assert nfev == rnfev == len(points)
    assert len(points) == len(rpoints)
    for a, b in zip(points, rpoints):
        np.testing.assert_array_equal(a, b)
    return fun, success


def _starts(bounds, theta0, n_random, seed):
    rng = np.random.default_rng(seed)
    bounds = np.asarray(bounds, dtype=float)
    starts = [np.clip(theta0, bounds[:, 0], bounds[:, 1])]
    starts += [rng.uniform(bounds[:, 0], bounds[:, 1]) for _ in range(n_random)]
    return starts


def _quadratic(theta):
    center = np.array([0.3, -2.5, 1.0])  # the second coordinate lies outside the box
    d = theta - center
    return float(d @ d), 2.0 * d


def _rosenbrock(theta):
    x, y = theta
    value = (1.0 - x) ** 2 + 100.0 * (y - x * x) ** 2
    grad = np.array([-2.0 * (1.0 - x) - 400.0 * x * (y - x * x), 200.0 * (y - x * x)])
    return value, grad


@needs_driver
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bounded_quadratic(seed):
    bounds = [[-1.0, 1.0], [-2.0, 2.0], [0.0, 3.0]]
    for start in _starts(bounds, np.zeros(3), 3, seed):
        fun, success = _assert_same_descent(_quadratic, start, bounds)
        assert success and fun == pytest.approx(0.25, abs=1e-8)


@needs_driver
@pytest.mark.parametrize("seed", [0, 1])
def test_rosenbrock_in_a_box(seed):
    bounds = [[-1.5, 2.0], [-0.5, 3.0]]
    for start in _starts(bounds, np.array([-1.2, 1.0]), 3, seed):
        _assert_same_descent(_rosenbrock, start, bounds)


def _fit_objective(n, *, ard=False, free_amplitude=True, heteroscedastic=False, seed=5):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 10.0, size=(n, 2))
    y = np.sin(X[:, 0]) + 0.5 * np.cos(0.7 * X[:, 1]) + 0.1 * rng.standard_normal(n)
    kernel = SquaredExponential(
        signal_variance=1.0,
        length_scale=np.ones(2) if ard else 1.0,
        signal_variance_bounds=(1e-3, 1e3) if free_amplitude else "fixed",
    )
    model = GaussianProcessRegressor(kernel=kernel, noise_variance_bounds=(1e-4, 1e2))
    model.kernel_ = model._template_kernel(2)
    alpha = np.geomspace(1e-3, 0.3, n) if heteroscedastic else None
    return _FitObjective(model, X, y, alpha), model._theta(), model._theta_bounds()


@needs_driver
@pytest.mark.parametrize("n", [1, 2, 10, 60, 101])
@pytest.mark.parametrize(
    "config",
    [
        {},
        {"free_amplitude": False},
        {"ard": True},
        {"heteroscedastic": True},
    ],
    ids=["isotropic", "fixed_amplitude", "ard", "heteroscedastic"],
)
def test_gp_fit_objective(n, config):
    objective, theta0, bounds = _fit_objective(n, **config)
    for start in _starts(bounds, theta0, 2, n):
        _assert_same_descent(objective, start, bounds)


@needs_driver
def test_start_exactly_on_a_bound():
    bounds = np.array([[-1.0, 1.0], [-2.0, 2.0], [0.0, 3.0]])
    # Pinned by the gradient (second coordinate) and free to leave (others).
    _assert_same_descent(_quadratic, bounds[:, 0].copy(), bounds)
    _assert_same_descent(_quadratic, bounds[:, 1].copy(), bounds)
    objective, _, gp_bounds = _fit_objective(10)
    _assert_same_descent(objective, gp_bounds[:, 0].copy(), gp_bounds)
    _assert_same_descent(objective, gp_bounds[:, 1].copy(), gp_bounds)


@needs_driver
def test_one_sided_and_unbounded_coordinates():
    bounds = [[-np.inf, 0.0], [-1.0, np.inf], [-np.inf, np.inf]]
    for start in ([5.0, -4.0, 2.0], [-0.5, 1.0, -3.0]):
        _assert_same_descent(_quadratic, start, bounds)


@needs_driver
def test_point_and_partly_fixed_boxes():
    _assert_same_descent(_quadratic, [0.5, 0.5, 0.5], [[0.2, 0.2], [1.0, 1.0], [0.7, 0.7]])
    _assert_same_descent(_quadratic, [0.5, 0.5, 0.5], [[-1.0, 1.0], [1.0, 1.0], [0.0, 2.0]])


def _partly_nonfinite(theta):
    """Infinite for x < 0; finite value but NaN gradient for x > 1.5."""
    x = theta[0]
    if x < 0:
        return np.inf, np.zeros_like(theta)
    if x > 1.5:
        return float((x - 0.2) ** 2), np.array([np.nan])
    return float((x - 0.2) ** 2), np.array([2.0 * (x - 0.2)])


@needs_driver
@pytest.mark.parametrize("start", [1.0, 1.9, -1.0, 0.2, 2.0])
def test_objective_nonfinite_on_part_of_the_box(start):
    _assert_same_descent(_partly_nonfinite, [start], [[-2.0, 2.0]])


def _never_finite(theta):
    return np.nan, np.zeros_like(theta)


@needs_driver
def test_objective_nonfinite_everywhere():
    bounds = [[-1.0, 1.0], [-1.0, 1.0]]
    for start in _starts(bounds, np.array([5.0, -5.0]), 2, 0):
        fun, _ = _assert_same_descent(_never_finite, start, bounds)
        assert fun == optimize._BAD_VALUE
    with pytest.warns(RuntimeWarning, match="non-finite"):
        out = minimize_with_restarts(
            _never_finite, np.array([5.0, -5.0]), np.asarray(bounds), n_restarts=2, rng=0
        )
    assert out.fallback and out.statuses == ["nonfinite"] * 3
    np.testing.assert_array_equal(out.theta, [1.0, -1.0])


def _outcome(objective, theta0, bounds, monkeypatch, *, use_driver):
    with monkeypatch.context() as patch:
        if not use_driver:
            patch.setattr(optimize, "_SETULB", False)
        return minimize_with_restarts(objective, theta0, bounds, n_restarts=3, rng=4)


@needs_driver
@pytest.mark.parametrize("case", ["gp", "partly_nonfinite"])
def test_minimize_fallback_gives_the_same_outcome(case, monkeypatch):
    if case == "gp":
        objective, theta0, bounds = _fit_objective(30)
    else:
        objective, theta0, bounds = _partly_nonfinite, np.array([1.0]), np.array([[-2.0, 2.0]])
    driver = _outcome(objective, theta0, bounds, monkeypatch, use_driver=True)
    fallback = _outcome(objective, theta0, bounds, monkeypatch, use_driver=False)
    np.testing.assert_array_equal(driver.theta, fallback.theta)
    assert driver.value == fallback.value
    assert driver.statuses == fallback.statuses
    assert driver.all_values == fallback.all_values
    for a, b in zip(driver.all_thetas, fallback.all_thetas):
        np.testing.assert_array_equal(a, b)


def test_unknown_setulb_signature_falls_back_to_minimize(monkeypatch):
    monkeypatch.setattr(optimize, "_SETULB", None)
    monkeypatch.setattr(optimize, "_SETULB_SIGNATURE", "setulb(a,b,c)")
    assert optimize._lbfgsb_routine() is None
    assert optimize._SETULB is False  # decided once, not per start
    out = minimize_with_restarts(_quadratic, np.zeros(3), np.array([[-1.0, 1.0]] * 3))
    np.testing.assert_allclose(out.theta, [0.3, -1.0, 1.0], atol=1e-6)


@pytest.mark.parametrize("use_driver", [True, False])
def test_evaluations_counter_counts_every_objective_call(use_driver, monkeypatch):
    recorder = _Recorder(_rosenbrock)
    with monkeypatch.context() as patch:
        if not use_driver:
            patch.setattr(optimize, "_SETULB", False)
        with tm.session() as registry:
            minimize_with_restarts(
                recorder, np.array([-1.2, 1.0]), np.array([[-1.5, 2.0], [-0.5, 3.0]]),
                n_restarts=2, rng=0,
            )
    assert registry.counter("gp.optimize.evaluations").value == len(recorder.points)
    assert registry.counter("gp.optimize.starts").value == 3

"""Micro-benchmarks: GPR fit/predict scaling.

The paper defers "computational requirements and the scalability of these
algorithms" to future work; these benches provide the numbers for our
implementation: fit cost grows with the O(n^3) Cholesky + O(n^2 d) kernel,
prediction with O(n m).
"""

import tracemalloc

import numpy as np
import pytest

from repro.gp import GaussianProcessRegressor
from repro.gp import optimize
from repro.gp.gpr import _FitObjective


def _data(n, d=2, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 10, size=(n, d))
    y = np.sin(X[:, 0]) + 0.1 * rng.standard_normal(n)
    return X, y


@pytest.mark.parametrize("n", [50, 100, 200])
def test_fit_scaling(benchmark, n):
    X, y = _data(n)
    model = GaussianProcessRegressor(rng=0, n_restarts=1)
    benchmark(lambda: GaussianProcessRegressor(rng=0, n_restarts=1).fit(X, y))
    model.fit(X, y)
    assert model.fitted


@pytest.mark.parametrize("n", [50, 200])
def test_predict_with_std(benchmark, n):
    X, y = _data(n)
    model = GaussianProcessRegressor(rng=0, n_restarts=0).fit(X, y)
    Xq = _data(500, seed=1)[0]
    mean, sd = benchmark(model.predict, Xq, return_std=True)
    assert mean.shape == (500,)
    assert np.all(sd > 0)


@pytest.mark.parametrize("n", [10, 30, 50])
def test_predict_std_large(benchmark, n):
    """One SD pass over 40,000 candidates, the size of ``big_pool``'s Active set.

    The traced (``tracemalloc``) peak of one call is recorded in the
    benchmark's ``extra_info``; the table in ``benchmarks/README.md`` comes
    from this case.
    """
    X, y = _data(n, d=3)
    model = GaussianProcessRegressor(rng=0, n_restarts=0).fit(X, y)
    Xq = _data(40_000, d=3, seed=1)[0]
    tracemalloc.start()
    model.predict(Xq, return_std=True)
    benchmark.extra_info["traced_peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()
    mean, sd = benchmark(model.predict, Xq, return_std=True)
    assert mean.shape == (40_000,)
    assert np.all(sd > 0)


def test_lml_gradient_evaluation(benchmark):
    X, y = _data(150)
    model = GaussianProcessRegressor(rng=0, n_restarts=0).fit(X, y)
    theta = model._theta()
    lml, grad = benchmark(
        model.log_marginal_likelihood, theta, eval_gradient=True
    )
    assert np.isfinite(lml)
    assert grad.shape == theta.shape


@pytest.mark.parametrize("n", [10, 50, 100, 150])
def test_lml_objective_call(benchmark, n):
    """One call of the objective a fit hands L-BFGS-B: ``theta -> (-LML, -grad)``.

    2-D inputs and the default isotropic kernel, like ``paper_al``, whose
    fits make ~12k such calls a pass at 1 to 101 rows.  The table in
    ``benchmarks/README.md`` comes from this case.
    """
    X, y = _data(n)
    model = GaussianProcessRegressor(rng=0, n_restarts=0).fit(X, y)
    theta = model._theta()
    value, grad = benchmark(_FitObjective(model, X, y), theta)
    assert np.isfinite(value)
    assert grad.shape == theta.shape


@pytest.mark.parametrize("path", ["driver", "minimize"])
@pytest.mark.parametrize("n", [10, 50, 100])
def test_lbfgsb_start(benchmark, n, path):
    """One L-BFGS-B descent from a fit's deterministic start.

    ``driver`` is the loop :mod:`repro.gp.optimize` runs over scipy's
    ``setulb``; ``minimize`` is ``scipy.optimize.minimize(method="L-BFGS-B")``
    on the same guarded objective.  Both evaluate the same points and return
    the same floats.  2-D inputs and the default isotropic kernel, like
    ``paper_al``.  The table in ``benchmarks/README.md`` comes from this case.
    """
    X, y = _data(n)
    model = GaussianProcessRegressor(rng=0)
    objective, _ = model._objective_at(None, X, y)
    bounds = model._theta_bounds()
    start = np.clip(model._theta(), bounds[:, 0], bounds[:, 1])
    task = optimize._StartTask(objective, bounds)
    if path == "driver":
        setulb = optimize._lbfgsb_routine()
        if setulb is None:
            pytest.skip("the installed scipy's setulb is not the driver's")
        x, value, success, _ = benchmark(task.descend, start, setulb)
    else:
        x, value, success, _ = benchmark(task.minimize, start)
    assert success and np.isfinite(value)

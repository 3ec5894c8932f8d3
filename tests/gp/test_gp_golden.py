"""Golden digests pinning the exact GP's numerics bit for bit.

Each case fits a small seeded problem and hashes every float the case
produces: the fitted ``kernel_``/``noise_variance_`` and the ``fit``/``afit``
posterior caches of :meth:`GaussianProcessRegressor.to_dict`, the LML and its
gradient, the predictive mean/std/covariance, gradients, samples and the
LOO-CV summaries.  The digests were taken before the LML, the ``K_y``
diagonal, the fit and the predictive post-processing were each written once;
they pin that the rewrite kept every floating-point operation in order.
Regenerate them only for a deliberate numerical change, and say so in the
change log.

The ``solver`` sub-dict of ``to_dict()`` is left out: it describes the
configuration, not the numbers, and its key set changed when the random
Fourier feature backend was removed.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.gp import GaussianProcessRegressor
from repro.gp.loocv import loo_pseudo_likelihood, loo_residuals


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _arr(values) -> list:
    return np.asarray(values, dtype=float).tolist()


def _state(model) -> dict:
    payload = model.to_dict()
    return {k: payload[k] for k in ("kernel_", "noise_variance_", "fit", "afit")}


def _problem(n=24, d=1, seed=3):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 10.0, size=(n, d))
    y = np.sin(X[:, 0]) + 0.1 * rng.standard_normal(n)
    if d > 1:
        y = y + 0.5 * np.cos(0.7 * X[:, 1])
    return X, y


def _model(**kw):
    defaults = dict(noise_variance_bounds=(1e-4, 1e2), n_restarts=2, rng=0)
    defaults.update(kw)
    return GaussianProcessRegressor(**defaults)


def _queries(d=1):
    return np.linspace(-1.0, 11.0, 9 * d).reshape(-1, d)


def _predictions(model, Xq) -> dict:
    out = {"mean": _arr(model.predict(Xq))}
    for noise in (True, False):
        _, sd = model.predict(Xq, return_std=True, include_noise=noise)
        _, cov = model.predict(Xq, return_cov=True, include_noise=noise)
        out[f"std_{noise}"] = _arr(sd)
        out[f"cov_{noise}"] = _arr(cov)
    return out


# --------------------------------------------------------------- the cases


def _exact_bounded():
    X, y = _problem()
    model = _model().fit(X, y)
    return {"state": _state(model), "pred": _predictions(model, _queries())}


def _exact_fixed_noise():
    X, y = _problem()
    model = _model(noise_variance=0.02, noise_variance_bounds="fixed").fit(X, y)
    return {"state": _state(model), "pred": _predictions(model, _queries())}


def _heteroscedastic():
    X, y = _problem(20)
    alpha = np.geomspace(1e-3, 0.3, X.shape[0])
    model = _model().fit(X, y, alpha=alpha)
    return {"state": _state(model), "pred": _predictions(model, _queries())}


def _normalize_y_large_scale():
    X, y = _problem()
    model = _model(normalize_y=True).fit(X, 1e6 * y)
    return {"state": _state(model), "pred": _predictions(model, _queries())}


def _warm_start_and_update():
    X, y = _problem(30)
    model = _model().fit(X[:24], y[:24])
    model.fit(X[:27], y[:27], warm_start=True)
    warm = _state(model)
    model.update(X[27:], y[27:])
    return {
        "warm": warm,
        "updated": _state(model),
        "pred": _predictions(model, _queries()),
    }


def _lml_off_optimum():
    X, y = _problem()
    model = _model().fit(X, y)
    theta = model._theta() + np.array([0.3, -0.4, 0.5])
    lml, grad = model.log_marginal_likelihood(theta, eval_gradient=True)
    plain = model.log_marginal_likelihood(theta)
    X2, y2 = _problem(15, seed=8)
    lml2, grad2 = model.log_marginal_likelihood(
        theta, eval_gradient=True, X=X2, y=y2, alpha=np.full(15, 0.01)
    )
    return {
        "lml": repr(float(lml)),
        "grad": _arr(grad),
        "plain": repr(float(plain)),
        "lml_xy": repr(float(lml2)),
        "grad_xy": _arr(grad2),
        "theta_after": _arr(model._theta()),
    }


def _gradient_and_samples():
    X, y = _problem(20, d=2)
    model = _model(normalize_y=True).fit(X, y)
    d_mean, d_std = model.predict_gradient(np.array([4.0, 6.0]))
    return {
        "d_mean": _arr(d_mean),
        "d_std": _arr(d_std),
        "samples": _arr(model.sample_y(_queries(2), n_samples=3, rng=0)),
    }


def _loocv():
    X, y = _problem(20)
    model = _model().fit(X, y, alpha=np.full(20, 0.005))
    res = loo_residuals(model)
    theta = model._theta() + 0.2
    return {
        "mean": _arr(res.mean),
        "std": _arr(res.std),
        "pll": repr(float(res.pseudo_log_likelihood)),
        "pseudo": repr(float(loo_pseudo_likelihood(model, theta, X, y))),
        "theta_after": _arr(model._theta()),
    }


def _nystrom():
    X, y = _problem(160, d=2)
    model = _model(solver={"name": "nystrom", "n_inducing": 24, "opt_subset": 80})
    model.fit(X, y)
    return {
        "state": _state(model),
        "pred": _predictions(model, _queries(2)),
        "lml": repr(float(model.lml_)),
        "budget": model.solver_info["error_budget"],
    }


def _thread_executor():
    from repro.parallel import ParallelMap

    X, y = _problem()
    model = _model(n_restarts=3, executor=ParallelMap("thread", 2)).fit(X, y)
    return {"state": _state(model)}


CASES = {
    "exact_bounded": _exact_bounded,
    "exact_fixed_noise": _exact_fixed_noise,
    "heteroscedastic": _heteroscedastic,
    "normalize_y_1e6": _normalize_y_large_scale,
    "warm_start_update": _warm_start_and_update,
    "lml_off_optimum": _lml_off_optimum,
    "gradient_samples": _gradient_and_samples,
    "loocv": _loocv,
    "nystrom": _nystrom,
    "thread_executor": _thread_executor,
}

GOLDEN = {
    "exact_bounded": "af48e5f6388e3b9b3500ace7221807219f8445a5d3be0c18c080c9be40e3738d",
    "exact_fixed_noise": "675f2dea83340249ab95b55ae2a31e90daa1862bee7b30b48e1fc80c1d460187",
    "gradient_samples": "30843c1eeccb1f125c33916519a696359c45e756e6420710f20645b05f01bf6b",
    "heteroscedastic": "bcf3c6a4a647320997dbc50f86f512129d3e524b0364613e992985e7379bcf08",
    "lml_off_optimum": "9b4460747d358822bff3cc9a4002c39117d7931cc3d520d3b7317d3d9b1133e7",
    "loocv": "1022edb9cb42fae951fe4b3d8eb46e40ca9704c4baf7bc509ae26de59daca35e",
    "normalize_y_1e6": "a553efdd2863290e3b9d6b6fe533c03a512b964637a3f74b9538abeeb65e0014",
    "nystrom": "a049a7ecad718a9fb8513a33268278bb356c96e4eb95b33bcfdb4b7666d42b71",
    "thread_executor": "c1909783d4a328106435bc32c312ab87b814ab55b930248bfeec70521353377e",
    "warm_start_update": "2da0c77c522252f80281b0a97a795b6f5eb41e3ed9fe284da3133d15e3a7bee4",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_gp_golden(name):
    assert _digest(CASES[name]()) == GOLDEN[name]

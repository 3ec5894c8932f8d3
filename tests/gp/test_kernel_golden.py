"""Golden digests pinning the squared-exponential kernel bit for bit.

The kernel was once spelled as a product of an amplitude kernel and a unit
squared-exponential kernel; the digests below were taken with that spelling,
before the two were folded into :class:`SquaredExponential`.  They pin that
the one class computes the same floats in the same order: the covariance,
its ``theta`` gradient tensor, the cross-covariance, the diagonal, ``theta``
and ``bounds``, a ``clone_with_theta`` clone, the input-space gradient (whose
zeros must stay ``+0.0``), a fitted ARD regressor and a fixed-amplitude fit
like Fig. 5's LML probe.  The existing GP goldens use only the default
isotropic kernel.  The two fitted cases were re-taken when the LML objective
moved to a distance workspace and the closed-form gradient, which moves a
fit's ``theta`` in its last bits; the kernel's own evaluations did not move.
Regenerate the digests only for a deliberate numerical change, and say so
in the change log.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.gp import GaussianProcessRegressor, SquaredExponential, default_kernel


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _arr(values) -> list:
    return np.asarray(values, dtype=float).tolist()


def _points(n, d, seed):
    return np.random.default_rng(seed).uniform(-2.0, 2.0, size=(n, d))


def _state(model) -> dict:
    payload = model.to_dict()
    return {k: payload[k] for k in ("kernel", "kernel_", "noise_variance_", "fit")}


def _evaluate(kernel, X, Y) -> dict:
    K, grad = kernel(X, eval_gradient=True)
    return {
        "K": _arr(K),
        "grad": _arr(grad),
        "K_XY": _arr(kernel(X, Y)),
        "diag": _arr(kernel.diag(X)),
        "theta": _arr(kernel.theta),
        "bounds": _arr(kernel.bounds),
    }


def _kernel_case(ard: bool, free_amplitude: bool, free_length_scale: bool):
    def case():
        d = 3 if ard else 1
        kernel = SquaredExponential(
            2.5,
            [0.7, 1.9, 3.1] if ard else 1.3,
            signal_variance_bounds=(1e-3, 1e3) if free_amplitude else "fixed",
            length_scale_bounds=(1e-2, 1e2) if free_length_scale else "fixed",
        )
        X, Y = _points(12, d, seed=1), _points(5, d, seed=2)
        # The query shares its first coordinate with training row 3, so the
        # input-space gradient has exact zeros there.
        x = Y[0].copy()
        x[0] = X[3, 0]
        out = _evaluate(kernel, X, Y)
        out["clone"] = _evaluate(kernel.clone_with_theta(kernel.theta + 0.1), X, Y)
        out["gradient_x"] = _arr(kernel.gradient_x(x, X))
        out["after"] = _arr(kernel.theta)  # the clone left the original alone
        return out

    return case


def _problem(n, d, seed=3):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 10.0, size=(n, d))
    y = np.sin(X[:, 0]) + 0.5 * np.cos(0.7 * X[:, -1]) + 0.1 * rng.standard_normal(n)
    return X, y


def _fitted_ard():
    X, y = _problem(30, 3)
    model = GaussianProcessRegressor(
        kernel=default_kernel(3, ard=True),
        noise_variance_bounds=(1e-4, 1e2),
        n_restarts=2,
        rng=0,
    ).fit(X, y)
    Xq = np.linspace(-1.0, 11.0, 27).reshape(-1, 3)
    mean, sd = model.predict(Xq, return_std=True)
    _, cov = model.predict(Xq, return_cov=True)
    x = X[4].copy()
    x[1] += 0.5  # shares coordinates 0 and 2 with training row 4
    d_mean, d_std = model.predict_gradient(x)
    lml, grad = model.log_marginal_likelihood(model._theta() + 0.05, eval_gradient=True)
    return {
        "state": _state(model),
        "mean": _arr(mean),
        "sd": _arr(sd),
        "cov": _arr(cov),
        "d_mean": _arr(d_mean),
        "d_std": _arr(d_std),
        "lml": repr(float(lml)),
        "lml_grad": _arr(grad),
    }


def _fixed_amplitude_fit():
    """Fig. 5's probe: amplitude held fixed, length scale and noise searched."""
    X, y = _problem(6, 2, seed=5)
    model = GaussianProcessRegressor(
        kernel=SquaredExponential(
            1.7, 1.0, signal_variance_bounds="fixed", length_scale_bounds=(1e-2, 1e3)
        ),
        noise_variance=1e-1,
        noise_variance_bounds=(1e-2, 1e2),
        normalize_y=True,
        n_restarts=3,
        rng=0,
    ).fit(X, y)
    grid = [
        repr(float(model.log_marginal_likelihood(np.log([ls, nv]), X=X, y=y)))
        for ls in (0.1, 1.0, 10.0)
        for nv in (0.01, 1.0)
    ]
    mean, sd = model.predict(np.linspace(0.0, 10.0, 10).reshape(-1, 2), return_std=True)
    return {"state": _state(model), "mean": _arr(mean), "sd": _arr(sd), "lml_grid": grid}


CASES = {
    f"{'ard' if ard else 'iso'}-amp_{'free' if amp else 'fixed'}"
    f"-ls_{'free' if ls else 'fixed'}": _kernel_case(ard, amp, ls)
    for ard in (False, True)
    for amp in (True, False)
    for ls in (True, False)
}
CASES["fitted_ard"] = _fitted_ard
CASES["fixed_amplitude_fit"] = _fixed_amplitude_fit

GOLDEN = {
    "ard-amp_fixed-ls_fixed": "a9f7981a7b1326575b6000783149d21c9db95e65e0ac3652dd12f0c6edcf256c",
    "ard-amp_fixed-ls_free": "76ff23e48b33f84de17d050ed08d16751e3df9a23ef75d7e19e2a3bca2f9bf54",
    "ard-amp_free-ls_fixed": "2a91f7db399273b7cef858ba7fe76110645808e43b7f0b777def609c9ac85957",
    "ard-amp_free-ls_free": "4dc3a81e7a1930df0124c56002a9b595b0e9fc7db4699713dd01e13365315a26",
    "fitted_ard": "eadae5a6b4942a4b18c8e810b3b09ff4803ba1b397817cd91ca02d24667b8da8",
    "fixed_amplitude_fit": "24aaa69051d70386ee6d484117e8508eefd9390da616c9b4487d01f904841337",
    "iso-amp_fixed-ls_fixed": "6f5dfd59e5d05c89a168200c1839455b96d3431f00c5bdfd40cb7d8a4b6ca17f",
    "iso-amp_fixed-ls_free": "ceb65ad1468628aeb98e310ef6ee78fdbeaeeafe337c22134878b30cb56d7242",
    "iso-amp_free-ls_fixed": "afa57a5ec70d4a3ec5450d41d54b22e8b637f8e2bb57117df7e14112f2efb7cf",
    "iso-amp_free-ls_free": "c5217dd3b333a2a80c4b289b5224da90f97007c69977769a45d46544ffcc39b3",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_kernel_golden(name):
    assert _digest(CASES[name]()) == GOLDEN[name]

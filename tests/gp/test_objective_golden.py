"""Golden digests pinning the hyperparameter objective bit for bit.

Every fit hands :func:`repro.gp.optimize.minimize_with_restarts` one
``theta -> (negative LML, negative gradient)`` objective.  Each case below
fits a small seeded problem, captures the objective the fit builds, and
hashes the raw bytes of ``(value, gradient)`` over a seeded grid of ten
``theta`` points inside the search bounds.  It also hashes
``log_marginal_likelihood(theta, eval_gradient=True, X=, y=, alpha=)`` on the
same inputs.  The cases cover the isotropic and ARD kernels with each of
``sigma_f^2`` and ``l`` free or fixed, a fixed noise, heteroscedastic
``alpha``, ``normalize_y`` on targets of scale 1e6 with duplicate rows,
``theta`` pinned at its bounds, and a ``theta`` whose Cholesky fails.

The digests were re-taken when the objective moved to a per-fit distance
workspace and the closed-form gradient, with ``K_y^{-1}`` from ``trtri``
and ``syrk``; that change moved every case in its last bits, within the
declared relation of ``tests/gp/test_objective_relation.py``.  They pin the
objective's floating-point operations from there on, and hold at one and
at several BLAS threads.  Regenerate them only for a deliberate numerical
change, and say so in the change log.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.gp import GaussianProcessRegressor, SquaredExponential
from repro.gp import gpr


class _Captured(Exception):
    pass


def _objective(model, X, y, alpha=None):
    """The objective ``model.fit(X, y, alpha=alpha)`` would optimize, and its bounds."""
    seen = []

    def capture(objective, theta0, bounds, **_):
        seen.append((objective, bounds))
        raise _Captured

    original = gpr.minimize_with_restarts
    gpr.minimize_with_restarts = capture
    try:
        model.fit(X, y, alpha=alpha)
    except _Captured:
        pass
    finally:
        gpr.minimize_with_restarts = original
    (found,) = seen
    return found


def _problem(n=20, d=1, seed=4):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 10.0, size=(n, d))
    y = np.sin(X[:, 0]) + 0.1 * rng.standard_normal(n)
    if d > 1:
        y = y + 0.5 * np.cos(0.7 * X[:, 1])
    return X, y


def _model(kernel=None, **kw):
    defaults = dict(noise_variance_bounds=(1e-4, 1e2), n_restarts=0, rng=0)
    defaults.update(kw)
    return GaussianProcessRegressor(kernel, **defaults)


def _grid(bounds, n=10, seed=0):
    """``n`` seeded points inside the log-space ``bounds`` box."""
    u = np.random.default_rng(seed).uniform(size=(n, bounds.shape[0]))
    return bounds[:, 0] + u * (bounds[:, 1] - bounds[:, 0])


def _digests(model, X, y, alpha=None, thetas=None) -> dict:
    objective, bounds = _objective(model, X, y, alpha)
    if thetas is None:
        thetas = _grid(bounds)
    values, lmls = hashlib.sha256(), hashlib.sha256()
    for theta in thetas:
        value, grad = objective(theta)
        values.update(np.float64(value).tobytes() + np.asarray(grad, float).tobytes())
        lml, lml_grad = model.log_marginal_likelihood(
            theta,
            eval_gradient=True,
            X=objective.X,
            y=objective.y,
            alpha=objective.alpha,
        )
        lmls.update(np.float64(lml).tobytes() + np.asarray(lml_grad, float).tobytes())
    return {"objective": values.hexdigest(), "lml": lmls.hexdigest()}


# --------------------------------------------------------------- the cases


def _kernel_case(ard: bool, free_amplitude: bool, free_length_scale: bool):
    def case():
        d = 3 if ard else 2
        kernel = SquaredExponential(
            1.7,
            np.array([0.8, 2.0, 1.3]) if ard else 1.4,
            signal_variance_bounds=(1e-3, 1e3) if free_amplitude else "fixed",
            length_scale_bounds=(1e-2, 1e3) if free_length_scale else "fixed",
        )
        X, y = _problem(d=d)
        return _digests(_model(kernel), X, y)

    return case


def _fixed_noise():
    X, y = _problem()
    return _digests(_model(noise_variance=0.03, noise_variance_bounds="fixed"), X, y)


def _heteroscedastic():
    X, y = _problem(n=18)
    alpha = np.linspace(0.0, 0.05, 18)
    return _digests(_model(), X, y, alpha=alpha)


def _normalize_y_duplicates():
    X, y = _problem(n=12, d=2)
    X = np.vstack([X, X[:4]])
    y = 1e6 * np.append(y, y[:4] + 0.01)
    return _digests(_model(normalize_y=True), X, y)


def _pinned_at_bounds():
    X, y = _problem()
    model = _model()
    _, bounds = _objective(model, X, y)
    corners = np.array(
        [[bounds[j, (i >> j) & 1] for j in range(bounds.shape[0])] for i in range(8)]
    )
    return _digests(model, X, y, thetas=corners)


def _cholesky_failure():
    X, y = _problem()
    X = np.vstack([X, X])
    y = np.append(y, y)
    thetas = np.array([[30.0, 10.0, -40.0], [0.0, 0.0, -2.0]])
    return _digests(_model(), X, y, thetas=thetas)


def _free(flag: bool) -> str:
    return "free" if flag else "fixed"


CASES = {
    f"{'ard' if ard else 'iso'}_amp_{_free(amp)}_ls_{_free(ls)}": _kernel_case(ard, amp, ls)
    for ard in (False, True)
    for amp in (True, False)
    for ls in (True, False)
}
CASES.update(
    fixed_noise=_fixed_noise,
    heteroscedastic=_heteroscedastic,
    normalize_y_1e6_duplicates=_normalize_y_duplicates,
    pinned_at_bounds=_pinned_at_bounds,
    cholesky_failure=_cholesky_failure,
)

GOLDEN = {
    "ard_amp_fixed_ls_fixed": {
        "objective": "b9d0057ef731db223c614189cb512186c9c6aa1208aeef3d6fe4a8e89c908426",
        "lml": "7e8376085a4507412786b48a5abaf7af9abd47e7d137454cf9d96713d738957c",
    },
    "ard_amp_fixed_ls_free": {
        "objective": "6881cd5d93ca1a2dc6c66b1a2cad28d3f50411cf24794047cadaecb1401fab36",
        "lml": "e82f7945e616e86c0dd7dc454bd4f643b72678e77329a40d6a1bd2eac9204615",
    },
    "ard_amp_free_ls_fixed": {
        "objective": "bcbc5c067d420e3653ccc5ddbeda6a55e9ec42d3432347caf07b694e038879ce",
        "lml": "ba681276a8ca77ef5a7aa504d59c31d5d85692e89c49d5110bd0038886db6ec0",
    },
    "ard_amp_free_ls_free": {
        "objective": "449ebd0b7c6001c63945b3c9d7a80ad19de841689c91017592293d86c4b30cda",
        "lml": "99c048cc81882f6d30ab79ac49090873790d3d8eeb3ab953e1bce42e2f796c9f",
    },
    "cholesky_failure": {
        "objective": "510f3da17b93e3c2feeb7f9c1848ca38da679afcbbd382f7fa41c2a9bed3e137",
        "lml": "34a075e52586e6bab21e8f93075384ecf931069206f7a66920b22545537c6b2e",
    },
    "fixed_noise": {
        "objective": "52f408c13c947fc3795e4b0457f6484806f93e11ada16687add82e9bc6fc0975",
        "lml": "06d616797991bceef1ab9fcd7350d3c2fd839d5d4d11f2fdbe007036eeb139d6",
    },
    "heteroscedastic": {
        "objective": "372d8b1cce729e19305294fbb9069149bb35c6fb9f369bf8b0f20aa987c1c49b",
        "lml": "c390796ea6925bf74255981e22e0172fae88afc458ee922129e5943cd44625a7",
    },
    "iso_amp_fixed_ls_fixed": {
        "objective": "40554559e5df48aa84a3462ddbb0329b5055dbb252a6ba47ac766234dd2dabf8",
        "lml": "fc6c1f66c1d26da4ef8f22ce94754dc15c3ecd317058175f81cafdc2af453050",
    },
    "iso_amp_fixed_ls_free": {
        "objective": "d5651a90dad8dd096fc3d221826d59f2a9e21ce1e4157f4d46703818414b35c6",
        "lml": "0b36e2d6eb668b34354efe18b59624c506432c690448d120aef24d4f05f54613",
    },
    "iso_amp_free_ls_fixed": {
        "objective": "4f382ff60e1bbc003d442e1ce817729a56d4bb990b76bf510b96eb17ddd4814f",
        "lml": "acc99058ce9697de8571919ac79d30b97e8ebce8891ee0f1f6f15cebc1eda195",
    },
    "iso_amp_free_ls_free": {
        "objective": "e4eb04182222c691b6afbaa420f48f8feab4ef00f4706f3fb08e019d11fa1951",
        "lml": "6f28e1b4897596566212f01e9f1e26e469a0a11bddeb1a15871816e05595b28d",
    },
    "normalize_y_1e6_duplicates": {
        "objective": "4481d6b7491a58df39cdba7850f9b300489ca11430ba192cd4f51d78046ed35f",
        "lml": "9bba20b16dfa4469d6289da00c3a675a285c673693a89ab660327197d06b5770",
    },
    "pinned_at_bounds": {
        "objective": "379ab97bcd3a2312ee5b9a566101d5ae6343053c06d15eca0569090197b015af",
        "lml": "b592d59f9aeaaaaff2824c183b1532f054645075a04d00272d4d0c366b99eb21",
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_objective_golden(name):
    assert CASES[name]() == GOLDEN[name]


def test_cholesky_failure_case_fails():
    """The failure case reaches the -inf branch and a zero gradient."""
    X, y = _problem()
    objective, _ = _objective(_model(), np.vstack([X, X]), np.append(y, y))
    value, grad = objective(np.array([30.0, 10.0, -40.0]))
    assert value == np.inf
    assert not np.any(grad)

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

The digests were taken before the objective became a per-fit workspace that
validates once and calls LAPACK directly; they pin that it kept every
floating-point operation in order.  Regenerate them only for a deliberate
numerical change, and say so in the change log.
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
        "objective": "9ae6592f32916a413e03810e216af4f85e2165f7b1133cb2ec16952933538685",
        "lml": "aafc0ffcbd42eb5cf8b6c67499a502f44bcd85753bb95d32626343b544005b99",
    },
    "ard_amp_fixed_ls_free": {
        "objective": "ff0c1efe533a73c261074196e940a084bcd5388468966edf502a22f3d961c453",
        "lml": "8442ece314026e54c5b3d76d41aa502dbf2b75999abbcb3e50ee68a4aa7b11fb",
    },
    "ard_amp_free_ls_fixed": {
        "objective": "ae53e6a27730e2037d5f79aa0f15d6234adba8eb686af599613b5dd4da41599b",
        "lml": "7dc3220af289fcf527c4fb8988a02aa6c400b09fd6c9c5b89ecaeddd48fc185c",
    },
    "ard_amp_free_ls_free": {
        "objective": "17deb751caaa848f963b0d51026afffe9f020bb2a0877063afc29dbb4241d2c1",
        "lml": "c29168d25045b09111ebd5ad1be1c29415e027c4d02c44f15c24e5a47ca6bca6",
    },
    "cholesky_failure": {
        "objective": "b20e0a2848f1f92a3e546b2ab4fd49ec4ec4b9fff6a4417adc5b6253c887d9d9",
        "lml": "7d588782d89eb375392b474bf5936a80605c02548c33c02b8e665801008aecf4",
    },
    "fixed_noise": {
        "objective": "d8cb4baff1b85bf4280b82abff16e5a7bd702759161ad16d3348a86b0f77c183",
        "lml": "61debed0077c12e2b724af2631d950f5c9e5c7ca4167058d401b37a75bfc7a77",
    },
    "heteroscedastic": {
        "objective": "a5d1f421011953e0599bd77cd22edbc7e59bfc962e8ca4fb92bc809e932b7e83",
        "lml": "0e170925c2b952ffc6614911a7014d61dad18a535cbc915095364647a82a6c89",
    },
    "iso_amp_fixed_ls_fixed": {
        "objective": "560413d6f209a6640ab48955881e8a556a23ecb0426ebcb07e0b3daa662d0f28",
        "lml": "a2512fc9b842123fbccde3a5f196fcc3e74be3070b36a12f50c9a21cc513427c",
    },
    "iso_amp_fixed_ls_free": {
        "objective": "f17416724fff3d619542114b5ea35fbc76f251e355863fc258303cdc05b60666",
        "lml": "08d289667574cf0d40da2f8f91121d6815f8163d26778426106751a60a583180",
    },
    "iso_amp_free_ls_fixed": {
        "objective": "92e64001281a91e1f852f726360779a57134776ff117e26996f35519974b2855",
        "lml": "079a351e9634a50e177117893068a15bad173a16be1e0516d55db1a78b1de594",
    },
    "iso_amp_free_ls_free": {
        "objective": "f48a0ad7a71b513fc242d08e30b4c743524799a04b4e0aa38f9f4e948d151614",
        "lml": "6bd54abd0b1458d3887688dab8e9bc664ba31abed49647bb8995d545375cff3d",
    },
    "normalize_y_1e6_duplicates": {
        "objective": "742fa65f0f2283a0336b62349a071dbcfe9a402e3965b5cfdb70cde8a7ae4ddb",
        "lml": "d7abf286b787de03e78d27995207507c678f03a0ff9c70ea5efb4b870938968d",
    },
    "pinned_at_bounds": {
        "objective": "1129f1c2a01cf0666a5a9c0893b8b97f1cff4d42a64bac027b151e29599a90e3",
        "lml": "7f1cfc901c9a578b66c5c095f9a52c0343d060fdd5db48764ad1f55754a77e54",
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

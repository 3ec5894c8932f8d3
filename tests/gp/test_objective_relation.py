"""The LML objective against its former formula, as a declared tolerance.

:class:`repro.gp.gpr._FitObjective` builds ``K`` from a per-fit distance
workspace and takes the gradient of the log marginal likelihood in closed
form, with one triangle of ``K_y^{-1}`` from ``trtri`` and ``syrk``.  Before
that it built the ``(n, n, p)`` gradient tensor with
:func:`repro.gp.kernels.se_covariance`, inverted ``K_y`` as ``potrs(L, I)``
and contracted the two with ``einsum``.  That formula lives on here only,
as :func:`_reference`.

The two agree up to rounding, and rounding in ``K`` is amplified by the
conditioning of ``K_y``.  The relation, for each ``theta`` in the bounds
box:

    |value - value_ref| <= RELATION * eps * kappa(K_y) * n * (|value_ref| + n)
    max_j |g_j - g_ref_j| <= RELATION * eps * kappa(K_y) * n * max_j |g_ref_j|

with ``eps`` the float64 machine epsilon, ``kappa`` the 2-norm condition
number and ``n`` the number of rows (each trace sums ``n^2`` products).
Over this grid the largest ratio of a gradient gap to
``eps * kappa * n * max_j |g_ref_j|`` is 4.9, at ``kappa`` ~ 1 and n = 2.
At the 1e-1 noise floor ``kappa`` stays below ~4e5 and the gap is at most
1.7e-11 of the gradient's largest entry; at the 1e-8 floor ``kappa``
reaches 3e11 and the gap 1.1e-6, so a fixed absolute tolerance would fail
there.
Past the bounds box, where ``K_y`` is at the edge of factoring, the
relation bounds nothing; there both formulas must agree on whether the
factorization fails.

The seeded generator covers n in {1, 2, 10, 60, 150} and d = 1-4,
isotropic and ARD kernels, free and fixed amplitude, length scale and
noise, heteroscedastic ``alpha``, ``normalize_y`` on targets scaled by
1e6 and 1e-6, duplicate rows, ``theta`` at its bound corners and noise
floors 1e-1 and 1e-8.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.linalg.lapack import dpotrf, dpotrs

from repro.gp import GaussianProcessRegressor, SquaredExponential
from repro.gp import gpr
from repro.gp.kernels import se_covariance
from repro.gp.solvers import add_noise_diagonal

EPS = np.finfo(float).eps

#: The declared constant of the relation (see the module docstring).
RELATION = 16.0


class _Captured(Exception):
    pass


def _objective(monkeypatch, model, X, y, alpha=None):
    """The objective ``model.fit(X, y, alpha=alpha)`` would optimize, and its bounds."""
    seen = []

    def capture(objective, theta0, bounds, **_):
        seen.append((objective, bounds))
        raise _Captured

    with monkeypatch.context() as m:
        m.setattr(gpr, "minimize_with_restarts", capture)
        with pytest.raises(_Captured):
            model.fit(X, y, alpha=alpha)
    (found,) = seen
    return found


def _reference(objective, theta):
    """``(negative LML, negative gradient, kappa(K_y))`` by the former formula.

    ``None`` when ``K_y`` is not positive definite.
    """
    c, ls, noise = objective.hyperparameters(theta)
    K, K_grad = se_covariance(
        objective.X,
        c,
        ls,
        eval_gradient=True,
        free_amplitude=objective.free_amplitude,
        free_length_scale=objective.free_length_scale,
    )
    add_noise_diagonal(K, noise, objective.jitter, objective.alpha)
    kappa = np.linalg.cond(K)
    L, info = dpotrf(K.T, lower=1, clean=1, overwrite_a=0)
    if info > 0:
        return None
    y = objective.y
    n = y.shape[0]
    w = dpotrs(L, y, lower=1)[0]
    lml = -0.5 * y @ w - np.log(L.diagonal()).sum() - 0.5 * n * math.log(2 * math.pi)
    K_inv = dpotrs(L, np.eye(n), lower=1)[0]
    inner = np.outer(w, w) - K_inv
    grads = np.empty(objective.n_theta)
    grads[: K_grad.shape[2]] = 0.5 * np.einsum("ij,ijk->k", inner, K_grad)
    if objective.learn_noise:
        grads[-1] = 0.5 * noise * np.trace(inner)
    return -lml, -grads, kappa


# ---------------------------------------------------------------- generator


def _problem(rng, n, d, duplicates, y_scale):
    X = rng.uniform(0.0, 10.0, size=(n, d))
    if duplicates and n > 1:
        X[n // 2 :] = X[: n - n // 2]
    y = np.sin(X[:, 0]) + 0.1 * rng.standard_normal(n)
    if d > 1:
        y = y + 0.5 * np.cos(0.7 * X[:, 1])
    return X, y_scale * y


def _cases():
    """One ``pytest.param`` of settings per cell of the seeded grid.

    An ARD cell gets d = 2-4 (one length scale is an isotropic kernel).
    """
    flavours = [
        dict(ard=False, amp=True, ls=True),
        dict(ard=True, amp=True, ls=True),
        dict(ard=False, amp=False, ls=True),
        dict(ard=True, amp=True, ls=False),
        dict(ard=False, amp=True, ls=False, noise="fixed"),
        dict(ard=True, amp=False, ls=True, alpha=True),
        dict(ard=False, amp=True, ls=True, normalize=1e6, duplicates=True),
        dict(ard=True, amp=True, ls=True, normalize=1e-6, alpha=True),
    ]
    cases = []
    for n in (1, 2, 10, 60, 150):
        for i, flavour in enumerate(flavours):
            for floor in (1e-1, 1e-8):
                seed = 1000 * n + 10 * i + int(floor == 1e-8)
                d = 2 + seed % 3 if flavour["ard"] else 1 + seed % 4
                settings = dict(flavour, n=n, d=d, floor=floor, seed=seed)
                cases.append(
                    pytest.param(settings, id=f"n{n}-d{d}-f{i}-floor{floor:g}")
                )
    return cases


def _build(monkeypatch, cell):
    rng = np.random.default_rng(cell["seed"])
    n, d = cell["n"], cell["d"]
    X, y = _problem(
        rng, n, d, cell.get("duplicates", False), cell.get("normalize", 1.0)
    )
    kernel = SquaredExponential(
        1.3,
        np.linspace(0.7, 2.0, d) if cell["ard"] else 1.1,
        signal_variance_bounds=(1e-3, 1e3) if cell["amp"] else "fixed",
        length_scale_bounds=(1e-2, 1e3) if cell["ls"] else "fixed",
    )
    noise = cell.get("noise", (cell["floor"], 1e3))
    model = GaussianProcessRegressor(
        kernel,
        noise_variance=max(cell["floor"], 1e-2),
        noise_variance_bounds=noise,
        normalize_y="normalize" in cell,
        n_restarts=0,
        rng=0,
    )
    alpha = rng.uniform(0.0, 0.05, n) if cell.get("alpha") else None
    if alpha is not None and "normalize" in cell:
        alpha = alpha * cell["normalize"] ** 2
    objective, bounds = _objective(monkeypatch, model, X, y, alpha)
    u = rng.uniform(size=(4, bounds.shape[0]))
    thetas = list(bounds[:, 0] + u * (bounds[:, 1] - bounds[:, 0]))
    # Two corners of the bounds box: all-low and all-high.
    thetas += [bounds[:, 0].copy(), bounds[:, 1].copy()]
    # Past the box: a huge, flat kernel over almost no noise, where K_y is
    # at the edge of factoring (it fails in 23 of the 80 cells).
    past = np.full(bounds.shape[0], 10.0)
    if objective.free_amplitude:
        past[0] = 30.0
    if objective.learn_noise:
        past[-1] = -40.0
    return objective, thetas, past


@pytest.mark.parametrize("cell", _cases())
def test_objective_matches_the_former_formula(monkeypatch, cell):
    objective, thetas, _ = _build(monkeypatch, cell)
    n = objective.y.shape[0]
    for theta in thetas:
        value_ref, grad_ref, kappa = _reference(objective, theta)
        value, grad = objective(theta)
        assert np.isfinite(value) and np.isfinite(grad).all(), theta
        budget = RELATION * EPS * kappa * n
        assert abs(value - value_ref) <= budget * (abs(value_ref) + n), (
            theta, value, value_ref, kappa
        )
        scale = np.abs(grad_ref).max() if grad_ref.size else 0.0
        assert np.abs(grad - grad_ref).max(initial=0.0) <= budget * scale, (
            theta, grad, grad_ref, kappa
        )


@pytest.mark.parametrize("cell", _cases())
def test_objective_fails_to_factor_where_the_former_formula_does(monkeypatch, cell):
    """Past the bounds, ``K_y`` is at the edge of factoring (kappa ~ 1e15).

    The relation bounds nothing there; both formulas must still agree on
    whether the Cholesky factorization fails, and a failure must give
    ``+inf`` and a zero gradient.
    """
    objective, _, past = _build(monkeypatch, cell)
    reference = _reference(objective, past)
    value, grad = objective(past)
    assert (reference is None) == (value == np.inf), value
    if reference is None:
        assert not grad.any()

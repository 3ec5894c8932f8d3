"""Relation test: the predictive SD of a subset is a slice of the full pass.

An active-learning round predicts the SD over the whole Active set once
(AMSD and GMSD average it) and Variance Reduction selects by slicing that
pass at the available records instead of predicting them again.  That is
only safe if ``predict(X[idx], return_std=True)[1]`` equals
``predict(X, return_std=True)[1][idx]`` bit for bit, which this test
checks over seeded fits across dimension, ARD or isotropic length scales,
heteroscedastic ``alpha``, ``normalize_y``, target scales of 1e-6 to 1e6,
duplicate training rows and posteriors extended by ``update()``, for
every subset size from 2 up to ``m - 1`` (odd sizes included).

Two exceptions are deliberate, and are why callers keep their own
prediction for them:

* a *single-row* subset is not a bitwise slice: ``solve_triangular`` with
  one right-hand side takes another BLAS path, and the SD differs from the
  full pass in its last bits (a relative 1e-16 to 1e-14 on these fits);
* the predictive *mean* of a subset may differ from the slice in its last
  bits (a matrix-vector product over fewer rows), so a strategy scoring
  with the mean (Cost Efficiency) keeps its own pass.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gp import SquaredExponential
from repro.gp.gpr import GaussianProcessRegressor

#: Rows of the full prediction pass.
M = 23


def _config(seed: int) -> dict:
    """One generated fit configuration; every axis varies with the seed."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 5))
    return {
        "d": d,
        "ard": bool(rng.integers(2)) and d > 1,
        "hetero": bool(rng.integers(2)),
        "normalize_y": bool(rng.integers(2)),
        "y_scale": float(10.0 ** rng.choice([-6, 0, 6])),
        "duplicates": bool(rng.integers(2)),
        "n_updates": int(rng.choice([0, 0, 3])),
    }


def _fitted(seed: int, cfg: dict) -> GaussianProcessRegressor:
    rng = np.random.default_rng(1000 + seed)
    d, n = cfg["d"], 18
    X = rng.uniform(0.0, 3.0, size=(n, d))
    if cfg["duplicates"]:
        X[n // 2 :] = X[: n - n // 2]  # every configuration measured twice
    y = cfg["y_scale"] * (np.sin(X).sum(axis=1) + 0.1 * rng.standard_normal(n))
    alpha = (
        (0.01 + 0.05 * rng.random(n)) * cfg["y_scale"] ** 2 if cfg["hetero"] else None
    )
    length_scale = np.ones(d) if cfg["ard"] else 1.0
    model = GaussianProcessRegressor(
        SquaredExponential(1.0, length_scale),
        noise_variance_bounds=(1e-6, 1e3),
        normalize_y=cfg["normalize_y"],
        n_restarts=0,
        rng=seed,
    )
    k = n - cfg["n_updates"]
    model.fit(X[:k], y[:k], alpha=None if alpha is None else alpha[:k])
    for i in range(k, n):
        model.update(
            X[i : i + 1], y[i : i + 1], alpha=None if alpha is None else alpha[i : i + 1]
        )
    return model


def _subsets(rng: np.random.Generator) -> list[np.ndarray]:
    """Sorted index sets of every size 2 .. M - 1 (pool order is ascending)."""
    subsets = [np.arange(M - 1), np.arange(1, M), np.array([0, M - 1])]
    for size in range(2, M):
        subsets.append(np.sort(rng.choice(M, size=size, replace=False)))
    return subsets


@pytest.mark.parametrize("seed", range(12))
def test_subset_sd_is_a_slice_of_the_full_pass(seed):
    cfg = _config(seed)
    model = _fitted(seed, cfg)
    rng = np.random.default_rng(2000 + seed)
    Xq = rng.uniform(-0.5, 3.5, size=(M, cfg["d"]))
    Xq[3] = model.X_train_[0]  # a query on a measured point
    _, sd_full = model.predict(Xq, return_std=True)
    for idx in _subsets(rng):
        _, sd = model.predict(Xq[idx], return_std=True)
        assert np.array_equal(sd, sd_full[idx]), (cfg, idx.size)


def test_subset_sd_is_a_slice_of_the_full_pass_nystrom():
    """The same relation holds on the low-rank Nystrom backend."""
    rng = np.random.default_rng(7)
    X = rng.uniform(0.0, 3.0, size=(200, 2))
    y = np.sin(X).sum(axis=1) + 0.1 * rng.standard_normal(200)
    model = GaussianProcessRegressor(
        solver={"name": "nystrom", "n_inducing": 30}, n_restarts=0, rng=0
    ).fit(X, y)
    Xq = rng.uniform(-0.5, 3.5, size=(M, 2))
    _, sd_full = model.predict(Xq, return_std=True)
    for idx in _subsets(rng):
        _, sd = model.predict(Xq[idx], return_std=True)
        assert np.array_equal(sd, sd_full[idx]), idx.size

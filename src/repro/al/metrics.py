"""Convergence metrics of an active-learning run (Section V-B4).

The paper tracks three quantities per AL iteration:

* ``sigma_f(x)`` — the predictive standard deviation at the selected
  candidate (for Variance Reduction, the pool maximum);
* **AMSD** — the arithmetic mean of the predictive standard deviation over
  all points of the Active set (the paper notes a geometric mean works too
  but offers no advantage — we provide both);
* **RMSE** — root mean squared error of the predictive mean on the Test
  set (Eq. 2).

We additionally provide NLPD (negative log predictive density), the
standard proper scoring rule for probabilistic regression — useful in the
extended benches even though the paper does not plot it.

Each metric has exactly one definition: the ``_*_from`` helpers operate on
prediction arrays, the public functions predict and delegate, and
:func:`evaluate_model` reuses the same helpers on a single prediction pass
per set.  (Historically ``evaluate_model`` re-implemented the formulas
inline and the two copies had already drifted to different SD floors.)
"""

from __future__ import annotations

import math

import numpy as np

from ..gp.gpr import GaussianProcessRegressor

__all__ = ["rmse", "amsd", "gmsd", "nlpd", "evaluate_model"]

#: Single SD floor shared by every metric that divides by or logs the SD.
_SD_FLOOR = 1e-12


def _rmse_from(mu: np.ndarray, y: np.ndarray) -> float:
    return float(np.sqrt(np.mean((mu - y) ** 2)))


def _amsd_from(sd: np.ndarray) -> float:
    return float(np.mean(sd))


def _gmsd_from(sd: np.ndarray) -> float:
    return float(np.exp(np.mean(np.log(np.maximum(sd, _SD_FLOOR)))))


def _nlpd_from(mu: np.ndarray, sd: np.ndarray, y: np.ndarray) -> float:
    sd = np.maximum(sd, _SD_FLOOR)
    return float(
        np.mean(0.5 * math.log(2 * math.pi) + np.log(sd) + 0.5 * ((y - mu) / sd) ** 2)
    )


def rmse(model: GaussianProcessRegressor, X_test: np.ndarray, y_test: np.ndarray) -> float:
    """Test-set root mean squared error of the predictive mean (Eq. 2)."""
    return _rmse_from(model.predict(X_test), np.asarray(y_test, dtype=float))


def amsd(model: GaussianProcessRegressor, X_active: np.ndarray) -> float:
    """Arithmetic mean of predictive SD over the Active set."""
    _, sd = model.predict(X_active, return_std=True)
    return _amsd_from(sd)


def gmsd(model: GaussianProcessRegressor, X_active: np.ndarray) -> float:
    """Geometric mean of predictive SD over the Active set."""
    _, sd = model.predict(X_active, return_std=True)
    return _gmsd_from(sd)


def nlpd(model: GaussianProcessRegressor, X_test: np.ndarray, y_test: np.ndarray) -> float:
    """Mean negative log predictive density on the test set."""
    mu, sd = model.predict(X_test, return_std=True)
    return _nlpd_from(mu, sd, np.asarray(y_test, dtype=float))


def evaluate_model(
    model: GaussianProcessRegressor,
    X_active: np.ndarray,
    X_test: np.ndarray,
    y_test: np.ndarray,
) -> dict:
    """All paper metrics at once (single prediction pass per set).

    Besides the four metrics the dict holds ``"sd_active"``, the predictive
    SD at every row of ``X_active``: the learner hands it to
    :meth:`repro.al.strategies.Strategy.select` so that Variance Reduction
    selects from this pass instead of predicting the pool again.
    """
    mu_t, sd_t = model.predict(X_test, return_std=True)
    _, sd_a = model.predict(X_active, return_std=True)
    y = np.asarray(y_test, dtype=float)
    return {
        "rmse": _rmse_from(mu_t, y),
        "amsd": _amsd_from(sd_a),
        "gmsd": _gmsd_from(sd_a),
        "nlpd": _nlpd_from(mu_t, sd_t, y),
        "sd_active": sd_a,
    }

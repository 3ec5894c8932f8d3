"""Calibrating the analytic runtime model against recorded data.

The reproduction's datasets come *from* the analytic model, but a
downstream user will want the opposite direction: given a recorded
campaign (ours, the paper's CSVs, or their own), recover the model
constants.  This module fits :class:`~repro.perfmodel.runtime.RuntimeModel`
to job records by nonlinear least squares in log space, and reports the
fit quality — which doubles as a self-consistency check of the whole
pipeline (fitting data generated at one parameter set must recover it).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..datasets.dataset import PerfDataset
from .runtime import RuntimeModel

__all__ = ["CalibrationResult", "calibrate_runtime_model"]

#: (parameter name, log-space lower bound, log-space upper bound)
_FREE_PARAMS = (
    ("seconds_per_dof", 1e-9, 1e-3),
    ("freq_exponent", 0.05, 2.0),
    ("comm_surface_coeff", 1e-10, 1e-4),
    ("comm_latency_seconds", 1e-8, 1e-2),
    ("setup_seconds", 1e-5, 1.0),
)


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of a runtime-model calibration.

    Attributes
    ----------
    model:
        The fitted :class:`RuntimeModel`.
    rmse_log10:
        Residual RMSE of log10(runtime) over the calibration records.
    n_records:
        Number of job records used.
    parameters:
        The fitted free-parameter values by name.
    """

    model: RuntimeModel
    rmse_log10: float
    n_records: int
    parameters: dict


def _predict_log10(theta: np.ndarray, base: RuntimeModel, records) -> np.ndarray:
    params = {
        name: float(np.exp(theta[i])) for i, (name, _, _) in enumerate(_FREE_PARAMS)
    }
    model = replace(base, **params)
    out = np.empty(len(records))
    for j, r in enumerate(records):
        out[j] = np.log10(
            float(model.runtime(r.operator, r.problem_size, r.np_ranks, r.freq_ghz))
        )
    return out


def calibrate_runtime_model(
    dataset: PerfDataset,
    *,
    base: RuntimeModel | None = None,
    max_records: int = 600,
    rng=None,
) -> CalibrationResult:
    """Fit the runtime model's five cost constants to recorded runtimes.

    Parameters
    ----------
    dataset:
        Job records with ``runtime_seconds`` (any operator mix; the
        per-operator cost ratios are kept at their defaults).
    base:
        Starting model; also supplies the fixed parameters.
    max_records:
        Random subsample cap (the fit is O(n) per evaluation).
    """
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    from scipy.optimize import least_squares  # deferred: costly, rarely needed

    base = base or RuntimeModel()
    records = [r for r in dataset.records if r.runtime_seconds > 0]
    if not records:
        raise ValueError("no records with positive runtime")
    rng = np.random.default_rng(rng)
    if len(records) > max_records:
        idx = rng.choice(len(records), size=max_records, replace=False)
        records = [records[i] for i in idx]
    target = np.log10(np.array([r.runtime_seconds for r in records]))

    theta0 = np.log([getattr(base, name) for name, _, _ in _FREE_PARAMS])
    lo = np.log([low for _, low, _ in _FREE_PARAMS])
    hi = np.log([high for _, _, high in _FREE_PARAMS])
    theta0 = np.clip(theta0, lo, hi)

    result = least_squares(
        lambda t: _predict_log10(t, base, records) - target,
        theta0,
        bounds=(lo, hi),
        method="trf",
    )
    params = {
        name: float(np.exp(result.x[i])) for i, (name, _, _) in enumerate(_FREE_PARAMS)
    }
    fitted = replace(base, **params)
    rmse = float(np.sqrt(np.mean(result.fun**2)))
    return CalibrationResult(
        model=fitted, rmse_log10=rmse, n_records=len(records), parameters=params
    )

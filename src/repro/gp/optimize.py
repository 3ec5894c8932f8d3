"""Multi-restart bounded optimization of the (negative) log marginal likelihood.

The paper relies on scikit-learn's behaviour: gradient ascent on the LML
within a bounded hyperparameter box, repeated from several random starting
points "in order to increase reliability".  This module reproduces that with
``scipy.optimize.minimize(method="L-BFGS-B")``.

The restart count is an explicit knob because it is one of the design
choices DESIGN.md marks for ablation (``bench_ablation_restarts``): Fig. 4
shows an LML landscape with a unique peak where one start suffices, while
Fig. 5's small-data landscape is shallow and benefits from restarts.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .. import telemetry as tm

__all__ = ["OptimizeOutcome", "minimize_with_restarts"]

#: Value substituted for non-finite objective evaluations so that L-BFGS-B
#: treats the point as very bad instead of aborting.
_BAD_VALUE = 1e25


@dataclass
class OptimizeOutcome:
    """Result of a multi-restart minimization.

    Attributes
    ----------
    theta:
        Best parameter vector found (log space).
    value:
        Objective value at ``theta`` (the *negative* LML for GPR fits).
        ``inf`` when every start failed (see ``fallback``).
    n_restarts:
        Number of random restarts performed (excludes the initial start).
    all_thetas / all_values:
        Per-start optimized parameters and values, in run order; useful for
        diagnosing multimodal LML landscapes (Fig. 5b).
    statuses:
        Per-start verdict, in run order: ``"ok"`` (converged on a finite
        value), ``"failed"`` (L-BFGS-B reported failure, e.g. abnormal
        line-search termination), or ``"nonfinite"`` (the start never saw a
        finite objective value — its reported optimum is the
        ``_BAD_VALUE`` sentinel, not a real point).
    fallback:
        True when *every* start was ``"nonfinite"`` and ``theta`` is the
        clipped initial point rather than an optimized one.
    """

    theta: np.ndarray
    value: float
    n_restarts: int
    all_thetas: list = field(default_factory=list)
    all_values: list = field(default_factory=list)
    statuses: list = field(default_factory=list)
    fallback: bool = False


class _GuardedObjective:
    """Guard an objective(theta) -> (value, grad) against non-finite output.

    A class (not a closure) so the guarded objective pickles for the
    process backend of :class:`repro.parallel.ParallelMap`, provided the
    wrapped objective itself does.
    """

    __slots__ = ("objective",)

    def __init__(self, objective: Callable):
        self.objective = objective

    def __call__(self, theta: np.ndarray):
        value, grad = self.objective(theta)
        if not np.isfinite(value):
            return _BAD_VALUE, np.zeros_like(theta)
        grad = np.asarray(grad, dtype=float)
        if not np.all(np.isfinite(grad)):
            grad = np.zeros_like(theta)
        return float(value), grad


class _StartTask:
    """Run L-BFGS-B from one start; picklable for process-pool dispatch.

    Returns ``(theta, value, status)`` — plain data, so outcomes can be
    shipped across processes and merged by the parent in *start order*.
    """

    __slots__ = ("wrapped", "bounds")

    def __init__(self, wrapped: Callable, bounds: np.ndarray):
        self.wrapped = wrapped
        self.bounds = bounds

    def __call__(self, indexed_start) -> tuple[np.ndarray, float, str]:
        from scipy.optimize import minimize  # deferred: only fits need it

        index, start = indexed_start
        with tm.span("restart", index=index) as sp:
            result = minimize(
                self.wrapped,
                start,
                jac=True,
                method="L-BFGS-B",
                bounds=self.bounds,
            )
            value = float(result.fun)
            if value >= _BAD_VALUE:
                # Every evaluation this start saw was non-finite; its
                # "optimum" is the substituted sentinel, not a real point.
                status = "nonfinite"
            elif result.success:
                status = "ok"
            else:
                status = "failed"
            sp.set(value=value, status=status)
        if status != "ok":
            tm.count("gp.optimize.bad_starts")
        return np.asarray(result.x), value, status


def minimize_with_restarts(
    objective: Callable,
    theta0: np.ndarray,
    bounds: np.ndarray,
    *,
    n_restarts: int = 4,
    rng=None,
    executor=None,
) -> OptimizeOutcome:
    """Minimize ``objective`` within box ``bounds`` from multiple starts.

    Parameters
    ----------
    objective:
        Callable ``theta -> (value, gradient)``; both in log space.
    theta0:
        Initial point for the first (deterministic) run.  It is clipped into
        the bounds box.
    bounds:
        Array of shape ``(n, 2)`` of [low, high] per parameter, log space.
    n_restarts:
        Additional starts sampled uniformly inside the box.
    rng:
        Seed or generator for restart sampling.
    executor:
        Optional :class:`repro.parallel.ParallelMap` running the starts
        concurrently (they are independent L-BFGS-B descents).  The
        process backend additionally requires ``objective`` to be
        picklable.  Results are identical for every backend and worker
        count: starts are sampled up-front in the parent, and the winner
        is chosen by the ``(value, start_index)`` tie-break below.

    Returns
    -------
    OptimizeOutcome
        With the best point across all starts.  Per-start results in
        ``all_thetas`` / ``all_values`` / ``statuses`` are ordered by
        *start index*, never by completion order, and the winner is the
        lexicographic minimum of ``(value, start_index)`` — so two starts
        landing on exactly the same optimum can never make the selected
        hyperparameters depend on scheduling.
    """
    theta0 = np.asarray(theta0, dtype=float)
    bounds = np.asarray(bounds, dtype=float)
    if bounds.shape != (theta0.size, 2):
        raise ValueError(
            f"bounds shape {bounds.shape} does not match theta size {theta0.size}"
        )
    if np.any(bounds[:, 0] > bounds[:, 1]):
        raise ValueError("bounds must satisfy low <= high")
    rng = np.random.default_rng(rng)
    wrapped = _GuardedObjective(objective)

    starts = [np.clip(theta0, bounds[:, 0], bounds[:, 1])]
    for _ in range(n_restarts):
        starts.append(rng.uniform(bounds[:, 0], bounds[:, 1]))

    task = _StartTask(wrapped, bounds)
    indexed = list(enumerate(starts))
    if executor is None:
        outcomes = [task(pair) for pair in indexed]
    else:
        outcomes = executor.map(task, indexed)
    all_thetas = [theta for theta, _, _ in outcomes]
    all_values = [value for _, value, _ in outcomes]
    statuses = [status for _, _, status in outcomes]
    tm.count("gp.optimize.starts", len(starts))

    if all(s == "nonfinite" for s in statuses):
        # No start ever produced a finite objective value: argmin over the
        # sentinel values would return a garbage theta as "best".  Keep the
        # caller's (clipped) initial point and say so.
        warnings.warn(
            f"all {len(starts)} optimizer starts evaluated to non-finite "
            "objective values; falling back to the (clipped) initial "
            "parameters",
            RuntimeWarning,
            stacklevel=2,
        )
        tm.count("gp.optimize.all_failed")
        return OptimizeOutcome(
            theta=starts[0].copy(),
            value=float("inf"),
            n_restarts=n_restarts,
            all_thetas=all_thetas,
            all_values=all_values,
            statuses=statuses,
            fallback=True,
        )

    finite = [v for v in all_values if v < _BAD_VALUE]
    if len(finite) > 1:
        # Spread of the per-start optima: the multi-modality diagnostic of
        # Fig. 5b (the objective is -LML, so this equals the LML spread).
        tm.observe("gp.optimize.lml_spread", max(finite) - min(finite))

    # Deterministic winner: lexicographic (value, start_index).  np.argmin
    # happens to break exact ties toward the first occurrence too, but only
    # by accident of its scan order; make the contract explicit so parallel
    # completion order can never leak into the selected hyperparameters.
    best = min(range(len(all_values)), key=lambda i: (all_values[i], i))
    return OptimizeOutcome(
        theta=all_thetas[best],
        value=all_values[best],
        n_restarts=n_restarts,
        all_thetas=all_thetas,
        all_values=all_values,
        statuses=statuses,
    )

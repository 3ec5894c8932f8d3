"""Multi-restart bounded optimization of the (negative) log marginal likelihood.

The paper relies on scikit-learn's behaviour: gradient ascent on the LML
within a bounded hyperparameter box, repeated from several random starting
points "in order to increase reliability".  This module reproduces that with
L-BFGS-B.  Each start runs this module's own driver loop over scipy's
L-BFGS-B routine (``scipy.optimize._lbfgsb.setulb``), a copy of what
``scipy.optimize.minimize(method="L-BFGS-B", jac=True)`` does in scipy
1.17.1 without its per-start wrapper objects: the same settings, the same
evaluation at the clipped start, the same last-point cache and the same
stops, so it returns the same floats.  ``setulb`` is private API whose
signature changed when scipy moved L-BFGS-B from Fortran to C; when the
installed one is not the signature the loop was written against, every
start goes through ``minimize`` instead (:func:`_lbfgsb_routine`).

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

# ``minimize``'s L-BFGS-B defaults: history size, factr (its ``ftol`` over
# machine epsilon), projected-gradient tolerance, line-search steps and the
# iteration and evaluation limits.
_M = 10
_FACTR = 2.2204460492503131e-09 / np.finfo(float).eps
_PGTOL = 1e-5
_MAXLS = 20
_MAXITER = 15000
_MAXFUN = 15000

#: The ``setulb`` the driver loop was written against (scipy >= 1.15, C).
_SETULB_SIGNATURE = (
    "setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,lsave,isave,dsave,maxls,ln_task)"
)
#: ``setulb`` once resolved; ``False`` means "use ``minimize``".
_SETULB = None


def _lbfgsb_routine():
    """scipy's ``setulb`` if it has the expected signature, else ``None``.

    Checked once, at the first start (deferred: only fits need scipy's
    optimizer).
    """
    global _SETULB
    if _SETULB is None:
        try:
            from scipy.optimize._lbfgsb import setulb
        except ImportError:
            setulb = None
        doc = getattr(setulb, "__doc__", None) or ""
        _SETULB = setulb if doc.partition("\n")[0] == _SETULB_SIGNATURE else False
    return _SETULB or None


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


class _StartTask:
    """Run L-BFGS-B from one start; picklable for process-pool dispatch.

    Returns ``(theta, value, status)`` — plain data, so outcomes can be
    shipped across processes and merged by the parent in *start order*.
    The objective is guarded against non-finite output (:meth:`guarded`),
    and the picklability of the task is that of the objective.
    """

    __slots__ = ("objective", "bounds", "low", "high", "l", "u", "nbd")

    def __init__(self, objective: Callable, bounds: np.ndarray):
        self.objective = objective
        self.bounds = bounds
        # ``minimize``'s bound handling: a bound that is not finite (NaN
        # included) is no bound.  ``low``/``high`` clip the start; setulb
        # reads ``l``/``u`` (0 where a side is unbounded) and ``nbd``, which
        # codes the bounded sides: 0 none, 1 lower, 2 both, 3 upper.
        self.low = np.where(bounds[:, 0] > -np.inf, bounds[:, 0], -np.inf)
        self.high = np.where(bounds[:, 1] < np.inf, bounds[:, 1], np.inf)
        has_low, has_high = ~np.isinf(self.low), ~np.isinf(self.high)
        self.l = np.where(has_low, self.low, 0.0)
        self.u = np.where(has_high, self.high, 0.0)
        nbd = np.select([has_low & has_high, has_low, has_high], [2, 1, 3], 0)
        self.nbd = nbd.astype(np.int32)

    def guarded(self, theta: np.ndarray):
        """``objective(theta)`` with non-finite output made harmless.

        A non-finite value becomes ``_BAD_VALUE`` with a zero gradient; a
        non-finite gradient becomes zero.
        """
        value, grad = self.objective(theta)
        if not np.isfinite(value):
            return _BAD_VALUE, np.zeros_like(theta)
        grad = np.asarray(grad, dtype=float)
        if not np.isfinite(grad).all():
            grad = np.zeros_like(theta)
        return float(value), grad

    def __call__(self, indexed_start) -> tuple[np.ndarray, float, str]:
        index, start = indexed_start
        with tm.span("restart", index=index) as sp:
            setulb = _lbfgsb_routine()
            if setulb is None:
                x, value, success, n_eval = self.minimize(start)
            else:
                x, value, success, n_eval = self.descend(start, setulb)
            value = float(value)
            if value >= _BAD_VALUE:
                # Every evaluation this start saw was non-finite; its
                # "optimum" is the substituted sentinel, not a real point.
                status = "nonfinite"
            elif success:
                status = "ok"
            else:
                status = "failed"
            sp.set(value=value, status=status, evaluations=n_eval)
        tm.count("gp.optimize.evaluations", n_eval)
        if status != "ok":
            tm.count("gp.optimize.bad_starts")
        return np.asarray(x), value, status

    def minimize(self, start):
        """One descent through ``scipy.optimize.minimize``: ``(x, f, success, n_eval)``."""
        from scipy.optimize import minimize  # deferred: only fits need it

        result = minimize(
            self.guarded, start, jac=True, method="L-BFGS-B", bounds=self.bounds
        )
        return result.x, result.fun, result.success, result.nfev

    def descend(self, start, setulb):
        """One descent driving ``setulb`` directly: ``(x, f, success, n_eval)``.

        Mirrors scipy 1.17.1's ``_minimize_lbfgsb`` under ``minimize``, so
        every float, and the sequence of points evaluated, is the same.
        """
        if np.all(self.bounds[:, 0] == self.bounds[:, 1]):
            # ``minimize`` does not descend when the box is a point.
            x = self.bounds[:, 0].copy()
            return x, self.guarded(x)[0], True, 1
        n, m = start.size, _M
        x = np.clip(start, self.low, self.high)
        # ``minimize`` evaluates the clipped start before the first step and
        # afterwards evaluates only a point that differs from the last one.
        last_x = x.copy()
        last_f, last_g = self.guarded(last_x.copy())
        n_eval = 1
        f = np.array(0.0)
        g = np.zeros(n)
        wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
        iwa = np.zeros(3 * n, dtype=np.int32)
        task = np.zeros(2, dtype=np.int32)
        ln_task = np.zeros(2, dtype=np.int32)
        lsave = np.zeros(4, dtype=np.int32)
        isave = np.zeros(44, dtype=np.int32)
        dsave = np.zeros(29)
        n_iter = 0
        while True:
            setulb(m, x, self.l, self.u, self.nbd, f, g, _FACTR, _PGTOL, wa, iwa,
                   task, lsave, isave, dsave, _MAXLS, ln_task)
            if task[0] == 3:  # FG: evaluate at x
                if not (x == last_x).all():
                    last_x = x.copy()
                    last_f, last_g = self.guarded(last_x.copy())
                    n_eval += 1
                # setulb may write into g; the cached gradient stays intact.
                f, g = last_f, np.array(last_g, dtype=np.float64, ndmin=1)
            elif task[0] == 1:  # NEW_X: an iteration finished
                n_iter += 1
                if n_iter >= _MAXITER:
                    task[:] = 5, 504
                elif n_eval > _MAXFUN:
                    task[:] = 5, 502
            else:
                break
        return x, f, task[0] == 4, n_eval


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

    starts = [np.clip(theta0, bounds[:, 0], bounds[:, 1])]
    for _ in range(n_restarts):
        starts.append(rng.uniform(bounds[:, 0], bounds[:, 1]))

    task = _StartTask(objective, bounds)
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

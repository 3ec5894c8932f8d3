"""Stopping rules and dynamic noise floors (Section V-B4).

The paper proposes AMSD convergence as the practical termination signal:
"when it converges (i.e. the average does not change significantly with
additional AL iterations), AL can be terminated.  The plots confirm that at
that point RMSE will also converge to its stable value, and subsequent
experiments may be considered excessive."

It also sketches, as future work, replacing the fixed noise-variance floor
with a dynamic one: "we expect that the restriction sigma_n >= 1/sqrt(N),
where N is the iteration counter, is a viable choice."  Both live here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .learner import ALTrace

__all__ = [
    "AMSDConvergence",
    "amsd_tail_converged",
    "dynamic_noise_floor",
    "first_converged_iteration",
]


def amsd_tail_converged(tail: np.ndarray, rel_tol: float) -> bool:
    """The shared AMSD tail test: has this window of values stopped moving?

    True when the relative span ``(max - min) / max`` of ``tail`` is below
    ``rel_tol`` (an all-zero tail counts as converged — the series cannot
    move any further).  Both :meth:`AMSDConvergence.converged` (the online
    stopping rule) and :func:`first_converged_iteration` (the retrospective
    scan) delegate here, so the two can never drift apart.
    """
    top = float(np.max(tail))
    if top == 0.0:
        return True
    return (top - float(np.min(tail))) / top < rel_tol


@dataclass
class AMSDConvergence:
    """Stop when AMSD stops moving.

    Converged when, over the last ``window`` iterations, the relative span
    of AMSD values ``(max - min) / max`` stays below ``rel_tol``.
    """

    window: int = 5
    rel_tol: float = 0.05

    def __post_init__(self):
        if self.window < 2:
            raise ValueError("window must be >= 2")
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")

    def converged(self, trace: ALTrace) -> bool:
        """Has the trace's AMSD series converged at its current end?

        Delegates to :func:`amsd_tail_converged` on the last ``window``
        values — the same predicate :func:`first_converged_iteration`
        scans with.
        """
        series = trace.series("amsd")
        if series.size < self.window:
            return False
        return amsd_tail_converged(series[-self.window :], self.rel_tol)


def first_converged_iteration(trace: ALTrace, rule: AMSDConvergence) -> int | None:
    """First iteration at which the rule would have fired (None if never).

    Applies :func:`amsd_tail_converged` — the exact predicate
    :meth:`AMSDConvergence.converged` uses online — to every window of the
    series, so the retrospective answer always matches a live run.
    """
    series = trace.series("amsd")
    for end in range(rule.window, series.size + 1):
        if amsd_tail_converged(series[end - rule.window : end], rule.rel_tol):
            return end - 1
    return None


def dynamic_noise_floor(scale: float = 1.0, *, minimum: float = 1e-8):
    """The paper's proposed schedule: ``sigma_n^2 >= scale / sqrt(N)``.

    Returns a callable ``iteration -> floor`` suitable for
    :class:`repro.al.learner.ActiveLearner`'s ``noise_floor_schedule``.
    Iterations count from 0; the floor at iteration ``i`` uses ``N = i + 1``.

    The schedule composes only with models whose noise bounds are numeric
    (*scaled*): each refit the learner replaces the lower bound with the
    scheduled floor and widens the upper bound to at least ``10x`` the
    floor.  Pairing it with ``noise_variance_bounds="fixed"`` raises a
    ``ValueError`` at the learner's first refit — the schedule would
    silently re-enable noise optimization the caller explicitly froze (see
    the mirrored note on :class:`~repro.al.learner.ActiveLearner`'s
    ``noise_floor_schedule``).
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    if minimum <= 0:
        raise ValueError("minimum must be positive")

    def schedule(iteration: int) -> float:
        n = max(int(iteration) + 1, 1)
        return max(scale / np.sqrt(n), minimum)

    return schedule

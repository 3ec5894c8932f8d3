"""Model-health guardrails: health checks, rollback, drift detection.

The paper's online loop trusts every fit: "every iteration of AL includes
selecting an experiment, running it, and using the experiment outcome to
update the underlying GPR model".  A long campaign cannot afford that —
one ill-conditioned refit or one silently drifting node poisons every
subsequent selection.  This module supplies the defensive layer:

* :class:`ModelHealth` inspects a freshly fitted
  :class:`~repro.gp.gpr.GaussianProcessRegressor`: kernel-matrix condition
  number (from the cached Cholesky factor), hyperparameters pinned at their
  bounds (a noise variance stuck at its floor is the paper's Fig. 7a
  overfitting signature), per-point log marginal likelihood regressions
  versus the previous round, and the LOOCV standardized-residual outlier
  rate (:func:`repro.gp.loocv.loo_standardized_residuals`);
* :class:`LastKnownGood` keeps a frozen :meth:`clone_fitted` copy of the
  last healthy model and can re-materialize it on the current (append-only)
  training set, so an unhealthy fit is *rolled back* rather than used;
* :func:`apply_remediation` escalates the next refit after a rollback:
  more optimizer restarts first, then a raised noise floor;
* :class:`DriftDetector` runs a two-sided Page-Hinkley changepoint test on
  the stream of standardized prediction residuals of newly measured points
  — the detector for the ``drift`` fault in :mod:`repro.cluster.faults`,
  which corrupts no single job yet shifts the whole measurement regime;
* :class:`GuardrailConfig` / :class:`GuardrailTallies` bundle the knobs and
  the campaign-level accounting that
  :class:`~repro.al.campaign.OnlineCampaign` reports;
* :class:`FitGate` composes the first three into the one post-fit
  decision every loop runs — :class:`~repro.al.learner.ActiveLearner`,
  :class:`~repro.al.campaign.OnlineCampaign`, and one gate per shard in
  :class:`~repro.al.sharding.ShardSupervisor`;
* :class:`ModelChain` is the one fit step around the gate: the carried
  model, the refit schedule, the jitter-escalating fit
  (:func:`fit_with_jitter`), publishing, and the resume replay.

All decisions emit telemetry through :mod:`repro.telemetry`
(``guardrail.unhealthy``, ``guardrail.rollback``, ``guardrail.drift``,
``guardrail.watchdog_stop`` counters plus ``guardrail.*`` trace events).
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .. import telemetry as tm
from ..gp.gpr import GaussianProcessRegressor
from ..gp.loocv import loo_standardized_residuals

__all__ = [
    "HealthConfig",
    "HealthReport",
    "ModelHealth",
    "LastKnownGood",
    "apply_remediation",
    "DriftConfig",
    "DriftDetector",
    "GuardrailConfig",
    "GuardrailTallies",
    "FitGate",
    "fit_with_jitter",
    "ModelChain",
    "open_registry",
]


# ----------------------------------------------------------------- health


@dataclass(frozen=True)
class HealthConfig:
    """Thresholds for :class:`ModelHealth`.

    Attributes
    ----------
    max_condition_number:
        Upper limit on ``cond(K_y)``; beyond it the posterior algebra is
        numerically meaningless even if no solver raised.
    pin_log_tol:
        A hyperparameter whose log-space value sits within this distance of
        a bound counts as *pinned* — the optimizer wanted to leave the box,
        i.e. the model class is fighting the data.
    noise_floor_pin_is_unhealthy:
        Whether a noise variance pinned at its *lower* bound alone flags
        the fit.  Off by default: the repo's default factories place a
        deliberate regularization floor above the collapse point (the
        paper's Section V-B device), so pinning there is the floor doing
        its job.  Turn this on when the bounds are meant to be
        non-binding — then a floor pin is the overfitting signature
        (sigma_n collapsing toward zero).  Kernel parameters at bounds are
        always reported but only flagged when *all* are pinned.
    max_lml_drop_per_point:
        Allowed decrease of per-point LML (``lml / n_train``) versus the
        previous healthy fit.  Raw LML is not comparable across training
        sets of different size, so the check normalizes per point.
    loocv_z_threshold / max_outlier_rate:
        A fit is unhealthy when more than ``max_outlier_rate`` of its LOOCV
        standardized residuals exceed ``loocv_z_threshold`` in magnitude.
    min_points_for_loocv:
        Skip the LOOCV check below this training-set size (the residuals
        are too noisy to mean anything).
    min_points:
        Below this training-set size only the condition-number check runs.
        Tiny fits routinely pin hyperparameters and have wildly varying
        per-point LML — flagging them would punish every campaign's seed
        rounds (and remediation would then *raise* the noise floor, which
        the next tiny fit pins again: a self-inflicted spiral).
    """

    max_condition_number: float = 1e12
    pin_log_tol: float = 1e-6
    noise_floor_pin_is_unhealthy: bool = False
    max_lml_drop_per_point: float = 1.0
    loocv_z_threshold: float = 3.0
    max_outlier_rate: float = 0.25
    min_points_for_loocv: int = 8
    min_points: int = 6

    def __post_init__(self):
        if self.max_condition_number <= 1.0:
            raise ValueError("max_condition_number must be > 1")
        if self.pin_log_tol <= 0:
            raise ValueError("pin_log_tol must be positive")
        if self.max_lml_drop_per_point < 0:
            raise ValueError("max_lml_drop_per_point must be >= 0")
        if self.loocv_z_threshold <= 0:
            raise ValueError("loocv_z_threshold must be positive")
        if not 0.0 < self.max_outlier_rate <= 1.0:
            raise ValueError("max_outlier_rate must be in (0, 1]")
        if self.min_points_for_loocv < 2:
            raise ValueError("min_points_for_loocv must be >= 2")
        if self.min_points < 1:
            raise ValueError("min_points must be >= 1")


@dataclass(frozen=True)
class HealthReport:
    """Outcome of one :meth:`ModelHealth.check`.

    ``issues`` holds one human-readable string per failed check;
    ``healthy`` is simply ``not issues``.  Diagnostic quantities are kept
    even when healthy so campaigns can log trends.
    """

    issues: tuple
    condition_number: float
    pinned: tuple
    noise_at_floor: bool
    lml: float
    lml_per_point: float
    outlier_rate: float | None
    n_train: int = 0
    #: ``GaussianProcessRegressor.solver_info`` of the checked model:
    #: solver name plus, for approximate backends, the approximation size
    #: and the exact-vs-approximate error-budget record.
    solver: dict | None = None
    #: Whether the checked fit carried a per-point noise vector
    #: (``fit(alpha=...)``).  Heteroscedastic fits legitimately drive the
    #: shared scalar to its floor — the per-point alphas carry the noise —
    #: so the noise-floor-pin check is skipped for them.
    heteroscedastic: bool = False

    @property
    def healthy(self) -> bool:
        return not self.issues


#: Conditioning headroom for approximate-solver fits (see
#: ModelHealth.check): their small systems aggregate
#: ``sigma^-2 n`` kernel rows, so a healthy fit's condition number sits
#: ~n/sigma^2 above the exact ``K_y``'s.
_APPROX_COND_HEADROOM = 1e4


class ModelHealth:
    """Post-fit health checks on a fitted GPR.

    Stateless: the caller supplies the previous healthy fit's per-point LML
    (or ``None`` on the first round).  All quantities come from state the
    fit already cached — the only extra linear algebra is one SVD of the
    Cholesky factor and the O(n^2) LOOCV formulas.
    """

    def __init__(self, config: HealthConfig | None = None):
        self.config = config or HealthConfig()

    def check(
        self,
        model: GaussianProcessRegressor,
        *,
        prev_lml_per_point: float | None = None,
    ) -> HealthReport:
        """Health of a fitted model; ``prev_lml_per_point`` is the baseline.

        Approximate (Nystrom) fits get a reduced check: the full n-by-n
        Cholesky factor does not exist, so conditioning is judged from the
        backend's small factor ``Lc``, LOOCV
        is skipped (``outlier_rate=None``), and a blown exact-vs-approximate
        error budget becomes a health issue.
        """
        if not model.fitted:
            raise RuntimeError("health check requires a fitted model")
        cfg = self.config
        afit = getattr(model, "_afit", None)
        issues: list[str] = []
        if afit is None:
            n = model.X_train_.shape[0]
            # cond(K_y) = cond(L)^2 from the cached Cholesky factor.
            factor = model._fit.L
            what = "kernel matrix ill-conditioned: cond(K)"
            threshold = cfg.max_condition_number
            lml = float(model.lml_)
            heteroscedastic = getattr(model, "noise_alpha_", None) is not None
        else:
            n = afit.n_train
            factor = afit.arrays.get("Lc")
            # The approximate system C = K_mm + sigma^-2 K_mn K_nm
            # aggregates sigma^-2 n kernel rows, so its conditioning
            # legitimately runs orders of magnitude above
            # the exact K_y's; the exact threshold would flag healthy
            # large-pool fits.  The headroom keeps the check meaningful for
            # genuinely degenerate fits (noise collapsed to its floor pushes
            # cond past even this).
            what = "approximate-solver system ill-conditioned: cond"
            threshold = cfg.max_condition_number * _APPROX_COND_HEADROOM
            # DTC marginal likelihood: comparable only
            # across fits of the same backend, so the regression check
            # still applies.
            lml = float(afit.lml)
            heteroscedastic = False
        # Below min_points only the conditioning check is trustworthy; see
        # HealthConfig.min_points for why tiny fits get a pass.
        enough_data = n >= cfg.min_points

        if factor is None:  # pragma: no cover - new backends must add a key
            cond = float("nan")
        else:
            sv = np.linalg.svd(np.asarray(factor), compute_uv=False)
            cond = float("inf") if sv[-1] == 0 else float((sv[0] / sv[-1]) ** 2)
        if not np.isfinite(cond) or cond > threshold:
            issues.append(f"{what}={cond:.3g} > {threshold:.3g}")

        # Hyperparameters pinned at bounds (log space).
        theta = model._theta()
        pinned: list[str] = []
        noise_at_floor = False
        nk = model.kernel_.n_dims
        for i, (val, (lo, hi)) in enumerate(zip(theta, model._theta_bounds())):
            at_low = val <= lo + cfg.pin_log_tol
            at_high = val >= hi - cfg.pin_log_tol
            if not (at_low or at_high):
                continue
            if i >= nk:  # the noise entry is last when not _noise_free
                pinned.append("noise_variance")
                noise_at_floor = at_low
            else:
                pinned.append(f"kernel.theta[{i}]")
        if (
            enough_data
            and noise_at_floor
            and cfg.noise_floor_pin_is_unhealthy
            and not heteroscedastic
        ):
            issues.append(
                "noise variance pinned at its floor "
                f"({model.noise_variance_:.3g}): the fit is absorbing noise "
                "into the kernel (overfitting signature)"
            )
        elif enough_data and len(pinned) == len(theta) and len(theta) > 0:
            issues.append(
                f"all hyperparameters pinned at bounds: {', '.join(pinned)}"
            )

        # Per-point LML regression versus the previous healthy fit.
        lml_pp = lml / max(n, 1)
        if (
            enough_data
            and prev_lml_per_point is not None
            and lml_pp < prev_lml_per_point - cfg.max_lml_drop_per_point
        ):
            issues.append(
                f"per-point LML regressed: {lml_pp:.3f} vs previous "
                f"{prev_lml_per_point:.3f} (tolerance "
                f"{cfg.max_lml_drop_per_point})"
            )

        # LOOCV standardized-residual outlier rate (exact fits only).
        outlier_rate: float | None = None
        if afit is None and n >= cfg.min_points_for_loocv and np.isfinite(cond):
            try:
                z = loo_standardized_residuals(model)
                outlier_rate = float(np.mean(np.abs(z) > cfg.loocv_z_threshold))
            except np.linalg.LinAlgError:
                issues.append("LOOCV residuals unavailable (singular system)")
            else:
                if outlier_rate > cfg.max_outlier_rate:
                    issues.append(
                        f"LOOCV outlier rate {outlier_rate:.2f} > "
                        f"{cfg.max_outlier_rate} (|z| > "
                        f"{cfg.loocv_z_threshold})"
                    )

        budget = (afit.error_budget if afit is not None else None) or {}
        if budget.get("within_budget") is False:
            issues.append(
                "exact-vs-approximate error budget exceeded: "
                f"max mean err {budget.get('max_mean_err'):.3g} "
                f"(budget {budget.get('budget_mean'):.3g}), "
                f"max std err {budget.get('max_std_err'):.3g} "
                f"(budget {budget.get('budget_std'):.3g})"
            )

        report = HealthReport(
            issues=tuple(issues),
            condition_number=cond,
            pinned=tuple(pinned),
            noise_at_floor=noise_at_floor,
            lml=lml,
            lml_per_point=lml_pp,
            outlier_rate=outlier_rate,
            n_train=n,
            solver=model.solver_info,
            heteroscedastic=heteroscedastic,
        )
        if not report.healthy:
            tm.count("guardrail.unhealthy")
            tm.event(
                "guardrail.health",
                healthy=False,
                issues=list(report.issues),
                condition_number=cond,
                lml_per_point=lml_pp,
                outlier_rate=outlier_rate,
                **({} if afit is None else {"solver": afit.backend}),
            )
        return report


class LastKnownGood:
    """Frozen copy of the last healthy model, restorable onto newer data.

    :meth:`remember` stores an independent :meth:`clone_fitted` snapshot
    plus the training-set size it was fitted on.  :meth:`restore` clones
    the snapshot again and extends it — hyperparameters untouched — with
    whatever rows were measured since, via rank-1 Cholesky updates.  This
    is only valid while the caller's training set is append-only with the
    snapshot as a prefix; anything that reorders or trims history (drift
    trimming, for example) must call :meth:`reset` first.
    """

    def __init__(self):
        self._model: GaussianProcessRegressor | None = None
        self._n_rows = 0

    @property
    def available(self) -> bool:
        return self._model is not None

    @property
    def n_rows(self) -> int:
        """Training rows the remembered model was fitted on."""
        return self._n_rows

    def remember(self, model: GaussianProcessRegressor) -> None:
        """Snapshot ``model`` (must be fitted) as the last known good."""
        self._model = model.clone_fitted()
        self._n_rows = model.X_train_.shape[0]

    def restore(
        self, X: np.ndarray, y: np.ndarray, alpha: np.ndarray | None = None
    ) -> GaussianProcessRegressor:
        """Re-materialize the snapshot on the full current training set.

        ``X, y`` must be an append-only extension of the data the snapshot
        was fitted on (its first ``n_rows`` rows).  ``alpha``, when given,
        is the *full* per-point noise vector of the current training set
        (heteroscedastic learners); only the entries for the appended rows
        are used — the snapshot already carries its own prefix.
        """
        if self._model is None:
            raise RuntimeError("no last-known-good model remembered")
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.shape[0] < self._n_rows:
            raise ValueError(
                f"training set shrank below the snapshot ({X.shape[0]} < "
                f"{self._n_rows}); rollback is only valid for append-only "
                "histories — reset() after trimming"
            )
        model = self._model.clone_fitted()
        if X.shape[0] > self._n_rows:
            alpha_new = None
            if alpha is not None:
                alpha = np.asarray(alpha, dtype=float)
                if alpha.shape[0] != X.shape[0]:
                    raise ValueError(
                        f"alpha has {alpha.shape[0]} entries, expected "
                        f"{X.shape[0]} (the full training set)"
                    )
                alpha_new = alpha[self._n_rows :]
            model.update(X[self._n_rows :], y[self._n_rows :], alpha=alpha_new)
        return model

    def reset(self) -> None:
        self._model = None
        self._n_rows = 0


def apply_remediation(
    model: GaussianProcessRegressor,
    level: int,
    config: "GuardrailConfig",
) -> GaussianProcessRegressor:
    """Escalate a fresh (unfitted) model before a post-rollback refit.

    Level 0 is a no-op.  Level >= 1 adds ``level * remediation_restarts``
    optimizer restarts (a wider search for a basin the default run
    missed).  Level >= 2 additionally raises the noise-variance floor by
    ``remediation_floor_factor`` per level beyond the first — the paper's
    own medicine (Section V-B) in increasing doses — when the bounds are
    numeric (a ``"fixed"`` noise model has nothing to raise).
    """
    if level <= 0:
        return model
    model.n_restarts = model.n_restarts + level * config.remediation_restarts
    if level >= 2 and not isinstance(model.noise_variance_bounds, str):
        low, high = model.noise_variance_bounds
        low = float(low) * config.remediation_floor_factor ** (level - 1)
        model.noise_variance_bounds = (low, max(float(high), low * 10.0))
        model.noise_variance = max(model.noise_variance, low)
    tm.count("guardrail.remediation")
    tm.event("guardrail.remediation", level=level, n_restarts=model.n_restarts)
    return model


# ------------------------------------------------------------------ drift


@dataclass(frozen=True)
class DriftConfig:
    """Two-sided Page-Hinkley parameters for :class:`DriftDetector`.

    The detector watches standardized residuals ``z = (y - mu) / sd`` of
    *newly measured* points against the pre-measurement prediction; under a
    stable regime they are ~N(0, 1), so the Page-Hinkley drift magnitude is
    in sigma units.

    Attributes
    ----------
    delta:
        Magnitude tolerance: mean shifts smaller than ``delta`` (in sigma)
        never accumulate.
    threshold:
        Alarm level for the cumulative Page-Hinkley statistic.
    min_samples:
        Samples required before an alarm may fire.
    """

    delta: float = 0.5
    threshold: float = 15.0
    min_samples: int = 4

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError("delta must be >= 0")
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")


class DriftDetector:
    """Two-sided Page-Hinkley changepoint test on a residual stream.

    Classic PH (Page 1954; Hinkley 1971): with running mean ``x_bar_t`` of
    the stream, accumulate ``m_t = sum_i (x_i - x_bar_i - delta)`` and
    alarm when ``m_t - min_s m_s > threshold`` (upward shift); the mirrored
    statistic catches downward shifts.  Feed it via :meth:`update` (one
    value) or :meth:`update_many`; after an alarm, :meth:`reset` starts a
    fresh window.
    """

    def __init__(self, config: DriftConfig | None = None):
        self.config = config or DriftConfig()
        self.reset()

    def reset(self) -> None:
        """Forget all history (call after handling a drift alarm)."""
        self.n_seen = 0
        self._mean = 0.0
        self._m_up = 0.0
        self._m_up_min = 0.0
        self._m_down = 0.0
        self._m_down_max = 0.0

    @property
    def statistic(self) -> float:
        """Current max of the two one-sided Page-Hinkley statistics."""
        return max(self._m_up - self._m_up_min, self._m_down_max - self._m_down)

    def update(self, value: float) -> bool:
        """Consume one residual; True when a changepoint alarm fires."""
        value = float(value)
        if not np.isfinite(value):
            return False
        cfg = self.config
        self.n_seen += 1
        self._mean += (value - self._mean) / self.n_seen
        dev = value - self._mean
        self._m_up += dev - cfg.delta
        self._m_up_min = min(self._m_up_min, self._m_up)
        self._m_down += dev + cfg.delta
        self._m_down_max = max(self._m_down_max, self._m_down)
        if self.n_seen < cfg.min_samples:
            return False
        return self.statistic > cfg.threshold

    def update_many(self, values) -> bool:
        """Consume a batch; True if any single update alarmed."""
        alarmed = False
        for v in np.asarray(values, dtype=float).ravel():
            alarmed = self.update(v) or alarmed
        return alarmed


# ------------------------------------------------------------ aggregation


@dataclass(frozen=True)
class GuardrailConfig:
    """Everything :class:`~repro.al.campaign.OnlineCampaign` needs to run guarded.

    Attributes
    ----------
    health:
        Thresholds for the post-fit :class:`ModelHealth` checks.
    drift:
        Page-Hinkley parameters for the residual :class:`DriftDetector`.
    check_health / check_drift:
        Master switches for the two monitors.
    max_rollbacks:
        Consecutive unhealthy fits tolerated (each rolled back with
        escalating remediation) before the campaign accepts the latest fit
        anyway — refusing forever would deadlock a genuinely changed
        workload.
    remediation_restarts / remediation_floor_factor:
        Escalation step sizes for :func:`apply_remediation`.
    drift_action:
        ``"trim"`` drops the oldest ``trim_fraction`` of training rows and
        refits on the recent remainder (the stale regime is discarded);
        ``"refit"`` keeps all rows but forces a from-scratch
        hyperparameter refit.
    trim_fraction:
        Fraction of (oldest) training rows discarded on a drift alarm
        under ``drift_action="trim"``.
    max_wall_seconds / max_cost_core_seconds:
        Campaign watchdog budgets on simulated makespan and core-seconds;
        ``None`` disables each.  When exceeded, the campaign ends after the
        current round with a best-effort result and
        ``stop_reason="watchdog"``.
    """

    health: HealthConfig = field(default_factory=HealthConfig)
    drift: DriftConfig = field(default_factory=DriftConfig)
    check_health: bool = True
    check_drift: bool = True
    max_rollbacks: int = 3
    remediation_restarts: int = 2
    remediation_floor_factor: float = 10.0
    drift_action: str = "trim"
    trim_fraction: float = 0.5
    max_wall_seconds: float | None = None
    max_cost_core_seconds: float | None = None

    def __post_init__(self):
        if self.max_rollbacks < 0:
            raise ValueError("max_rollbacks must be >= 0")
        if self.remediation_restarts < 0:
            raise ValueError("remediation_restarts must be >= 0")
        if self.remediation_floor_factor < 1.0:
            raise ValueError("remediation_floor_factor must be >= 1")
        if self.drift_action not in ("trim", "refit"):
            raise ValueError(
                f"unknown drift_action {self.drift_action!r}; "
                "expected 'trim' or 'refit'"
            )
        if not 0.0 < self.trim_fraction < 1.0:
            raise ValueError("trim_fraction must be in (0, 1)")
        if self.max_wall_seconds is not None and self.max_wall_seconds <= 0:
            raise ValueError("max_wall_seconds must be positive or None")
        if (
            self.max_cost_core_seconds is not None
            and self.max_cost_core_seconds <= 0
        ):
            raise ValueError("max_cost_core_seconds must be positive or None")


def open_registry(registry):
    """A loop's ``registry=`` argument: a path opens a model registry."""
    if registry is None or hasattr(registry, "publish"):
        return registry
    from ..serve.registry import ModelRegistry

    return ModelRegistry(registry)


@dataclass
class GuardrailTallies:
    """What the guardrails did during one campaign (all start at zero)."""

    n_unhealthy_fits: int = 0
    n_rollbacks: int = 0
    n_remediations: int = 0
    n_drift_events: int = 0
    n_trimmed_points: int = 0
    n_breaker_opens: int = 0
    n_breaker_probes: int = 0
    n_breaker_blacklisted: int = 0
    n_watchdog_stops: int = 0

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict | None) -> "GuardrailTallies":
        if not data:
            return cls()
        known = {f: int(data.get(f, 0)) for f in cls().as_dict()}
        return cls(**known)


# ------------------------------------------------------------------- gate


class FitGate:
    """The post-fit decision of one model stream: keep the fit or roll back.

    :meth:`admit` checks a fresh fit against the per-point-LML baseline.
    It is *accepted* — it becomes the :class:`LastKnownGood` snapshot, its
    per-point LML the baseline (only from fits with at least
    ``HealthConfig.min_points`` rows: tiny-fit LML is no comparable
    baseline), and the escalation level resets — when it is healthy, when
    no snapshot exists, when the snapshot cannot be extended
    (``LinAlgError``), or when ``escalation.max_rollbacks`` consecutive
    rollbacks are spent (refusing forever would deadlock a changed
    workload).  Otherwise it is *rolled back* to the snapshot restored on
    the current training set, and the level rises, so :meth:`remediate`
    escalates the next fresh model via :func:`apply_remediation`.

    ``health=None`` accepts every fit unchecked and keeps no snapshot, since
    :meth:`admit` never rolls back; a caller that restores such a gate
    directly (the shard supervisor) remembers its fits in :attr:`lkg`
    itself.  ``escalation=None`` never force-accepts and never remediates
    (the shard gates: their fits run inside workers from a fixed factory).
    ``tallies`` may be shared by several gates; ``rollback_telemetry``
    names the counter and the event emitted per rollback.
    """

    def __init__(
        self,
        health: HealthConfig | None = None,
        *,
        escalation: GuardrailConfig | None = None,
        tallies: GuardrailTallies | None = None,
        rollback_telemetry=("guardrail.rollback", "guardrail.rollback"),
    ):
        self.health = ModelHealth(health) if health is not None else None
        self.escalation = escalation
        self.tallies = tallies if tallies is not None else GuardrailTallies()
        self.rollback_telemetry = rollback_telemetry
        self.lkg = LastKnownGood()
        #: consecutive rollbacks since the last accepted fit
        self.level = 0
        self.prev_lml_per_point: float | None = None
        #: report of the most recent :meth:`admit` check
        self.last_report: HealthReport | None = None

    @classmethod
    def from_config(cls, config: GuardrailConfig | None) -> "FitGate":
        """The gate of a learner or campaign guarded by ``config`` (or not)."""
        if config is None:
            return cls()
        health = config.health if config.check_health else None
        return cls(health, escalation=config)

    def remediate(self, model: GaussianProcessRegressor) -> GaussianProcessRegressor:
        """Escalate a fresh (unfitted) model by the current level."""
        if self.escalation is not None and self.level > 0:
            apply_remediation(model, self.level, self.escalation)
            self.tallies.n_remediations += 1
        return model

    def check(self, model: GaussianProcessRegressor) -> HealthReport | None:
        """Health of ``model`` against the baseline; changes no state."""
        if self.health is None:
            return None
        return self.health.check(model, prev_lml_per_point=self.prev_lml_per_point)

    def admit(
        self, model: GaussianProcessRegressor, X, y, alpha=None, **where
    ) -> GaussianProcessRegressor:
        """``model`` when accepted, else the snapshot restored on ``X, y``.

        ``X, y`` (and ``alpha``, for per-point noise) are the full current
        training set, an append-only extension of the snapshot's.  ``where``
        (e.g. ``round=3``) is added to the rollback event.
        """
        report = self.last_report = self.check(model)
        if report is not None and not report.healthy:
            self.tallies.n_unhealthy_fits += 1
            esc = self.escalation
            if esc is None or self.level < esc.max_rollbacks:
                restored = self.restore(X, y, alpha)
                if restored is not None:
                    self.level += 1
                    self.tallies.n_rollbacks += 1
                    counter, event = self.rollback_telemetry
                    tm.count(counter)
                    tm.event(
                        event,
                        **where,
                        issues=list(report.issues),
                        remediation_level=self.level,
                    )
                    return restored
        if report is not None:
            self.lkg.remember(model)
            if report.n_train >= self.health.config.min_points:
                self.prev_lml_per_point = report.lml_per_point
        self.level = 0
        return model

    def restore(self, X, y, alpha=None) -> GaussianProcessRegressor | None:
        """The snapshot on the current training set; ``None`` if unavailable."""
        if not self.lkg.available:
            return None
        try:
            return self.lkg.restore(X, y, alpha)
        except np.linalg.LinAlgError:
            return None

    def reset(self) -> None:
        """Forget the snapshot, the baseline and the escalation level."""
        self.lkg.reset()
        self.prev_lml_per_point = None
        self.level = 0

    def state(self) -> dict:
        """The checkpointed part of the gate (the snapshot restarts cold)."""
        return {
            "tallies": self.tallies.as_dict(),
            "remediation_level": self.level,
            "prev_lml_per_point": self.prev_lml_per_point,
        }

    def load_state(self, state: dict) -> None:
        """Restore what :meth:`state` saved."""
        self.tallies = GuardrailTallies.from_dict(state.get("tallies"))
        self.level = int(state.get("remediation_level", 0))
        prev = state.get("prev_lml_per_point")
        self.prev_lml_per_point = None if prev is None else float(prev)


# ------------------------------------------------------------------ chain


def fit_with_jitter(build, X, y, alpha=None, *, warm_start=False, counters=None):
    """``build()`` fitted on ``X, y`` at jitter x1, x1e3, x1e6 of the first one's.

    The last ``LinAlgError`` propagates.  ``alpha`` and ``warm_start`` reach
    ``fit`` only when set, so a plain ``fit(X, y)`` regressor works too.
    ``counters`` prefixes the ``.jitter_escalation``/``.cholesky_failure``
    telemetry counters.
    """
    kwargs = {"alpha": alpha} if alpha is not None else {}
    if warm_start:
        kwargs["warm_start"] = True
    base = None
    for scale in (1.0, 1e3, 1e6):
        model = build()
        base = model.jitter if base is None else base
        model.jitter = base * scale
        if scale > 1.0 and counters:
            tm.count(f"{counters}.jitter_escalation")
        try:
            model.fit(X, y, **kwargs)
            return model
        except np.linalg.LinAlgError as exc:
            if counters:
                tm.count(f"{counters}.cholesky_failure")
            last_exc = exc
    raise last_exc


class ModelChain:
    """The model a loop carries between rounds, and its one refit policy.

    :meth:`step` rank-1-updates the carried model with the new rows unless
    :meth:`full_fit_due` or the update raises ``LinAlgError``; then
    :meth:`refit` fits a factory model (the carried one under
    ``warm_start``), remediated by the gate and passed through
    ``prepare(model, index)``; if every jitter of a cold fit fails, the
    carried model is kept with a ``RuntimeWarning``.  The gate admits a
    fresh fit and an accepted one is published with ``extra``.
    ``guardrails`` (or ``True``) configures the gate; ``counters`` prefixes
    the telemetry counters; ``index_name`` keys the index in the rollback
    event.  A resume replays :meth:`step` with ``replay=True`` (no
    publishing or counters) over the recorded fit prefixes, which rebuilds
    the model and the gate's snapshot; load the saved
    :meth:`FitGate.state` after it.
    """

    def __init__(
        self,
        factory: Callable[[], GaussianProcessRegressor],
        *,
        guardrails: GuardrailConfig | bool | None = None,
        registry=None,
        refit_every: int | None = None,
        warm_start: bool = False,
        prepare: Callable[[GaussianProcessRegressor, int], None] | None = None,
        counters: str = "al.fit",
        index_name: str = "round",
    ):
        self.factory = factory
        if guardrails is True:
            guardrails = GuardrailConfig()
        self.guardrails = guardrails or None
        self.gate = FitGate.from_config(self.guardrails)
        self.registry = open_registry(registry)
        self.refit_every = refit_every
        self.warm_start = warm_start
        self.prepare = prepare
        self.counters = counters
        self.index_name = index_name
        #: the carried model (``None`` before the first fit)
        self.model: GaussianProcessRegressor | None = None

    def full_fit_due(self, index: int) -> bool:
        """First fit, every ``refit_every``-th round, or every round if ``None``."""
        return (
            self.refit_every is None
            or self.model is None
            or not self.model.fitted
            or index % self.refit_every == 0
        )

    def refit(self, index, X, y, alpha=None, *, replay=False) -> tuple:
        """``(model, fresh)``: an ungated full fit, or the kept carried model."""
        counters = None if replay else self.counters
        warm = self.warm_start and self.model is not None

        def build():
            model = self.model if warm else self.gate.remediate(self.factory())
            if self.prepare is not None:
                self.prepare(model, index)
            return model

        try:
            fit = fit_with_jitter(
                build, X, y, alpha, warm_start=warm, counters=counters
            )
            return fit, True
        except np.linalg.LinAlgError:
            # A failed warm fit has altered the carried model: nothing to keep.
            if warm or self.model is None or not self.model.fitted:
                raise
        if counters:
            tm.count(f"{counters}.fallback_model")
        warnings.warn(
            "GP refit failed (Cholesky) even with escalated jitter; "
            "keeping the previous round's model",
            RuntimeWarning,
            stacklevel=3,
        )
        return self.model, False

    def step(self, index: int, X, y, alpha=None, *, extra=None, replay=False):
        """The carried model advanced to the full training set ``X, y``."""
        counters = None if replay else self.counters
        model = self.model
        if not self.full_fit_due(index):
            if counters:
                tm.count(f"{counters}.incremental")
            n = model.X_train_.shape[0]
            try:
                if n < X.shape[0]:
                    new_alpha = None if alpha is None else alpha[n:]
                    model.update(X[n:], y[n:], alpha=new_alpha)
                return model
            except np.linalg.LinAlgError:
                pass  # the posterior cannot absorb the rows: refit instead
        if counters:
            tm.count(f"{counters}.full")
        model, fresh = self.refit(index, X, y, alpha, replay=replay)
        if fresh:
            where = {self.index_name: index}
            admitted = self.gate.admit(model, X, y, alpha, **where)
            # Rollback rounds publish nothing: the last-known-good already
            # is the served version.
            if admitted is model and not replay:
                self.publish(model, extra, health=self.gate.last_report)
            model = admitted
        self.model = model
        return model

    def publish(self, model, extra, *, health=None) -> None:
        """Push ``model`` to the registry (no-op without one)."""
        if self.registry is not None:
            self.registry.publish(model, health=health, extra=extra)

    def reset(self) -> None:
        """Drop the carried model and the gate's history (a new regime)."""
        self.model = None
        self.gate.reset()

"""Gaussian Process Regression with explicit noise hyperparameter.

Implements the paper's Section III model (Eqs. 3-13):

    y = f(X) + N(0, sigma_n^2)

with predictive posterior

    mu_*    = k_*^T K_y^{-1} y                         (Eq. 5)
    sigma_*^2 = k_** - k_*^T K_y^{-1} k_*              (Eq. 6)
    K_y     = K + sigma_n^2 I                          (Eq. 7)

and Bayesian model selection by maximizing the log marginal likelihood
(Eqs. 12-13) over the kernel hyperparameters **and** the noise level, with
multi-restart gradient ascent exactly as the paper describes for the
scikit-learn implementation it used.

Unlike scikit-learn, the noise variance ``sigma_n^2`` is a first-class
attribute of the regressor rather than a ``WhiteKernel`` term.  This makes
the paper's central tuning knob — the lower bound of the ``sigma_n`` search
space (Section V-B4, Fig. 7) — a single constructor argument:

>>> gpr = GaussianProcessRegressor(noise_variance_bounds=(1e-1, 1e2))

All hyperparameters are optimized in log space.

Heteroscedastic extension (``docs/MULTIFIDELITY.md``): :meth:`fit` accepts a
per-point noise variance vector ``alpha`` so that

    K_y = K + sigma_n^2 I + diag(alpha)

where ``alpha_i`` is the *known* measurement variance of observation ``i``
(fidelity-tier noise, precision-fused repeats) and the scalar ``sigma_n^2``
is still learned and models the residual noise shared by all observations.
With ``alpha=None`` every code path is bit-identical to the scalar model.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve, cholesky

from .. import telemetry as tm
from .incremental import NotPositiveDefiniteError, cholesky_append
from .kernels import RBF, ConstantKernel, Kernel, kernel_from_dict, kernel_to_dict
from .optimize import OptimizeOutcome, minimize_with_restarts
from .solvers import (
    ApproxFitState,
    SolverConfig,
    add_noise_diagonal,
    exact_posterior,
    predict_exact,
    resolve_solver,
)
from . import solvers as _solvers
from .validate import as_1d_array, as_2d_array, check_consistent_rows

__all__ = ["GaussianProcessRegressor", "SolverConfig", "default_kernel"]

_LOG_2PI = math.log(2.0 * math.pi)

#: Format version of the :meth:`GaussianProcessRegressor.to_dict` payload.
_SERIAL_VERSION = 1


def default_kernel(n_features: int = 1, *, ard: bool = False) -> Kernel:
    """The paper's covariance: amplitude ``sigma_f^2`` times squared exponential.

    Parameters
    ----------
    n_features:
        Input dimensionality; used only when ``ard`` is true.
    ard:
        If true, use a separate length scale per input dimension.
    """
    length_scale = np.ones(n_features) if ard else 1.0
    return ConstantKernel(1.0, (1e-3, 1e3)) * RBF(length_scale, (1e-2, 1e3))


class _FitObjective:
    """Picklable ``theta -> (negative LML, gradient)`` for one fit's data.

    Built once per :meth:`GaussianProcessRegressor.fit` around a template
    regressor holding the search's starting hyperparameters.
    :meth:`~GaussianProcessRegressor.log_marginal_likelihood` only reads
    the template, so the objective is stateless: safe to invoke
    concurrently from restart threads and cheap to pickle to restart
    processes (see ``minimize_with_restarts(..., executor=)``).
    """

    __slots__ = ("model", "X", "y", "alpha")

    def __init__(self, model, X, y, alpha=None):
        self.model = model
        self.X = X
        self.y = y
        self.alpha = alpha  # per-point noise variance (units of y), or None

    def __call__(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        lml, grad = self.model.log_marginal_likelihood(
            theta, eval_gradient=True, X=self.X, y=self.y, alpha=self.alpha
        )
        return -lml, -grad


@dataclass
class _FitState:
    """Quantities cached by :meth:`GaussianProcessRegressor.fit`."""

    X: np.ndarray
    y: np.ndarray  # normalized training targets
    y_mean: float
    y_std: float
    L: np.ndarray  # Cholesky factor of K_y (lower)
    alpha: np.ndarray  # K_y^{-1} y
    lml: float
    optimize_outcome: OptimizeOutcome | None = None
    theta_history: list = field(default_factory=list)
    #: Per-point noise variances in *original* target units (heteroscedastic
    #: fits only); ``None`` on the scalar-noise path.  Named ``noise_alpha``
    #: because ``alpha`` above already means the weight vector K_y^{-1} y.
    noise_alpha: np.ndarray | None = None


class GaussianProcessRegressor:
    """GPR with jointly-optimized kernel hyperparameters and noise variance.

    Parameters
    ----------
    kernel:
        Noise-free covariance of the latent function.  Defaults to
        ``ConstantKernel * RBF`` (the paper's squared exponential with
        amplitude), created lazily with the right dimensionality at fit time.
    noise_variance:
        Initial value of ``sigma_n^2``.
    noise_variance_bounds:
        ``(low, high)`` search interval for ``sigma_n^2`` during marginal-
        likelihood optimization, or ``"fixed"`` to keep it at its initial
        value.  The paper studies floors of ``1e-8`` (overfits with few
        points) and ``1e-1`` (robust).
    n_restarts:
        Number of additional random restarts for the hyperparameter search
        beyond the run started at the current values (the paper: "repeats
        this search multiple times, each time starting from a random point").
    normalize_y:
        If true, center/scale targets before fitting and undo on prediction.
    optimizer:
        ``"lbfgs"`` (default) or ``None`` to skip hyperparameter fitting.
    rng:
        Seed or :class:`numpy.random.Generator` for restart sampling.
    jitter:
        Tiny diagonal regularizer added on top of ``sigma_n^2`` for Cholesky
        robustness.
    executor:
        Optional :class:`repro.parallel.ParallelMap` running the restart
        descents of every fit concurrently.  Restart starting points are
        sampled up-front from ``rng`` and the winner is merged by
        ``(value, start_index)``, so the fitted hyperparameters are
        bit-identical with and without an executor, for any backend and
        worker count.  Worth it for restart-heavy fits
        (``benchmarks/bench_parallel.py``); the per-fit pool spin-up
        dominates for small ``n_restarts``.
    solver:
        Solver backend: ``"exact"`` (default; the O(n^3) Cholesky path,
        bit-identical to previous releases), ``"nystrom"`` (inducing
        points, O(n m^2)), ``"auto"`` (exact below the measured crossover
        size, Nystrom beyond), or a :class:`repro.gp.solvers.SolverConfig`
        for full control over approximation sizes and the error budget.
        See :mod:`repro.gp.solvers`.
    """

    def __init__(
        self,
        kernel: Kernel | None = None,
        *,
        noise_variance: float = 1e-2,
        noise_variance_bounds=(1e-8, 1e3),
        n_restarts: int = 4,
        normalize_y: bool = False,
        optimizer: str | None = "lbfgs",
        rng=None,
        jitter: float = 1e-10,
        executor=None,
        solver="exact",
    ):
        if noise_variance <= 0:
            raise ValueError("noise_variance must be positive")
        if isinstance(noise_variance_bounds, str):
            if noise_variance_bounds != "fixed":
                raise ValueError("noise_variance_bounds must be (low, high) or 'fixed'")
        else:
            low, high = noise_variance_bounds
            if low <= 0 or high <= 0 or low > high:
                raise ValueError(
                    f"invalid noise_variance_bounds ({low}, {high}): need 0 < low <= high"
                )
        if optimizer not in ("lbfgs", None):
            raise ValueError(f"unknown optimizer {optimizer!r}")
        if n_restarts < 0:
            raise ValueError("n_restarts must be >= 0")
        self.kernel = kernel
        #: template value: every fit restarts the noise search from here
        self.noise_variance = float(noise_variance)
        #: fitted/current value used by predictions and LML evaluations
        self.noise_variance_ = float(noise_variance)
        self.noise_variance_bounds = noise_variance_bounds
        self.n_restarts = int(n_restarts)
        self.normalize_y = bool(normalize_y)
        self.optimizer = optimizer
        self.rng = np.random.default_rng(rng)
        self.jitter = float(jitter)
        self.executor = executor
        self.solver = resolve_solver(solver)
        self.kernel_: Kernel | None = None
        self._fit: _FitState | None = None
        self._afit: ApproxFitState | None = None

    # ------------------------------------------------------------------ fitting

    @property
    def fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._fit is not None or self._afit is not None

    @property
    def solver_info(self) -> dict | None:
        """JSON-safe description of the solver behind the current fit.

        ``None`` before any fit.  Exact fits report ``{"name": "exact"}``;
        approximate fits add the approximation size and the error-budget
        record (see :func:`repro.gp.solvers.check_error_budget`).  The
        model registry folds this into version metadata and
        :class:`repro.al.guardrails.ModelHealth` flags blown budgets.
        """
        if self._afit is not None:
            return {
                "name": self._afit.backend,
                "n_inducing": int(self._afit.arrays["Z"].shape[0]),
                "error_budget": dict(self._afit.error_budget),
            }
        if self._fit is not None:
            return {"name": "exact"}
        return None

    @property
    def _noise_free(self) -> bool:
        return self.noise_variance_bounds == "fixed"

    def _theta(self) -> np.ndarray:
        """Joint log-space hyperparameter vector [kernel theta..., log sigma_n^2]."""
        assert self.kernel_ is not None
        parts = [self.kernel_.theta]
        if not self._noise_free:
            parts.append([math.log(self.noise_variance_)])
        return np.concatenate(parts) if parts else np.empty(0)

    def _set_theta(self, theta: np.ndarray) -> None:
        assert self.kernel_ is not None
        nk = self.kernel_.n_dims
        self.kernel_.theta = theta[:nk]
        if not self._noise_free:
            self.noise_variance_ = float(np.exp(theta[nk]))

    def _at_theta(self, theta, n_features: int) -> tuple[Kernel, float]:
        """Kernel and noise variance at joint ``theta``, leaving the model as is.

        ``theta=None`` means the current hyperparameters.  A model without
        ``kernel_`` first instantiates its template for ``n_features``
        inputs.
        """
        if self.kernel_ is None:
            self.kernel_ = self._template_kernel(n_features)
        if theta is None:
            return self.kernel_, self.noise_variance_
        theta = np.asarray(theta, dtype=float)
        nk = self.kernel_.n_dims
        expected = (nk + (0 if self._noise_free else 1),)
        if theta.shape != expected:
            raise ValueError(f"theta has shape {theta.shape}, expected {expected}")
        kernel = self.kernel_.clone_with_theta(theta[:nk])
        if self._noise_free:
            return kernel, self.noise_variance_
        return kernel, float(np.exp(theta[nk]))

    def _template_kernel(self, n_features: int) -> Kernel:
        """A fresh copy of the constructor kernel (the default one for ``None``)."""
        if self.kernel is None:
            return default_kernel(n_features)
        return self.kernel.clone_with_theta(self.kernel.theta)

    def _theta_bounds(self) -> np.ndarray:
        assert self.kernel_ is not None
        bounds = self.kernel_.bounds
        if not self._noise_free:
            nb = np.log(np.asarray(self.noise_variance_bounds, dtype=float))
            bounds = np.vstack([bounds, nb[np.newaxis, :]]) if bounds.size else nb[np.newaxis, :]
        return bounds

    def fit(
        self, X, y, *, alpha=None, warm_start: bool = False
    ) -> "GaussianProcessRegressor":
        """Fit the GP: optimize hyperparameters by LML ascent, cache posterior.

        Repeated x-rows (the paper's repeated measurements of a noisy
        function) are supported directly: the noise term makes ``K_y``
        nonsingular even with duplicate inputs.

        ``alpha`` is an optional per-point noise variance vector of shape
        ``(n,)`` in the units of ``y``'s variance (heteroscedastic
        observations, e.g. precision-fused repeats or multi-fidelity
        probes).  The diagonal becomes ``sigma_n^2 + alpha_i``: the shared
        scalar ``sigma_n^2`` is still learned by LML ascent and models the
        *residual* noise common to every observation, while ``alpha``
        carries the known per-observation measurement variance.  With
        ``alpha=None`` the fit is bit-identical to the scalar-noise path of
        previous releases.  Per-point noise requires numeric
        ``noise_variance_bounds`` (a ``"fixed"`` scalar would be silently
        added on top of every ``alpha_i``, overriding the per-point
        precisions — that conflict raises ``ValueError``) and the exact
        solver (approximate backends declare it unsupported and the fit
        falls back to exact with a warning).

        With ``warm_start=True`` the deterministic start of the
        hyperparameter search is the *previous* fit's optimum instead of the
        constructor template — across consecutive AL iterations the optimum
        barely moves, so L-BFGS converges in a handful of evaluations.  The
        random restarts still sample the full bounds box.
        """
        X = as_2d_array(X)
        y = as_1d_array(y)
        check_consistent_rows(X, y)
        if alpha is not None:
            alpha = self._check_alpha(alpha, X.shape[0])

        backend = self.solver.effective_backend(X.shape[0])
        if alpha is not None and not _solvers.supports_per_point_noise(backend):
            warnings.warn(
                f"solver backend {backend!r} does not support per-point "
                "noise (alpha); falling back to the exact solver",
                RuntimeWarning,
                stacklevel=2,
            )
            tm.count("gp.fit.alpha_exact_fallback")
            backend = "exact"
        attrs = dict(n=X.shape[0], warm_start=bool(warm_start))
        if backend == "exact":
            attrs["heteroscedastic"] = alpha is not None
        else:
            attrs["solver"] = backend
        with tm.span("fit", **attrs) as sp:
            self._fit_impl(X, y, backend, alpha=alpha, warm_start=warm_start, sp=sp)
        return self

    def _check_alpha(self, alpha, n: int) -> np.ndarray:
        """Validate a per-point noise variance vector against ``n`` rows."""
        alpha = as_1d_array(alpha)
        if alpha.shape[0] != n:
            raise ValueError(
                f"alpha has {alpha.shape[0]} entries, expected {n} (one per row)"
            )
        if not np.all(np.isfinite(alpha)):
            raise ValueError("alpha must be finite")
        if np.any(alpha < 0):
            raise ValueError("alpha entries must be >= 0 (noise variances)")
        if self._noise_free:
            raise ValueError(
                "per-point noise (alpha) conflicts with "
                "noise_variance_bounds='fixed': the fixed scalar "
                f"sigma_n^2={self.noise_variance_:g} would be added on top "
                "of every alpha_i and silently override the per-point "
                "precisions; use numeric bounds so the shared residual "
                "scalar is learned alongside alpha"
            )
        return alpha

    def _fit_impl(self, X, y, backend: str, *, alpha, warm_start: bool, sp) -> None:
        """Search the hyperparameters by LML ascent, then build the posterior.

        The exact backend searches on every row.  An approximate backend
        searches by *exact* LML on a deterministic subsample of at most
        ``solver.opt_subset`` rows (the full-set exact LML is the very
        O(n^3) it avoids), then builds its posterior on the full training
        set at the optimum and checks the error budget
        (:func:`repro.gp.solvers.check_error_budget`).
        """
        tel = tm.enabled()
        t0 = time.perf_counter() if tel else 0.0
        if not (warm_start and self.kernel_ is not None):
            # Each cold fit restarts from the template state (like
            # scikit-learn's kernel cloning): repeated fits must not
            # warm-start from the previous fit's optimum unless asked to.
            # A warm start keeps the current kernel_/noise_variance_.
            self.kernel_ = self._template_kernel(X.shape[1])
            self.noise_variance_ = self.noise_variance

        if self.normalize_y:
            y_mean = float(np.mean(y))
            y_std = float(np.std(y))
            if y_std == 0.0:
                y_std = 1.0
        else:
            y_mean, y_std = 0.0, 1.0
        y_norm = (y - y_mean) / y_std
        # alpha is given in original y-variance units; normalized targets
        # scale variances by 1/y_std^2.
        alpha_norm = alpha / y_std**2 if alpha is not None else None

        X_opt, y_opt = X, y_norm
        if backend != "exact":
            # Private, seeded RNG: subsample choice, inducing selection
            # and probe points are reproducible per config and never
            # consume the restart RNG.
            solver_rng = np.random.default_rng(self.solver.seed)
            n, subset = X.shape[0], self.solver.opt_subset
            if n > subset:
                sub = np.sort(solver_rng.choice(n, size=subset, replace=False))
                X_opt, y_opt = X[sub], y_norm[sub]

        outcome = None
        theta0 = self._theta()
        if self.optimizer is not None and theta0.size > 0:
            # A picklable, stateless objective (not a bound-method closure)
            # so restart descents can run on thread or process pools.
            template = GaussianProcessRegressor(
                noise_variance=self.noise_variance_,
                noise_variance_bounds=self.noise_variance_bounds,
                optimizer=None,
                jitter=self.jitter,
            )
            template.kernel_ = self.kernel_.clone_with_theta(self.kernel_.theta)
            outcome = minimize_with_restarts(
                _FitObjective(template, X_opt, y_opt, alpha_norm),
                theta0,
                self._theta_bounds(),
                n_restarts=self.n_restarts,
                rng=self.rng,
                executor=self.executor,
            )
            self._set_theta(outcome.theta)

        if backend == "exact":
            L, weights = exact_posterior(
                self.kernel_, self.noise_variance_, self.jitter, X, y_norm, alpha_norm
            )
            lml = self._lml_from_cholesky(L, weights, y_norm)
            self._fit = _FitState(
                X=X,
                y=y_norm,
                y_mean=y_mean,
                y_std=y_std,
                L=L,
                alpha=weights,
                lml=lml,
                optimize_outcome=outcome,
                theta_history=outcome.all_thetas if outcome is not None else [],
                noise_alpha=alpha,
            )
            self._afit = None
        else:
            self._afit = self._approx_state(
                backend, X, y_norm, y_mean, y_std, solver_rng
            )
            self._fit = None
            lml = self._afit.lml
        if tel:
            tm.count("gp.fit.total")
            if self._afit is not None:
                tm.count(f"gp.fit.{backend}")
            tm.observe("gp.fit.seconds", time.perf_counter() - t0)
            sp.set(lml=lml, noise_variance=self.noise_variance_)
            if outcome is not None:
                n_bad = sum(1 for s in outcome.statuses if s != "ok")
                sp.set(n_starts=len(outcome.statuses), n_bad_starts=n_bad)
                if outcome.fallback:
                    tm.count("gp.fit.optimizer_fallback")
            budget = self._afit.error_budget if self._afit is not None else {}
            if budget.get("checked"):
                sp.set(
                    budget_mean_err=budget["max_mean_err"],
                    budget_std_err=budget["max_std_err"],
                    within_budget=budget["within_budget"],
                )
                if budget["within_budget"] is False:
                    tm.count("gp.fit.budget_exceeded")

    def _approx_state(self, backend, X, y_norm, y_mean, y_std, solver_rng):
        """Build an approximate posterior at the current hyperparameters.

        The backend factors come from ``solver_rng`` first and the
        error-budget probes after them, so one seeded generator makes the
        whole state reproducible.
        """
        kernel, cfg = self.kernel_, self.solver
        arrays = _solvers.fit_backend(
            backend, kernel, self.noise_variance_, self.jitter, X, y_norm, cfg,
            solver_rng,
        )
        lml = float(arrays.pop("lml")[0])
        state = ApproxFitState(
            backend=backend,
            arrays=arrays,
            y_mean=y_mean,
            y_std=y_std,
            n_train=X.shape[0],
            training_hash=_solvers.training_hash(X, y_norm, y_mean, y_std),
            lml=lml,
            X=X,
            y=y_norm,
        )
        state.error_budget = _solvers.check_error_budget(
            state, kernel, self.noise_variance_, self.jitter, X, y_norm, cfg,
            solver_rng,
        )
        return state

    def update(self, x, y, *, alpha=None) -> "GaussianProcessRegressor":
        """Fold new observations into the posterior at *fixed* hyperparameters.

        Extends the cached Cholesky factor by one bordered row per new point
        (O(n^2) each, see :mod:`repro.gp.incremental`) instead of
        refactorizing ``K_y`` in O(n^3), and recomputes ``alpha`` and the LML
        from the extended factor.  The result is exact: it matches a fresh
        :meth:`fit` on the concatenated data with ``optimizer=None`` and the
        same hyperparameters up to numerical jitter.  Duplicate x-rows are
        fine — the noise term keeps the bordered pivot positive.

        Hyperparameters are *not* re-optimized, and with ``normalize_y`` the
        target normalization constants stay frozen at their last-fit values;
        schedule a periodic full :meth:`fit` (e.g. ``refit_every`` in
        :class:`repro.al.learner.ActiveLearner`) to refresh both.

        If accumulated round-off would make the bordered factor lose
        positive-definiteness, the factor is rebuilt from scratch at the
        current hyperparameters (a silent O(n^3) fallback, still exact).

        Parameters
        ----------
        x:
            New input row(s): ``(d,)`` for a single point or ``(m, d)``.
        y:
            Corresponding target(s), scalar or ``(m,)``.
        alpha:
            Optional per-point noise variance(s) for the new rows, scalar or
            ``(m,)``, in original target-variance units (see :meth:`fit`).
            Omitted entries default to zero extra noise.  Mixing is allowed:
            updating a scalar-noise fit with ``alpha`` lazily promotes the
            stored vector (old rows get zeros), and updating a
            heteroscedastic fit without ``alpha`` appends zeros.  Unlike
            :meth:`fit`, ``"fixed"``-bounds models accept ``alpha`` here —
            frozen clones (:meth:`clone_fitted`, believer chains, rollback
            restores) never re-optimize, so there is no bound to conflict
            with.
        """
        if self._fit is None and self._afit is None:
            raise RuntimeError("update() requires a fitted model; call fit() first")
        if self._afit is not None:
            if alpha is not None:
                raise ValueError(
                    "per-point noise (alpha) is not supported by approximate "
                    "solver fits; refit with the exact solver"
                )
            return self._update_approx(x, y)
        fit = self._fit
        kernel = self.kernel_
        assert kernel is not None
        X_new, y_new = self._coerce_update_rows(x, y, fit.X.shape[1])
        y_norm_new = (y_new - fit.y_mean) / fit.y_std
        alpha_new = None
        if alpha is not None:
            alpha_new = as_1d_array(np.atleast_1d(np.asarray(alpha, dtype=float)))
            if alpha_new.shape[0] == 1 and X_new.shape[0] > 1:
                alpha_new = np.repeat(alpha_new, X_new.shape[0])
            if alpha_new.shape[0] != X_new.shape[0]:
                raise ValueError(
                    f"alpha has {alpha_new.shape[0]} entries, expected "
                    f"{X_new.shape[0]} (one per new row)"
                )
            if not np.all(np.isfinite(alpha_new)) or np.any(alpha_new < 0):
                raise ValueError("alpha entries must be finite and >= 0")
        # Full per-row noise vector after this update, in original units
        # (None while everything stays on the scalar path).
        if fit.noise_alpha is not None or alpha_new is not None:
            old = (
                fit.noise_alpha
                if fit.noise_alpha is not None
                else np.zeros(fit.X.shape[0])
            )
            new = alpha_new if alpha_new is not None else np.zeros(X_new.shape[0])
            noise_alpha_all = np.concatenate([old, new])
        else:
            noise_alpha_all = None

        X_all = fit.X
        L = fit.L
        n_old = fit.X.shape[0]
        alpha_norm = (
            None if noise_alpha_all is None else noise_alpha_all / fit.y_std**2
        )
        # K_y's diagonal entries at the new rows.
        k_self = add_noise_diagonal(
            kernel.diag(X_new),
            self.noise_variance_,
            self.jitter,
            None if alpha_norm is None else alpha_norm[n_old:],
        )
        with tm.span(
            "update", n=fit.X.shape[0], n_new=X_new.shape[0]
        ) as sp:
            n_rebuilds = 0
            for i in range(X_new.shape[0]):
                xq = X_new[i : i + 1]
                k = kernel(xq, X_all)[0]
                X_all = np.vstack([X_all, xq])
                try:
                    L = cholesky_append(L, k, float(k_self[i]))
                except NotPositiveDefiniteError:
                    n_rebuilds += 1
                    tm.count("gp.update.cholesky_rebuild")
                    K = add_noise_diagonal(
                        kernel(X_all),
                        self.noise_variance_,
                        self.jitter,
                        None if alpha_norm is None else alpha_norm[: X_all.shape[0]],
                    )
                    L = cholesky(K, lower=True, check_finite=False)
            sp.set(n_rebuilds=n_rebuilds)
            tm.count("gp.update.total")
            tm.count("gp.update.points", X_new.shape[0])

        y_all = np.append(fit.y, y_norm_new)
        weights = cho_solve((L, True), y_all, check_finite=False)
        fit.X = X_all
        fit.y = y_all
        fit.L = L
        fit.alpha = weights
        fit.noise_alpha = noise_alpha_all
        fit.lml = self._lml_from_cholesky(L, weights, y_all)
        # The optimizer diagnostics describe the *previous* training set; an
        # updated posterior has no optimize run of its own, so clear them
        # rather than let registry metadata / telemetry attribute the stale
        # outcome to this posterior.
        fit.optimize_outcome = None
        fit.theta_history = []
        return self

    @staticmethod
    def _coerce_update_rows(x, y, d: int) -> tuple[np.ndarray, np.ndarray]:
        """Validate/reshape one :meth:`update` batch against dimensionality ``d``."""
        X_new = np.asarray(x, dtype=float)
        if X_new.ndim == 1:
            # (d,) is one point when the model is multivariate; (m,) is m
            # points for the 1-D studies.
            X_new = X_new[np.newaxis, :] if d > 1 else X_new[:, np.newaxis]
        X_new = as_2d_array(X_new)
        y_new = as_1d_array(np.atleast_1d(np.asarray(y, dtype=float)))
        check_consistent_rows(X_new, y_new)
        if X_new.shape[1] != d:
            raise ValueError(
                f"x has {X_new.shape[1]} features, model was fit with {d}"
            )
        return X_new, y_new

    def _update_approx(self, x, y) -> "GaussianProcessRegressor":
        """Fold new rows into an approximate posterior at fixed hyperparameters.

        Rebuilds the backend factors on the extended training set — an
        O(n m^2) pass, not the exact path's O(n^2) rank-1 border — with
        the same solver seed, so the inducing set is re-drawn
        deterministically.  Requires the training set, which a model
        restored by :meth:`from_dict` no longer carries.
        """
        afit = self._afit
        assert afit is not None
        if afit.X is None or afit.y is None:
            raise RuntimeError(
                "cannot update an approximate model restored from a "
                "serialized payload: the training set is not persisted; "
                "refit from the source data instead"
            )
        X_new, y_new = self._coerce_update_rows(x, y, afit.X.shape[1])
        y_norm_new = (y_new - afit.y_mean) / afit.y_std
        X_all = np.vstack([afit.X, X_new])
        y_all = np.append(afit.y, y_norm_new)
        with tm.span(
            "update", n=afit.n_train, n_new=X_new.shape[0], solver=afit.backend
        ):
            self._afit = self._approx_state(
                afit.backend, X_all, y_all, afit.y_mean, afit.y_std,
                np.random.default_rng(self.solver.seed),
            )
            tm.count("gp.update.total")
            tm.count("gp.update.points", X_new.shape[0])
        return self

    def clone_fitted(self) -> "GaussianProcessRegressor":
        """Independent copy of a fitted model with hyperparameters frozen.

        The clone shares no state with the original: its posterior can be
        extended via :meth:`update` (kriging-believer conditioning, bootstrap
        members) without a single O(n^3) refit and without touching the
        source model.  Its optimizer is disabled and its noise is fixed, so
        a subsequent :meth:`fit` would also keep the current hyperparameters.
        """
        if self._fit is None and self._afit is None:
            raise RuntimeError("clone_fitted() requires a fitted model")
        assert self.kernel_ is not None
        clone = GaussianProcessRegressor(
            kernel=self.kernel_.clone_with_theta(self.kernel_.theta),
            noise_variance=self.noise_variance_,
            noise_variance_bounds="fixed",
            normalize_y=self.normalize_y,
            optimizer=None,
            rng=0,
            jitter=self.jitter,
            solver=self.solver,
        )
        clone.kernel_ = self.kernel_.clone_with_theta(self.kernel_.theta)
        clone.noise_variance_ = self.noise_variance_
        if self._afit is not None:
            clone._afit = self._afit.clone()
            return clone
        fit = self._fit
        clone._fit = _FitState(
            X=fit.X.copy(),
            y=fit.y.copy(),
            y_mean=fit.y_mean,
            y_std=fit.y_std,
            L=fit.L.copy(),
            alpha=fit.alpha.copy(),
            lml=fit.lml,
            noise_alpha=(
                fit.noise_alpha.copy() if fit.noise_alpha is not None else None
            ),
        )
        return clone

    # ------------------------------------------------------------- persistence

    def training_hash(self) -> str:
        """SHA-256 fingerprint of the training set (and normalization).

        Hashes the exact float64 bytes of the stored design matrix, the
        normalized targets and the normalization constants, so two models
        share a hash iff they were fitted on bit-identical data.  The model
        registry (:mod:`repro.serve`) stores it as version metadata and
        :meth:`from_dict` re-verifies it on load.
        """
        if self._afit is not None:
            # Computed at fit time: a deserialized approximate model no
            # longer carries the training set to re-hash.
            return self._afit.training_hash
        if self._fit is None:
            raise RuntimeError("training_hash() requires a fitted model")
        fit = self._fit
        return _solvers.training_hash(fit.X, fit.y, fit.y_mean, fit.y_std)

    def to_dict(self) -> dict:
        """Exact JSON-serializable snapshot of the regressor.

        Captures the constructor template (kernel spec, noise template and
        bounds, optimizer settings, jitter), the fitted hyperparameters
        (``kernel_``, ``noise_variance_``) and — when fitted — the full
        posterior cache: training set, normalization constants, and the
        Cholesky factor ``L`` and weight vector ``alpha``.  Every float
        round-trips bit-exactly through JSON (``repr`` shortest-float
        semantics), so :meth:`from_dict` reconstructs a model whose
        :meth:`predict` outputs are **bit-identical** without refactorizing
        anything.  RNG state and ``executor`` are not captured (a restored
        model predicts; it does not continue a restart search).
        """
        bounds = self.noise_variance_bounds
        payload: dict = {
            "format_version": _SERIAL_VERSION,
            "kernel": (
                kernel_to_dict(self.kernel) if self.kernel is not None else None
            ),
            "noise_variance": float(self.noise_variance),
            "noise_variance_bounds": (
                bounds if isinstance(bounds, str)
                else [float(bounds[0]), float(bounds[1])]
            ),
            "n_restarts": int(self.n_restarts),
            "normalize_y": bool(self.normalize_y),
            "optimizer": self.optimizer,
            "jitter": float(self.jitter),
            "noise_variance_": float(self.noise_variance_),
            "kernel_": (
                kernel_to_dict(self.kernel_) if self.kernel_ is not None else None
            ),
            "solver": self.solver.to_dict(),
            "fit": None,
            "afit": (
                self._afit.to_dict() if self._afit is not None else None
            ),
        }
        if self._fit is not None:
            fit = self._fit
            payload["fit"] = {
                "X": fit.X.tolist(),
                "y": fit.y.tolist(),
                "y_mean": float(fit.y_mean),
                "y_std": float(fit.y_std),
                "L": fit.L.tolist(),
                "alpha": fit.alpha.tolist(),
                "lml": float(fit.lml),
                "training_hash": self.training_hash(),
            }
            # Only present for heteroscedastic fits: scalar-noise payloads
            # stay byte-identical to previous releases (absence implies
            # scalar, like the registry's solver metadata).
            if fit.noise_alpha is not None:
                payload["fit"]["noise_alpha"] = fit.noise_alpha.tolist()
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "GaussianProcessRegressor":
        """Reconstruct a regressor serialized by :meth:`to_dict`.

        The restored model's predictions are bit-identical to the source
        model's: the cached Cholesky factor and ``alpha`` are restored
        verbatim instead of being recomputed.  The training-set hash stored
        at save time is re-verified; a mismatch (corrupt or hand-edited
        payload) raises ``ValueError``.
        """
        if not isinstance(payload, dict):
            raise ValueError("model payload must be a dict")
        version = payload.get("format_version")
        if version != _SERIAL_VERSION:
            raise ValueError(
                f"unsupported model format version {version!r} "
                f"(expected {_SERIAL_VERSION})"
            )
        bounds = payload["noise_variance_bounds"]
        if not isinstance(bounds, str):
            bounds = (float(bounds[0]), float(bounds[1]))
        model = cls(
            kernel=(
                kernel_from_dict(payload["kernel"])
                if payload["kernel"] is not None
                else None
            ),
            noise_variance=float(payload["noise_variance"]),
            noise_variance_bounds=bounds,
            n_restarts=int(payload["n_restarts"]),
            normalize_y=bool(payload["normalize_y"]),
            optimizer=payload["optimizer"],
            rng=0,
            jitter=float(payload["jitter"]),
            solver=payload.get("solver", "exact"),
        )
        model.noise_variance_ = float(payload["noise_variance_"])
        if payload["kernel_"] is not None:
            model.kernel_ = kernel_from_dict(payload["kernel_"])
        fit = payload["fit"]
        if fit is not None:
            model._fit = _FitState(
                X=np.asarray(fit["X"], dtype=float),
                y=np.asarray(fit["y"], dtype=float),
                y_mean=float(fit["y_mean"]),
                y_std=float(fit["y_std"]),
                L=np.asarray(fit["L"], dtype=float),
                alpha=np.asarray(fit["alpha"], dtype=float),
                lml=float(fit["lml"]),
                noise_alpha=(
                    np.asarray(fit["noise_alpha"], dtype=float)
                    if fit.get("noise_alpha") is not None
                    else None
                ),
            )
            stored = fit.get("training_hash")
            if stored is not None and stored != model.training_hash():
                raise ValueError(
                    "training-set hash mismatch: the serialized model is "
                    "corrupt or was modified after it was saved"
                )
        afit = payload.get("afit")
        if afit is not None:
            model._afit = ApproxFitState.from_dict(afit)
        return model

    @staticmethod
    def _lml_from_cholesky(L: np.ndarray, alpha: np.ndarray, y: np.ndarray) -> float:
        n = y.shape[0]
        return float(
            -0.5 * y @ alpha - np.sum(np.log(np.diag(L))) - 0.5 * n * _LOG_2PI
        )

    def log_marginal_likelihood(
        self,
        theta: np.ndarray | None = None,
        *,
        eval_gradient: bool = False,
        X=None,
        y=None,
        alpha=None,
    ):
        """Log marginal likelihood (Eq. 12) at ``theta``.

        ``theta`` is the joint vector ``[kernel.theta..., log sigma_n^2]``
        (the noise entry is absent when the noise is fixed).  With
        ``theta=None`` the current hyperparameters are evaluated.  ``X, y``
        default to the stored training data; passing them explicitly lets
        the Fig. 4/5 experiments scan LML landscapes without refitting.
        ``alpha`` adds per-point noise variances (in the variance units of
        the supplied ``y``) on the diagonal; with ``X, y`` omitted it
        defaults to the fitted model's stored per-point noise.  The noise
        gradient is unchanged by ``alpha``: ``dK/d log sigma_n^2`` is still
        ``sigma_n^2 I``.

        The model is only read (``theta`` is evaluated on a copy of the
        kernel), so concurrent calls on one model are safe.
        """
        if X is None or y is None:
            if self._afit is not None:
                raise RuntimeError(
                    "exact log_marginal_likelihood over the full training "
                    "set is unavailable for approximate solver fits (that "
                    "O(n^3) cost is what the solver avoids); use lml_ for "
                    "the approximate marginal likelihood, or pass (X, y) "
                    "explicitly to evaluate on a subset"
                )
            if self._fit is None:
                raise RuntimeError("model is not fitted and no (X, y) supplied")
            X, y = self._fit.X, self._fit.y
            if alpha is None and self._fit.noise_alpha is not None:
                # Stored targets are normalized; scale the stored
                # original-unit variances to match.
                alpha = self._fit.noise_alpha / self._fit.y_std**2
        else:
            X = as_2d_array(X)
            y = as_1d_array(y)
            check_consistent_rows(X, y)
        if alpha is not None:
            alpha = as_1d_array(alpha)
            if alpha.shape[0] != X.shape[0]:
                raise ValueError(
                    f"alpha has {alpha.shape[0]} entries, expected {X.shape[0]}"
                )
        kernel, noise = self._at_theta(theta, X.shape[1])
        if eval_gradient:
            K, K_grad = kernel(X, eval_gradient=True)
        else:
            K = kernel(X)
        add_noise_diagonal(K, noise, self.jitter, alpha)
        try:
            L = cholesky(K, lower=True, check_finite=False)
        except np.linalg.LinAlgError:
            tm.count("gp.lml.cholesky_failure")
            if eval_gradient:
                return -np.inf, np.zeros_like(self._theta())
            return -np.inf
        weights = cho_solve((L, True), y, check_finite=False)
        lml = self._lml_from_cholesky(L, weights, y)
        if not eval_gradient:
            return lml
        # d lml / d theta_j = 0.5 tr((alpha alpha^T - K^{-1}) dK/dtheta_j)
        K_inv = cho_solve((L, True), np.eye(K.shape[0]), check_finite=False)
        inner = np.outer(weights, weights) - K_inv
        grads = 0.5 * np.einsum("ij,ijk->k", inner, K_grad)
        if not self._noise_free:
            # dK/d(log sigma_n^2) = sigma_n^2 * I
            noise_grad = 0.5 * noise * np.trace(inner)
            grads = np.append(grads, noise_grad)
        return lml, grads

    # --------------------------------------------------------------- prediction

    def predict(
        self,
        X,
        *,
        return_std: bool = False,
        return_cov: bool = False,
        include_noise: bool = True,
    ):
        """Posterior predictive mean (and std / covariance) at query points.

        Parameters
        ----------
        include_noise:
            If true (default), the returned std/cov describe the predictive
            distribution of *observations* ``y_*`` (latent + measurement
            noise).  This is the quantity the paper's AL strategies consume:
            it stays ``>= sigma_n`` at already-measured points, which is what
            allows AL to recommend repeated measurements.  Set false for the
            latent-function uncertainty only.  For heteroscedastic fits the
            added term is the shared residual ``sigma_n^2`` only: the
            per-point ``alpha`` belongs to specific past observations, not
            to hypothetical future ones at the query points.
        """
        if return_std and return_cov:
            raise ValueError("return_std and return_cov are mutually exclusive")
        X = as_2d_array(X)
        want = "cov" if return_cov else ("var" if return_std else None)
        if self._afit is not None:
            afit = self._afit
            mean, latent = _solvers.predict_backend(
                afit, self.kernel_, self.noise_variance_, self.jitter, X, want=want
            )
            y_mean, y_std = afit.y_mean, afit.y_std
        elif self._fit is not None:
            fit = self._fit
            mean, latent = predict_exact(self.kernel_, fit.X, fit.L, fit.alpha, X, want)
            y_mean, y_std = fit.y_mean, fit.y_std
        else:
            # Prior prediction.
            kernel = self.kernel_ or self._template_kernel(X.shape[1])
            mean = np.zeros(X.shape[0])
            if want is not None:
                latent = (kernel(X) if return_cov else kernel.diag(X)).astype(float)
            y_mean, y_std = 0.0, 1.0
        mean = mean * y_std + y_mean
        if want is None:
            return mean
        return mean, self._predictive_spread(latent, return_cov, include_noise, y_std)

    def _predictive_spread(self, latent, cov: bool, include_noise: bool, y_std):
        """Clamp, add the noise term to and un-normalize a latent (co)variance.

        Every backend returns its latent variance (or covariance) in
        normalized units and gets the same post-processing here, so
        ``return_std`` and ``sqrt(diag(return_cov))`` agree across backends.
        """
        var = np.einsum("ii->i", latent) if cov else latent  # writable view
        if np.any(var < 0):
            # Numerically tiny negatives are expected; anything sizable is a
            # bug.  Clamping the covariance diagonal too keeps
            # sqrt(diag(cov)) downstream free of NaN.
            if np.min(var) < -1e-6:
                warnings.warn(
                    f"predicted variance clipped from {np.min(var):.3e}",
                    RuntimeWarning,
                    stacklevel=3,
                )
            np.maximum(var, 0.0, out=var)
        if include_noise:
            var += self.noise_variance_
        if cov:
            return latent * y_std**2
        return np.sqrt(var) * y_std

    def predict_gradient(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Analytic gradients of the predictive mean and std at one point.

        Returns ``(d_mean, d_std)``, each of shape ``(d,)`` in the units of
        the (normalization-undone) targets.  Enables the gradient-based
        continuous-domain candidate optimization the paper's Section VI
        calls for.  ``d_std`` is the gradient of the *observation* SD
        (latent variance + noise), matching ``predict(include_noise=True)``.

        Raises
        ------
        RuntimeError
            If the model is not fitted.
        NotImplementedError
            If the kernel lacks input-space gradients.
        """
        if self._afit is not None:
            raise NotImplementedError(
                "predict_gradient requires the exact solver; approximate "
                f"backend {self._afit.backend!r} does not expose posterior "
                "input-space gradients"
            )
        if self._fit is None:
            raise RuntimeError("model is not fitted")
        fit = self._fit
        kernel = self.kernel_
        assert kernel is not None
        x = np.asarray(x, dtype=float).ravel()
        if x.shape != (fit.X.shape[1],):
            raise ValueError(
                f"x has shape {x.shape}, expected ({fit.X.shape[1]},)"
            )
        xq = x[np.newaxis, :]
        k_star = kernel(xq, fit.X)[0]  # (n,)
        J = kernel.gradient_x(x, fit.X)  # (n, d)

        d_mean = J.T @ fit.alpha * fit.y_std

        # var(x) = k(x,x) - k_*^T K_y^{-1} k_* (+ sigma_n^2); k(x,x) is
        # constant for stationary kernels, so d var/dx = -2 J^T (K_y^{-1} k_*).
        K_inv_k = cho_solve((fit.L, True), k_star, check_finite=False)
        var = float(kernel.diag(xq)[0] - k_star @ K_inv_k)
        var = max(var, 0.0) + self.noise_variance_
        d_var = -2.0 * (J.T @ K_inv_k)
        d_std = d_var / (2.0 * math.sqrt(max(var, 1e-300))) * fit.y_std
        return d_mean, d_std

    def sample_y(self, X, n_samples: int = 1, rng=None) -> np.ndarray:
        """Draw samples from the posterior predictive at ``X``.

        Returns an array of shape ``(len(X), n_samples)``.  Uses the latent
        covariance plus noise on the diagonal (observation samples).

        The Cholesky regularizer is *relative* to the covariance's own
        scale: with ``normalize_y`` the covariance carries a ``y_std**2``
        factor, and a fixed absolute jitter (the old ``1e-12``) is
        rounded away entirely for large-magnitude targets
        (``y_std ~ 1e6`` means ``cov + 1e-12`` == ``cov`` in float64).
        The jitter escalates by 10x up to a bounded cap before the
        factorization error propagates.
        """
        if n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        rng = np.random.default_rng(rng if rng is not None else self.rng)
        mean, cov = self.predict(X, return_cov=True)
        # Relative scale: mean diagonal magnitude, floored so an all-zero
        # covariance (interpolating noise-free fit) still gets a nudge.
        scale = max(float(np.mean(np.diag(cov))), np.finfo(float).tiny)
        eye = np.eye(cov.shape[0])
        jitter = 1e-12 * scale
        for attempt in range(7):
            try:
                return rng.multivariate_normal(
                    mean, cov + jitter * eye, size=n_samples, method="cholesky"
                ).T
            except np.linalg.LinAlgError:
                if attempt == 6:
                    raise
                jitter *= 10.0
        raise AssertionError("unreachable")

    # ------------------------------------------------------------------- misc

    @property
    def lml_(self) -> float:
        """LML of the fitted model at its optimized hyperparameters.

        For approximate solver fits this is the backend's approximate
        marginal likelihood (DTC), not the exact one.
        """
        if self._afit is not None:
            return self._afit.lml
        if self._fit is None:
            raise RuntimeError("model is not fitted")
        return self._fit.lml

    @property
    def noise_alpha_(self) -> np.ndarray | None:
        """Per-point noise variances of the current fit (original y units).

        ``None`` for scalar-noise fits, approximate-solver fits and
        unfitted models — absence implies the homoscedastic path.
        """
        if self._fit is None:
            return None
        return self._fit.noise_alpha

    @property
    def n_train_(self) -> int:
        """Training-set size, available for every backend (even restored)."""
        if self._afit is not None:
            return self._afit.n_train
        if self._fit is None:
            raise RuntimeError("model is not fitted")
        return self._fit.X.shape[0]

    @property
    def X_train_(self) -> np.ndarray:
        """Training design matrix (after coercion to 2-D float64)."""
        if self._afit is not None:
            if self._afit.X is None:
                raise RuntimeError(
                    "training set unavailable: approximate models restored "
                    "from a serialized payload keep only the posterior "
                    "factors (use n_train_ for the size)"
                )
            return self._afit.X
        if self._fit is None:
            raise RuntimeError("model is not fitted")
        return self._fit.X

    @property
    def y_train_(self) -> np.ndarray:
        """Training targets in original (unnormalized) units."""
        if self._afit is not None:
            if self._afit.y is None:
                raise RuntimeError(
                    "training targets unavailable: approximate models "
                    "restored from a serialized payload keep only the "
                    "posterior factors"
                )
            return self._afit.y * self._afit.y_std + self._afit.y_mean
        if self._fit is None:
            raise RuntimeError("model is not fitted")
        return self._fit.y * self._fit.y_std + self._fit.y_mean

    def __repr__(self) -> str:
        kern = self.kernel_ if self.kernel_ is not None else self.kernel
        solver = "" if self.solver.name == "exact" else f", solver={self.solver.name!r}"
        return (
            f"GaussianProcessRegressor(kernel={kern!r}, "
            f"noise_variance={self.noise_variance_:.3g}, "
            f"bounds={self.noise_variance_bounds}{solver})"
        )

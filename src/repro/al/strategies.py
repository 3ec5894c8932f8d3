"""Experiment-selection strategies.

The two strategies the paper develops (Section V-B):

* :class:`VarianceReduction` — pick the pool point with the largest
  predictive standard deviation;
* :class:`CostEfficiency` — pick the point maximizing
  ``sigma_f(x) - mu_f(x)`` (Eq. 14), which in the paper's log-transformed
  response space is the variance/cost ratio: the response *is* the cost
  (runtime), so subtracting the predicted log cost divides by the expected
  cost in linear space.

Plus two baselines for comparison benches:

* :class:`RandomSampling` — uniform choice (classical random design);
* :class:`EMCM` — Expected Model Change Maximization of Cai et al. (the
  paper's Section III starting point, Eq. 1), realized with a bootstrap
  ensemble of GP posterior means.

And the paper's Section VI future-work extension:

* :func:`select_batch` — greedy batch selection with variance
  re-estimation ("kriging believer") for scheduling several experiments in
  parallel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gp.gpr import GaussianProcessRegressor
from .pool import CandidatePool

__all__ = [
    "Strategy",
    "VarianceReduction",
    "CostEfficiency",
    "CostModelEfficiency",
    "RandomSampling",
    "EMCM",
    "select_batch",
]


class Strategy:
    """Base class: scores available pool records; highest score is selected.

    Exact score ties are broken *randomly* via a strategy-owned RNG (seeded
    from the strategy's ``seed`` field when it has one).  ``np.argmax``
    would deterministically favour low pool indices — on the seed iteration
    of an AL run the prior is constant, *every* score ties, and every run's
    first query would be record 0, i.e. dataset order would silently leak
    into the design.

    After :meth:`select`, :attr:`last_selected_sd` holds the predictive SD
    at the chosen record when the strategy already computed pool SDs for its
    scores (``None`` otherwise), so callers need not re-predict it.

    ``select(model, pool, pool_sd=...)`` hands over the predictive SD at
    every pool record when the caller already has it (the learner's
    Active-set pass, from which AMSD is computed); strategies that score by
    the model's SD slice it at the available records instead of predicting
    them again (:meth:`_available_sd`).
    """

    #: human-readable name used in experiment outputs
    name: str = "strategy"
    #: predictive SD at the last selected record, when scores() computed it
    last_selected_sd: float | None = None

    def scores(
        self,
        model: GaussianProcessRegressor,
        pool: CandidatePool,
        pool_sd: np.ndarray | None = None,
    ) -> np.ndarray:
        """Score each *available* pool record (shape ``(n_available,)``).

        ``pool_sd`` is the pass :meth:`select` was given, or ``None``.
        """
        raise NotImplementedError

    @staticmethod
    def _available_sd(model, pool: CandidatePool, pool_sd) -> np.ndarray:
        """Predictive SD at the available records, sliced from ``pool_sd``.

        Without a pass, or with a single available record, the records are
        predicted here: the SD of a one-row prediction is not a bitwise
        slice of a larger pass (a one-column triangular solve takes another
        BLAS path), while every subset of two or more rows is.
        """
        avail = pool.available_indices()
        if pool_sd is None or avail.size < 2:
            return model.predict(pool.available_X(), return_std=True)[1]
        return pool_sd[avail]

    def _tie_rng(self) -> np.random.Generator:
        if getattr(self, "_tie_rng_", None) is None:
            self._tie_rng_ = np.random.default_rng(getattr(self, "seed", 0))
        return self._tie_rng_

    def generators(self) -> dict:
        """Named RNGs for checkpoints: ``tie`` breaks, ``rng`` samples (or None)."""
        return {"tie": self._tie_rng(), "rng": getattr(self, "_rng", None)}

    def with_seed(self, seed: int) -> "Strategy":
        """Fresh copy of this strategy re-seeded with ``seed``.

        Sharded campaigns give every shard its own strategy instance so
        local RNG streams (tie-breaks, random scores, bootstrap resamples)
        stay independent of shard scheduling.  For dataclass strategies
        with a ``seed`` field this re-runs ``__post_init__`` via
        :func:`dataclasses.replace`, resetting any derived RNG state; other
        strategies fall back to a deep copy with ``seed`` assigned.
        """
        import copy
        import dataclasses

        if dataclasses.is_dataclass(self) and any(
            f.name == "seed" for f in dataclasses.fields(self)
        ):
            return dataclasses.replace(self, seed=int(seed))
        clone = copy.deepcopy(self)
        clone.seed = int(seed)
        clone._tie_rng_ = None
        return clone

    def select(
        self,
        model: GaussianProcessRegressor,
        pool: CandidatePool,
        *,
        pool_sd: np.ndarray | None = None,
    ) -> int:
        """Pool-local index of the chosen record.

        ``pool_sd`` is the predictive SD of ``model`` at every pool record
        (``pool.X``, consumed ones included), if the caller predicted it.
        """
        if pool.exhausted:
            raise ValueError("candidate pool is exhausted")
        if pool_sd is not None and np.shape(pool_sd) != (pool.n_total,):
            raise ValueError(
                f"pool_sd shape {np.shape(pool_sd)} does not match "
                f"{pool.n_total} pool records"
            )
        self._last_sd: np.ndarray | None = None
        scores = np.asarray(self.scores(model, pool, pool_sd), dtype=float)
        avail = pool.available_indices()
        if scores.shape != (avail.size,):
            raise ValueError(
                f"scores shape {scores.shape} does not match "
                f"{avail.size} available records"
            )
        ties = np.flatnonzero(scores == np.max(scores))
        if ties.size > 1:
            pos = int(self._tie_rng().choice(ties))
        elif ties.size == 1:
            pos = int(ties[0])
        else:  # all-NaN scores: keep argmax's legacy behaviour
            pos = int(np.argmax(scores))
        sd = self._last_sd
        self.last_selected_sd = float(sd[pos]) if sd is not None else None
        return int(avail[pos])


@dataclass
class VarianceReduction(Strategy):
    """Pure uncertainty sampling: ``argmax sigma_f(x)`` over the pool."""

    seed: int = 0
    name: str = "variance-reduction"

    def scores(self, model, pool, pool_sd=None):
        """Predictive SD at every available record."""
        sd = self._available_sd(model, pool, pool_sd)
        self._last_sd = sd
        return sd


@dataclass
class CostEfficiency(Strategy):
    """The paper's cost-aware criterion: ``argmax (sigma - cost_weight * mu)``.

    With log-transformed responses and the response itself acting as the
    experiment cost (runtime, or energy), ``sigma - mu`` ranks points by
    predicted-uncertainty per unit predicted cost.  ``cost_weight`` (1.0 in
    the paper) lets ablations slide between pure variance reduction (0.0)
    and aggressive cost avoidance (> 1).
    """

    cost_weight: float = 1.0
    seed: int = 0
    name: str = "cost-efficiency"

    def scores(self, model, pool, pool_sd=None):
        """Eq. 14 score ``sigma - cost_weight * mu`` per available record.

        Always predicts on its own: the mean of a subset may differ from a
        slice of a larger pass in its last bits.
        """
        mu, sd = model.predict(pool.available_X(), return_std=True)
        self._last_sd = sd
        return sd - self.cost_weight * mu


@dataclass
class CostModelEfficiency(Strategy):
    """Cost-aware selection with a *separate* cost model.

    The paper's Eq. 14 assumes the modeled response *is* the experiment
    cost (true for runtime).  When modeling other responses — energy,
    memory — the completion time is still the cost, so this strategy scores

        sigma_response(x) - cost_weight * mu_cost(x)

    using a second regressor fitted on log cost.  The paper anticipates
    exactly this ambiguity: "it may not be entirely clear how to define the
    cost in many other application domains".

    Parameters
    ----------
    cost_model:
        A :class:`GaussianProcessRegressor` predicting log10 cost at pool
        inputs.  With ``auto_refit=True`` (default) it is refreshed by
        :meth:`refit_cost_model`, which :class:`repro.al.learner.ActiveLearner`
        calls on the same cadence as the primary-model refits — historically
        nothing refitted it and its predictions went stale as the pool
        drained.  ``None`` lazily builds a default regressor on the first
        refit.  With ``auto_refit=False`` the caller owns its lifecycle and
        must supply it already fitted.
    """

    cost_model: GaussianProcessRegressor | None = None
    cost_weight: float = 1.0
    seed: int = 0
    auto_refit: bool = True
    name: str = "cost-model-efficiency"

    #: Floor applied to observed costs before log10 (a zero-cost record
    #: would otherwise produce -inf training targets).
    _COST_FLOOR = 1e-12

    def refit_cost_model(self, X: np.ndarray, costs: np.ndarray) -> None:
        """Refit the cost model on the costs observed so far.

        ``X`` are the input rows whose experiment costs are known (the
        consumed records plus the initial partition) and ``costs`` the
        matching costs in linear units; the model is fitted on
        ``log10(costs)``.  Called by the learner loop right after every
        full refit of the primary model, so the two models never drift out
        of sync.  A ``None`` ``cost_model`` is replaced by a default
        normalized GPR.
        """
        X = np.asarray(X, dtype=float)
        costs = np.asarray(costs, dtype=float)
        if self.cost_model is None:
            self.cost_model = GaussianProcessRegressor(
                noise_variance_bounds=(1e-6, 1e3), normalize_y=True, rng=self.seed
            )
        log_costs = np.log10(np.maximum(costs, self._COST_FLOOR))
        self.cost_model.fit(X, log_costs)

    def scores(self, model, pool, pool_sd=None):
        """``sigma_response - cost_weight * mu_cost`` per available record."""
        if self.cost_model is None or not self.cost_model.fitted:
            raise ValueError(
                "CostModelEfficiency requires a fitted cost_model"
                + (
                    " — run it inside ActiveLearner (which refits it on the "
                    "primary model's cadence) or call refit_cost_model()"
                    if self.auto_refit
                    else ""
                )
            )
        sd = self._available_sd(model, pool, pool_sd)
        mu_cost = self.cost_model.predict(pool.available_X())
        self._last_sd = sd
        return sd - self.cost_weight * mu_cost


@dataclass
class RandomSampling(Strategy):
    """Uniformly random selection — the static-design baseline."""

    seed: int = 0
    name: str = "random"

    def __post_init__(self):
        self._rng = np.random.default_rng(self.seed)

    def scores(self, model, pool, pool_sd=None):
        """Uniform random scores (argmax = uniform draw)."""
        # Random scores -> argmax is a uniform draw.
        return self._rng.random(pool.n_available)


@dataclass
class EMCM(Strategy):
    """Expected Model Change Maximization (Cai et al. 2013), GP flavour.

    Scores ``x`` by the mean absolute disagreement between the primary
    model's prediction and ``n_members`` bootstrap replicas (Eq. 1 of the
    paper, with the gradient factor dropped as appropriate for nonlinear
    models).  Replicas reuse the primary model's hyperparameters — the
    Monte-Carlo variance estimate is the point, not model selection.

    With ``fast=True`` (default) the bootstrap ensemble persists between
    calls and is maintained *online* (Oza & Russell 2001): each training row
    the primary model gained since the last call enters each member's
    resample ``Poisson(1)`` times via an O(n^2) rank-1 posterior update,
    instead of refitting every member's O(n^3) Cholesky from scratch.  The
    ensemble is rebuilt cold whenever the primary model's hyperparameters
    change (a hyperparameter refit) or its training set shrank.  With
    ``fast=False`` every call draws a fresh bootstrap, matching the
    historical behaviour exactly.
    """

    n_members: int = 4
    seed: int = 0
    fast: bool = True
    name: str = "emcm"

    def __post_init__(self):
        self._rng = np.random.default_rng(self.seed)
        self._members: list[GaussianProcessRegressor] | None = None
        self._seen_n = 0
        self._member_theta: tuple | None = None

    @staticmethod
    def _theta_key(model: GaussianProcessRegressor) -> tuple:
        return (tuple(model.kernel_.theta.tolist()), float(model.noise_variance_))

    def _build_members(self, model: GaussianProcessRegressor) -> None:
        X_train = model.X_train_
        y_train = model.y_train_
        n = X_train.shape[0]
        members = []
        for _ in range(self.n_members):
            idx = self._rng.integers(0, n, size=n)
            member = GaussianProcessRegressor(
                kernel=model.kernel_,
                noise_variance=model.noise_variance_,
                noise_variance_bounds="fixed",
                optimizer=None,
                rng=self._rng,
            )
            member.fit(X_train[idx], y_train[idx])
            members.append(member)
        self._members = members
        self._seen_n = n
        self._member_theta = self._theta_key(model)

    def _advance_members(self, model: GaussianProcessRegressor) -> None:
        """Fold rows the primary model gained since the last call into the
        persistent ensemble (online bootstrap, rank-1 updates)."""
        X_new = model.X_train_[self._seen_n :]
        y_new = model.y_train_[self._seen_n :]
        assert self._members is not None
        for x_row, y_val in zip(X_new, y_new):
            for member in self._members:
                for _ in range(int(self._rng.poisson(1.0))):
                    member.update(x_row[np.newaxis, :], y_val)
        self._seen_n = model.X_train_.shape[0]

    def scores(self, model, pool, pool_sd=None):
        """Mean |f(x) - f_k(x)| over the bootstrap ensemble."""
        if not model.fitted:
            raise ValueError("EMCM requires a fitted primary model")
        X_cand = pool.available_X()
        f_main = model.predict(X_cand)
        if not self.fast:
            X_train = model.X_train_
            y_train = model.y_train_
            n = X_train.shape[0]
            disagreement = np.zeros(X_cand.shape[0])
            for _ in range(self.n_members):
                idx = self._rng.integers(0, n, size=n)
                member = GaussianProcessRegressor(
                    kernel=model.kernel_,
                    noise_variance=model.noise_variance_,
                    noise_variance_bounds="fixed",
                    optimizer=None,
                    rng=self._rng,
                )
                member.fit(X_train[idx], y_train[idx])
                disagreement += np.abs(f_main - member.predict(X_cand))
            return disagreement / self.n_members

        n = model.X_train_.shape[0]
        if (
            self._members is None
            or self._member_theta != self._theta_key(model)
            or n < self._seen_n
        ):
            self._build_members(model)
        elif n > self._seen_n:
            self._advance_members(model)
        disagreement = np.zeros(X_cand.shape[0])
        for member in self._members:
            disagreement += np.abs(f_main - member.predict(X_cand))
        return disagreement / self.n_members


def select_batch(
    model: GaussianProcessRegressor,
    pool: CandidatePool,
    strategy: Strategy,
    batch_size: int,
    *,
    fast: bool = True,
) -> list[int]:
    """Greedy batch selection with variance re-estimation.

    Selects ``batch_size`` distinct pool records for parallel execution:
    after each pick the model is conditioned on the pick's *predicted* mean
    (the "kriging believer" trick), so the shrunken variance steers later
    picks away from the first pick's neighbourhood.  This implements the
    parallel-experiment extension the paper sketches in Section VI.

    With ``fast=True`` (default) the believer chain extends one cloned
    posterior via rank-1 Cholesky updates — O(n^2) per pick instead of a
    fresh O(n^3) fit — which is exact up to numerical jitter.
    ``fast=False`` keeps the historical refit-per-pick path for comparison.

    The passed ``model`` is not modified; the pool *is* consumed.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if batch_size > pool.n_available:
        raise ValueError(
            f"batch of {batch_size} exceeds {pool.n_available} available records"
        )
    picks: list[int] = []
    if fast:
        believer = model.clone_fitted()
        for _ in range(batch_size):
            idx = strategy.select(believer, pool)
            picks.append(idx)
            x, _, _ = pool.consume(idx)
            y_hat = float(believer.predict(x[np.newaxis, :])[0])
            believer.update(x[np.newaxis, :], y_hat)
        return picks
    X_train = model.X_train_
    y_train = model.y_train_
    believer = model
    for _ in range(batch_size):
        idx = strategy.select(believer, pool)
        picks.append(idx)
        x, _, _ = pool.consume(idx)
        y_hat = float(believer.predict(x[np.newaxis, :])[0])
        X_train = np.vstack([X_train, x])
        y_train = np.append(y_train, y_hat)
        believer = GaussianProcessRegressor(
            kernel=model.kernel_,
            noise_variance=model.noise_variance_,
            noise_variance_bounds="fixed",
            optimizer=None,
            rng=0,
        )
        believer.fit(X_train, y_train)
    return picks

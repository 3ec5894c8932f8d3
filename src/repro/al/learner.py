"""The active-learning loop: fit GPR, select, query, update.

One :class:`ActiveLearner` realizes the paper's prototype on one dataset
partition: seeded with the Initial set, it repeatedly fits the GPR, records
the convergence metrics, asks the strategy for the next experiment from the
Active pool, and adds the measured outcome to the training set.  The full
history comes back as an :class:`ALTrace` — the raw material of Figs. 6-8.
``run(checkpoint_path=)`` checkpoints after every iteration through the
shared codec (:mod:`repro.al.session`), and :meth:`ActiveLearner.resume`
continues a killed run bit-identically.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .. import telemetry as tm
from ..gp.gpr import GaussianProcessRegressor
from ..gp.solvers import resolve_solver
from .guardrails import ModelChain
from .metrics import evaluate_model
from .partition import Partition
from .pool import CandidatePool
from .session import (
    capture_generators,
    dataset_digest,
    read_checkpoint,
    restore_generators,
    write_json_atomic,
)
from .strategies import Strategy

__all__ = ["IterationRecord", "ALTrace", "ActiveLearner", "default_model_factory"]

_CHECKPOINT_VERSION = 1
_CHECKPOINT_KIND = "learner checkpoint"


class _DefaultModelFactory:
    """Zero-argument factory for the paper's robust GPR settings.

    A class rather than a closure so factories pickle — process-backend
    :func:`repro.al.runner.run_batch` ships the factory to pool workers.
    """

    __slots__ = ("noise_floor", "upper", "solver")

    def __init__(self, noise_floor: float, upper: float, solver="exact"):
        self.noise_floor = noise_floor
        self.upper = upper
        self.solver = solver

    def __call__(self) -> GaussianProcessRegressor:
        return GaussianProcessRegressor(
            noise_variance=max(1e-2, self.noise_floor),
            noise_variance_bounds=(self.noise_floor, self.upper),
            n_restarts=2,
            rng=0,
            solver=self.solver,
        )


def default_model_factory(
    noise_floor: float = 1e-1, solver="exact"
) -> Callable[[], GaussianProcessRegressor]:
    """Model factory with the paper's robust settings.

    ``noise_floor`` is the lower bound on the GPR noise variance — the
    paper's fix for early-iteration overfitting (Fig. 7b uses ``1e-1``).
    The upper bound widens with the floor (``max(1e3, 10 * noise_floor)``)
    so a large floor can never produce an inverted bounds interval.
    ``solver`` selects the GP solver backend (``"exact"``, ``"nystrom"``,
    ``"auto"``, or a :class:`repro.gp.SolverConfig` / dict) and
    is passed through to every model the factory builds.  The returned
    factory is picklable, so it works with every
    :class:`repro.parallel.ParallelMap` backend.
    """
    if not np.isfinite(noise_floor) or noise_floor <= 0:
        raise ValueError(
            f"noise_floor must be positive and finite, got {noise_floor}"
        )
    resolve_solver(solver)  # fail fast on typos, before workers spawn
    upper = max(1e3, 10.0 * noise_floor)
    return _DefaultModelFactory(noise_floor, upper, solver)


@dataclass(frozen=True)
class IterationRecord:
    """Metrics and bookkeeping of one AL iteration.

    ``iteration`` counts from 0 (the seed fit, before any selection).  The
    selection fields are the experiment chosen *at* this iteration;
    ``cumulative_cost`` includes it.
    """

    iteration: int
    n_train: int
    selected_pool_index: int
    x_selected: np.ndarray
    y_selected: float
    sd_at_selected: float
    cost: float
    cumulative_cost: float
    rmse: float
    amsd: float
    gmsd: float
    nlpd: float
    noise_variance: float
    lml: float
    #: Number of pool records consumed for this iteration's training row:
    #: 1 on the classic path, the repeat count under ``fuse_repeats`` (the
    #: co-located measurements are fused into one row; ``cost`` sums them
    #: and ``y_selected`` is the precision-weighted mean).
    n_fused: int = 1

    def payload(self) -> dict:
        """JSON-ready dict (floats round-trip exactly)."""
        return {**asdict(self), "x_selected": np.asarray(self.x_selected).tolist()}

    @classmethod
    def from_payload(cls, payload: dict) -> "IterationRecord":
        x = np.asarray(payload["x_selected"], dtype=float)
        return cls(**{**payload, "x_selected": x})


@dataclass
class ALTrace:
    """Complete history of one AL run on one partition."""

    strategy: str
    records: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def series(self, attribute: str) -> np.ndarray:
        """One attribute across iterations as an array."""
        return np.asarray([getattr(r, attribute) for r in self.records], dtype=float)

    @property
    def selected_points(self) -> np.ndarray:
        """Sequence of selected inputs, shape ``(n_iterations, d)``."""
        return np.asarray([r.x_selected for r in self.records])

    @property
    def final(self) -> IterationRecord:
        """The last recorded iteration."""
        if not self.records:
            raise ValueError("trace is empty")
        return self.records[-1]


class ActiveLearner:
    """Pool-based active learning with GPR on one dataset partition.

    Parameters
    ----------
    X, y:
        Full dataset (already log-transformed as desired).
    costs:
        Per-record experiment cost; the paper uses runtime x cores.
    partition:
        Initial/Active/Test index split.
    strategy:
        Selection strategy (see :mod:`repro.al.strategies`).
    model_factory:
        Zero-argument callable producing a fresh regressor per refit.
    noise_floor_schedule:
        Optional ``iteration -> noise variance floor`` callable implementing
        the paper's proposed dynamic limit (e.g.
        :func:`repro.al.stopping.dynamic_noise_floor`); overrides the
        factory's static bounds each refit iteration.  Requires numeric
        (scaled) ``noise_variance_bounds`` on the factory's models;
        combining it with ``"fixed"`` bounds raises a ``ValueError`` at the
        first refit (see the mirrored note on ``dynamic_noise_floor``).
    fast_refits:
        Keep the fitted model alive across iterations and fold newly
        queried points into its posterior with O(n^2) rank-1 Cholesky
        updates (:meth:`repro.gp.GaussianProcessRegressor.update`) on
        iterations where no hyperparameter refit is scheduled.  With the
        default ``refit_every=1`` every iteration still performs the full
        multi-restart hyperparameter search, so results are identical to
        the paper-faithful slow path; raise ``refit_every`` to amortize it.
    refit_every:
        Run the expensive multi-restart hyperparameter optimization every
        ``k`` iterations (iterations 0, k, 2k, ...); in between, the
        hyperparameters are held fixed and the posterior is extended
        incrementally.  Only meaningful with ``fast_refits=True``.
    warm_start:
        Start each scheduled hyperparameter refit from the previous
        optimum instead of the factory template (the random restarts still
        sample the full bounds box).  Only meaningful with
        ``fast_refits=True``.
    fuse_repeats:
        Consume *every* available repeat of the selected configuration in
        one iteration (``CandidatePool.consume_repeats``) and fuse the
        co-located measurements by inverse variance into a single training
        row with a per-point noise variance
        (``GaussianProcessRegressor.fit(alpha=...)``): a row fused from
        ``k`` repeats carries ``repeat_noise_variance / k``.  The
        iteration's ``cost`` is the summed cost of all consumed records —
        the experiments all ran — and ``y_selected`` is the fused mean.
        Incompatible with ``noise_floor_schedule``: the schedule floors the
        *shared* scalar noise, which would swamp the fused per-point
        precisions the whole mechanism exists to express (``ValueError``).
    repeat_noise_variance:
        Assumed measurement variance of one pool record (original response
        units) under ``fuse_repeats``.  The GP still learns its scalar
        residual noise on top, so this only has to capture the
        *per-measurement* scatter that averages away across repeats.
    guardrails:
        Optional :class:`repro.al.guardrails.GuardrailConfig` (or ``True``
        for the defaults).  Every full refit is then health-checked
        (condition number, pinned hyperparameters, per-point LML
        regression, LOOCV outlier rate); an unhealthy fit is rolled back
        to the last healthy model — re-materialized on the current
        training set — and the next refit runs with escalating remediation
        (:func:`repro.al.guardrails.apply_remediation`).  ``n_rollbacks``
        counts the interventions.
    registry:
        Optional :class:`~repro.serve.registry.ModelRegistry` (or a path
        to one).  Every full refit that survives the health gate is then
        published as a new registry version (annotated with the gate's
        report and the iteration number), so a
        :class:`~repro.serve.service.PredictionService` can hot-roll over
        to it while the learner keeps iterating.  Rollback iterations
        publish nothing — the served last-known-good is already in the
        registry.

    ``run(checkpoint_path=path)`` atomically rewrites a checkpoint after
    every iteration, and :meth:`resume` continues from it.  The checkpoint
    stores no dataset rows: it holds the stored config (strategy name,
    dataset digest and the refit/fusion options), the iteration target,
    the :class:`IterationRecord` history, the strategy's generators and the
    gate's :meth:`~repro.al.guardrails.FitGate.state`.
    """

    def __init__(
        self,
        X: np.ndarray,
        y: np.ndarray,
        costs: np.ndarray,
        partition: Partition,
        strategy: Strategy,
        *,
        model_factory: Callable[[], GaussianProcessRegressor] | None = None,
        noise_floor_schedule: Callable[[int], float] | None = None,
        fast_refits: bool = False,
        refit_every: int = 1,
        warm_start: bool = False,
        fuse_repeats: bool = False,
        repeat_noise_variance: float = 1e-2,
        guardrails=None,
        registry=None,
    ):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        costs = np.asarray(costs, dtype=float)
        if X.ndim != 2 or y.shape != (X.shape[0],) or costs.shape != y.shape:
            raise ValueError("X, y, costs must be consistent (n, d)/(n,)/(n,)")
        if partition.n_total != X.shape[0]:
            raise ValueError(
                f"partition covers {partition.n_total} records, dataset has {X.shape[0]}"
            )
        if refit_every < 1:
            raise ValueError("refit_every must be >= 1")
        if fuse_repeats and noise_floor_schedule is not None:
            raise ValueError(
                "fuse_repeats cannot be combined with noise_floor_schedule: "
                "the schedule raises the floor of the shared scalar noise, "
                "which would swamp the fused per-point precisions (a row "
                "fused from k repeats carries repeat_noise_variance/k); "
                "drop the schedule or fuse manually"
            )
        if fuse_repeats and (
            not np.isfinite(repeat_noise_variance) or repeat_noise_variance <= 0
        ):
            raise ValueError(
                f"repeat_noise_variance must be positive and finite, got "
                f"{repeat_noise_variance}"
            )
        self.strategy = strategy
        self.model_factory = model_factory or default_model_factory()
        self.noise_floor_schedule = noise_floor_schedule
        self.fast_refits = bool(fast_refits)
        self.refit_every = int(refit_every)
        self.warm_start = bool(warm_start)
        self.fuse_repeats = bool(fuse_repeats)
        self.repeat_noise_variance = float(repeat_noise_variance)

        self._chain = ModelChain(
            self.model_factory,
            guardrails=guardrails,
            registry=registry,
            refit_every=self.refit_every if self.fast_refits else None,
            warm_start=self.fast_refits and self.warm_start,
            prepare=(
                self._apply_noise_floor if noise_floor_schedule is not None else None
            ),
            counters="al.fit",
            index_name="iteration",
        )
        self.guardrails = self._chain.guardrails
        self.registry = self._chain.registry

        self._X_train = X[partition.initial].copy()
        self._y_train = y[partition.initial].copy()
        # Per-row noise variances (original units) when fusing repeats:
        # each seed row is a single measurement.
        self._alpha_train: np.ndarray | None = (
            np.full(self._X_train.shape[0], self.repeat_noise_variance)
            if self.fuse_repeats
            else None
        )
        # Inputs whose experiment costs are known (seed partition plus
        # every consumed record) — the training set of the strategy's cost
        # model, refreshed on the primary model's full-refit cadence.
        self._X_cost = X[partition.initial].copy()
        self._costs_known = costs[partition.initial].copy()
        self.pool = CandidatePool(
            X[partition.active], y[partition.active], costs[partition.active]
        )
        self._X_test = X[partition.test]
        self._y_test = y[partition.test]
        self._cumulative_cost = 0.0
        self.trace = ALTrace(strategy=strategy.name)
        # Digested on the first checkpoint only (unsaved runs skip the hash),
        # from the partitioned rows the learner keeps anyway.
        self._n_initial = partition.initial.size
        self._dataset_hash: str | None = None

    # ------------------------------------------------------------------- state

    @property
    def n_train(self) -> int:
        """Current training-set size (seed + queried experiments)."""
        return self._X_train.shape[0]

    @property
    def cumulative_cost(self) -> float:
        """Total cost of all experiments queried so far."""
        return self._cumulative_cost

    @property
    def n_rollbacks(self) -> int:
        """Unhealthy refits rolled back to the last healthy model so far."""
        return self._chain.gate.tallies.n_rollbacks

    @property
    def model(self) -> GaussianProcessRegressor | None:
        """The model of the latest iteration (``None`` before the first)."""
        return self._chain.model

    def _apply_noise_floor(self, model, iteration: int) -> None:
        """Raise ``model``'s noise floor to the schedule's value before a refit."""
        floor = float(self.noise_floor_schedule(iteration))
        if floor <= 0:
            raise ValueError("noise floor schedule must return positive values")
        bounds = model.noise_variance_bounds
        if isinstance(bounds, str):
            # bounds == "fixed": silently replacing it with (floor, high)
            # would un-fix the noise variance behind the caller's back.
            raise ValueError(
                "noise_floor_schedule cannot be combined with "
                "noise_variance_bounds='fixed': the schedule would "
                "replace the fixed bound and re-enable noise "
                "optimization; use numeric bounds or drop the schedule"
            )
        model.noise_variance_bounds = (floor, max(bounds[1], floor * 10))
        model.noise_variance = max(model.noise_variance, floor)

    def _advance(self, iteration: int, *, replay: bool = False):
        """The iteration's model (``None`` on a slow replay); refits a cost model."""
        strategy = self.strategy
        if (
            self._chain.full_fit_due(iteration)
            and getattr(strategy, "auto_refit", False)
            and hasattr(strategy, "refit_cost_model")
        ):
            strategy.refit_cost_model(self._X_cost, self._costs_known)
            if not replay:
                tm.count("al.cost_model.refit")
        if replay and not self.fast_refits:
            return None  # every slow-path iteration refits from scratch
        return self._chain.step(
            iteration,
            self._X_train,
            self._y_train,
            self._alpha_train,
            extra={"strategy": self.strategy.name, "iteration": iteration},
            replay=replay,
        )

    def _ingest(self, idx: int) -> tuple[np.ndarray, float, float, int]:
        """Move pool record ``idx`` into the training set.

        Under ``fuse_repeats`` every available repeat of it is consumed and
        fused into one row.  Returns ``(x, y, cost, n_records)``.  Shared by
        :meth:`step` and the replay of :meth:`resume`.
        """
        if self.fuse_repeats:
            consumed = self.pool.consume_repeats(idx)
            x = consumed[0][0]
            # Equal per-record variances: the precision-weighted mean is
            # the arithmetic mean and the fused variance divides by k.
            y_meas = float(np.mean([y_i for _, y_i, _ in consumed]))
            cost = float(sum(c_i for _, _, c_i in consumed))
            self._alpha_train = np.append(
                self._alpha_train, self.repeat_noise_variance / len(consumed)
            )
        else:
            x, y_meas, cost = self.pool.consume(idx)
            consumed = [(x, y_meas, cost)]
        self._X_train = np.vstack([self._X_train, x])
        self._y_train = np.append(self._y_train, y_meas)
        self._cumulative_cost += cost
        for x_i, _, c_i in consumed:
            self._X_cost = np.vstack([self._X_cost, x_i])
            self._costs_known = np.append(self._costs_known, c_i)
        return x, y_meas, cost, len(consumed)

    # -------------------------------------------------------------------- loop

    def step(self) -> IterationRecord:
        """One AL iteration: fit, evaluate, select, query.

        Raises
        ------
        ValueError
            If the pool is exhausted.
        """
        if self.pool.exhausted:
            raise ValueError("candidate pool is exhausted")
        iteration = len(self.trace.records)
        with tm.span("iteration", index=iteration, n_train=self.n_train) as sp:
            model = self._advance(iteration)
            metrics = evaluate_model(model, self.pool.X, self._X_test, self._y_test)

            idx = self.strategy.select(model, self.pool)
            # Strategies that score with pool SDs expose the SD at the chosen
            # record; only strategies that don't (random, EMCM) cost an extra
            # single-point prediction here.
            sd_sel = self.strategy.last_selected_sd
            if sd_sel is None:
                x_sel = self.pool.X[idx]
                _, sd_arr = model.predict(x_sel[np.newaxis, :], return_std=True)
                sd_sel = float(sd_arr[0])
            x, y_meas, cost, n_fused = self._ingest(idx)
            if self.fuse_repeats:
                tm.count("al.fuse.records", n_fused)

            record = IterationRecord(
                iteration=iteration,
                n_train=self.n_train - 1,  # size used for this fit
                selected_pool_index=idx,
                x_selected=x.copy(),
                y_selected=y_meas,
                sd_at_selected=float(sd_sel),
                cost=cost,
                cumulative_cost=self._cumulative_cost,
                rmse=metrics["rmse"],
                amsd=metrics["amsd"],
                gmsd=metrics["gmsd"],
                nlpd=metrics["nlpd"],
                noise_variance=model.noise_variance_,
                lml=model.lml_,
                n_fused=n_fused,
            )
            self.trace.records.append(record)
            if tm.enabled():
                tm.gauge_set("al.pool_size", self.pool.n_available)
                tm.event(
                    "al.iteration",
                    iteration=iteration,
                    n_train=record.n_train,
                    rmse=record.rmse,
                    amsd=record.amsd,
                    gmsd=record.gmsd,
                    nlpd=record.nlpd,
                    sd_at_selected=record.sd_at_selected,
                    noise_variance=record.noise_variance,
                    lml=record.lml,
                    cumulative_cost=record.cumulative_cost,
                )
                sp.set(rmse=record.rmse, amsd=record.amsd)
        return record

    def run(
        self, n_iterations: int | None = None, *, checkpoint_path=None
    ) -> ALTrace:
        """Run AL for ``n_iterations`` (default: until the pool is empty).

        With ``checkpoint_path`` a checkpoint is atomically rewritten after
        every iteration; :meth:`resume` continues a killed run from it.
        """
        if n_iterations is None:
            n_iterations = self.pool.n_available
        if n_iterations < 0:
            raise ValueError("n_iterations must be >= 0")
        target = len(self.trace) + min(n_iterations, self.pool.n_available)
        return self._run_to(target, checkpoint_path)

    def resume(self, path) -> ALTrace:
        """Continue a checkpointed run to its iteration target, bit-identically.

        Call on a *freshly constructed* learner with the same dataset,
        partition, strategy and options (the stored config is checked).
        Every recorded selection is re-ingested from the dataset, never
        re-measured.  Under ``fast_refits`` each recorded fit step is re-run
        through the model chain and the gate before the saved gate state is
        loaded, so guarded runs resume bit-identically too.  What restarts
        cold: the slow path's last-known-good snapshot (its fits are not
        replayed) and ``EMCM``'s persistent bootstrap ensemble; such runs
        resume correctly rather than bit-identically.  Checkpointing
        continues into ``path``.
        """
        if self.trace.records:
            raise RuntimeError("resume() requires a freshly constructed learner")
        payload = read_checkpoint(
            path, _CHECKPOINT_KIND, _CHECKPOINT_VERSION, expect=self._checkpoint_config()
        )
        for record in map(IterationRecord.from_payload, payload["records"]):
            self._advance(record.iteration, replay=True)
            self._ingest(record.selected_pool_index)
            self.trace.records.append(record)
        restore_generators(self.strategy.generators(), payload["generators"])
        self._chain.gate.load_state(payload["gate"])
        return self._run_to(int(payload["target"]), path)

    def _run_to(self, target: int, checkpoint_path) -> ALTrace:
        # fuse_repeats consumes several records per step, so the pool can
        # drain before the target is reached.
        while len(self.trace) < target and not self.pool.exhausted:
            self.step()
            if checkpoint_path is not None:
                self._write_checkpoint(checkpoint_path, target)
        return self.trace

    # ----------------------------------------------------------- checkpoints

    def _checkpoint_config(self) -> dict:
        """Config values a checkpoint stores and a resume must match."""
        if self._dataset_hash is None:
            k = self._n_initial  # the training and cost rows only grow
            self._dataset_hash = dataset_digest(
                self._X_cost[:k], self._y_train[:k], self._costs_known[:k],
                self.pool.X, self.pool.y, self.pool.costs,
                self._X_test, self._y_test,
            )
        return {
            "strategy": self.strategy.name,
            "dataset_hash": self._dataset_hash,
            "fast_refits": self.fast_refits,
            "refit_every": self.refit_every,
            "warm_start": self.warm_start,
            "fuse_repeats": self.fuse_repeats,
            "repeat_noise_variance": self.repeat_noise_variance,
        }

    def _write_checkpoint(self, path, target: int) -> None:
        write_json_atomic(
            {
                "version": _CHECKPOINT_VERSION,
                **self._checkpoint_config(),
                "target": target,
                "records": [r.payload() for r in self.trace.records],
                "generators": capture_generators(self.strategy.generators()),
                "gate": self._chain.gate.state(),
            },
            path,
        )

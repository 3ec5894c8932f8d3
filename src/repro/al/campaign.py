"""Online AL campaigns with parallel experiment execution (paper §VI).

"As future work, some experiments could reasonably be run in parallel
which adds additional scheduling concerns and may indicate a less greedy
selection strategy."  This module implements that loop end to end on the
simulated testbed:

1. fit the GP on everything measured so far;
2. select a *batch* of candidate configurations (kriging-believer batch
   selection, so the batch is diverse);
3. submit the batch to the SLURM-like scheduler, which runs the jobs in
   parallel on the 4-node cluster (a real executor may actually solve the
   systems — see :class:`repro.al.oracle.HPGMGExecutor`);
4. fold the measured runtimes back into the training set and repeat.

The campaign tracks *simulated wall-clock* (scheduler makespan), so the
batch-size tradeoff the paper anticipates — larger batches finish sooner
but select less adaptively — becomes measurable
(``benchmarks/bench_ablation_campaign.py``).

Campaigns are **fault tolerant**.  Real clusters crash jobs, hang them past
the time limit, and occasionally hand back corrupted measurements (inject
them with :class:`repro.cluster.faults.FaultyExecutor`); an online campaign
must neither die nor train its GP on garbage.  Every submitted batch is
inspected record by record: failed/timed-out/unverified outcomes are
retried under a :class:`~repro.al.resilience.RetryPolicy` (with exponential
backoff charged to the simulated makespan) and gated out of the training
set by a :class:`~repro.al.resilience.QuarantinePolicy`; a whole-batch
failure leaves the model untouched and the campaign reselects next round.
Each round atomically checkpoints the full campaign state (JSON, same
machinery as :mod:`repro.al.session`), and :meth:`OnlineCampaign.resume`
continues a killed campaign bit-identically at the same seed.  A Cholesky
failure while refitting mid-campaign escalates the jitter and, as a last
resort, keeps the previous round's model alive.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .. import telemetry as tm
from ..cluster.breaker import AllNodesOpenError, BreakerConfig, NodeCircuitBreaker
from ..cluster.jobs import JobSpec
from ..cluster.machine import ClusterSpec, wisconsin_cluster
from ..cluster.scheduler import Executor, SlurmSimulator
from ..gp.gpr import GaussianProcessRegressor
from .guardrails import DriftDetector, GuardrailConfig, GuardrailTallies, ModelChain
from .learner import default_model_factory
from .pool import CandidatePool
from .resilience import FailureAccounting, QuarantinePolicy, RetryPolicy
from .session import (
    capture_generators,
    read_checkpoint,
    restore_generators,
    write_json_atomic,
)
from .strategies import Strategy, VarianceReduction, select_batch

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "CampaignCheckpoint",
    "OnlineCampaign",
    "save_checkpoint",
    "load_checkpoint",
]

_CHECKPOINT_VERSION = 1
_CHECKPOINT_KIND = "campaign checkpoint"


@dataclass(frozen=True)
class CampaignConfig:
    """Candidate space and execution parameters of an online campaign.

    Attributes
    ----------
    operator:
        Operator flavour submitted for every job.
    candidates:
        Array of (problem_size, np_ranks, freq_ghz) rows — the finite
        candidate grid AL selects from.
    batch_size:
        Experiments submitted per AL round (1 = the paper's greedy loop).
    n_rounds:
        AL rounds to run.
    time_limit_seconds:
        SLURM time limit enforced on every job; hung jobs are killed (and
        recorded as ``TIMEOUT``) at this point.
    """

    operator: str
    candidates: np.ndarray
    batch_size: int = 1
    n_rounds: int = 10
    time_limit_seconds: float = 3600.0

    def __post_init__(self):
        cand = np.asarray(self.candidates, dtype=float)
        if cand.ndim != 2 or cand.shape[1] != 3:
            raise ValueError("candidates must have shape (n, 3)")
        if self.batch_size < 1 or self.n_rounds < 1:
            raise ValueError("batch_size and n_rounds must be >= 1")
        if self.time_limit_seconds <= 0:
            raise ValueError("time_limit_seconds must be positive")
        object.__setattr__(self, "candidates", cand)


@dataclass
class CampaignResult:
    """Outcome of an online campaign.

    Attributes
    ----------
    X / y:
        Measured configurations (log-transformed features) and log10
        runtimes, in measurement order.  Only observations that passed the
        quarantine gate are included.
    simulated_seconds:
        Total scheduler makespan across all rounds, including retry waves
        and their backoff delays (the wall-clock a real campaign would
        have spent).
    cpu_core_seconds:
        Total compute spent (runtime x ranks summed over jobs, including
        failed attempts).
    model:
        Final fitted regressor.
    rounds:
        Per-round dicts with ``n_jobs``, ``n_ok``, ``makespan`` and
        ``max_sd``.
    n_failed / n_retries / n_quarantined / wasted_core_seconds:
        Failure accounting: executions that ended FAILED/TIMEOUT,
        re-submissions performed, completed-but-gated observations, and
        the core-seconds that produced no usable observation.
    stop_reason:
        ``"completed"`` when every round ran; ``"watchdog"`` when a
        guardrail budget (wall-clock or core-seconds) ended the campaign
        early; ``"cluster_unavailable"`` when the node circuit breaker
        left pending jobs permanently unplaceable.  Early stops still
        return a best-effort result (final fit on everything measured).
    guardrails:
        :class:`~repro.al.guardrails.GuardrailTallies` of every guardrail
        intervention, or ``None`` when the campaign ran unguarded.
    """

    X: np.ndarray
    y: np.ndarray
    simulated_seconds: float
    cpu_core_seconds: float
    model: GaussianProcessRegressor
    rounds: list = field(default_factory=list)
    n_failed: int = 0
    n_retries: int = 0
    n_quarantined: int = 0
    wasted_core_seconds: float = 0.0
    stop_reason: str = "completed"
    guardrails: GuardrailTallies | None = None
    #: per-shard availability report from sharded campaigns (see
    #: :mod:`repro.al.sharding`); ``None`` for unsharded campaigns
    shard_availability: dict | None = None


@dataclass
class CampaignCheckpoint:
    """Serializable snapshot of an in-progress online campaign.

    Stored as a single JSON document through the checkpoint codec of
    :mod:`repro.al.session`; everything needed to continue the campaign
    bit-identically is captured, including the campaign RNG state (and the
    executor's and strategy's tie-break and sampling RNG states).  A resume
    rebuilds the model and the gate's snapshot by replaying ``fit_counts``.
    """

    version: int
    operator: str
    batch_size: int
    n_rounds: int
    time_limit_seconds: float
    seed_index: int
    candidates: list
    next_round: int
    measured_X: list
    measured_y: list
    fit_counts: list  # measured-point count at each completed round's fit (0 = no fit)
    rounds: list
    simulated_seconds: float
    cpu_core_seconds: float
    n_failed: int
    n_retries: int
    n_quarantined: int
    wasted_core_seconds: float
    rng_state: dict
    executor_rng_state: dict | None = None
    strategy_rng_state: dict | None = None
    strategy_sampling_rng_state: dict | None = None
    # Guardrail bookkeeping (None for unguarded campaigns and pre-guardrail
    # checkpoints): tallies, escalation level, reference LML, stop reason.
    # Loaded after the fit replay.  The drift detector and the node
    # breaker restart cold on resume (see docs/GUARDRAILS.md).
    guardrail_state: dict | None = None


def save_checkpoint(checkpoint: CampaignCheckpoint, path) -> Path:
    """Atomically write a campaign checkpoint to a JSON file."""
    return write_json_atomic(asdict(checkpoint), path)


def load_checkpoint(path) -> CampaignCheckpoint:
    """Read a checkpoint previously written by :func:`save_checkpoint`."""
    return CampaignCheckpoint(
        **read_checkpoint(path, _CHECKPOINT_KIND, _CHECKPOINT_VERSION)
    )


def _features(rows: np.ndarray) -> np.ndarray:
    """(size, np, freq) -> (log10 size, log2 np, freq)."""
    out = np.empty_like(rows, dtype=float)
    out[:, 0] = np.log10(rows[:, 0])
    out[:, 1] = np.log2(rows[:, 1])
    out[:, 2] = rows[:, 2]
    return out


@dataclass
class _BatchOutcome:
    """What one (possibly retried) batch submission produced."""

    accepted: dict[int, float]  # slot -> log10 runtime
    makespan: float
    core_seconds: float
    accounting: FailureAccounting


@dataclass
class _CampaignState:
    """Mutable in-memory campaign state (mirrors the checkpoint)."""

    seed_index: int
    next_round: int = 0
    measured_X: list = field(default_factory=list)
    measured_y: list = field(default_factory=list)
    fit_counts: list = field(default_factory=list)
    rounds: list = field(default_factory=list)
    total_makespan: float = 0.0
    total_core_seconds: float = 0.0
    accounting: FailureAccounting = field(default_factory=FailureAccounting)
    stop_reason: str = "completed"


class OnlineCampaign:
    """Drives AL rounds through the cluster simulator.

    Parameters
    ----------
    config:
        Candidate space and batching parameters.
    executor:
        Scheduler executor supplying job behaviour (analytic model, real
        solves, or either wrapped in a
        :class:`~repro.cluster.faults.FaultyExecutor`).
    cluster:
        Hardware description; defaults to the Wisconsin testbed.
    strategy:
        Per-pick selection strategy used inside the batch construction.
    rng:
        Campaign randomness: a seed or a ``numpy.random.Generator``
        (``default_rng(rng)`` either way).  A Generator is adopted *as
        is*, so never hand the same Generator object to two campaigns
        that may run concurrently — interleaved draws make both runs
        irreproducible.  Replicate fleets should derive one generator
        per campaign from ``SeedSequence.spawn`` children, which is
        exactly what :func:`repro.al.replicates.run_replicates` does.
    retry_policy:
        Re-submission schedule for failed/rejected experiments; defaults
        to 3 attempts with exponential backoff.  ``RetryPolicy.none()``
        disables retries.
    quarantine_policy:
        Gate deciding which observations may enter the training set;
        defaults to rejecting FAILED/TIMEOUT states and verification
        failures.  ``QuarantinePolicy.permissive()`` restores blind
        ingestion.
    fast_refits:
        Keep the round model alive and fold each measured batch into its
        posterior with rank-1 Cholesky updates, running the full
        hyperparameter search only every ``refit_every`` rounds (and for
        the final returned model).  The kriging-believer batch construction
        always uses the fast believer chain.
    refit_every:
        Rounds between full hyperparameter refits when ``fast_refits``.
    guardrails:
        ``None`` (default) runs unguarded.  A
        :class:`~repro.al.guardrails.GuardrailConfig` (or ``True`` for the
        defaults) enables post-fit health checks with last-known-good
        rollback and escalating remediation, Page-Hinkley drift detection
        on prediction residuals, and the wall-clock/cost watchdog.
        Guarded campaigns resume bit-identically: the resume replays every
        recorded fit through the gate.  The drift detector restarts cold on
        resume.
    breaker:
        ``None`` (default) schedules on all nodes.  A
        :class:`~repro.cluster.breaker.NodeCircuitBreaker` (or a
        :class:`~repro.cluster.breaker.BreakerConfig`, or ``True`` for the
        defaults) is threaded through every scheduler wave on the
        campaign-global clock: nodes that keep failing jobs are opened,
        probed after a cooldown, and eventually blacklisted; jobs route
        around them.  The breaker state restarts cold on resume.
    registry:
        ``None`` (default) trains without serving.  A
        :class:`~repro.serve.registry.ModelRegistry` (or a path to one)
        turns the campaign into a *publisher*: every full refit that
        passes the health gate is pushed as a new registry version (hot
        rollover for any attached
        :class:`~repro.serve.service.PredictionService`), annotated with
        the gate's :class:`~repro.al.guardrails.HealthReport` and the
        campaign round.  Rollback rounds publish nothing — the served
        last-known-good is already in the registry.  The final model is
        published too (``extra={"final": True}``).
    """

    def __init__(
        self,
        config: CampaignConfig,
        executor: Executor,
        *,
        cluster: ClusterSpec | None = None,
        strategy: Strategy | None = None,
        model_factory: Callable[[], GaussianProcessRegressor] | None = None,
        rng=None,
        retry_policy: RetryPolicy | None = None,
        quarantine_policy: QuarantinePolicy | None = None,
        fast_refits: bool = False,
        refit_every: int = 1,
        guardrails: GuardrailConfig | bool | None = None,
        breaker: NodeCircuitBreaker | BreakerConfig | bool | None = None,
        registry=None,
    ):
        if refit_every < 1:
            raise ValueError("refit_every must be >= 1")
        self.config = config
        self.executor = executor
        self.cluster = cluster or wisconsin_cluster()
        self.strategy = strategy or VarianceReduction()
        self.model_factory = model_factory or default_model_factory(1e-2)
        self.rng = np.random.default_rng(rng)
        self.retry_policy = retry_policy or RetryPolicy()
        self.quarantine_policy = quarantine_policy or QuarantinePolicy()
        self.fast_refits = bool(fast_refits)
        self.refit_every = int(refit_every)

        if breaker is True:
            breaker = BreakerConfig()
        if isinstance(breaker, BreakerConfig):
            breaker = NodeCircuitBreaker(breaker, n_nodes=self.cluster.n_nodes)
        self.breaker: NodeCircuitBreaker | None = breaker or None

        self._chain = ModelChain(
            self.model_factory,
            guardrails=guardrails,
            registry=registry,
            refit_every=self.refit_every if self.fast_refits else None,
            counters="campaign.fit",
        )
        self.guardrails: GuardrailConfig | None = self._chain.guardrails
        self.registry = self._chain.registry
        # Also holds the tallies of the drift, breaker and watchdog layers.
        self._gate = self._chain.gate
        guard = self.guardrails
        self._drift = (
            DriftDetector(guard.drift) if guard and guard.check_drift else None
        )
        # Breaker counters already accounted for by a resumed checkpoint
        # (the live breaker restarts its own counters from zero).
        self._breaker_base = (0, 0, 0)

    # --------------------------------------------------------------- submission

    def _submit(
        self,
        rows: np.ndarray,
        *,
        model: GaussianProcessRegressor | None = None,
        clock0: float = 0.0,
    ) -> _BatchOutcome:
        """Run one batch through the scheduler, retrying rejected jobs.

        Every record is inspected by the quarantine policy before its
        runtime may become an observation; rejected jobs are re-submitted
        (in waves, with backoff charged to the makespan) while the retry
        policy allows.  ``model`` enables the z-score outlier gate.
        ``clock0`` is the campaign-global time at which this submission
        begins — each wave's fresh simulator starts its local clock at
        zero, so the shared circuit breaker needs the offset to keep
        cooldowns on one timeline.
        """
        rows = np.asarray(rows, dtype=float)
        with tm.span("submit", n_jobs=len(rows)) as sp:
            outcome = self._submit_impl(rows, model=model, clock0=clock0)
            sp.set(
                n_ok=len(outcome.accepted),
                makespan=outcome.makespan,
                core_seconds=outcome.core_seconds,
            )
        return outcome

    def _submit_impl(
        self,
        rows: np.ndarray,
        *,
        model: GaussianProcessRegressor | None,
        clock0: float = 0.0,
    ) -> _BatchOutcome:
        feats = _features(rows)
        acct = FailureAccounting()
        accepted: dict[int, float] = {}
        attempts = [0] * len(rows)
        pending = list(range(len(rows)))
        makespan = 0.0
        core_seconds = 0.0
        wave = 1
        while pending:
            specs = [
                JobSpec(
                    operator=self.config.operator,
                    problem_size=float(rows[slot, 0]),
                    np_ranks=int(rows[slot, 1]),
                    freq_ghz=float(rows[slot, 2]),
                    repeat_index=slot,
                )
                for slot in pending
            ]
            scheduler_seed = int(self.rng.integers(2**31))
            tm.event(
                "submit.wave",
                wave=wave,
                n_pending=len(pending),
                scheduler_seed=scheduler_seed,
            )
            tm.count("campaign.jobs.submitted", len(pending))
            sim = SlurmSimulator(
                self.cluster,
                self.executor,
                rng=scheduler_seed,
                time_limit_seconds=self.config.time_limit_seconds,
                breaker=self.breaker,
                breaker_clock_offset=clock0 + makespan,
            )
            records = sim.run_batch(specs)
            by_repeat = {r.repeat_index: r for r in records}
            missing = [slot for slot in pending if slot not in by_repeat]
            if missing:
                raise RuntimeError(
                    f"scheduler returned {len(records)} records for "
                    f"{len(specs)} submitted specs; no record for "
                    f"repeat_index values {missing}"
                )
            makespan += max(r.end_time for r in records)
            core_seconds += sum(r.cost_core_seconds for r in records)
            next_pending = []
            for slot in pending:
                record = by_repeat[slot]
                attempts[slot] += 1
                decision = self.quarantine_policy.inspect(
                    record, model=model, x=feats[slot]
                )
                if decision.ok:
                    accepted[slot] = float(np.log10(record.runtime_seconds))
                    continue
                if decision.reason == "state":
                    acct.n_failed += 1
                else:
                    acct.n_quarantined += 1
                acct.wasted_core_seconds += record.cost_core_seconds
                if self.retry_policy.should_retry(decision.reason, attempts[slot]):
                    next_pending.append(slot)
                    acct.n_retries += 1
            pending = next_pending
            if pending:
                tm.count("campaign.retry_waves")
                makespan += self.retry_policy.backoff(wave)
            wave += 1
        return _BatchOutcome(
            accepted=accepted,
            makespan=float(makespan),
            core_seconds=float(core_seconds),
            accounting=acct,
        )

    # ----------------------------------------------------------- guardrails

    @property
    def _guarded(self) -> bool:
        return self.guardrails is not None or self.breaker is not None

    def _sync_breaker_tallies(self) -> None:
        """Fold the live breaker's lifetime counters into the tallies.

        ``_breaker_base`` carries counts restored from a checkpoint (the
        breaker object itself restarts cold on resume).
        """
        if self.breaker is None:
            return
        base = self._breaker_base
        tallies = self._gate.tallies
        tallies.n_breaker_opens = base[0] + self.breaker.n_opened
        tallies.n_breaker_probes = base[1] + self.breaker.n_probes
        tallies.n_breaker_blacklisted = base[2] + self.breaker.n_blacklisted

    def _guardrail_state_payload(self, state: _CampaignState) -> dict | None:
        if not self._guarded:
            return None
        self._sync_breaker_tallies()
        return {**self._gate.state(), "stop_reason": state.stop_reason}

    # ------------------------------------------------------------ checkpointing

    def _checkpoint_config(self) -> dict:
        """Config values a checkpoint stores and a resume must match."""
        cfg = self.config
        return {
            "operator": cfg.operator,
            "batch_size": cfg.batch_size,
            "n_rounds": cfg.n_rounds,
            "time_limit_seconds": cfg.time_limit_seconds,
            "candidates": cfg.candidates.tolist(),
        }

    def _generators(self) -> dict:
        strategy = self.strategy.generators()
        return {
            "rng_state": self.rng,
            "executor_rng_state": getattr(self.executor, "rng", None),
            "strategy_rng_state": strategy["tie"],
            "strategy_sampling_rng_state": strategy["rng"],
        }

    def _checkpoint(self, state: _CampaignState, path) -> None:
        if path is None:
            return
        checkpoint = CampaignCheckpoint(
            version=_CHECKPOINT_VERSION,
            **self._checkpoint_config(),
            seed_index=state.seed_index,
            next_round=state.next_round,
            measured_X=[np.asarray(x).tolist() for x in state.measured_X],
            measured_y=[float(v) for v in state.measured_y],
            fit_counts=list(state.fit_counts),
            rounds=list(state.rounds),
            simulated_seconds=state.total_makespan,
            cpu_core_seconds=state.total_core_seconds,
            n_failed=state.accounting.n_failed,
            n_retries=state.accounting.n_retries,
            n_quarantined=state.accounting.n_quarantined,
            wasted_core_seconds=state.accounting.wasted_core_seconds,
            **capture_generators(self._generators()),
            guardrail_state=self._guardrail_state_payload(state),
        )
        save_checkpoint(checkpoint, path)

    # ----------------------------------------------------------------- running

    def run(
        self, *, seed_index: int = 0, checkpoint_path=None
    ) -> CampaignResult:
        """Execute the campaign: seed job, then ``n_rounds`` AL batches.

        With ``checkpoint_path`` the full campaign state is atomically
        re-written after the seed and after every round; a killed process
        can continue bit-identically via :meth:`resume`.
        """
        state = _CampaignState(seed_index=int(seed_index))
        cand_rows = self.config.candidates
        cand_X = _features(cand_rows)

        with tm.span(
            "campaign",
            mode="run",
            n_rounds=self.config.n_rounds,
            batch_size=self.config.batch_size,
            n_candidates=len(cand_rows),
            seed_index=state.seed_index,
        ):
            # Seed experiment (a total seed failure degrades gracefully: the
            # round loop re-submits the seed until an observation lands).
            try:
                outcome = self._submit(
                    cand_rows[[state.seed_index]], clock0=state.total_makespan
                )
            except AllNodesOpenError as exc:
                self._stop_cluster_unavailable(state, exc)
            else:
                if 0 in outcome.accepted:
                    state.measured_X.append(cand_X[state.seed_index])
                    state.measured_y.append(outcome.accepted[0])
                state.total_makespan += outcome.makespan
                state.total_core_seconds += outcome.core_seconds
                state.accounting.add(outcome.accounting)
            self._checkpoint(state, checkpoint_path)

            return self._continue(state, checkpoint_path)

    def resume(self, path) -> CampaignResult:
        """Continue a killed campaign from its checkpoint file.

        The campaign object must be constructed with the same
        configuration, executor, strategy and seed as the original; the
        checkpoint restores the measured data, accounting and RNG states,
        and every recorded fit is replayed through the model chain and the
        gate, so the continuation is bit-identical to the uninterrupted
        run.  Checkpointing continues into ``path``.
        """
        expect = self._checkpoint_config()
        payload = read_checkpoint(
            path, _CHECKPOINT_KIND, _CHECKPOINT_VERSION, expect=expect
        )
        restore_generators(self._generators(), payload)
        checkpoint = CampaignCheckpoint(**payload)
        state = _CampaignState(
            seed_index=checkpoint.seed_index,
            next_round=checkpoint.next_round,
            measured_X=[np.asarray(x, dtype=float) for x in checkpoint.measured_X],
            measured_y=[float(v) for v in checkpoint.measured_y],
            fit_counts=list(checkpoint.fit_counts),
            rounds=[dict(r) for r in checkpoint.rounds],
            total_makespan=float(checkpoint.simulated_seconds),
            total_core_seconds=float(checkpoint.cpu_core_seconds),
            accounting=FailureAccounting(
                n_failed=checkpoint.n_failed,
                n_retries=checkpoint.n_retries,
                n_quarantined=checkpoint.n_quarantined,
                wasted_core_seconds=checkpoint.wasted_core_seconds,
            ),
        )
        with tm.span(
            "campaign",
            mode="resume",
            n_rounds=self.config.n_rounds,
            batch_size=self.config.batch_size,
            next_round=state.next_round,
            seed_index=state.seed_index,
        ):
            # Rebuild the carried model and the gate's snapshot.
            for round_index, n_now in enumerate(state.fit_counts):
                if n_now:
                    self._chain.step(
                        round_index,
                        np.vstack(state.measured_X[:n_now]),
                        np.asarray(state.measured_y[:n_now], dtype=float),
                        replay=True,
                    )
            if checkpoint.guardrail_state:
                gs = checkpoint.guardrail_state
                self._gate.load_state(gs)
                state.stop_reason = str(gs.get("stop_reason", "completed"))
                tallies = self._gate.tallies
                self._breaker_base = (
                    tallies.n_breaker_opens,
                    tallies.n_breaker_probes,
                    tallies.n_breaker_blacklisted,
                )
            return self._continue(state, path)

    def _stop_cluster_unavailable(
        self, state: _CampaignState, exc: AllNodesOpenError
    ) -> None:
        """End the campaign early: the breaker isolated the whole cluster."""
        warnings.warn(
            f"ending campaign early ({exc})", RuntimeWarning, stacklevel=3
        )
        state.stop_reason = "cluster_unavailable"
        tm.count("guardrail.cluster_unavailable")
        tm.event("guardrail.stop", reason="cluster_unavailable")

    def _watchdog_tripped(self, state: _CampaignState) -> bool:
        """True when a guardrail budget says no further round may start."""
        guard = self.guardrails
        if guard is None:
            return False
        over_wall = (
            guard.max_wall_seconds is not None
            and state.total_makespan >= guard.max_wall_seconds
        )
        over_cost = (
            guard.max_cost_core_seconds is not None
            and state.total_core_seconds >= guard.max_cost_core_seconds
        )
        if not (over_wall or over_cost):
            return False
        state.stop_reason = "watchdog"
        self._gate.tallies.n_watchdog_stops += 1
        tm.count("guardrail.watchdog_stop")
        tm.event(
            "guardrail.stop",
            reason="watchdog",
            over_wall=over_wall,
            over_cost=over_cost,
            simulated_seconds=state.total_makespan,
            cpu_core_seconds=state.total_core_seconds,
        )
        return True

    def _handle_drift(self, state: _CampaignState, round_index: int) -> None:
        """A drift alarm fired: discard the stale regime, start fresh.

        Under ``drift_action="trim"`` the oldest ``trim_fraction`` of the
        training rows (the pre-drift regime) is dropped; under ``"refit"``
        the data stays but the next round refits hyperparameters from
        scratch.  Either way the rollback snapshot, the reference LML and
        the detector reset (the old regime is no longer a valid baseline),
        the carried model is dropped, and ``fit_counts`` is zeroed so a
        resume also starts with a fresh fit.
        """
        guard = self.guardrails
        tallies = self._gate.tallies
        tallies.n_drift_events += 1
        n_trimmed = 0
        if guard.drift_action == "trim":
            n = len(state.measured_y)
            n_trimmed = min(int(n * guard.trim_fraction), max(n - 2, 0))
            if n_trimmed > 0:
                state.measured_X = state.measured_X[n_trimmed:]
                state.measured_y = state.measured_y[n_trimmed:]
                tallies.n_trimmed_points += n_trimmed
        state.fit_counts = [0] * len(state.fit_counts)
        self._chain.reset()
        if self._drift is not None:
            self._drift.reset()
        tm.count("guardrail.drift")
        tm.event(
            "guardrail.drift",
            round=round_index,
            action=guard.drift_action,
            n_trimmed=n_trimmed,
            n_kept=len(state.measured_y),
        )

    def _continue(self, state: _CampaignState, checkpoint_path) -> CampaignResult:
        """Run AL rounds from ``state.next_round`` to the end."""
        cand_rows = self.config.candidates
        cand_X = _features(cand_rows)

        for round_index in range(state.next_round, self.config.n_rounds):
            if state.stop_reason != "completed":
                break
            if self._watchdog_tripped(state):
                break
            with tm.span("round", round=round_index) as round_sp:
                drift_z: list[float] = []
                if not state.measured_y:
                    # No usable observation yet (the seed experiment keeps
                    # failing): spend this round re-measuring the seed instead
                    # of selecting on an unfittable model.
                    try:
                        outcome = self._submit(
                            cand_rows[[state.seed_index]],
                            clock0=state.total_makespan,
                        )
                    except AllNodesOpenError as exc:
                        self._stop_cluster_unavailable(state, exc)
                        break
                    if 0 in outcome.accepted:
                        state.measured_X.append(cand_X[state.seed_index])
                        state.measured_y.append(outcome.accepted[0])
                    state.fit_counts.append(0)
                    n_ok = len(outcome.accepted)
                    max_sd = float("nan")
                    k = 1
                else:
                    model = self._chain.step(
                        round_index,
                        np.vstack(state.measured_X),
                        np.asarray(state.measured_y, dtype=float),
                        extra={
                            "strategy": self.strategy.name,
                            "final": False,
                            "round": round_index,
                        },
                    )
                    state.fit_counts.append(len(state.measured_y))
                    pool = CandidatePool(
                        cand_X, np.zeros(len(cand_X)), np.zeros(len(cand_X))
                    )
                    k = min(self.config.batch_size, pool.n_available)
                    picks = select_batch(model, pool, self.strategy, k)
                    mu, sd = model.predict(cand_X[picks], return_std=True)
                    try:
                        outcome = self._submit(
                            cand_rows[picks],
                            model=model,
                            clock0=state.total_makespan,
                        )
                    except AllNodesOpenError as exc:
                        self._stop_cluster_unavailable(state, exc)
                        break
                    # ``sd`` is the observation SD: it already carries the
                    # noise term, in the units of y.
                    for slot in sorted(outcome.accepted):
                        y_obs = outcome.accepted[slot]
                        state.measured_X.append(cand_X[picks[slot]])
                        state.measured_y.append(y_obs)
                        if self._drift is not None:
                            drift_z.append(
                                (y_obs - float(mu[slot]))
                                / max(float(sd[slot]), 1e-12)
                            )
                    n_ok = len(outcome.accepted)
                    max_sd = float(sd.max())
                state.total_makespan += outcome.makespan
                state.total_core_seconds += outcome.core_seconds
                state.accounting.add(outcome.accounting)
                if (
                    self._drift is not None
                    and drift_z
                    and self._drift.update_many(drift_z)
                ):
                    self._handle_drift(state, round_index)
                state.rounds.append(
                    {
                        "n_jobs": k,
                        "n_ok": n_ok,
                        "makespan": outcome.makespan,
                        "max_sd": max_sd,
                    }
                )
                state.next_round = round_index + 1
                self._checkpoint(state, checkpoint_path)
                if tm.enabled():
                    tm.count("campaign.rounds")
                    tm.gauge_set("campaign.n_measured", len(state.measured_y))
                    round_sp.set(
                        n_jobs=k,
                        n_ok=n_ok,
                        makespan=outcome.makespan,
                        max_sd=max_sd,
                    )

        if state.stop_reason != "completed":
            # Persist the stop reason so a resume doesn't replay the stop.
            self._checkpoint(state, checkpoint_path)
        if state.measured_y:
            X = np.vstack(state.measured_X)
            final_model, _ = self._chain.refit(
                state.next_round, X, np.asarray(state.measured_y, dtype=float)
            )
            self._chain.publish(
                final_model,
                {"strategy": self.strategy.name, "final": True},
                health=self._gate.check(final_model),
            )
        else:
            warnings.warn(
                "campaign produced no usable observations; returning an "
                "unfitted model",
                RuntimeWarning,
                stacklevel=2,
            )
            final_model = self.model_factory()
            X = np.empty((0, cand_rows.shape[1]))
        acct = state.accounting
        tallies: GuardrailTallies | None = None
        if self._guarded:
            self._sync_breaker_tallies()
            tallies = self._gate.tallies
        return CampaignResult(
            X=X,
            y=np.asarray(state.measured_y, dtype=float),
            simulated_seconds=state.total_makespan,
            cpu_core_seconds=state.total_core_seconds,
            model=final_model,
            rounds=state.rounds,
            n_failed=acct.n_failed,
            n_retries=acct.n_retries,
            n_quarantined=acct.n_quarantined,
            wasted_core_seconds=acct.wasted_core_seconds,
            stop_reason=state.stop_reason,
            guardrails=tallies,
        )

"""Sharded active learning: spatial partitioning with fault isolation.

The paper's single global GP struggles on heterogeneous response surfaces
— the mixed poisson1/poisson2 pools have visibly different regimes.
Following the partitioned-AL recipe (Lee et al., "Partitioned Active
Learning for Heterogeneous Systems", arXiv:2105.08547), this module
splits the design space into spatial cells and learns one *local* GP per
cell, acquiring points with the two-step rule: pick the shard whose best
local score is largest, then run the paper's strategies locally inside
it.

The layer is built robust-first.  Every component assumes its shard can
crash, hang, or silently corrupt data, and degrades instead of dying:

* :class:`InputPartitioner` — deterministic k-means cells over the
  design matrix (seeded init, Lloyd iterations, deterministic empty-cell
  reseeding).  Distinct from the Initial/Active/Test
  :class:`~repro.al.partition.Partition`, which it composes with.
* :class:`ShardedLearner` — fits one local GP per shard per round
  through a :class:`~repro.parallel.ParallelMap` (serial by default,
  per-shard spawned seeds), bit-identical across backends and worker
  counts.
* :class:`AcquisitionRouter` — the two-step acquisition rule, with
  boundary refinement: points whose two nearest cell centers are within
  the boundary margin (:data:`_BOUNDARY_MARGIN`) of each other consult
  both shards' models and take the larger score.
* :class:`ShardSupervisor` — the robustness headline: one
  :class:`~repro.al.guardrails.FitGate` per shard (health check and
  last-known-good rollback, as for the global model), a shard-level
  circuit breaker (:class:`~repro.al.resilience.ShardBreaker`) that
  excludes open shards from routing and re-routes their pool mass to
  healthy neighbors, fault-injected fits
  (:class:`~repro.cluster.faults.ShardFaultInjector`) with bounded
  deterministic retries, and an atomic per-round checkpoint with
  exactly-once :meth:`ShardedLearner.resume`.

Degraded-mode guarantee: with k of N shards down the campaign keeps
learning on the remaining surface; :class:`~repro.al.campaign.CampaignResult`
reports per-shard availability.

Determinism contract
--------------------
All routing, scoring and tie-breaking happens serially in the parent in
ascending shard order; worker tasks are pure functions of their item
(randomness keyed by ``(shard, round, attempt)`` seed sequences), and
:class:`~repro.parallel.ParallelMap` returns results in input order — so
a fault-free run is bit-identical across serial/thread/process backends
and any worker count, and a resumed run replays an interrupted round
bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import telemetry as tm
from ..cluster.faults import ShardFaultConfig, ShardFaultInjector
from ..gp.gpr import GaussianProcessRegressor
from ..parallel.pmap import ParallelMap
from ..perfmodel import PERFORMANCE_NOISE, RuntimeModel
from .campaign import CampaignResult
from .guardrails import (
    FitGate,
    GuardrailTallies,
    HealthConfig,
    fit_with_jitter,
    open_registry,
)
from .learner import default_model_factory
from .metrics import evaluate_model
from .partition import Partition
from .pool import CandidatePool
from .resilience import ShardBreaker
from .session import (
    capture_generators,
    dataset_digest,
    read_checkpoint,
    restore_generators,
    write_json_atomic,
)
from .strategies import Strategy, VarianceReduction

__all__ = [
    "InputPartitioner",
    "ShardingConfig",
    "ShardedModel",
    "ShardSupervisor",
    "AcquisitionRouter",
    "ShardedLearner",
    "mixed_operator_pool",
]

_MANIFEST_VERSION = 1

#: Relative cell-boundary width: pool and query rows with
#: ``(d2 - d1)/(d2 + d1)`` below it are scored by the neighboring shard's
#: model too, and :class:`ShardedModel` blends their predictions.
_BOUNDARY_MARGIN = 0.15

#: Extra fit attempts per shard per round after an injected or real
#: failure, each with its own deterministic seed key.
_MAX_FIT_RETRIES = 2


def _data_hash(X, y) -> str:
    """SHA-256 over the exact float64 bytes of a training set."""
    return dataset_digest(np.asarray(X, dtype=float), np.asarray(y, dtype=float))


def _model_seed(base_seed: int, shard: int, round_index: int, attempt: int) -> int:
    """Deterministic per-(shard, round, attempt) model seed.

    Keyed by a spawn key (not by task order), so a retried fit and a
    replayed fit after resume draw the identical stream regardless of
    which wave or backend executes it.  The leading 1 keeps the key space
    disjoint from the fault injector's 3-tuple keys.
    """
    ss = np.random.SeedSequence(
        entropy=int(base_seed), spawn_key=(1, int(shard), int(round_index), int(attempt))
    )
    return int(ss.generate_state(1)[0])


# ------------------------------------------------------------- partitioner


class InputPartitioner:
    """Deterministic k-means cells over the design matrix.

    Features are standardized before clustering (per-column mean/std,
    std floored at 1e-12) so heterogeneous units — operator code, log
    problem size, log ranks, GHz — weigh equally.  Initialization is
    k-means++ from ``default_rng(seed)`` and Lloyd iterations are plain
    argmin assignments, so :meth:`fit` is a pure function of ``(X, seed)``
    — a resumed campaign refits the identical cells from the dataset.

    An empty cell is reseeded to the point farthest from its current
    center (deterministic), so every shard always owns at least one
    training-design point.
    """

    def __init__(self, n_shards: int, *, seed: int = 0, max_iter: int = 50, tol: float = 1e-8):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        self.n_shards = int(n_shards)
        self.seed = int(seed)
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.centers_: np.ndarray | None = None
        self._mean: np.ndarray | None = None
        self._scale: np.ndarray | None = None

    @property
    def fitted(self) -> bool:
        return self.centers_ is not None

    def _transform(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self._mean) / self._scale

    def fit(self, X: np.ndarray) -> "InputPartitioner":
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        n = X.shape[0]
        if n < self.n_shards:
            raise ValueError(
                f"cannot split {n} design points into {self.n_shards} shards"
            )
        self._mean = X.mean(axis=0)
        self._scale = np.maximum(X.std(axis=0), 1e-12)
        Z = self._transform(X)
        rng = np.random.default_rng(self.seed)

        # k-means++ seeding.
        centers = [Z[int(rng.integers(n))]]
        for _ in range(1, self.n_shards):
            d2 = np.min(
                ((Z[:, None, :] - np.asarray(centers)[None, :, :]) ** 2).sum(-1),
                axis=1,
            )
            total = float(d2.sum())
            if total <= 0.0:
                centers.append(Z[int(rng.integers(n))])
            else:
                centers.append(Z[int(rng.choice(n, p=d2 / total))])
        centers = np.asarray(centers)

        for _ in range(self.max_iter):
            d2 = ((Z[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
            labels = np.argmin(d2, axis=1)
            new_centers = centers.copy()
            for c in range(self.n_shards):
                mask = labels == c
                if mask.any():
                    new_centers[c] = Z[mask].mean(axis=0)
                else:
                    # Deterministic reseed: the globally farthest point
                    # from its own assigned center.
                    own = d2[np.arange(n), labels]
                    new_centers[c] = Z[int(np.argmax(own))]
            shift = float(np.max(np.abs(new_centers - centers)))
            centers = new_centers
            if shift < self.tol:
                break
        self.centers_ = centers
        return self

    def assign(self, X: np.ndarray) -> np.ndarray:
        """Shard label of each row (nearest center; ties go low)."""
        if not self.fitted:
            raise RuntimeError("partitioner is not fitted")
        Z = self._transform(np.atleast_2d(X))
        d2 = ((Z[:, None, :] - self.centers_[None, :, :]) ** 2).sum(-1)
        return np.argmin(d2, axis=1)

    def nearest_two(
        self, X: np.ndarray, among=None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Two nearest shard centers and the relative boundary margin.

        Returns ``(first, second, margin)`` per row, restricted to the
        shard ids in ``among`` (default: all).  ``margin`` is
        ``(d2 - d1) / (d2 + d1)`` — 0 exactly on a cell boundary, 1 at a
        center.  With a single candidate shard ``second`` is -1 and the
        margin is infinite.
        """
        if not self.fitted:
            raise RuntimeError("partitioner is not fitted")
        among = sorted(range(self.n_shards) if among is None else among)
        if not among:
            raise ValueError("among must name at least one shard")
        Z = self._transform(np.atleast_2d(X))
        ids = np.asarray(among, dtype=int)
        d2 = ((Z[:, None, :] - self.centers_[ids][None, :, :]) ** 2).sum(-1)
        order = np.argsort(d2, axis=1, kind="stable")
        first = ids[order[:, 0]]
        if len(among) == 1:
            second = np.full(Z.shape[0], -1, dtype=int)
            margin = np.full(Z.shape[0], np.inf)
            return first, second, margin
        second = ids[order[:, 1]]
        d1 = np.sqrt(np.take_along_axis(d2, order[:, :1], axis=1)[:, 0])
        dd2 = np.sqrt(np.take_along_axis(d2, order[:, 1:2], axis=1)[:, 0])
        margin = (dd2 - d1) / np.maximum(dd2 + d1, 1e-12)
        return first, second, margin


# ------------------------------------------------------------------ config


@dataclass(frozen=True)
class ShardingConfig:
    """Everything a :class:`ShardedLearner` needs beyond the dataset.

    Attributes
    ----------
    n_shards / n_rounds / batch_size:
        Spatial cells, acquisition rounds, and points measured per round.
    seed:
        Master entropy: partitioner seed, per-shard model seeds, fault
        draws, per-shard strategy seeds and the router's tie-break RNG
        are all spawned from it with disjoint keys.
    health:
        Per-shard model-health thresholds (``health=None`` disables the
        health gate).
    """

    n_shards: int = 4
    n_rounds: int = 10
    batch_size: int = 1
    seed: int = 0
    health: HealthConfig | None = field(default_factory=HealthConfig)

    def __post_init__(self):
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if self.n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


# ---------------------------------------------------------------- fit task


class _ShardFitTask:
    """Picklable per-shard fit: fault injection, jitter escalation, no raise.

    The task *never* raises: crash/hang faults and genuine fit errors all
    come back as structured failure outcomes so one poisoned shard cannot
    take down the wave.  A successful outcome carries the fitted model
    itself: a process worker pickles it, which round-trips bit-exactly,
    and an approximate model keeps the training rows its snapshot and its
    believer updates need.  An injected ``corrupt`` silently scales the
    responses before fitting; the parent unmasks it by comparing the
    returned ``data_hash`` (computed *after* corruption) against the hash
    of the data it actually sent.

    Items are ``(shard, round_index, attempt, X, y, model_seed)``.
    """

    __slots__ = ("model_factory", "fault_config", "fault_seed")

    def __init__(self, model_factory, fault_config, fault_seed: int):
        self.model_factory = model_factory
        self.fault_config = fault_config
        self.fault_seed = int(fault_seed)

    def __call__(self, item) -> dict:
        shard, round_index, attempt, X, y, model_seed = item
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        out = {
            "shard": int(shard),
            "round": int(round_index),
            "attempt": int(attempt),
            "ok": False,
            "fault": None,
            "model": None,
            "data_hash": None,
            "error": None,
        }
        tm.count("shard.fit.total")
        if self.fault_config is not None and self.fault_config.enabled:
            injector = ShardFaultInjector(self.fault_config, seed=self.fault_seed)
            fault = injector.draw(shard, round_index, attempt)
            if fault is not None:
                tm.count(f"shard.fault.{fault}")
                out["fault"] = fault
                if fault == "crash":
                    out["error"] = "injected shard crash"
                    return out
                if fault == "hang":
                    # A real hang is killed by the pool's task_timeout;
                    # simulating it as an immediate timeout-equivalent
                    # failure keeps the outcome (and the retry path)
                    # deterministic and the tests fast.
                    out["error"] = "injected shard hang (simulated timeout)"
                    return out
                y = injector.corrupt_values(y)

        def build():
            model = self.model_factory()
            model.rng = np.random.default_rng(int(model_seed))
            return model

        try:
            out["model"] = fit_with_jitter(build, X, y)
            out["ok"] = True
        except Exception as exc:  # noqa: BLE001 - isolation boundary
            out["error"] = f"{type(exc).__name__}: {exc}"
        out["data_hash"] = _data_hash(X, y)
        return out


# -------------------------------------------------------------- supervisor


class ShardSupervisor:
    """Per-shard fit execution with health gating, rollback and breaking.

    One instance owns, for every shard: a
    :class:`~repro.al.guardrails.FitGate` whose last-known-good snapshot is
    restored when a fit is unhealthy *or* when every retry of a round
    failed — so a flapping shard keeps serving its last healthy posterior
    — and a seat on the shared :class:`~repro.al.resilience.ShardBreaker`.
    Unlike the global model's gate, a shard gate never force-accepts an
    unhealthy fit and never remediates: the fits run inside workers from a
    fixed factory.  A fit wave is one :meth:`ParallelMap.map` over the
    pending shards; up to :data:`_MAX_FIT_RETRIES` retries are extra waves
    with attempt-keyed fault draws, so the whole schedule is deterministic.
    """

    def __init__(
        self,
        n_shards: int,
        *,
        config: ShardingConfig,
        model_factory,
        pmap: ParallelMap,
        fault_config: ShardFaultConfig | None = None,
    ):
        self.n_shards = int(n_shards)
        self.config = config
        self.model_factory = model_factory
        self.pmap = pmap
        self.fault_config = fault_config
        self.breaker = ShardBreaker(n_shards)
        self.tallies = GuardrailTallies()
        self.gates = {
            s: FitGate(
                config.health,
                tallies=self.tallies,
                rollback_telemetry=("shard.rollbacks", "shard.rollback"),
            )
            for s in range(n_shards)
        }
        self.records = {
            s: {
                "failures": 0,
                "retries": 0,
                "rollbacks": 0,
                "corrupt_detected": 0,
                "unhealthy_fits": 0,
                "available_rounds": 0,
                "lkg_round": None,
                "lkg_attempt": None,
                "lkg_n": 0,
                "prev_lml_pp": None,
            }
            for s in range(n_shards)
        }
        self.total_rounds = 0

    def _task(self) -> _ShardFitTask:
        return _ShardFitTask(self.model_factory, self.fault_config, self.config.seed)

    def serviceable_shards(self, round_index: int) -> list[int]:
        return self.breaker.serviceable_shards(round_index)

    def fit_round(
        self, round_index: int, shard_X: dict, shard_y: dict
    ) -> dict:
        """Fit every serviceable, warm shard; return ``{shard: model}``.

        A shard is warm once it has a training row.  It ends the round
        with either a fresh healthy fit, a last-known-good restore
        (unhealthy fit or exhausted retries), or no model at all (cold,
        open, dead, or failed with no LKG) — in which case it is simply
        absent from the result and the router re-routes its pool mass.
        """
        cfg = self.config
        task = self._task()
        self.total_rounds += 1
        pending = [
            s
            for s in range(self.n_shards)
            if self.breaker.serviceable(s, round_index) and len(shard_y[s])
        ]
        expected = {
            s: _data_hash(shard_X[s], shard_y[s]) for s in pending
        }
        fitted: dict[int, GaussianProcessRegressor] = {}
        succeeded_attempt: dict[int, int] = {}
        with tm.span("shard.fit_round", round=round_index, n_shards=len(pending)):
            for attempt in range(_MAX_FIT_RETRIES + 1):
                if not pending:
                    break
                items = [
                    (
                        s,
                        round_index,
                        attempt,
                        np.asarray(shard_X[s], dtype=float),
                        np.asarray(shard_y[s], dtype=float),
                        _model_seed(cfg.seed, s, round_index, attempt),
                    )
                    for s in pending
                ]
                outcomes = self.pmap.map(task, items)
                still = []
                for s, out in zip(pending, outcomes):
                    if out["ok"] and out["data_hash"] == expected[s]:
                        fitted[s] = out["model"]
                        succeeded_attempt[s] = attempt
                        continue
                    if out["ok"]:
                        # Fit "succeeded" on data that does not hash to
                        # what we sent: the corruption unmasked.
                        self.records[s]["corrupt_detected"] += 1
                        tm.count("shard.fit.corrupt")
                        tm.event(
                            "shard.corrupt_detected",
                            shard=s,
                            round=round_index,
                            attempt=attempt,
                        )
                    else:
                        tm.count("shard.fit.failures")
                        tm.event(
                            "shard.fit_failed",
                            shard=s,
                            round=round_index,
                            attempt=attempt,
                            fault=out["fault"],
                            error=out["error"],
                        )
                    if attempt < _MAX_FIT_RETRIES:
                        self.records[s]["retries"] += 1
                        tm.count("shard.fit.retries")
                        still.append(s)
                    else:
                        self.records[s]["failures"] += 1
                pending = still

        models: dict[int, GaussianProcessRegressor] = {}
        for s in sorted(fitted):
            gate, rec, fresh = self.gates[s], self.records[s], fitted[s]
            models[s] = gate.admit(
                fresh, shard_X[s], shard_y[s], shard=s, round=round_index
            )
            if gate.last_report is not None and not gate.last_report.healthy:
                rec["unhealthy_fits"] += 1
            if models[s] is fresh:
                if gate.health is None:
                    # An unchecked gate keeps no snapshot of its own; the
                    # failed-retry restore below reads this one.
                    gate.lkg.remember(fresh)
                # The resume rebuilds the snapshot from this seed key.
                rec["lkg_round"] = int(round_index)
                rec["lkg_attempt"] = int(succeeded_attempt[s])
                rec["lkg_n"] = int(fresh.X_train_.shape[0])
                rec["prev_lml_pp"] = gate.prev_lml_per_point
            else:
                rec["rollbacks"] += 1
            self.breaker.record_success(s, round_index)
        for s in sorted(set(expected) - set(fitted)):
            # Every retry failed: the breaker hears about it, but the
            # shard's last healthy posterior keeps serving if one exists
            # (rebuilt deterministically on resume, so routing stays
            # bit-identical to an uninterrupted run).
            self.breaker.record_failure(s, round_index)
            restored = self.gates[s].restore(shard_X[s], shard_y[s])
            if restored is not None:
                models[s] = restored
                self.records[s]["rollbacks"] += 1
                self.tallies.n_rollbacks += 1
                tm.count("shard.rollbacks")
        self.tallies.n_breaker_opens = self.breaker.n_opened
        self.tallies.n_breaker_probes = self.breaker.n_probes
        self.tallies.n_breaker_blacklisted = self.breaker.n_blacklisted
        for s in models:
            self.records[s]["available_rounds"] += 1
        tm.gauge_set("shard.available", len(models))
        return models

    def availability(self, round_index: int) -> dict:
        """Per-shard availability report for ``CampaignResult``."""
        per_shard = {}
        fractions = []
        for s in range(self.n_shards):
            rec = self.records[s]
            frac = (
                rec["available_rounds"] / self.total_rounds
                if self.total_rounds
                else 0.0
            )
            fractions.append(frac)
            per_shard[s] = {
                "state": self.breaker.state(s, round_index),
                "availability": frac,
                "available_rounds": rec["available_rounds"],
                "failures": rec["failures"],
                "retries": rec["retries"],
                "rollbacks": rec["rollbacks"],
                "corrupt_detected": rec["corrupt_detected"],
                "unhealthy_fits": rec["unhealthy_fits"],
            }
        return {
            "n_shards": self.n_shards,
            "rounds": self.total_rounds,
            "mean_availability": float(np.mean(fractions)) if fractions else 0.0,
            "per_shard": per_shard,
        }


# ------------------------------------------------------------------ router


class AcquisitionRouter:
    """The two-step acquisition rule over one round's shard models.

    Step 1 picks the shard whose best candidate score (the paper's
    most-uncertain-cell rule) is largest; step 2 runs the paper's strategy
    locally inside it.  Three robustness wrinkles:

    * **Re-routing** — pool points whose home shard is open or dead are
      adopted by the nearest serviceable shard's center, so no pool mass
      is stranded.
    * **Boundary refinement** — points within :data:`_BOUNDARY_MARGIN` of
      a cell edge are scored by both adjacent models and take the larger
      score (a neighbor may know the edge better than the owner).
    * **Cold-shard priming** — a serviceable shard without a model yet
      gets an infinite criterion and picks its point nearest the cell
      center, so empty cells are seeded before score-driven refinement.

    Selection is greedy with kriging-believer conditioning: after each
    pick the owning shard's believer clone is updated with its own
    predicted mean, steering later picks away (the sharded analogue of
    :func:`repro.al.strategies.select_batch`).  All arithmetic runs
    serially in the parent in ascending shard order; ties break via the
    learner-owned ``tie_rng`` so results never depend on dict order.
    """

    def __init__(
        self,
        partitioner: InputPartitioner,
        models: dict,
        strategies: dict,
        pool: CandidatePool,
        home_shard: np.ndarray,
        serviceable: list,
        tie_rng: np.random.Generator,
    ):
        self.partitioner = partitioner
        self.strategies = strategies
        self.pool = pool
        self.home_shard = np.asarray(home_shard, dtype=int)
        self.serviceable = sorted(serviceable)
        self.tie_rng = tie_rng
        self.believers = {
            s: models[s].clone_fitted() for s in sorted(models)
            if s in self.serviceable
        }

    def _owners(self, avail: np.ndarray) -> np.ndarray:
        """Effective owner per available row: home if alive, else nearest."""
        home = self.home_shard[avail]
        owners = home.copy()
        orphaned = ~np.isin(home, self.serviceable)
        if orphaned.any():
            if not self.serviceable:
                raise RuntimeError("no serviceable shard to route to")
            first, _, _ = self.partitioner.nearest_two(
                self.pool.X[avail[orphaned]], among=self.serviceable
            )
            owners[orphaned] = first
        return owners

    def _tie_pick(self, values: np.ndarray) -> int:
        """Index of the max, random among exact ties (like Strategy.select)."""
        ties = np.flatnonzero(values == np.max(values))
        if ties.size > 1:
            return int(self.tie_rng.choice(ties))
        return int(ties[0])

    def _scores(self, avail: np.ndarray, owners: np.ndarray) -> np.ndarray:
        """Final per-row scores: owner's, refined by boundary neighbors."""
        scores = np.full(avail.size, -np.inf)
        model_shards = sorted(self.believers)
        consult = None
        if len(model_shards) >= 2:
            first, second, margin = self.partitioner.nearest_two(
                self.pool.X[avail], among=model_shards
            )
            consult = np.where(
                (margin < _BOUNDARY_MARGIN) & (second != owners),
                second,
                -1,
            )
        for s in model_shards:
            rows = np.flatnonzero(owners == s)
            if consult is not None:
                rows = np.union1d(rows, np.flatnonzero(consult == s))
            if rows.size == 0:
                continue
            idx = avail[rows]
            local = CandidatePool(
                self.pool.X[idx], self.pool.y[idx], self.pool.costs[idx]
            )
            local_scores = np.asarray(
                self.strategies[s].scores(self.believers[s], local), dtype=float
            )
            np.maximum.at(scores, rows, local_scores)
        return scores

    def select_batch(self, batch_size: int) -> list[dict]:
        """Greedily pick up to ``batch_size`` points; consumes the pool.

        Returns one dict per pick: ``pool_index``, ``owner`` (the shard
        adopting the measurement), ``x``, ``y``, ``cost``.  Stops early
        when the pool empties or no serviceable shard owns a candidate.
        """
        picks: list[dict] = []
        for _ in range(batch_size):
            if self.pool.exhausted or not self.serviceable:
                break
            avail = self.pool.available_indices()
            owners = self._owners(avail)
            scores = self._scores(avail, owners)

            shard_ids = []
            criteria = []
            for s in self.serviceable:
                rows = np.flatnonzero(owners == s)
                if rows.size == 0:
                    continue
                shard_ids.append(s)
                if s not in self.believers:
                    criteria.append(np.inf)  # cold shard: prime it first
                else:
                    criteria.append(float(np.max(scores[rows])))
            if not shard_ids:
                break
            chosen = shard_ids[self._tie_pick(np.asarray(criteria))]
            rows = np.flatnonzero(owners == chosen)
            if chosen not in self.believers:
                d2 = (
                    (
                        self.partitioner._transform(self.pool.X[avail[rows]])
                        - self.partitioner.centers_[chosen]
                    )
                    ** 2
                ).sum(-1)
                row = rows[int(np.argmin(d2))]
            else:
                row = rows[self._tie_pick(scores[rows])]
            pool_index = int(avail[row])
            x, y_meas, cost = self.pool.consume(pool_index)
            if chosen in self.believers:
                believer = self.believers[chosen]
                y_hat = float(believer.predict(x[np.newaxis, :])[0])
                believer.update(x[np.newaxis, :], y_hat)
            picks.append(
                {
                    "pool_index": pool_index,
                    "owner": int(chosen),
                    "x": x,
                    "y": y_meas,
                    "cost": cost,
                }
            )
        return picks


# ----------------------------------------------------------- sharded model


class ShardedModel:
    """Prediction-time composite of the per-shard local GPs.

    Each query row routes to the nearest cell center among shards that
    still *have* a model (a dead shard's region is answered by its
    nearest living neighbor — degraded but never silent).  Rows within
    :data:`_BOUNDARY_MARGIN` of a cell edge blend the two adjacent models
    with a precision weighted product of experts: higher-confidence
    experts dominate, and the blended variance ``1/(w1+w2)`` is tighter
    than either alone.

    Duck-types ``predict(X, return_std=)``, so every metric in
    :mod:`repro.al.metrics` and the serving layer work unchanged.
    """

    def __init__(self, partitioner: InputPartitioner, models: dict):
        if not models:
            raise ValueError("ShardedModel requires at least one shard model")
        self.partitioner = partitioner
        self.models = {int(s): m for s, m in models.items()}

    @property
    def fitted(self) -> bool:
        return True

    @property
    def n_shards(self) -> int:
        return len(self.models)

    def predict(self, X, return_std: bool = False):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        shards = sorted(self.models)
        first, second, margin = self.partitioner.nearest_two(X, among=shards)
        blend_rows = (margin < _BOUNDARY_MARGIN) & (second >= 0)
        mu = np.zeros(X.shape[0])
        var = np.zeros(X.shape[0])
        for s in shards:
            rows = np.flatnonzero(
                (first == s) | (blend_rows & (second == s))
            )
            if rows.size == 0:
                continue
            m, sd = self.models[s].predict(X[rows], return_std=True)
            v = np.maximum(sd**2, 1e-12)
            owner_rows = first[rows] == s
            plain = rows[owner_rows & ~blend_rows[rows]]
            if plain.size:
                sel = np.flatnonzero(owner_rows & ~blend_rows[rows])
                mu[plain] = m[sel]
                var[plain] = v[sel]
            both = np.flatnonzero(blend_rows[rows])
            if both.size:
                # Product of experts: accumulate precision-weighted terms.
                mu[rows[both]] += m[both] / v[both]
                var[rows[both]] += 1.0 / v[both]
        done = np.flatnonzero(blend_rows)
        if done.size:
            var[done] = 1.0 / var[done]
            mu[done] = mu[done] * var[done]
        if return_std:
            return mu, np.sqrt(var)
        return mu


# ----------------------------------------------------------------- learner


class ShardedLearner:
    """Pool-based sharded active learning with shard-level fault isolation.

    Composes the Initial/Active/Test :class:`~repro.al.partition.Partition`
    (what may be measured) with an :class:`InputPartitioner` (who owns
    which region): Initial rows seed their home shard's training set, and
    every acquisition round fits all warm serviceable shards,
    routes the batch through an :class:`AcquisitionRouter`, and adopts
    each measurement into its owner's (append-only) training set.

    ``run(checkpoint_path=)`` atomically rewrites one checkpoint file (the
    measurement log plus all RNG/breaker/guardrail state; the CLI names it
    ``manifest.json``) after every round.  :meth:`resume` replays it
    exactly once — a SIGKILL mid-round loses at most the un-checkpointed
    round, which is then re-derived bit-identically.

    Parameters mirror :class:`~repro.al.learner.ActiveLearner`, plus:

    ``config``
        The :class:`ShardingConfig`.
    ``fault_config``
        Optional :class:`~repro.cluster.faults.ShardFaultConfig`; when
        enabled, shard fits are fault-injected (crash/hang/corrupt) with
        draws keyed by ``(shard, round, attempt)``.
    ``pmap``
        The :class:`~repro.parallel.ParallelMap` of the fit waves
        (default: the serial backend, which on a 2-vCPU machine measured
        fastest; results are bit-identical across all backends).
    ``registry``
        Optional :class:`~repro.serve.registry.ModelRegistry` (or path);
        the final per-shard models are published as one bundle.
    """

    def __init__(
        self,
        X: np.ndarray,
        y: np.ndarray,
        costs: np.ndarray,
        partition: Partition,
        *,
        config: ShardingConfig,
        strategy: Strategy | None = None,
        model_factory=None,
        pmap: ParallelMap | None = None,
        fault_config: ShardFaultConfig | None = None,
        registry=None,
    ):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        costs = np.asarray(costs, dtype=float)
        if X.ndim != 2 or y.shape != (X.shape[0],) or costs.shape != y.shape:
            raise ValueError("X, y, costs must be consistent (n, d)/(n,)/(n,)")
        if partition.n_total != X.shape[0]:
            raise ValueError(
                f"partition covers {partition.n_total} records, "
                f"dataset has {X.shape[0]}"
            )
        self.config = config
        self.partitioner = InputPartitioner(
            config.n_shards, seed=config.seed
        ).fit(X)
        self.model_factory = model_factory or default_model_factory()
        self.pmap = pmap or ParallelMap(default_backend="serial")
        self.supervisor = ShardSupervisor(
            config.n_shards,
            config=config,
            model_factory=self.model_factory,
            pmap=self.pmap,
            fault_config=fault_config,
        )
        template = strategy if strategy is not None else VarianceReduction()
        self.strategies = {
            s: template.with_seed(self._strategy_seed(s))
            for s in range(config.n_shards)
        }
        self.strategy_name = template.name
        self._rng = np.random.default_rng(
            np.random.SeedSequence(entropy=int(config.seed), spawn_key=(2,))
        )
        self.registry = open_registry(registry)

        self.pool = CandidatePool(
            X[partition.active], y[partition.active], costs[partition.active]
        )
        self._pool_home = self.partitioner.assign(X[partition.active])
        self.X_test = X[partition.test]
        self.y_test = y[partition.test]
        init_labels = self.partitioner.assign(X[partition.initial])
        self._shard_X = {s: [] for s in range(config.n_shards)}
        self._shard_y = {s: [] for s in range(config.n_shards)}
        for row, lab, val in zip(
            X[partition.initial], init_labels, y[partition.initial]
        ):
            self._shard_X[int(lab)].append(np.asarray(row, dtype=float))
            self._shard_y[int(lab)].append(float(val))

        self._dataset_hash = dataset_digest(
            X, y, costs, partition.initial, partition.active, partition.test
        )

        self._measurements: list[list] = []
        self._rounds: list[dict] = []
        self._cumulative_cost = 0.0
        self._models: dict = {}
        self._started = False

    # ------------------------------------------------------------- plumbing

    def _strategy_seed(self, shard: int) -> int:
        ss = np.random.SeedSequence(
            entropy=int(self.config.seed), spawn_key=(3, int(shard))
        )
        return int(ss.generate_state(1)[0])

    def _shard_arrays(self, shard: int) -> tuple[np.ndarray, np.ndarray]:
        d = self.pool.X.shape[1]
        rows = self._shard_X[shard]
        X = np.asarray(rows, dtype=float) if rows else np.zeros((0, d))
        return X, np.asarray(self._shard_y[shard], dtype=float)

    def _apply_pick(self, pick: dict) -> None:
        s = int(pick["owner"])
        self._shard_X[s].append(np.asarray(pick["x"], dtype=float))
        self._shard_y[s].append(float(pick["y"]))
        self._measurements.append(
            [int(pick["pool_index"]), s, float(pick["y"]), float(pick["cost"])]
        )
        self._cumulative_cost += float(pick["cost"])

    def _fit_wave(self, round_index: int) -> dict:
        shard_X = {s: self._shard_X[s] for s in range(self.config.n_shards)}
        shard_y = {s: self._shard_y[s] for s in range(self.config.n_shards)}
        return self.supervisor.fit_round(round_index, shard_X, shard_y)

    def _sharded_model(self, models: dict) -> ShardedModel | None:
        if not models:
            return None
        return ShardedModel(self.partitioner, models)

    # ----------------------------------------------------------- main loop

    def run(self, checkpoint_path=None) -> CampaignResult:
        """Run the full campaign from scratch (one use per instance)."""
        if self._started:
            raise RuntimeError(
                "this learner already ran; build a fresh instance (or resume)"
            )
        self._started = True
        return self._loop(0, checkpoint_path)

    def resume(self, path) -> CampaignResult:
        """Continue a checkpointed campaign exactly once from its file.

        Call on a *freshly constructed* learner over the identical
        dataset/partition/config (validated via a dataset hash).  Already
        measured points are replayed from the manifest — never
        re-measured — and the interrupted round, if any, is re-derived
        bit-identically from restored RNG, breaker and last-known-good
        state.  Checkpointing continues into ``path``.
        """
        if self._started:
            raise RuntimeError("resume() requires a freshly constructed learner")
        self._started = True
        manifest = read_checkpoint(
            path,
            "sharded campaign checkpoint",
            _MANIFEST_VERSION,
            expect=self._checkpoint_config(),
        )

        for idx, owner, _y_stored, _c_stored in manifest["measurements"]:
            x, y_meas, cost = self.pool.consume(int(idx))
            self._apply_pick(
                {
                    "pool_index": int(idx),
                    "owner": int(owner),
                    "x": x,
                    "y": y_meas,
                    "cost": cost,
                }
            )
        self._rounds = list(manifest.get("rounds", []))

        restore_generators(self._generators(), manifest)

        sup = self.supervisor
        sup.breaker = ShardBreaker.from_dict(
            manifest["breaker"], n_shards=self.config.n_shards
        )
        sup.total_rounds = int(manifest.get("total_fit_rounds", 0))
        sup.tallies = GuardrailTallies.from_dict(manifest.get("tallies"))
        for s, rec in manifest["records"].items():
            sup.records[int(s)].update(rec)
            gate = sup.gates[int(s)]
            gate.tallies = sup.tallies
            gate.prev_lml_per_point = rec["prev_lml_pp"]

        self._rebuild_lkg()
        return self._loop(int(manifest["next_round"]), path)

    def _rebuild_lkg(self) -> None:
        """Re-materialize each shard's last-known-good from its seed key.

        The recorded ``(lkg_round, lkg_attempt)`` pin down the exact model
        seed and training prefix of the remembered fit; re-running the
        same fit task — fault injection off — reproduces it bit-exactly
        (shard training sets are append-only, so the prefix still exists).
        """
        task = _ShardFitTask(self.model_factory, None, self.config.seed)
        for s in range(self.config.n_shards):
            rec = self.supervisor.records[s]
            if rec["lkg_round"] is None or rec["lkg_n"] < 1:
                continue
            X, y = self._shard_arrays(s)
            n = int(rec["lkg_n"])
            out = task(
                (
                    s,
                    int(rec["lkg_round"]),
                    int(rec["lkg_attempt"]),
                    X[:n],
                    y[:n],
                    _model_seed(
                        self.config.seed, s, rec["lkg_round"], rec["lkg_attempt"]
                    ),
                )
            )
            if out["ok"]:
                self.supervisor.gates[s].lkg.remember(out["model"])

    def _loop(self, start_round: int, checkpoint_path) -> CampaignResult:
        cfg = self.config
        stop_reason = "completed"
        for r in range(start_round, cfg.n_rounds):
            with tm.span("shard.round", index=r):
                serviceable = self.supervisor.serviceable_shards(r)
                if not serviceable:
                    stop_reason = "all_shards_unavailable"
                    break
                models = self._fit_wave(r)
                self._models = models
                router = AcquisitionRouter(
                    self.partitioner,
                    models,
                    self.strategies,
                    self.pool,
                    self._pool_home,
                    serviceable,
                    self._rng,
                )
                picks = router.select_batch(cfg.batch_size)
                if not picks:
                    stop_reason = (
                        "pool_exhausted"
                        if self.pool.exhausted
                        else "all_shards_unavailable"
                    )
                    break
                for pick in picks:
                    self._apply_pick(pick)
                sharded = self._sharded_model(models)
                rmse_now = None
                if sharded is not None:
                    metrics = evaluate_model(
                        sharded, self.pool.X, self.X_test, self.y_test
                    )
                    rmse_now = metrics["rmse"]
                self._rounds.append(
                    {
                        "round": r,
                        "n_shards_available": len(models),
                        "n_picks": len(picks),
                        "rmse": rmse_now,
                        "cumulative_cost": self._cumulative_cost,
                    }
                )
                tm.event(
                    "shard.round",
                    round=r,
                    n_shards_available=len(models),
                    n_picks=len(picks),
                    rmse=rmse_now,
                )
                if checkpoint_path is not None:
                    self._write_checkpoint(checkpoint_path, next_round=r + 1)

        final_models: dict = {}
        if self.supervisor.serviceable_shards(cfg.n_rounds):
            final_models = self._fit_wave(cfg.n_rounds)
        self._models = final_models
        model = self._sharded_model(final_models)
        availability = self.supervisor.availability(cfg.n_rounds + 1)
        if self.registry is not None and final_models:
            shards = sorted(final_models)
            self.registry.publish_bundle(
                [final_models[s] for s in shards],
                shard_ids=shards,
                healths=[self.supervisor.gates[s].last_report for s in shards],
                extra={
                    "strategy": self.strategy_name,
                    "n_rounds": cfg.n_rounds,
                    "stop_reason": stop_reason,
                },
            )
        if self._measurements:
            measured_idx = [int(m[0]) for m in self._measurements]
            X_meas = self.pool.X[measured_idx]
            y_meas = self.pool.y[measured_idx]
        else:
            X_meas = np.zeros((0, self.pool.X.shape[1]))
            y_meas = np.zeros(0)
        return CampaignResult(
            X=X_meas,
            y=np.asarray(y_meas, dtype=float),
            simulated_seconds=self._cumulative_cost,
            cpu_core_seconds=self._cumulative_cost,
            model=model,
            rounds=self._rounds,
            stop_reason=stop_reason,
            guardrails=self.supervisor.tallies,
            shard_availability=availability,
        )

    # ---------------------------------------------------------- checkpoints

    def _checkpoint_config(self) -> dict:
        """Manifest values a resume must match (the dataset via its hash)."""
        cfg = self.config
        return {
            "kind": "sharded-campaign",
            "n_shards": cfg.n_shards,
            "n_rounds": cfg.n_rounds,
            "batch_size": cfg.batch_size,
            "seed": cfg.seed,
            "dataset_hash": self._dataset_hash,
        }

    def _generators(self) -> dict:
        return {
            "rng_state": self._rng,
            "strategy_rng": {
                str(s): strat.generators() for s, strat in self.strategies.items()
            },
        }

    def _write_checkpoint(self, path, *, next_round: int) -> None:
        sup = self.supervisor
        write_json_atomic(
            {
                "version": _MANIFEST_VERSION,
                **self._checkpoint_config(),
                "next_round": int(next_round),
                "cumulative_cost": self._cumulative_cost,
                "measurements": self._measurements,
                "rounds": self._rounds,
                **capture_generators(self._generators()),
                "breaker": sup.breaker.as_dict(),
                "records": {str(s): r for s, r in sup.records.items()},
                "total_fit_rounds": sup.total_rounds,
                "tallies": sup.tallies.as_dict(),
            },
            path,
        )
        tm.count("shard.checkpoint.writes")


# ----------------------------------------------------------- synthetic pool


def mixed_operator_pool(
    n_points: int = 160,
    *,
    operators=("poisson1", "poisson2"),
    seed: int = 0,
    noise=PERFORMANCE_NOISE,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Heterogeneous benchmark pool mixing the paper's two operators.

    Samples ``n_points`` HPGMG-style configurations split evenly across
    ``operators`` — problem size log-uniform in ``[1e4, 1e8)``, ranks
    from the paper's power-of-two ladder, frequency uniform in
    ``[1.2, 2.4)`` GHz — runs them through the synthetic
    :class:`~repro.perfmodel.RuntimeModel` with multiplicative noise, and
    returns ``(X, y, costs)``: features ``(operator code, log10 size,
    log2 ranks, GHz)``, responses ``log10 runtime``, costs
    ``runtime x ranks`` (core-seconds).  The operator code makes the
    response surface piecewise per operator — the heterogeneous regime
    where sharding should beat one global GP.
    """
    if n_points < len(operators):
        raise ValueError("n_points must cover at least one point per operator")
    rng = np.random.default_rng(seed)
    runtime_model = RuntimeModel()
    ladder = np.array([1, 2, 4, 8, 16, 32, 64], dtype=float)
    rows, responses, costs = [], [], []
    base, remainder = divmod(n_points, len(operators))
    for code, op in enumerate(operators):
        k = base + (1 if code < remainder else 0)
        size = 10.0 ** rng.uniform(4.0, 8.0, size=k)
        ranks = rng.choice(ladder, size=k)
        freq = rng.uniform(1.2, 2.4, size=k)
        t = runtime_model.runtime(op, size, ranks, freq)
        t = noise.apply(t, rng) if noise is not None else np.asarray(t, dtype=float)
        rows.append(
            np.column_stack([np.full(k, code, dtype=float),
                             np.log10(size), np.log2(ranks), freq])
        )
        responses.append(np.log10(t))
        costs.append(t * ranks)
    return (
        np.vstack(rows),
        np.concatenate(responses),
        np.concatenate(costs),
    )

"""Fault tolerance for online AL campaigns: retries and quarantine.

The paper's online mode feeds every experiment outcome straight into the
GPR, which is only sound when every job succeeds.  On a real cluster jobs
crash, hang past the time limit, and occasionally return corrupted
measurements — and training a GP on a timeout-truncated runtime is the
unreliable-annotator failure mode that corrupts its posterior.  This module
supplies the two gates :class:`~repro.al.campaign.OnlineCampaign` applies
before an observation may enter the training set:

* :class:`RetryPolicy` — how often to re-submit a failed experiment, and
  the (simulated) backoff charged to the campaign makespan between
  attempts.  Failed attempts still cost real core-seconds.
* :class:`QuarantinePolicy` — which observations to keep out of the
  training set: failed/timed-out job states, verification failures, and
  (optionally) measurements whose GP-predictive z-score marks them as
  outliers.

:class:`FailureAccounting` aggregates what the gates rejected so the cost
of unreliability is first-class in :class:`~repro.al.campaign.CampaignResult`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import telemetry as tm
from ..cluster.jobs import JobRecord
from ..gp.gpr import GaussianProcessRegressor

__all__ = [
    "RetryPolicy",
    "QuarantineDecision",
    "QuarantinePolicy",
    "FailureAccounting",
    "ShardBreaker",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Re-submission schedule for rejected experiments.

    Attributes
    ----------
    max_attempts:
        Total executions allowed per experiment (1 = never retry).
    backoff_seconds:
        Simulated delay before the first retry wave; charged to the
        campaign makespan (the wall-clock a real campaign would burn
        waiting for the node to recover).
    backoff_factor:
        Multiplier applied to the delay on each further wave
        (exponential backoff).
    retry_on:
        Quarantine reasons that warrant a retry.  ``"state"`` covers
        FAILED/TIMEOUT job states, ``"verification"`` covers corrupted
        measurements; ``"outlier"`` re-measurements are usually wasteful
        (the point was measured, it just disagrees with the model), so they
        are not retried by default.
    """

    max_attempts: int = 3
    backoff_seconds: float = 30.0
    backoff_factor: float = 2.0
    retry_on: tuple[str, ...] = ("state", "verification")

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_seconds < 0:
            raise ValueError("backoff_seconds must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")

    @classmethod
    def none(cls) -> "RetryPolicy":
        """A policy that never retries (single attempt per experiment)."""
        return cls(max_attempts=1, backoff_seconds=0.0, retry_on=())

    def backoff(self, wave: int) -> float:
        """Simulated seconds to wait before retry wave ``wave`` (1-based)."""
        if wave < 1:
            raise ValueError("wave must be >= 1")
        return self.backoff_seconds * self.backoff_factor ** (wave - 1)

    def should_retry(self, reason: str, attempts_done: int) -> bool:
        """Whether an experiment rejected for ``reason`` after
        ``attempts_done`` executions deserves another attempt."""
        granted = reason in self.retry_on and attempts_done < self.max_attempts
        if granted:
            tm.count("retry.granted")
        return granted


@dataclass(frozen=True)
class QuarantineDecision:
    """Verdict on one job record: keep it or gate it out (and why)."""

    ok: bool
    reason: str | None = None  # "state" | "verification" | "outlier"
    detail: str = ""


@dataclass(frozen=True)
class QuarantinePolicy:
    """Gates observations out of the GP training set.

    Checks run in order — job state, verification flag, then the
    GP-predictive z-score — and the first failing check wins.

    Attributes
    ----------
    reject_states:
        SLURM job states whose runtimes are meaningless (a TIMEOUT runtime
        is truncated at the limit, a FAILED one at the crash point).
    require_verification:
        Reject completed jobs whose benchmark verification failed.
    z_threshold:
        If set, reject measurements more than this many predictive
        standard deviations from the current GP mean (computed in the
        model's response space, i.e. log10 runtime).  ``None`` disables
        the outlier test — it needs a trustworthy model, so campaigns
        typically enable it only once a few rounds have accumulated.
    """

    reject_states: tuple[str, ...] = ("FAILED", "TIMEOUT")
    require_verification: bool = True
    z_threshold: float | None = None

    def __post_init__(self):
        if self.z_threshold is not None and self.z_threshold <= 0:
            raise ValueError("z_threshold must be positive (or None)")

    @classmethod
    def permissive(cls) -> "QuarantinePolicy":
        """A policy that accepts everything (the pre-fault-tolerance
        behaviour: blind ingestion)."""
        return cls(reject_states=(), require_verification=False, z_threshold=None)

    def inspect(
        self,
        record: JobRecord,
        *,
        model: GaussianProcessRegressor | None = None,
        x: np.ndarray | None = None,
    ) -> QuarantineDecision:
        """Judge one accounting record.

        ``model`` and ``x`` (the record's feature row) enable the z-score
        test; without them — or with an unfitted model — only the state and
        verification checks run.
        """
        decision = self._inspect(record, model=model, x=x)
        if tm.enabled():
            tm.count("quarantine.inspected")
            if decision.ok:
                tm.count("quarantine.accepted")
            else:
                tm.count(f"quarantine.rejected.{decision.reason}")
        return decision

    def _inspect(
        self,
        record: JobRecord,
        *,
        model: GaussianProcessRegressor | None,
        x: np.ndarray | None,
    ) -> QuarantineDecision:
        if record.state in self.reject_states:
            return QuarantineDecision(
                ok=False,
                reason="state",
                detail=f"job {record.job_id} ended in state {record.state}",
            )
        if self.require_verification and not record.verification_passed:
            return QuarantineDecision(
                ok=False,
                reason="verification",
                detail=f"job {record.job_id} failed verification",
            )
        if (
            self.z_threshold is not None
            and model is not None
            and model.fitted
            and x is not None
        ):
            y_obs = float(np.log10(record.runtime_seconds))
            mu, sd = model.predict(np.asarray(x, dtype=float)[np.newaxis, :],
                                   return_std=True)
            sd_val = float(sd[0])
            if sd_val > 0:
                z = abs(y_obs - float(mu[0])) / sd_val
                if z > self.z_threshold:
                    return QuarantineDecision(
                        ok=False,
                        reason="outlier",
                        detail=(
                            f"job {record.job_id} runtime z-score "
                            f"{z:.2f} > {self.z_threshold}"
                        ),
                    )
        return QuarantineDecision(ok=True)


@dataclass
class FailureAccounting:
    """What unreliability cost a campaign.

    Attributes
    ----------
    n_failed:
        Executions that ended FAILED or TIMEOUT (every attempt counts).
    n_retries:
        Re-submissions performed (executions beyond each experiment's
        first attempt).
    n_quarantined:
        Completed executions gated out of the training set (verification
        failures and z-score outliers).
    wasted_core_seconds:
        Core-seconds spent on executions that produced no usable
        observation.
    """

    n_failed: int = 0
    n_retries: int = 0
    n_quarantined: int = 0
    wasted_core_seconds: float = 0.0

    def add(self, other: "FailureAccounting") -> None:
        """Fold another accounting delta into this one."""
        self.n_failed += other.n_failed
        self.n_retries += other.n_retries
        self.n_quarantined += other.n_quarantined
        self.wasted_core_seconds += other.wasted_core_seconds


# ----------------------------------------------------------- shard breaker
#
# The node circuit breaker (repro.cluster.breaker) protects the *scheduler*
# from crash-prone nodes on a wall-clock timeline.  Sharded campaigns
# (repro.al.sharding) need the same pattern on a different failure domain
# and a different clock: a shard whose *model fit* keeps failing must be
# excluded from acquisition routing for a few rounds, probed, and
# eventually written off — all indexed by AL round, not seconds, so the
# state machine replays identically under checkpoint resume.


#: Consecutive failed rounds (every retry exhausted) before a shard opens.
_OPEN_AFTER = 2
#: Rounds an open shard sits out before a half-open probe fit.
_COOLDOWN_ROUNDS = 2
#: Times a shard may open before it is declared dead for the campaign.
_BLACKLIST_AFTER = 3


class ShardBreaker:
    """Per-shard circuit breaker over AL rounds.

    States per shard: ``closed`` (fits normally) -> ``open`` after
    :data:`_OPEN_AFTER` consecutive failed rounds (excluded from fitting
    and routing for :data:`_COOLDOWN_ROUNDS`) -> ``half_open`` (one probe
    fit allowed) -> back to ``closed`` on success, or re-open on failure;
    the :data:`_BLACKLIST_AFTER`-th opening makes it ``dead``.  Everything
    is indexed by the campaign's round counter, so the breaker serializes
    to a small dict and resumes bit-identically (:meth:`as_dict` /
    :meth:`from_dict`).
    """

    def __init__(self, n_shards: int):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = int(n_shards)
        self._consecutive = [0] * self.n_shards
        self._open_until = [-1] * self.n_shards  # -1 = not open
        self._opens = [0] * self.n_shards
        self._dead = [False] * self.n_shards
        self.n_opened = 0
        self.n_probes = 0
        self.n_blacklisted = 0

    # ------------------------------------------------------------- queries

    def state(self, shard: int, round_index: int) -> str:
        """``"closed"``, ``"open"``, ``"half_open"`` or ``"dead"``."""
        if self._dead[shard]:
            return "dead"
        until = self._open_until[shard]
        if until < 0:
            return "closed"
        if round_index < until:
            return "open"
        return "half_open"

    def serviceable(self, shard: int, round_index: int) -> bool:
        """Whether this shard may attempt a fit this round."""
        return self.state(shard, round_index) in ("closed", "half_open")

    def serviceable_shards(self, round_index: int) -> list[int]:
        return [
            s for s in range(self.n_shards) if self.serviceable(s, round_index)
        ]

    def dead_shards(self) -> list[int]:
        return [s for s in range(self.n_shards) if self._dead[s]]

    # ------------------------------------------------------------ outcomes

    def record_success(self, shard: int, round_index: int) -> None:
        """A fit attempt succeeded: close the shard."""
        if self._dead[shard]:
            return
        if self.state(shard, round_index) == "half_open":
            self.n_probes += 1
            tm.count("shard.breaker.probes")
        self._consecutive[shard] = 0
        self._open_until[shard] = -1

    def record_failure(self, shard: int, round_index: int) -> None:
        """Every retry of this round's fit failed: count toward opening."""
        if self._dead[shard]:
            return
        state = self.state(shard, round_index)
        if state == "half_open":
            self.n_probes += 1
            tm.count("shard.breaker.probes")
            self._open(shard, round_index)
            return
        self._consecutive[shard] += 1
        if self._consecutive[shard] >= _OPEN_AFTER:
            self._open(shard, round_index)

    def _open(self, shard: int, round_index: int) -> None:
        self._opens[shard] += 1
        self.n_opened += 1
        tm.count("shard.breaker.opens")
        if self._opens[shard] >= _BLACKLIST_AFTER:
            self._dead[shard] = True
            self._open_until[shard] = -1
            self.n_blacklisted += 1
            tm.count("shard.breaker.blacklisted")
            tm.event("shard.breaker", shard=shard, state="dead")
            return
        self._open_until[shard] = round_index + 1 + _COOLDOWN_ROUNDS
        tm.event(
            "shard.breaker",
            shard=shard,
            state="open",
            until_round=self._open_until[shard],
        )

    # -------------------------------------------------------- persistence

    def as_dict(self) -> dict:
        return {
            "consecutive": list(self._consecutive),
            "open_until": list(self._open_until),
            "opens": list(self._opens),
            "dead": list(self._dead),
            "n_opened": self.n_opened,
            "n_probes": self.n_probes,
            "n_blacklisted": self.n_blacklisted,
        }

    @classmethod
    def from_dict(cls, data: dict, *, n_shards: int) -> "ShardBreaker":
        breaker = cls(n_shards)
        for name, attr in (
            ("consecutive", "_consecutive"),
            ("open_until", "_open_until"),
            ("opens", "_opens"),
        ):
            values = [int(v) for v in data.get(name, [])]
            if len(values) != n_shards:
                raise ValueError(
                    f"shard breaker state {name!r} has {len(values)} entries "
                    f"for {n_shards} shards"
                )
            setattr(breaker, attr, values)
        dead = [bool(v) for v in data.get("dead", [])]
        if len(dead) != n_shards:
            raise ValueError("shard breaker state 'dead' length mismatch")
        breaker._dead = dead
        breaker.n_opened = int(data.get("n_opened", 0))
        breaker.n_probes = int(data.get("n_probes", 0))
        breaker.n_blacklisted = int(data.get("n_blacklisted", 0))
        return breaker

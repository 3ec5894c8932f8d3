"""Multi-fidelity active learning with precision-weighted fusion.

The paper's Cost Efficiency strategy (Section V-B) trades predicted
uncertainty against predicted cost, but always queries at a single
fidelity.  This module adds the cheap-noisy vs expensive-accurate axis
("Active Learning with Weak Supervision for Gaussian Processes" formalizes
the choice): an oracle exposes the *same* configuration space at two or
more :class:`FidelityTier`\\ s — e.g. a short-repeat noisy probe at 10% of
the cost of a full HPGMG run — and the acquisition chooses *fidelity as
well as location* by expected uncertainty reduction per unit cost.

Repeated observations at the same input (across any mix of tiers) are
fused by inverse variance before fitting:

    precision = sum_i 1 / s_i^2
    y_fused   = (sum_i y_i / s_i^2) / precision
    s_fused^2 = 1 / precision

and each fused location becomes one heteroscedastic training row with
per-point noise ``alpha = s_fused^2``
(:meth:`repro.gp.GaussianProcessRegressor.fit`).

The acquisition scores a query of tier ``t`` (noise ``s_t^2``, cost
``c * m_t``) at candidate ``x`` with latent variance ``sigma^2(x)`` by the
exact one-step posterior-variance reduction of a Gaussian observation,

    gain(x, t) = sigma^4(x) / (sigma^2(x) + s_t^2),

divided by the tier-scaled cost — a direct extension of
:class:`repro.al.strategies.CostEfficiency` to (location, fidelity) pairs.

:class:`MultiFidelityLearner` speaks the campaign protocol of
:func:`repro.al.replicates.run_replicates` (``run(checkpoint_path=)`` /
``resume(path)``, result fields), checkpoints its fusion state after every
round, and resumes bit-identically.  See ``docs/MULTIFIDELITY.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .. import telemetry as tm
from ..gp.gpr import GaussianProcessRegressor
from .guardrails import ModelChain
from .learner import default_model_factory
from .metrics import evaluate_model
from .session import (
    capture_generators,
    read_checkpoint,
    restore_generators,
    write_json_atomic,
)

__all__ = [
    "FidelityTier",
    "FidelityObservation",
    "MultiFidelityOracle",
    "FusionState",
    "MultiFidelityCostEfficiency",
    "FidelityRecord",
    "MultiFidelityResult",
    "MultiFidelityLearner",
    "tiers_from_spec",
]

_CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class FidelityTier:
    """One way of measuring the target function.

    Attributes
    ----------
    name:
        Human-readable tier label (``"probe"``, ``"full"``).
    cost_multiplier:
        Fraction of the reference experiment cost charged per query at
        this tier (1.0 = the full run the dataset costs describe).
    noise_variance:
        Observation noise variance of one query at this tier, in response
        units (log10 runtime for the paper's datasets).  Must be positive:
        the precision-weighted fusion divides by it.
    """

    name: str
    cost_multiplier: float
    noise_variance: float

    def __post_init__(self):
        if not self.name:
            raise ValueError("tier name must be non-empty")
        if not np.isfinite(self.cost_multiplier) or self.cost_multiplier <= 0:
            raise ValueError(
                f"tier {self.name!r}: cost_multiplier must be positive, "
                f"got {self.cost_multiplier}"
            )
        if not np.isfinite(self.noise_variance) or self.noise_variance <= 0:
            raise ValueError(
                f"tier {self.name!r}: noise_variance must be positive "
                f"(precision fusion divides by it), got {self.noise_variance}"
            )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "cost_multiplier": float(self.cost_multiplier),
            "noise_variance": float(self.noise_variance),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FidelityTier":
        return cls(
            name=payload["name"],
            cost_multiplier=float(payload["cost_multiplier"]),
            noise_variance=float(payload["noise_variance"]),
        )


def tiers_from_spec(spec: str) -> tuple[FidelityTier, ...]:
    """Parse a CLI tier spec: ``name:cost_mult:noise_sd[,name:...]``.

    The third field is the noise *standard deviation* in response units
    (easier to eyeball than a variance); e.g.
    ``"probe:0.1:0.15,full:1.0:0.02"`` describes a 10%-cost probe with
    sigma 0.15 and the full run with sigma 0.02.
    """
    tiers = []
    for part in spec.split(","):
        fields = part.strip().split(":")
        if len(fields) != 3:
            raise ValueError(
                f"bad tier spec {part!r}: expected name:cost_mult:noise_sd"
            )
        name, mult, sd = fields
        tiers.append(
            FidelityTier(
                name=name.strip(),
                cost_multiplier=float(mult),
                noise_variance=float(sd) ** 2,
            )
        )
    if len({t.name for t in tiers}) != len(tiers):
        raise ValueError(f"duplicate tier names in spec {spec!r}")
    return tuple(tiers)


@dataclass(frozen=True)
class FidelityObservation:
    """One measurement returned by :meth:`MultiFidelityOracle.query`."""

    x: np.ndarray
    y: float
    cost: float
    tier: str
    noise_variance: float


class MultiFidelityOracle:
    """Wrap a single-fidelity target behind ≥ 1 fidelity tiers.

    Parameters
    ----------
    reference:
        The underlying experiment: either a callable ``x -> y`` returning
        the reference (full-fidelity) response, or an object with a
        ``query(x) -> Observation`` method (e.g.
        :class:`repro.al.oracle.OnlineHPGMGOracle`), whose observation
        supplies both response and reference cost.
    tiers:
        The available :class:`FidelityTier` s.  Tier queries add
        independent Gaussian noise of the tier's variance to the reference
        response and charge ``reference cost x cost_multiplier``.
    cost_fn:
        Reference cost of one full experiment at ``x`` (callable
        ``x -> float``); only used with a callable ``reference`` (defaults
        to 1.0 per query).  Ignored when ``reference`` has ``query`` —
        its observation already carries the cost.
    rng:
        Seed or generator for the tier noise draws.  Its state is exposed
        via :attr:`rng_state` so campaigns can checkpoint mid-stream.
    """

    def __init__(self, reference, tiers, *, cost_fn=None, rng=None):
        tiers = tuple(tiers)
        if not tiers:
            raise ValueError("need at least one fidelity tier")
        if len({t.name for t in tiers}) != len(tiers):
            raise ValueError("tier names must be unique")
        self.reference = reference
        self.tiers = tiers
        self.cost_fn = cost_fn
        self.rng = np.random.default_rng(rng)

    @property
    def rng_state(self) -> dict:
        """JSON-safe noise-stream state (for checkpointing)."""
        return self.rng.bit_generator.state

    @rng_state.setter
    def rng_state(self, state: dict) -> None:
        self.rng.bit_generator.state = state

    def tier(self, key) -> FidelityTier:
        """Resolve a tier by index or name."""
        if isinstance(key, FidelityTier):
            return key
        if isinstance(key, str):
            for t in self.tiers:
                if t.name == key:
                    return t
            raise KeyError(
                f"unknown tier {key!r}; have {[t.name for t in self.tiers]}"
            )
        return self.tiers[int(key)]

    @property
    def reference_tier(self) -> FidelityTier:
        """The most expensive tier — the stand-in for 'the full run'."""
        return max(self.tiers, key=lambda t: t.cost_multiplier)

    def query(self, x, fidelity) -> FidelityObservation:
        """One measurement of ``x`` at the given tier (index, name or tier)."""
        t = self.tier(fidelity)
        x = np.asarray(x, dtype=float)
        if hasattr(self.reference, "query"):
            obs = self.reference.query(x)
            y_ref, base_cost = float(obs.y), float(obs.cost)
            x = np.asarray(obs.x, dtype=float)
        else:
            y_ref = float(self.reference(x))
            base_cost = float(self.cost_fn(x)) if self.cost_fn is not None else 1.0
        y = y_ref + math.sqrt(t.noise_variance) * float(self.rng.standard_normal())
        cost = base_cost * t.cost_multiplier
        tm.count("fidelity.queries")
        tm.count(f"fidelity.tier.{t.name}")
        tm.observe("fidelity.cost", cost)
        return FidelityObservation(
            x=x, y=y, cost=cost, tier=t.name, noise_variance=t.noise_variance
        )


class FusionState:
    """Inverse-variance accumulation of repeated observations per location.

    Observations at the same input (bit-identical feature rows — candidate
    grids reuse the exact same array rows) accumulate a precision and a
    precision-weighted response sum; :meth:`fused` materializes one
    heteroscedastic training row per location.  Serializes bit-exactly:
    the accumulators round-trip through JSON ``repr`` floats and insertion
    order is preserved, so a resumed campaign fits on the same matrices to
    the last bit.
    """

    __slots__ = ("_entries",)

    def __init__(self):
        # key (exact float tuple of x) -> [x array, precision,
        # weighted sum, n observations]
        self._entries: dict[tuple, list] = {}

    @staticmethod
    def _key(x: np.ndarray) -> tuple:
        return tuple(float(v) for v in np.asarray(x, dtype=float).ravel())

    @property
    def n_locations(self) -> int:
        return len(self._entries)

    @property
    def n_observations(self) -> int:
        return int(sum(e[3] for e in self._entries.values()))

    def count_at(self, x) -> int:
        """Observations accumulated at ``x`` so far (0 if never measured)."""
        entry = self._entries.get(self._key(x))
        return int(entry[3]) if entry is not None else 0

    def add(self, x, y: float, noise_variance: float) -> tuple[int, float]:
        """Fold one observation with known noise variance into its location.

        Returns the location's observation count and fused mean after it.
        """
        if not np.isfinite(noise_variance) or noise_variance <= 0:
            raise ValueError(
                f"noise_variance must be positive, got {noise_variance}"
            )
        key = self._key(x)
        entry = self._entries.get(key)
        if entry is None:
            entry = [np.asarray(x, dtype=float).ravel().copy(), 0.0, 0.0, 0]
            self._entries[key] = entry
        entry[1] += 1.0 / noise_variance
        entry[2] += float(y) / noise_variance
        entry[3] += 1
        return entry[3], entry[2] / entry[1]

    def fused(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(X, y_fused, alpha_fused)`` — one row per location, insertion order.

        ``y_fused`` is the precision-weighted mean and ``alpha_fused`` the
        fused variance ``1 / precision`` — exactly the closed-form pooled
        estimate for Gaussian observations with known variances.
        """
        if not self._entries:
            raise ValueError("fusion state is empty")
        entries = list(self._entries.values())
        X = np.vstack([e[0] for e in entries])
        y = np.asarray([e[2] / e[1] for e in entries])
        alpha = np.asarray([1.0 / e[1] for e in entries])
        return X, y, alpha

    def to_dict(self) -> dict:
        return {
            "entries": [
                {
                    "x": e[0].tolist(),
                    "precision": float(e[1]),
                    "weighted_sum": float(e[2]),
                    "n": int(e[3]),
                }
                for e in self._entries.values()
            ]
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FusionState":
        state = cls()
        for entry in payload["entries"]:
            x = np.asarray(entry["x"], dtype=float)
            state._entries[cls._key(x)] = [
                x,
                float(entry["precision"]),
                float(entry["weighted_sum"]),
                int(entry["n"]),
            ]
        return state


@dataclass
class MultiFidelityCostEfficiency:
    """Cost-aware acquisition over (candidate, fidelity) pairs.

    The :class:`repro.al.strategies.CostEfficiency` extension the paper's
    Section VI gestures at: for every candidate ``x`` and tier ``t`` the
    score is the one-step latent-variance reduction of a tier-``t``
    observation divided by its cost,

        score(x, t) = [sigma^4(x) / (sigma^2(x) + s_t^2)]
                      / (c(x) * m_t) ** cost_weight

    where ``sigma^2(x)`` is the latent predictive variance
    (``include_noise=False``), ``s_t^2`` the tier noise and ``c(x) * m_t``
    the tier-scaled reference cost.  A noisy probe wins where uncertainty
    is broad (any observation helps, so buy the cheap one); the accurate
    tier wins where the remaining variance is already near the probe's
    noise floor, which a probe can no longer reduce.  Exact ties break
    randomly via the ``seed``-derived RNG, mirroring
    :class:`repro.al.strategies.Strategy`.
    """

    cost_weight: float = 1.0
    seed: int = 0
    name: str = "mf-cost-efficiency"

    #: floor on the tier-scaled cost before division
    _COST_FLOOR = 1e-12

    def __post_init__(self):
        self._rng = np.random.default_rng(self.seed)

    def scores(
        self,
        model: GaussianProcessRegressor,
        X: np.ndarray,
        base_costs: np.ndarray,
        tiers,
    ) -> np.ndarray:
        """Score matrix of shape ``(n_candidates, n_tiers)``."""
        X = np.asarray(X, dtype=float)
        base_costs = np.asarray(base_costs, dtype=float)
        _, sd = model.predict(X, return_std=True, include_noise=False)
        var = sd**2
        out = np.empty((X.shape[0], len(tiers)))
        for j, t in enumerate(tiers):
            gain = var**2 / (var + t.noise_variance)
            cost = np.maximum(
                base_costs * t.cost_multiplier, self._COST_FLOOR
            )
            out[:, j] = gain / cost**self.cost_weight
        return out

    def select(
        self,
        model: GaussianProcessRegressor,
        X: np.ndarray,
        base_costs: np.ndarray,
        tiers,
    ) -> tuple[int, int]:
        """``(candidate_index, tier_index)`` of the best-scoring pair."""
        scores = self.scores(model, X, base_costs, tiers)
        flat = scores.ravel()
        ties = np.flatnonzero(flat == np.max(flat))
        pos = int(self._rng.choice(ties)) if ties.size > 1 else int(ties[0])
        return pos // scores.shape[1], pos % scores.shape[1]


@dataclass(frozen=True)
class FidelityRecord:
    """One multi-fidelity AL round: what was queried, at which tier, and why."""

    round_index: int
    candidate_index: int
    tier: str
    x: np.ndarray
    y_observed: float
    y_fused: float
    n_obs_at_x: int
    cost: float
    cumulative_cost: float
    rmse: float
    n_locations: int
    n_observations: int
    noise_variance: float
    lml: float

    def payload(self) -> dict:
        d = {
            "round_index": self.round_index,
            "candidate_index": self.candidate_index,
            "tier": self.tier,
            "x": np.asarray(self.x, dtype=float).tolist(),
            "y_observed": float(self.y_observed),
            "y_fused": float(self.y_fused),
            "n_obs_at_x": int(self.n_obs_at_x),
            "cost": float(self.cost),
            "cumulative_cost": float(self.cumulative_cost),
            "rmse": float(self.rmse),
            "n_locations": int(self.n_locations),
            "n_observations": int(self.n_observations),
            "noise_variance": float(self.noise_variance),
            "lml": float(self.lml),
        }
        return d

    @classmethod
    def from_payload(cls, d: dict) -> "FidelityRecord":
        d = dict(d)
        d["x"] = np.asarray(d["x"], dtype=float)
        return cls(**d)


@dataclass
class MultiFidelityResult:
    """Outcome of one :class:`MultiFidelityLearner` campaign.

    Field names follow the replicate-outcome protocol of
    :func:`repro.al.replicates.run_replicates`: ``rounds`` (one entry per
    completed round), ``simulated_seconds`` / ``cpu_core_seconds`` (both
    the cumulative experiment cost — the oracle is the experiment),
    ``y`` (raw observed responses in measurement order, the determinism
    witness), and zeroed fault counters (the offline oracle cannot fail).
    """

    stop_reason: str
    rounds: list
    model: GaussianProcessRegressor
    cumulative_cost: float
    tier_counts: dict
    n_locations: int
    y: list = field(default_factory=list)
    final_rmse: float = float("nan")
    resumed: bool = False
    n_failed: int = 0
    n_retries: int = 0
    n_quarantined: int = 0
    wasted_core_seconds: float = 0.0

    @property
    def simulated_seconds(self) -> float:
        return self.cumulative_cost

    @property
    def cpu_core_seconds(self) -> float:
        return self.cumulative_cost

    @property
    def n_observations(self) -> int:
        return len(self.y)


class MultiFidelityLearner:
    """Active learning over (location, fidelity) pairs with repeat fusion.

    Every round fits a heteroscedastic GP on the precision-fused
    observations, then asks :class:`MultiFidelityCostEfficiency` where to
    spend next and at which tier.  Candidates are *not* consumed: querying
    the same location again (at any tier) is exactly how the fusion
    sharpens a noisy probe into a trustworthy estimate.

    Parameters
    ----------
    oracle:
        A :class:`MultiFidelityOracle` (≥ 2 tiers for a real
        multi-fidelity campaign; a single tier degrades gracefully to
        classic single-fidelity AL with repeats).
    candidates:
        Query locations, shape ``(n, d)``.
    base_costs:
        Reference (full-fidelity) cost per candidate; defaults to 1.0
        each.  Tier queries are charged ``base_cost x cost_multiplier``.
    n_rounds:
        Acquisition rounds after the initial design.
    n_initial:
        Distinct random candidates measured at the *reference tier* (most
        expensive) before acquisition starts.
    acquisition:
        The (location, fidelity) strategy; defaults to
        :class:`MultiFidelityCostEfficiency` seeded from ``seed``.
    model_factory:
        Zero-argument regressor factory; defaults to
        :func:`repro.al.learner.default_model_factory` with a low noise
        floor (1e-6) — the per-point alphas carry the measurement noise,
        so the learned shared scalar must be free to shrink.
    test:
        Optional ``(X_test, y_test)`` pair for per-round RMSE tracking.
    seed:
        Seeds the initial-design draw (and the default acquisition).

    Checkpointing: pass ``checkpoint_path`` to :meth:`run` and the fusion
    state, all three RNG streams, the round records and the raw
    observation sequence are atomically persisted after every round;
    :meth:`resume` restores them and continues **bit-identically** — the
    fused matrices, every model refit and the remaining tier choices match
    an uninterrupted run to the last bit.
    """

    def __init__(
        self,
        oracle: MultiFidelityOracle,
        candidates: np.ndarray,
        *,
        base_costs: np.ndarray | None = None,
        n_rounds: int = 20,
        n_initial: int = 2,
        acquisition: MultiFidelityCostEfficiency | None = None,
        model_factory=None,
        test: tuple | None = None,
        seed: int = 0,
    ):
        candidates = np.asarray(candidates, dtype=float)
        if candidates.ndim != 2 or candidates.shape[0] == 0:
            raise ValueError("candidates must be a non-empty (n, d) matrix")
        if base_costs is None:
            base_costs = np.ones(candidates.shape[0])
        base_costs = np.asarray(base_costs, dtype=float)
        if base_costs.shape != (candidates.shape[0],):
            raise ValueError("base_costs must have one entry per candidate")
        if not np.all(np.isfinite(base_costs)) or np.any(base_costs <= 0):
            raise ValueError("base_costs must be finite and positive")
        if n_rounds < 0:
            raise ValueError("n_rounds must be >= 0")
        if not 1 <= n_initial <= candidates.shape[0]:
            raise ValueError(
                f"n_initial must be in [1, {candidates.shape[0]}], got {n_initial}"
            )
        self.oracle = oracle
        self.candidates = candidates
        self.base_costs = base_costs
        self.n_rounds = int(n_rounds)
        self.n_initial = int(n_initial)
        self.seed = int(seed)
        self.acquisition = acquisition or MultiFidelityCostEfficiency(seed=seed)
        self.model_factory = model_factory or default_model_factory(1e-6)
        # Fused rows change as repeats accumulate, so every round refits.
        self._chain = ModelChain(self.model_factory, counters="fidelity.fit")
        if test is not None:
            X_test, y_test = test
            test = (
                np.asarray(X_test, dtype=float),
                np.asarray(y_test, dtype=float),
            )
        self.test = test
        self.rng = np.random.default_rng(seed)

        self.fusion = FusionState()
        self.records: list[FidelityRecord] = []
        self.y_seen: list[float] = []
        self.tier_counts: dict[str, int] = {t.name: 0 for t in oracle.tiers}
        self.model: GaussianProcessRegressor | None = None
        self._cumulative_cost = 0.0
        self._next_round = 0
        self._initial_done = False

    # --------------------------------------------------------------- internals

    @property
    def cumulative_cost(self) -> float:
        return self._cumulative_cost

    def _record_observation(self, obs: FidelityObservation) -> tuple[int, float]:
        """Fuse ``obs``; returns its location's ``(n_obs, fused mean)``."""
        fused = self.fusion.add(obs.x, obs.y, obs.noise_variance)
        self.y_seen.append(float(obs.y))
        self.tier_counts[obs.tier] = self.tier_counts.get(obs.tier, 0) + 1
        self._cumulative_cost += obs.cost
        return fused

    def _initial_design(self) -> None:
        idx = self.rng.choice(
            self.candidates.shape[0], size=self.n_initial, replace=False
        )
        ref = self.oracle.reference_tier
        for i in idx:
            obs = self.oracle.query(self.candidates[int(i)], ref)
            self._record_observation(obs)
        self._initial_done = True

    def _rmse(self, model: GaussianProcessRegressor) -> float:
        if self.test is None:
            return float("nan")
        X_test, y_test = self.test
        metrics = evaluate_model(model, self.candidates, X_test, y_test)
        return float(metrics["rmse"])

    # ------------------------------------------------------------- checkpoints

    def _checkpoint_config(self) -> dict:
        """Config values a checkpoint stores and a resume must match."""
        return {
            "n_rounds": self.n_rounds,
            "n_initial": self.n_initial,
            "seed": self.seed,
            "tiers": [t.to_dict() for t in self.oracle.tiers],
        }

    def _generators(self) -> dict:
        return {
            "oracle_rng": self.oracle.rng,
            "acquisition_rng": self.acquisition._rng,
            "learner_rng": self.rng,
        }

    def _save_checkpoint(self, path) -> None:
        if path is None:
            return
        payload = {
            "version": _CHECKPOINT_VERSION,
            **self._checkpoint_config(),
            "next_round": self._next_round,
            "initial_done": self._initial_done,
            "cumulative_cost": float(self._cumulative_cost),
            "tier_counts": dict(self.tier_counts),
            "fusion": self.fusion.to_dict(),
            **capture_generators(self._generators()),
            "records": [r.payload() for r in self.records],
            "y_seen": [float(v) for v in self.y_seen],
        }
        write_json_atomic(payload, path)
        tm.count("fidelity.checkpoint.saved")

    def _load_checkpoint(self, path) -> None:
        expect = self._checkpoint_config()
        payload = read_checkpoint(
            path, "multi-fidelity checkpoint", _CHECKPOINT_VERSION, expect=expect
        )
        self._next_round = int(payload["next_round"])
        self._initial_done = bool(payload["initial_done"])
        self._cumulative_cost = float(payload["cumulative_cost"])
        self.tier_counts = {
            k: int(v) for k, v in payload["tier_counts"].items()
        }
        self.fusion = FusionState.from_dict(payload["fusion"])
        restore_generators(self._generators(), payload)
        self.records = [
            FidelityRecord.from_payload(r) for r in payload["records"]
        ]
        self.y_seen = [float(v) for v in payload["y_seen"]]

    # -------------------------------------------------------------------- loop

    def run(self, checkpoint_path=None) -> MultiFidelityResult:
        """Run the campaign (initial design + ``n_rounds`` acquisitions)."""
        return self._continue(checkpoint_path, resumed=False)

    def resume(self, path) -> MultiFidelityResult:
        """Restore a checkpoint and continue to completion, bit-identically.

        Checkpointing continues into ``path``.
        """
        self._load_checkpoint(path)
        tm.count("fidelity.checkpoint.resumed")
        return self._continue(path, resumed=True)

    def _continue(self, checkpoint_path, *, resumed: bool) -> MultiFidelityResult:
        if not self._initial_done:
            self._initial_design()
            self._save_checkpoint(checkpoint_path)
        while self._next_round < self.n_rounds:
            round_index = self._next_round
            with tm.span(
                "fidelity.round",
                index=round_index,
                n_locations=self.fusion.n_locations,
            ) as sp:
                model = self.model = self._chain.step(
                    round_index, *self.fusion.fused()
                )
                rmse = self._rmse(model)
                cand, tier_idx = self.acquisition.select(
                    model, self.candidates, self.base_costs, self.oracle.tiers
                )
                tier = self.oracle.tiers[tier_idx]
                obs = self.oracle.query(self.candidates[cand], tier)
                n_obs, y_fused = self._record_observation(obs)
                record = FidelityRecord(
                    round_index=round_index,
                    candidate_index=int(cand),
                    tier=tier.name,
                    x=self.candidates[cand].copy(),
                    y_observed=float(obs.y),
                    y_fused=float(y_fused),
                    n_obs_at_x=n_obs,
                    cost=float(obs.cost),
                    cumulative_cost=float(self._cumulative_cost),
                    rmse=rmse,
                    n_locations=self.fusion.n_locations,
                    n_observations=self.fusion.n_observations,
                    noise_variance=float(model.noise_variance_),
                    lml=float(model.lml_),
                )
                self.records.append(record)
                self._next_round = round_index + 1
                self._save_checkpoint(checkpoint_path)
                sp.set(tier=tier.name, cost=record.cost, rmse=rmse)
                tm.gauge_set(
                    "fidelity.fused_locations", self.fusion.n_locations
                )
                tm.event(
                    "fidelity.round",
                    index=round_index,
                    tier=tier.name,
                    candidate=int(cand),
                    cost=record.cost,
                    cumulative_cost=record.cumulative_cost,
                    rmse=rmse,
                    n_locations=record.n_locations,
                    n_observations=record.n_observations,
                )
        # Final refit so the returned model includes the last observation.
        self.model = self._chain.step(self.n_rounds, *self.fusion.fused())
        return MultiFidelityResult(
            stop_reason="completed",
            rounds=list(self.records),
            model=self.model,
            cumulative_cost=float(self._cumulative_cost),
            tier_counts=dict(self.tier_counts),
            n_locations=self.fusion.n_locations,
            y=list(self.y_seen),
            final_rmse=self._rmse(self.model),
            resumed=resumed,
        )

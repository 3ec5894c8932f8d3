"""Parallel replicate campaigns: N independent online AL runs, one seed tree.

The paper's aggregate exhibits (Figs. 4-8) average replicate AL runs; the
online-campaign analogue is running :class:`~repro.al.campaign.OnlineCampaign`
``n_replicates`` times with independent randomness and summarizing the
fleet.  Replicates are embarrassingly parallel, so they fan out over a
:class:`repro.parallel.ParallelMap` — and because each replicate's RNG is a
``SeedSequence.spawn`` child keyed by replicate index (never a shared
generator handed to concurrent workers), the sweep is bit-identical across
backends and worker counts.

Checkpoint/resume composes with the fan-out: with ``checkpoint_dir`` every
replicate checkpoints each round to ``replicate-<i>.json`` and writes a
``replicate-<i>.result.json`` summary on completion.  Re-running the sweep
after a crash loads finished replicates from their result files (never
re-executing them), resumes half-finished ones from their round
checkpoints, and starts missing ones fresh — each replicate runs exactly
once no matter how often the sweep is restarted or how many workers it
uses.

``python -m repro campaign --replicates N --workers M`` drives this from
the shell.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from ..parallel import ParallelMap, spawn_seeds
from .campaign import OnlineCampaign
from .session import read_checkpoint, run_or_resume, write_json_atomic

__all__ = ["ReplicateOutcome", "SweepResult", "run_replicates"]

_RESULT_VERSION = 1


@dataclass
class ReplicateOutcome:
    """Summary of one replicate campaign (the picklable/persistable core).

    ``y`` is the full sequence of accepted observations in measurement
    order — the determinism witness: serial and process sweeps must agree
    on it bit-for-bit.  ``resumed`` / ``loaded`` describe how *this* sweep
    obtained the outcome (fresh run, resumed from a round checkpoint, or
    read back from a completed replicate's result file); they are not part
    of the persisted payload.
    """

    index: int
    stop_reason: str
    n_rounds_run: int
    simulated_seconds: float
    cpu_core_seconds: float
    n_failed: int
    n_retries: int
    n_quarantined: int
    wasted_core_seconds: float
    y: list = field(default_factory=list)
    resumed: bool = False
    loaded: bool = False

    @property
    def n_observations(self) -> int:
        """Accepted observations this replicate produced."""
        return len(self.y)

    def payload(self) -> dict:
        """JSON payload for the result file (excludes provenance flags)."""
        data = asdict(self)
        data.pop("resumed")
        data.pop("loaded")
        data["version"] = _RESULT_VERSION
        return data


@dataclass
class SweepResult:
    """All replicate outcomes of one sweep, in replicate order."""

    replicates: list

    @property
    def n_replicates(self) -> int:
        return len(self.replicates)

    @property
    def stop_reasons(self) -> dict:
        """Histogram of per-replicate stop reasons."""
        out: dict[str, int] = {}
        for r in self.replicates:
            out[r.stop_reason] = out.get(r.stop_reason, 0) + 1
        return out

    def series(self, attribute: str) -> np.ndarray:
        """One scalar attribute across replicates, in replicate order."""
        return np.asarray(
            [getattr(r, attribute) for r in self.replicates], dtype=float
        )

    def summary(self) -> dict:
        """Fleet-level aggregates for reports and the CLI."""
        sim = self.series("simulated_seconds")
        core = self.series("cpu_core_seconds")
        n_obs = self.series("n_observations")
        return {
            "n_replicates": self.n_replicates,
            "stop_reasons": self.stop_reasons,
            "mean_simulated_seconds": float(sim.mean()) if sim.size else 0.0,
            "max_simulated_seconds": float(sim.max()) if sim.size else 0.0,
            "total_cpu_core_seconds": float(core.sum()) if core.size else 0.0,
            "mean_observations": float(n_obs.mean()) if n_obs.size else 0.0,
            "n_resumed": sum(1 for r in self.replicates if r.resumed),
            "n_loaded": sum(1 for r in self.replicates if r.loaded),
        }


def _checkpoint_paths(checkpoint_dir, index: int) -> tuple[Path | None, Path | None]:
    if checkpoint_dir is None:
        return None, None
    d = Path(checkpoint_dir)
    return d / f"replicate-{index:04d}.json", d / f"replicate-{index:04d}.result.json"


class _ReplicateTask:
    """Run (or load, or resume) one replicate; picklable for process pools."""

    __slots__ = ("factory", "checkpoint_dir")

    def __init__(self, factory, checkpoint_dir):
        self.factory = factory
        self.checkpoint_dir = checkpoint_dir

    def __call__(self, item) -> ReplicateOutcome:
        index, seed_seq = item
        checkpoint_path, result_path = _checkpoint_paths(self.checkpoint_dir, index)
        if result_path is not None and result_path.exists():
            # Completed in an earlier sweep invocation: never re-run it.
            data = read_checkpoint(result_path, "replicate result", _RESULT_VERSION)
            data.pop("version")
            return ReplicateOutcome(**data, loaded=True)

        campaign = self.factory(index, np.random.default_rng(seed_seq))
        # Duck-typed: OnlineCampaign and anything speaking its protocol
        # (e.g. repro.al.fidelity.MultiFidelityLearner) qualify — the task
        # only needs run(checkpoint_path=)/resume(path) and a result with
        # the ReplicateOutcome fields.
        if not (
            isinstance(campaign, OnlineCampaign)
            or (callable(getattr(campaign, "run", None))
                and callable(getattr(campaign, "resume", None)))
        ):
            raise TypeError(
                "campaign_factory must return an OnlineCampaign (or an "
                "object with its run/resume protocol), got "
                f"{type(campaign).__name__}"
            )
        result, resumed = run_or_resume(campaign, checkpoint_path)
        outcome = ReplicateOutcome(
            index=index,
            stop_reason=result.stop_reason,
            n_rounds_run=len(result.rounds),
            simulated_seconds=float(result.simulated_seconds),
            cpu_core_seconds=float(result.cpu_core_seconds),
            n_failed=result.n_failed,
            n_retries=result.n_retries,
            n_quarantined=result.n_quarantined,
            wasted_core_seconds=float(result.wasted_core_seconds),
            y=[float(v) for v in result.y],
            resumed=resumed,
        )
        if result_path is not None:
            write_json_atomic(outcome.payload(), result_path)
        return outcome


def run_replicates(
    campaign_factory: Callable[[int, np.random.Generator], OnlineCampaign],
    n_replicates: int,
    *,
    seed=0,
    n_workers: int = 1,
    backend: str | None = None,
    checkpoint_dir=None,
    task_timeout: float | None = None,
    max_task_retries: int = 2,
) -> SweepResult:
    """Run ``n_replicates`` independent campaigns, optionally in parallel.

    Parameters
    ----------
    campaign_factory:
        ``(replicate_index, rng) -> OnlineCampaign``.  Called inside the
        worker, so for the process backend it must be picklable (a
        module-level function or class instance).  The ``rng`` argument is
        that replicate's private generator — derived from
        ``SeedSequence(seed).spawn()`` child ``replicate_index`` — and is
        the *only* randomness a replicate should consume; reusing one
        generator across replicates is exactly the shared-RNG bug this
        layer exists to prevent.
    n_replicates:
        Fleet size.
    seed:
        Root of the replicate seed tree (int, ``None``, or a
        ``SeedSequence``).
    n_workers / backend:
        Fan-out configuration, see :class:`repro.parallel.ParallelMap`.
    checkpoint_dir:
        Directory for per-replicate round checkpoints and result files;
        enables crash-safe, exactly-once resumption of the whole sweep.
    task_timeout / max_task_retries:
        Fault-tolerance knobs forwarded to
        :class:`repro.parallel.ParallelMap` — a replicate whose process
        worker is killed is retried (with its same spawned seed, so
        results stay bit-identical to a fault-free run), and with a
        ``checkpoint_dir`` the retry resumes from the last completed
        round instead of restarting.

    Returns a :class:`SweepResult` with outcomes in replicate order,
    bit-identical for every backend and worker count.
    """
    if n_replicates < 1:
        raise ValueError("n_replicates must be >= 1")
    if checkpoint_dir is not None:
        Path(checkpoint_dir).mkdir(parents=True, exist_ok=True)
    seeds = spawn_seeds(seed, n_replicates)
    task = _ReplicateTask(campaign_factory, checkpoint_dir)
    pm = ParallelMap(
        backend,
        n_workers,
        task_timeout=task_timeout,
        max_task_retries=max_task_retries,
    )
    outcomes = pm.map(task, list(enumerate(seeds)))
    return SweepResult(replicates=outcomes)

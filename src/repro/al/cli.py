"""``python -m repro campaign`` — run a simulated online AL campaign.

The subcommand exists to exercise the robustness machinery end to end
from a shell: fault injection, guardrails (model health checks, rollback,
drift detection), and the node circuit breaker, with an optional
telemetry trace for post-mortems::

    python -m repro campaign --rounds 8 --batch 3
    python -m repro campaign --guardrails --drift-after 10 --drift-factor 10
    python -m repro campaign --guardrails --breaker --crash-node 0:0.8 \\
        --trace chaos.jsonl
    python -m repro telemetry summarize chaos.jsonl
    python -m repro campaign --replicates 16 --workers 8 \\
        --checkpoint-dir sweep-ckpt

``--replicates N`` runs N independent campaigns (a ``SeedSequence.spawn``
seed tree rooted at ``--seed``) through the process-parallel sweep in
:mod:`repro.al.replicates` and prints fleet aggregates; ``--workers`` and
``--backend`` control the fan-out.

``--checkpoint-dir DIR`` makes every mode crash-safe: the campaign
checkpoints each round into DIR (``campaign.json``, the sharded
``manifest.json``, ``multifidelity.json``, or one file per replicate), and
re-running the same command resumes from DIR instead of starting over,
through :func:`repro.al.session.run_or_resume`.

Exit code 0 means the campaign produced a result (including best-effort
early stops — inspect ``stop_reason`` in the output); crashes are bugs.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from .session import run_or_resume

__all__ = ["main"]

_SIZES = (48**3, 96**3, 192**3, 384**3)
_FREQS = (1.2, 2.4)


def _candidates(max_ranks: int) -> np.ndarray:
    nps = [p for p in (1, 8, 32, 128) if p <= max_ranks]
    return np.array(
        [(s, p, f) for s in _SIZES for p in nps for f in _FREQS], dtype=float
    )


def _parse_crash_node(text: str) -> tuple[int, float]:
    try:
        node_s, rate_s = text.split(":", 1)
        node, rate = int(node_s), float(rate_s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected NODE:RATE (e.g. 0:0.8), got {text!r}"
        )
    if not 0.0 <= rate <= 1.0:
        raise argparse.ArgumentTypeError("crash rate must be in [0, 1]")
    return node, rate


class _CampaignFactory:
    """Build one replicate's campaign from parsed CLI options.

    A module-level class (not a closure over ``args``) so the factory
    pickles to process-pool workers.  Each replicate gets its own executor
    chain — fault injection state must never be shared across replicates —
    and its private spawned ``rng``.
    """

    def __init__(self, *, rounds, batch, max_ranks, crash_rate, crash_node,
                 drift_after, drift_factor, guardrails, max_wall_seconds,
                 breaker, registry=None, solver="exact"):
        self.rounds = rounds
        self.batch = batch
        self.max_ranks = max_ranks
        self.crash_rate = crash_rate
        self.crash_node = crash_node
        self.drift_after = drift_after
        self.drift_factor = drift_factor
        self.guardrails = guardrails
        self.max_wall_seconds = max_wall_seconds
        self.breaker = breaker
        self.registry = registry
        self.solver = solver

    @property
    def faulty(self) -> bool:
        return bool(
            self.crash_rate > 0
            or self.crash_node
            or self.drift_after is not None
        )

    def __call__(self, index, rng):
        from ..cluster.faults import FaultConfig, FaultyExecutor
        from ..datasets.generate import ModelExecutor
        from .campaign import CampaignConfig, OnlineCampaign
        from .guardrails import GuardrailConfig
        from .learner import default_model_factory

        executor = ModelExecutor()
        if self.faulty:
            executor = FaultyExecutor(
                executor,
                FaultConfig(
                    crash_rate=self.crash_rate,
                    drift_after_jobs=self.drift_after,
                    drift_factor=(
                        self.drift_factor
                        if self.drift_after is not None
                        else 1.0
                    ),
                    node_crash_rates=dict(self.crash_node) or None,
                ),
            )
        guardrails = None
        if self.guardrails or self.max_wall_seconds is not None:
            guardrails = GuardrailConfig(max_wall_seconds=self.max_wall_seconds)
        return OnlineCampaign(
            CampaignConfig(
                operator="poisson1",
                candidates=_candidates(self.max_ranks),
                batch_size=self.batch,
                n_rounds=self.rounds,
            ),
            executor,
            rng=rng,
            # Mirror OnlineCampaign's default floor (1e-2) — only the solver
            # backend is CLI-selectable here.
            model_factory=default_model_factory(1e-2, solver=self.solver),
            guardrails=guardrails,
            breaker=self.breaker or None,
            # Replicates each publish into their own registry subdirectory;
            # a shared one would interleave fleets' versions meaninglessly.
            registry=(
                None
                if self.registry is None
                else (f"{self.registry}/r{index:03d}" if index else self.registry)
            ),
        )


def _traced(args, run):
    """Call ``run()``, inside a telemetry session when ``--trace`` is set."""
    if not args.trace:
        return run()
    from .. import telemetry

    with telemetry.session(args.trace):
        return run()


def _checkpoint_file(args, name: str) -> Path | None:
    return Path(args.checkpoint_dir) / name if args.checkpoint_dir else None


def _run_sweep(args, factory: _CampaignFactory) -> int:
    from .replicates import run_replicates

    sweep = run_replicates(
        factory,
        args.replicates,
        seed=args.seed,
        n_workers=args.workers,
        backend=args.backend,
        checkpoint_dir=args.checkpoint_dir,
        task_timeout=args.task_timeout,
        max_task_retries=args.max_task_retries,
    )
    s = sweep.summary()
    print(f"replicates:         {s['n_replicates']}")
    print(
        "stop reasons:       "
        + ", ".join(f"{k}={v}" for k, v in sorted(s["stop_reasons"].items()))
    )
    print(f"mean sim seconds:   {s['mean_simulated_seconds']:.0f}")
    print(f"max sim seconds:    {s['max_simulated_seconds']:.0f}")
    print(f"total core-seconds: {s['total_cpu_core_seconds']:.0f}")
    print(f"mean observations:  {s['mean_observations']:.1f}")
    if args.checkpoint_dir:
        print(
            f"checkpoints:        {s['n_loaded']} loaded, "
            f"{s['n_resumed']} resumed (dir: {args.checkpoint_dir})"
        )
    return 0


def _run_sharded(args) -> int:
    """Sharded-campaign mode: ``python -m repro campaign --shards N``.

    Runs the partitioned learner of :mod:`repro.al.sharding` on a
    synthetic mixed-operator pool, optionally chaos-injected.  The
    ``test rmse:`` and ``availability:`` lines are stable interfaces —
    the CI shard chaos-soak parses them.
    """
    from ..cluster.faults import ShardFaultConfig
    from ..parallel.pmap import ParallelMap
    from .partition import random_partition
    from .sharding import ShardedLearner, ShardingConfig, mixed_operator_pool
    from .strategies import CostEfficiency

    X, y, costs = mixed_operator_pool(args.pool_size, seed=args.seed)
    n_initial = max(3 * args.shards, args.pool_size // 10)
    partition = random_partition(
        args.pool_size, rng=args.seed, n_initial=n_initial, test_fraction=0.25
    )
    fault_config = None
    if args.shard_faults > 0:
        fault_config = ShardFaultConfig(
            crash_rate=args.shard_faults / 2.0,
            hang_rate=args.shard_faults / 2.0,
        )
    learner = ShardedLearner(
        X, y, costs, partition,
        config=ShardingConfig(
            n_shards=args.shards,
            n_rounds=args.rounds,
            batch_size=args.batch,
            seed=args.seed,
        ),
        strategy=CostEfficiency(),
        pmap=ParallelMap(
            args.backend,
            args.workers,
            default_backend="serial",
            task_timeout=args.task_timeout,
            max_task_retries=args.max_task_retries,
        ),
        fault_config=fault_config,
        registry=args.registry,
    )

    result, resumed = _traced(
        args,
        lambda: run_or_resume(learner, args.checkpoint_dir, marker="manifest.json"),
    )

    from .metrics import rmse as rmse_metric

    avail = result.shard_availability
    print(f"stop_reason:        {result.stop_reason}")
    print(f"rounds run:         {len(result.rounds)}/{args.rounds}")
    print(f"observations:       {len(result.y)}")
    print(f"core-seconds:       {result.cpu_core_seconds:.0f}")
    if result.model is not None:
        test_rmse = rmse_metric(result.model, X[partition.test], y[partition.test])
        print(f"test rmse:          {test_rmse:.6f}")
    else:
        print("test rmse:          nan")
    print(f"availability:       {avail['mean_availability']:.4f}")
    dead = [
        s for s, v in avail["per_shard"].items() if v["state"] in ("open", "dead")
    ]
    print(
        "shards:             "
        f"{avail['n_shards']} total, {len(dead)} open/dead ({dead})"
    )
    if result.guardrails is not None:
        t = result.guardrails
        print(
            "guardrails:         "
            f"{t.n_unhealthy_fits} unhealthy fits, {t.n_rollbacks} rollbacks"
        )
        print(
            "breaker:            "
            f"{t.n_breaker_opens} opens, {t.n_breaker_probes} probes, "
            f"{t.n_breaker_blacklisted} blacklisted"
        )
    if args.checkpoint_dir:
        print(f"resumed:            {str(resumed).lower()}")
    if args.trace:
        print(f"[telemetry trace written to {args.trace}]")
    return 0


class _TableReference:
    """Noise-free reference lookup over a fixed candidate table.

    Maps a feature row back to its reference response by exact float
    match — the learner always queries rows of the same candidate matrix,
    so exact keys are safe (and catch any drift as a loud ``KeyError``).
    """

    __slots__ = ("_table",)

    def __init__(self, X, y):
        self._table = {
            tuple(float(v) for v in row): float(val) for row, val in zip(X, y)
        }

    def __call__(self, x):
        return self._table[tuple(float(v) for v in np.asarray(x).ravel())]


def _run_multifidelity(args) -> int:
    """Multi-fidelity mode: ``python -m repro campaign --fidelities SPEC``.

    Runs :class:`repro.al.fidelity.MultiFidelityLearner` on the noise-free
    mixed-operator pool: the tiers in SPEC (``name:cost_mult:noise_sd,...``)
    supply the observation noise and per-query cost, repeated observations
    fuse by inverse variance, and the acquisition picks (location, tier)
    by variance reduction per unit cost.  The ``stop_reason:`` /
    ``test rmse:`` / ``cumulative cost:`` lines are stable interfaces — the
    CI multi-fidelity smoke parses them.
    """
    from .fidelity import MultiFidelityLearner, MultiFidelityOracle, tiers_from_spec
    from .partition import random_partition
    from .sharding import mixed_operator_pool

    tiers = tiers_from_spec(args.fidelities)
    # Noise-free responses: the tiers own ALL observation noise here.
    X, y, costs = mixed_operator_pool(args.pool_size, seed=args.seed, noise=None)
    partition = random_partition(
        X.shape[0], rng=args.seed, n_initial=1, test_fraction=0.25
    )
    active = np.concatenate([partition.initial, partition.active])
    oracle = MultiFidelityOracle(
        _TableReference(X, y),
        tiers,
        cost_fn=_TableReference(X, costs),
        rng=np.random.default_rng(args.seed + 1),
    )
    learner = MultiFidelityLearner(
        oracle,
        X[active],
        base_costs=costs[active],
        n_rounds=args.rounds,
        n_initial=min(4, len(active)),
        test=(X[partition.test], y[partition.test]),
        seed=args.seed,
    )

    checkpoint = _checkpoint_file(args, "multifidelity.json")
    result, _ = _traced(args, lambda: run_or_resume(learner, checkpoint))

    print(f"stop_reason:        {result.stop_reason}")
    print(f"rounds run:         {len(result.rounds)}/{args.rounds}")
    print(f"observations:       {result.n_observations}")
    print(f"fused locations:    {result.n_locations}")
    print(f"cumulative cost:    {result.cumulative_cost:.3f}")
    print(
        "tier queries:       "
        + ", ".join(f"{k}={v}" for k, v in sorted(result.tier_counts.items()))
    )
    print(f"test rmse:          {result.final_rmse:.6f}")
    print(f"resumed:            {str(result.resumed).lower()}")
    if args.trace:
        print(f"[telemetry trace written to {args.trace}]")
    return 0


def main(argv=None) -> int:
    """Entry point for the ``campaign`` subcommand; returns an exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro campaign",
        description="Run a simulated online AL campaign with optional "
        "faults, guardrails, and a node circuit breaker.",
    )
    parser.add_argument("--rounds", type=int, default=8, help="AL rounds")
    parser.add_argument("--batch", type=int, default=3, help="batch size")
    parser.add_argument("--seed", type=int, default=0, help="campaign RNG seed")
    parser.add_argument(
        "--max-ranks", type=int, default=128,
        help="drop candidates above this rank count (128 ranks = all 4 nodes)",
    )
    parser.add_argument(
        "--guardrails", action="store_true",
        help="enable model health checks, rollback, drift detection, "
        "and the campaign watchdog",
    )
    parser.add_argument(
        "--breaker", action="store_true",
        help="enable the per-node circuit breaker in the scheduler",
    )
    parser.add_argument(
        "--max-wall-seconds", type=float, default=None,
        help="watchdog budget on simulated wall-clock (implies --guardrails)",
    )
    parser.add_argument(
        "--crash-rate", type=float, default=0.0,
        help="per-job crash probability (fault injection)",
    )
    parser.add_argument(
        "--crash-node", type=_parse_crash_node, action="append", default=[],
        metavar="NODE:RATE",
        help="per-node crash probability, repeatable (e.g. --crash-node 0:0.8)",
    )
    parser.add_argument(
        "--drift-after", type=int, default=None, metavar="N",
        help="inject performance drift after N completed jobs",
    )
    parser.add_argument(
        "--drift-factor", type=float, default=4.0,
        help="runtime multiplier once drift begins (with --drift-after)",
    )
    parser.add_argument(
        "--registry", default=None, metavar="DIR",
        help="publish every health-gated refit (and the final model) into "
        "this model registry for python -m repro serve",
    )
    parser.add_argument(
        "--solver", choices=("exact", "nystrom", "auto"),
        default="exact",
        help="GP solver backend for campaign refits (auto switches to an "
        "approximate backend once the training set outgrows the exact "
        "crossover; see docs/API.md)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a telemetry JSONL trace of the campaign",
    )
    parser.add_argument(
        "--replicates", type=int, default=1, metavar="N",
        help="run N independent replicate campaigns (SeedSequence-spawned "
        "seeds) and print fleet aggregates",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="parallel workers for the replicate sweep",
    )
    parser.add_argument(
        "--backend", choices=("serial", "thread", "process"), default=None,
        help="fan-out backend for the replicate sweep "
        "(default: $REPRO_PARALLEL_BACKEND or process)",
    )
    parser.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="checkpoint every round into DIR (every mode: single, "
        "replicate sweep, sharded, multi-fidelity); re-running the same "
        "command resumes from DIR exactly once instead of starting over",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-task wall-clock bound for process-backend workers "
        "(replicate sweeps and sharded fit waves); a stuck worker is "
        "killed and the task retried",
    )
    parser.add_argument(
        "--max-task-retries", type=int, default=2, metavar="N",
        help="extra attempts granted to a task blamed for a timeout or "
        "worker crash before giving up",
    )
    parser.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="run a *sharded* offline campaign with N spatial shards on "
        "the mixed-operator pool instead of the online campaign "
        "(see docs/SHARDING.md)",
    )
    parser.add_argument(
        "--shard-faults", type=float, default=0.0, metavar="RATE",
        help="sharded mode: per-(shard, round) kill probability, split "
        "between crash and hang injections",
    )
    parser.add_argument(
        "--pool-size", type=int, default=160, metavar="N",
        help="sharded/multi-fidelity mode: records in the synthetic "
        "mixed-operator pool",
    )
    parser.add_argument(
        "--fidelities", default=None, metavar="SPEC",
        help="run a *multi-fidelity* campaign with these tiers instead of "
        "the online campaign; SPEC is name:cost_mult:noise_sd[,...] "
        "(e.g. probe:0.1:0.15,full:1.0:0.02; see docs/MULTIFIDELITY.md)",
    )
    args = parser.parse_args(argv)
    if args.replicates < 1:
        parser.error("--replicates must be >= 1")
    if args.shards < 0:
        parser.error("--shards must be >= 0")
    if not 0.0 <= args.shard_faults <= 1.0:
        parser.error("--shard-faults must be in [0, 1]")
    if args.fidelities:
        if args.replicates > 1 or args.shards:
            parser.error(
                "--fidelities is incompatible with --replicates > 1 and --shards"
            )
        return _run_multifidelity(args)
    if args.shards:
        if args.replicates > 1:
            parser.error("--shards is incompatible with --replicates > 1")
        return _run_sharded(args)

    factory = _CampaignFactory(
        rounds=args.rounds,
        batch=args.batch,
        max_ranks=args.max_ranks,
        crash_rate=args.crash_rate,
        crash_node=args.crash_node,
        drift_after=args.drift_after,
        drift_factor=args.drift_factor,
        guardrails=args.guardrails,
        max_wall_seconds=args.max_wall_seconds,
        breaker=args.breaker,
        registry=args.registry,
        solver=args.solver,
    )
    faulty = factory.faulty

    if args.replicates > 1:
        code = _traced(args, lambda: _run_sweep(args, factory))
        if args.trace:
            print(f"[telemetry trace written to {args.trace}]")
        return code

    # Single campaign: keep the historical output (and rng=seed behaviour).
    campaign = factory(0, args.seed)
    executor = campaign.executor
    checkpoint = _checkpoint_file(args, "campaign.json")
    result, resumed = _traced(args, lambda: run_or_resume(campaign, checkpoint))

    print(f"stop_reason:        {result.stop_reason}")
    print(f"rounds run:         {len(result.rounds)}/{args.rounds}")
    print(f"observations:       {len(result.y)}")
    print(f"simulated seconds:  {result.simulated_seconds:.0f}")
    print(f"core-seconds:       {result.cpu_core_seconds:.0f}")
    print(
        "failures:           "
        f"{result.n_failed} failed, {result.n_retries} retries, "
        f"{result.n_quarantined} quarantined, "
        f"{result.wasted_core_seconds:.0f} wasted core-s"
    )
    if args.registry:
        reg = campaign.registry
        print(
            "registry:           "
            f"{len(reg.versions())} versions published "
            f"(latest v{reg.latest_version():05d}) in {args.registry}"
        )
    if faulty:
        s = executor.stats
        print(
            "injected:           "
            f"{s.n_faults} faults, {s.n_drifted} drifted, "
            f"{s.n_node_crashes} node crashes"
        )
    if result.guardrails is not None:
        t = result.guardrails
        print(
            "guardrails:         "
            f"{t.n_unhealthy_fits} unhealthy fits, {t.n_rollbacks} rollbacks, "
            f"{t.n_drift_events} drift events ({t.n_trimmed_points} trimmed), "
            f"{t.n_watchdog_stops} watchdog stops"
        )
        print(
            "breaker:            "
            f"{t.n_breaker_opens} opens, {t.n_breaker_probes} probes, "
            f"{t.n_breaker_blacklisted} blacklisted"
        )
    if args.checkpoint_dir:
        print(f"resumed:            {str(resumed).lower()}")
    if args.trace:
        print(f"[telemetry trace written to {args.trace}]")
    return 0

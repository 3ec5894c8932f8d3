"""Robustness and the keep-or-delete decision: global GP vs sharded campaigns.

Runs the same mixed-operator acquisition campaign (poisson1 + poisson2,
the heterogeneous regime sharding is built for) at ``n_shards in
(1, 2, 4, 8)``, where 1 shard *is* the global exact GP.  Every run uses
the learner's default serial fit wave.

Two sweeps:

* The **robustness sweep** (default) runs each shard count fault-free and
  with a 20% per-(shard, round) kill rate injected via
  :class:`~repro.cluster.faults.ShardFaultConfig`, and asserts two claims:
  chaos never prevents completion (degraded mode, not death), and chaos
  RMSE stays within 1.5x of the same shard count's fault-free RMSE.
* The **decision sweep** (``--decide``) adds a global Nystrom arm
  (``n_shards=1`` with ``default_model_factory(solver="nystrom")``) and
  runs every arm on pools of 160, 3,200 and 9,600 rows, data seeds 5-7,
  fault-free and at the same kill rate.  It asserts nothing; it reports
  the numbers that decide whether sharding earns its code.

Reported per run: test RMSE of the final (possibly degraded) model,
wall-clock seconds per round, and mean shard availability.

Usable standalone (``python benchmarks/bench_sharded.py [--quick]
[--decide]``; exit 0 iff every robustness bar holds) or under
``pytest benchmarks/ --benchmark-only``.
"""

import argparse
import sys
import time

import numpy as np

from repro.al.learner import default_model_factory
from repro.al.metrics import rmse as rmse_metric
from repro.al.partition import random_partition
from repro.al.sharding import ShardedLearner, ShardingConfig, mixed_operator_pool
from repro.al.strategies import CostEfficiency
from repro.cluster.faults import ShardFaultConfig

SHARD_COUNTS = (1, 2, 4, 8)
KILL_RATE = 0.2

#: Decision-sweep arms: (label, shards, solver).
ARMS = (
    ("global exact", 1, "exact"),
    ("2 shards", 2, "exact"),
    ("4 shards", 4, "exact"),
    ("8 shards", 8, "exact"),
    ("global nystrom", 1, "nystrom"),
)
DECISION_POOLS = (160, 3_200, 9_600)
DECISION_SEEDS = (5, 6, 7)
DECISION_ROUNDS = 4


def _problem(n_points, data_seed=5):
    X, y, costs = mixed_operator_pool(n_points, seed=data_seed)
    part = random_partition(
        n_points, rng=9, n_initial=max(24, n_points // 8), test_fraction=0.25
    )
    return X, y, costs, part


def _run_one(n_shards, chaos, *, n_points, n_rounds, data_seed=5, solver="exact"):
    X, y, costs, part = _problem(n_points, data_seed)
    fault_config = (
        ShardFaultConfig(crash_rate=KILL_RATE / 2, hang_rate=KILL_RATE / 2)
        if chaos
        else None
    )
    learner = ShardedLearner(
        X, y, costs, part,
        config=ShardingConfig(
            n_shards=n_shards, n_rounds=n_rounds, batch_size=2, seed=13
        ),
        strategy=CostEfficiency(),
        model_factory=default_model_factory(solver=solver),
        fault_config=fault_config,
    )
    start = time.perf_counter()
    result = learner.run()
    elapsed = time.perf_counter() - start
    return {
        "shards": n_shards,
        "mode": "chaos" if chaos else "clean",
        "seconds": elapsed,
        "s_per_round": elapsed / n_rounds,
        "stop_reason": result.stop_reason,
        "rmse": (
            rmse_metric(result.model, X[part.test], y[part.test])
            if result.model is not None
            else float("nan")
        ),
        "availability": result.shard_availability["mean_availability"],
    }


def sharded_sweep(*, n_points=160, n_rounds=8):
    return [
        _run_one(s, chaos, n_points=n_points, n_rounds=n_rounds)
        for s in SHARD_COUNTS
        for chaos in (False, True)
    ]


def decision_sweep(*, pools=DECISION_POOLS, seeds=DECISION_SEEDS,
                   n_rounds=DECISION_ROUNDS, progress=None):
    rows = []
    for n_points in pools:
        for chaos in (False, True):
            for label, shards, solver in ARMS:
                for seed in seeds:
                    row = _run_one(shards, chaos, n_points=n_points,
                                   n_rounds=n_rounds, data_seed=seed,
                                   solver=solver)
                    row.update(arm=label, pool=n_points, data_seed=seed)
                    rows.append(row)
                    if progress is not None:
                        progress(row)
    return rows


def _print_report(rows, banner_fn=None):
    if banner_fn is None:
        print()
        print("=" * 72)
        print("SHARDING — global GP vs sharded, fault-free and chaos")
        print("=" * 72)
    else:
        banner_fn("SHARDING — global GP vs sharded, fault-free and chaos")
    print(f"{'shards':>6} {'mode':>6} {'wall s':>8} {'test RMSE':>10} "
          f"{'avail':>6} {'stop':>12}")
    for r in rows:
        print(f"{r['shards']:>6} {r['mode']:>6} {r['seconds']:>8.1f} "
              f"{r['rmse']:>10.4f} {r['availability']:>6.2f} "
              f"{r['stop_reason']:>12}")
    by = {(r["shards"], r["mode"]): r for r in rows}
    clean = [by[(s, "clean")]["rmse"] for s in SHARD_COUNTS]
    best = SHARD_COUNTS[int(np.argmin(clean))]
    print(f"fault-free RMSE crossover: best at {best} shard(s) "
          f"({dict(zip(SHARD_COUNTS, [round(c, 4) for c in clean]))})")


def _print_run(row):
    print(f"{row['pool']:>6} {row['mode']:>6} {row['arm']:>15} "
          f"{row['data_seed']:>4} {row['s_per_round']:>8.2f} "
          f"{row['rmse']:>8.4f} {row['availability']:>6.3f} "
          f"{row['stop_reason']:>12}", flush=True)


def _print_decision(rows):
    """Per (pool, mode, arm): median s/round, RMSE per seed, mean availability."""
    print()
    print("| pool | mode | arm | s/round (median) | test RMSE, seeds "
          + "/".join(str(s) for s in DECISION_SEEDS) + " | availability |")
    print("|---|---|---|---|---|---|")
    groups: dict = {}
    for r in rows:
        groups.setdefault((r["pool"], r["mode"], r["arm"]), []).append(r)
    for (pool, mode, arm), runs in groups.items():
        runs = sorted(runs, key=lambda r: r["data_seed"])
        rmse = " / ".join(f"{r['rmse']:.3f}" for r in runs)
        spr = float(np.median([r["s_per_round"] for r in runs]))
        avail = float(np.mean([r["availability"] for r in runs]))
        print(f"| {pool:,} | {mode} | {arm} | {spr:.2f} | {rmse} | {avail:.3f} |")


def _check(rows):
    problems = []
    by = {(r["shards"], r["mode"]): r for r in rows}
    for s in SHARD_COUNTS:
        clean, chaos = by[(s, "clean")], by[(s, "chaos")]
        for r in (clean, chaos):
            if r["stop_reason"] != "completed":
                problems.append(
                    f"{s} shards {r['mode']}: stop_reason={r['stop_reason']}"
                )
        if not np.isfinite(chaos["rmse"]):
            problems.append(f"{s} shards chaos: no final model")
        elif chaos["rmse"] > 1.5 * clean["rmse"]:
            problems.append(
                f"{s} shards: chaos RMSE {chaos['rmse']:.4f} exceeds "
                f"1.5x fault-free {clean['rmse']:.4f}"
            )
        if not 0.0 < chaos["availability"] <= 1.0:
            problems.append(f"{s} shards chaos: bad availability")
    return problems


# ------------------------------------------------------------- pytest benches


def test_sharded_vs_global(once):
    rows = once(sharded_sweep, n_points=120, n_rounds=6)
    from conftest import banner

    _print_report(rows, banner_fn=banner)
    assert _check(rows) == []


# ---------------------------------------------------------------- script mode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized sweep (120-point pool, 6 rounds)")
    parser.add_argument("--pool-size", type=int, default=None)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--decide", action="store_true",
                        help="run the decision sweep (pools 160/3,200/9,600, "
                        "data seeds 5-7, five arms; minutes to tens of minutes)")
    args = parser.parse_args(argv)

    if args.decide:
        pools = (args.pool_size,) if args.pool_size else DECISION_POOLS
        print(f"{'pool':>6} {'mode':>6} {'arm':>15} {'seed':>4} "
              f"{'s/round':>8} {'RMSE':>8} {'avail':>6} {'stop':>12}")
        rows = decision_sweep(pools=pools, n_rounds=args.rounds or DECISION_ROUNDS,
                              progress=_print_run)
        _print_decision(rows)
        return 0

    n_points = args.pool_size or (120 if args.quick else 160)
    n_rounds = args.rounds or (6 if args.quick else 8)
    rows = sharded_sweep(n_points=n_points, n_rounds=n_rounds)
    _print_report(rows)
    problems = _check(rows)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if not problems:
        print("sharded bench: all acceptance bars hold")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

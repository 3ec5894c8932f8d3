"""Tests for repro.al.sharding — sharded AL with fault isolation.

Covers the tentpole's four layers (InputPartitioner, ShardSupervisor,
AcquisitionRouter via ShardedLearner, ShardedModel) plus the acceptance
criteria: backend/worker bit-identity and the 2-of-8 chaos run.
"""

import numpy as np
import pytest

from repro.al.learner import default_model_factory
from repro.al.partition import random_partition
from repro.al.resilience import ShardBreaker
from repro.al.sharding import (
    InputPartitioner,
    ShardedLearner,
    ShardedModel,
    ShardingConfig,
    mixed_operator_pool,
)
from repro.al.strategies import CostEfficiency, RandomSampling, VarianceReduction
from repro.cluster.faults import ShardFaultConfig
from repro.gp.gpr import GaussianProcessRegressor
from repro.parallel import ParallelMap


def _small_problem(n=80, *, seed=3, n_initial=12):
    X, y, costs = mixed_operator_pool(n, seed=seed)
    part = random_partition(n, rng=7, n_initial=n_initial, test_fraction=0.25)
    return X, y, costs, part


def _learner(X, y, costs, part, cfg, **kw):
    kw.setdefault("strategy", CostEfficiency())
    return ShardedLearner(X, y, costs, part, config=cfg, **kw)


# ---------------------------------------------------------- InputPartitioner


def test_partitioner_deterministic_under_seed():
    X, _, _, _ = _small_problem()
    a = InputPartitioner(4, seed=9).fit(X)
    b = InputPartitioner(4, seed=9).fit(X)
    np.testing.assert_array_equal(a.centers_, b.centers_)
    np.testing.assert_array_equal(a.assign(X), b.assign(X))
    # A different seed gives a different (but still total) cell cover.
    c = InputPartitioner(4, seed=10).fit(X)
    assert set(np.unique(c.assign(X))) <= set(range(4))


def test_partitioner_every_shard_nonempty():
    X, _, _, _ = _small_problem()
    labels = InputPartitioner(4, seed=0).fit(X).assign(X)
    assert set(np.unique(labels)) == set(range(4))


def test_partitioner_validation():
    with pytest.raises(ValueError):
        InputPartitioner(0)
    part = InputPartitioner(8, seed=0)
    with pytest.raises(ValueError):
        part.fit(np.zeros((3, 2)))  # fewer points than shards
    with pytest.raises(RuntimeError):
        InputPartitioner(2).assign(np.zeros((3, 2)))


def test_nearest_two_margins():
    X, _, _, _ = _small_problem()
    p = InputPartitioner(4, seed=0).fit(X)
    first, second, margin = p.nearest_two(X)
    np.testing.assert_array_equal(first, p.assign(X))
    assert np.all(first != second)
    assert np.all((margin >= 0.0) & (margin <= 1.0))
    # Restricting to one shard: no runner-up, infinite margin.
    f1, s1, m1 = p.nearest_two(X, among=[2])
    assert np.all(f1 == 2) and np.all(s1 == -1) and np.all(np.isinf(m1))
    with pytest.raises(ValueError):
        p.nearest_two(X, among=[])


# ------------------------------------------------------------ ShardingConfig


def test_config_validation():
    ShardingConfig(n_shards=1)  # degenerate but legal: one global shard
    for bad in (
        dict(n_shards=0),
        dict(n_rounds=0),
        dict(batch_size=0),
    ):
        with pytest.raises(ValueError):
            ShardingConfig(**bad)


# -------------------------------------------------------------- ShardBreaker


def test_breaker_opens_after_consecutive_failures():
    b = ShardBreaker(3)
    assert b.state(0, 0) == "closed"
    b.record_failure(0, 0)
    assert b.state(0, 1) == "closed"  # one strike is not enough
    b.record_failure(0, 1)
    assert b.state(0, 2) == "open"
    assert not b.serviceable(0, 2)
    assert b.serviceable_shards(2) == [1, 2]
    # After the two-round cooldown the shard gets a half-open probe.
    assert b.state(0, 3) == "open"
    assert b.state(0, 4) == "half_open"
    b.record_success(0, 4)
    assert b.state(0, 5) == "closed"
    assert b.n_probes == 1


def test_breaker_blacklists_flapping_shard():
    b = ShardBreaker(2)
    b.record_failure(0, 0)
    b.record_failure(0, 1)          # open #1, until round 4
    assert b.state(0, 3) == "open"
    assert b.state(0, 4) == "half_open"
    b.record_failure(0, 4)          # half-open probe fails -> open #2
    assert b.state(0, 6) == "open"
    assert b.state(0, 7) == "half_open"
    assert b.dead_shards() == []
    b.record_failure(0, 7)          # open #3 -> dead
    assert b.state(0, 8) == "dead"
    assert b.dead_shards() == [0]
    assert b.n_opened == 3 and b.n_probes == 2 and b.n_blacklisted == 1
    # A dead shard ignores further outcomes.
    b.record_success(0, 9)
    assert b.state(0, 10) == "dead"


def test_breaker_round_trips_through_dict():
    b = ShardBreaker(4)
    b.record_failure(1, 0)
    b.record_failure(1, 1)          # shard 1 opens
    b.record_failure(3, 0)
    b.record_success(3, 3)          # shard 3's strike is cleared
    restored = ShardBreaker.from_dict(b.as_dict(), n_shards=4)
    for shard in range(4):
        for r in range(8):
            assert restored.state(shard, r) == b.state(shard, r)
    assert restored.state(1, 2) == "open"
    assert restored.n_opened == b.n_opened == 1
    with pytest.raises(ValueError):
        ShardBreaker.from_dict(b.as_dict(), n_shards=5)


# --------------------------------------------------------- Strategy.with_seed


def test_with_seed_reseeds_without_mutating_original():
    base = RandomSampling(seed=0)
    other = base.with_seed(123)
    assert other is not base
    assert other.seed == 123 and base.seed == 0
    pool_scores_differ = not np.array_equal(
        np.random.default_rng(0).random(4), np.random.default_rng(123).random(4)
    )
    assert pool_scores_differ
    # Deterministic: same derived seed, same strategy behaviour.
    again = base.with_seed(123)
    assert again.seed == 123


# --------------------------------------------------------- fault-free runs


def test_fault_free_sharded_campaign_completes_and_learns():
    X, y, costs, part = _small_problem(90, seed=3)
    cfg = ShardingConfig(n_shards=4, n_rounds=5, batch_size=2, seed=11)
    result = _learner(X, y, costs, part, cfg).run()
    assert result.stop_reason == "completed"
    assert len(result.rounds) == 5
    assert len(result.y) == 10  # 5 rounds x batch 2
    assert result.model is not None and result.model.n_shards >= 1
    rmses = [r["rmse"] for r in result.rounds if r["rmse"] is not None]
    assert rmses and all(np.isfinite(r) for r in rmses)
    # Degraded-mode report present and clean for a fault-free run.
    avail = result.shard_availability
    assert avail["n_shards"] == 4
    assert avail["mean_availability"] == pytest.approx(1.0)
    assert all(v["state"] == "closed" for v in avail["per_shard"].values())
    assert result.guardrails is not None
    assert result.guardrails.n_breaker_opens == 0


def test_sharded_model_predicts_with_blending():
    X, y, costs, part = _small_problem(90, seed=3)
    cfg = ShardingConfig(n_shards=3, n_rounds=3, batch_size=2, seed=5)
    result = _learner(X, y, costs, part, cfg).run()
    model = result.model
    mu, sd = model.predict(X[part.test], return_std=True)
    assert mu.shape == sd.shape == (part.test.size,)
    assert np.all(np.isfinite(mu)) and np.all(sd > 0)
    with pytest.raises(ValueError):
        ShardedModel(model.partitioner, {})


def test_nystrom_shards_run():
    """Approximate shard models keep the rows the snapshot and believers need."""
    X, y, costs, part = _small_problem(200, seed=5, n_initial=24)
    cfg = ShardingConfig(n_shards=2, n_rounds=3, batch_size=2, seed=13)
    result = _learner(
        X, y, costs, part, cfg, model_factory=default_model_factory(solver="nystrom")
    ).run()
    assert result.stop_reason == "completed"
    assert len(result.y) == 6
    assert {m.solver_info["name"] for m in result.model.models.values()} == {"nystrom"}
    mu = result.model.predict(X[part.test])
    assert np.all(np.isfinite(mu))


def test_single_shard_degenerates_to_global_gp():
    X, y, costs, part = _small_problem(60, seed=2)
    cfg = ShardingConfig(n_shards=1, n_rounds=3, batch_size=1, seed=4)
    result = _learner(X, y, costs, part, cfg).run()
    assert result.stop_reason == "completed"
    assert result.model.n_shards == 1


# --------------------------------------------------- determinism acceptance


def test_bit_identical_across_backends_and_worker_counts():
    """Acceptance: fault-free sharded run is bit-identical everywhere."""
    X, y, costs, part = _small_problem(70, seed=6)
    cfg = ShardingConfig(n_shards=3, n_rounds=3, batch_size=2, seed=11)
    grid = np.ascontiguousarray(X[part.test])

    def run_with(backend, workers):
        pmap = ParallelMap(backend, workers, default_backend="serial")
        result = _learner(X, y, costs, part, cfg, pmap=pmap).run()
        mu, sd = result.model.predict(grid, return_std=True)
        return result.X, result.y, mu, sd

    ref = run_with("serial", 1)
    for backend, workers in (("thread", 3), ("process", 2), ("process", 5)):
        got = run_with(backend, workers)
        for a, b in zip(ref, got):
            np.testing.assert_array_equal(
                a, b, err_msg=f"{backend}/{workers} diverged from serial"
            )


# -------------------------------------------------------- chaos acceptance


def test_chaos_two_of_eight_shards_forced_down():
    """Acceptance: 2 of 8 shards force-crashed -> campaign completes,
    those shards are excluded, availability is reported, and RMSE stays
    within 1.5x of the fault-free sharded baseline."""
    X, y, costs, part = _small_problem(160, seed=5, n_initial=24)
    part = random_partition(160, rng=9, n_initial=24, test_fraction=0.25)
    cfg = ShardingConfig(n_shards=8, n_rounds=8, batch_size=2, seed=13)

    clean = _learner(X, y, costs, part, cfg).run()
    faults = ShardFaultConfig(shard_crash_rates={0: 1.0, 3: 1.0})
    learner = _learner(X, y, costs, part, cfg, fault_config=faults)
    chaos = learner.run()

    assert chaos.stop_reason == "completed"
    avail = chaos.shard_availability
    assert avail["per_shard"][0]["state"] in ("open", "dead")
    assert avail["per_shard"][3]["state"] in ("open", "dead")
    healthy = [s for s in avail["per_shard"] if s not in (0, 3)]
    assert all(avail["per_shard"][s]["state"] == "closed" for s in healthy)
    assert 0.0 < avail["mean_availability"] < 1.0
    # The downed shards never served a model; their regions were answered
    # by neighbors (degraded mode), not silently dropped.
    assert avail["per_shard"][0]["availability"] == 0.0
    assert avail["per_shard"][3]["availability"] == 0.0
    assert avail["per_shard"][0]["failures"] > 0
    assert chaos.guardrails.n_breaker_opens > 0

    def test_rmse(result):
        mu = result.model.predict(X[part.test])
        return float(np.sqrt(np.mean((mu - y[part.test]) ** 2)))

    assert test_rmse(chaos) <= 1.5 * test_rmse(clean)


def test_corrupt_faults_are_detected_by_hash():
    X, y, costs, part = _small_problem(80, seed=4)
    cfg = ShardingConfig(n_shards=4, n_rounds=4, batch_size=2, seed=7)
    faults = ShardFaultConfig(corrupt_rate=0.5)
    result = _learner(X, y, costs, part, cfg, fault_config=faults).run()
    assert result.stop_reason in ("completed", "pool_exhausted")
    corrupt = sum(
        v["corrupt_detected"]
        for v in result.shard_availability["per_shard"].values()
    )
    assert corrupt > 0  # the hash check actually unmasked corruptions


def test_unchecked_shards_restore_after_failed_retries():
    """Without a health gate a shard still serves its last fit when every retry fails."""
    X, y, costs, part = _small_problem(80, seed=4)
    cfg = ShardingConfig(n_shards=4, n_rounds=5, batch_size=2, seed=7, health=None)
    faults = ShardFaultConfig(crash_rate=0.6)
    result = _learner(X, y, costs, part, cfg, fault_config=faults).run()
    assert result.guardrails.n_unhealthy_fits == 0
    assert result.guardrails.n_rollbacks > 0


# -------------------------------------------------------- registry bundles


def test_final_models_published_as_bundle(tmp_path):
    from repro.serve.registry import ModelRegistry

    X, y, costs, part = _small_problem(60, seed=2)
    cfg = ShardingConfig(n_shards=2, n_rounds=2, batch_size=1, seed=3)
    result = _learner(X, y, costs, part, cfg, registry=tmp_path).run()
    assert result.stop_reason == "completed"
    reg = ModelRegistry(tmp_path)
    versions = reg.versions()
    shards = {v.extra["shard"] for v in versions}
    bundles = {v.extra["bundle"] for v in versions}
    assert shards == {0, 1} and len(bundles) == 1
    for v in versions:
        assert v.extra["n_shards"] == 2
        assert v.extra["strategy"] == "cost-efficiency"


def test_publish_bundle_validation(tmp_path):
    from repro.serve.registry import ModelRegistry, RegistryError

    reg = ModelRegistry(tmp_path)
    rng = np.random.default_rng(0)
    Xs = rng.random((8, 2))
    m = GaussianProcessRegressor(rng=0).fit(Xs, rng.random(8))
    with pytest.raises(RegistryError):
        reg.publish_bundle([])
    with pytest.raises(RegistryError):
        reg.publish_bundle([m], shard_ids=[0, 1])
    v1 = reg.publish_bundle([m, m], shard_ids=[0, 4])
    v2 = reg.publish_bundle([m], shard_ids=[2])
    assert {v.extra["bundle"] for v in v1} != {v.extra["bundle"] for v in v2}


# ------------------------------------------------------- mixed_operator_pool


def test_mixed_operator_pool_shape_and_determinism():
    X, y, costs = mixed_operator_pool(50, seed=1)
    assert X.shape == (50, 4) and y.shape == costs.shape == (50,)
    assert set(np.unique(X[:, 0])) == {0.0, 1.0}
    assert np.all(costs > 0)
    X2, y2, _ = mixed_operator_pool(50, seed=1)
    np.testing.assert_array_equal(X, X2)
    np.testing.assert_array_equal(y, y2)
    with pytest.raises(ValueError):
        mixed_operator_pool(1, operators=("poisson1", "poisson2"))


def test_run_is_single_use_and_strategy_seeds_differ():
    X, y, costs, part = _small_problem(60, seed=2)
    cfg = ShardingConfig(n_shards=3, n_rounds=2, batch_size=1, seed=3)
    learner = _learner(X, y, costs, part, cfg, strategy=VarianceReduction())
    seeds = {learner._strategy_seed(s) for s in range(3)}
    assert len(seeds) == 3  # disjoint per-shard strategy streams
    learner.run()
    with pytest.raises(RuntimeError):
        learner.run()

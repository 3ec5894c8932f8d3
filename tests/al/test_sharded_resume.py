"""Kill-and-resume tests for sharded campaign checkpoints.

A campaign SIGKILL'd mid-round resumes from its checkpoint manifest and
produces a bit-identical result per shard.
"""

import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.al.partition import random_partition
from repro.al.sharding import ShardedLearner, ShardingConfig, mixed_operator_pool
from repro.al.strategies import CostEfficiency
from repro.cluster.faults import ShardFaultConfig

CFG = dict(n_shards=4, n_rounds=6, batch_size=2, seed=11)
FAULTS = dict(crash_rate=0.15, corrupt_rate=0.1)


def _problem():
    X, y, costs = mixed_operator_pool(90, seed=3)
    part = random_partition(90, rng=7, n_initial=12, test_fraction=0.25)
    return X, y, costs, part


def _learner(fault_config=None):
    X, y, costs, part = _problem()
    return ShardedLearner(
        X, y, costs, part,
        config=ShardingConfig(**CFG),
        strategy=CostEfficiency(),
        fault_config=fault_config,
    )


def _fingerprint(result):
    X, _, _, part = _problem()
    grid = np.ascontiguousarray(X[part.test])
    mu, sd = result.model.predict(grid, return_std=True)
    return result.X, result.y, mu, sd


def _assert_identical(a, b):
    for x, y in zip(_fingerprint(a), _fingerprint(b)):
        np.testing.assert_array_equal(x, y)
    assert a.shard_availability == b.shard_availability
    assert a.guardrails.as_dict() == b.guardrails.as_dict()
    assert a.stop_reason == b.stop_reason


def test_resume_after_mid_round_interrupt_is_bit_identical(tmp_path):
    """Interrupt at the most-exposed point (picks consumed, checkpoint not
    yet written) under active fault injection; resume must replay the lost
    round bit-identically."""
    uninterrupted = _learner(ShardFaultConfig(**FAULTS)).run()

    victim = _learner(ShardFaultConfig(**FAULTS))

    def bomb(round_index):
        if round_index == 3:
            raise KeyboardInterrupt("simulated operator kill")

    victim._mid_round_hook = bomb
    with pytest.raises(KeyboardInterrupt):
        victim.run(checkpoint_dir=tmp_path)
    manifest = (tmp_path / "manifest.json").read_text()
    assert '"next_round": 3' in manifest  # round 3 was lost, 0-2 persisted

    resumed = _learner(ShardFaultConfig(**FAULTS)).resume(tmp_path)
    _assert_identical(uninterrupted, resumed)


def test_resume_after_real_sigkill(tmp_path):
    """Acceptance: SIGKILL the whole campaign process mid-round, resume in
    a fresh process, compare against an uninterrupted run."""
    script = textwrap.dedent(
        """
        import os, signal, sys
        from repro.al.partition import random_partition
        from repro.al.sharding import (
            ShardedLearner, ShardingConfig, mixed_operator_pool,
        )
        from repro.al.strategies import CostEfficiency
        from repro.cluster.faults import ShardFaultConfig

        X, y, costs = mixed_operator_pool(90, seed=3)
        part = random_partition(90, rng=7, n_initial=12, test_fraction=0.25)
        learner = ShardedLearner(
            X, y, costs, part,
            config=ShardingConfig(
                n_shards=4, n_rounds=6, batch_size=2, seed=11
            ),
            strategy=CostEfficiency(),
            fault_config=ShardFaultConfig(crash_rate=0.15, corrupt_rate=0.1),
        )

        def bomb(round_index):
            if round_index == 3:
                os.kill(os.getpid(), signal.SIGKILL)

        learner._mid_round_hook = bomb
        learner.run(checkpoint_dir=sys.argv[1])
        raise SystemExit("SIGKILL never fired")
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH"), *sys.path) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        env=env,
        capture_output=True,
        timeout=600,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
    assert (tmp_path / "manifest.json").exists()

    uninterrupted = _learner(ShardFaultConfig(**FAULTS)).run()
    resumed = _learner(ShardFaultConfig(**FAULTS)).resume(tmp_path)
    _assert_identical(uninterrupted, resumed)


def test_resume_validates_checkpoint_compatibility(tmp_path):
    learner = _learner()

    def bomb(round_index):
        if round_index == 2:
            raise KeyboardInterrupt()

    learner._mid_round_hook = bomb
    with pytest.raises(KeyboardInterrupt):
        learner.run(checkpoint_dir=tmp_path)

    # A learner that already ran cannot resume.
    with pytest.raises(RuntimeError, match="freshly constructed"):
        learner.resume(tmp_path)

    # Config drift is rejected before any work happens.
    X, y, costs, part = _problem()
    drifted = ShardedLearner(
        X, y, costs, part,
        config=ShardingConfig(**{**CFG, "n_rounds": 9}),
        strategy=CostEfficiency(),
    )
    with pytest.raises(ValueError, match="n_rounds"):
        drifted.resume(tmp_path)

    # A different dataset is rejected by the hash.
    X2, y2, costs2 = mixed_operator_pool(90, seed=99)
    other = ShardedLearner(
        X2, y2, costs2, part,
        config=ShardingConfig(**CFG),
        strategy=CostEfficiency(),
    )
    with pytest.raises(ValueError, match="hash mismatch"):
        other.resume(tmp_path)

    # A corrupted manifest is a loud, typed failure.
    (tmp_path / "manifest.json").write_text('{"kind": "sharded-campai')
    with pytest.raises(ValueError):
        _learner().resume(tmp_path)


def test_resume_of_finished_checkpoint_replays_final_state(tmp_path):
    """Resuming a checkpoint whose rounds all completed just re-runs the
    deterministic final fit wave and returns the same result."""
    first = _learner().run(checkpoint_dir=tmp_path)
    again = _learner().resume(tmp_path)
    _assert_identical(first, again)

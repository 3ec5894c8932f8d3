"""Kill-and-resume tests for sharded campaign checkpoints.

A campaign SIGKILL'd mid-round resumes from its checkpoint manifest and
produces a bit-identical result per shard.  The kill at every checkpoint
write is swept in ``test_kill_points.py``.
"""

import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.al import sharding
from repro.al.partition import random_partition
from repro.al.sharding import ShardedLearner, ShardingConfig, mixed_operator_pool
from repro.al.strategies import CostEfficiency
from repro.cluster.faults import ShardFaultConfig

from .test_checkpoint_compat import _Killed, _write_kill

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


def test_resume_after_real_sigkill(tmp_path):
    """Acceptance: SIGKILL the whole campaign process mid-round, resume in
    a fresh process, compare against an uninterrupted run."""
    script = textwrap.dedent(
        """
        import os, signal, sys
        from repro.al import sharding
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

        write = sharding.write_json_atomic
        n_writes = 0

        def dying_write(payload, path):
            # Write 4 would save round 3: the process dies with it unsaved.
            global n_writes
            n_writes += 1
            if n_writes == 4:
                os.kill(os.getpid(), signal.SIGKILL)
            return write(payload, path)

        sharding.write_json_atomic = dying_write
        learner.run(checkpoint_path=sys.argv[1])
        raise SystemExit("SIGKILL never fired")
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH"), *sys.path) if p
    )
    path = tmp_path / "manifest.json"
    proc = subprocess.run(
        [sys.executable, "-c", script, str(path)],
        env=env,
        capture_output=True,
        timeout=600,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
    assert '"next_round": 3' in path.read_text()  # round 3 lost, 0-2 saved

    uninterrupted = _learner(ShardFaultConfig(**FAULTS)).run()
    resumed = _learner(ShardFaultConfig(**FAULTS)).resume(path)
    _assert_identical(uninterrupted, resumed)


def test_resume_validates_checkpoint_compatibility(tmp_path):
    path = tmp_path / "manifest.json"
    learner = _learner()
    with _write_kill(3, sharding), pytest.raises(_Killed):
        learner.run(checkpoint_path=path)

    # A learner that already ran cannot resume.
    with pytest.raises(RuntimeError, match="freshly constructed"):
        learner.resume(path)

    # Config drift is rejected before any work happens.
    X, y, costs, part = _problem()
    drifted = ShardedLearner(
        X, y, costs, part,
        config=ShardingConfig(**{**CFG, "n_rounds": 9}),
        strategy=CostEfficiency(),
    )
    with pytest.raises(ValueError, match="n_rounds"):
        drifted.resume(path)

    # A different dataset is rejected by the hash.
    X2, y2, costs2 = mixed_operator_pool(90, seed=99)
    other = ShardedLearner(
        X2, y2, costs2, part,
        config=ShardingConfig(**CFG),
        strategy=CostEfficiency(),
    )
    with pytest.raises(ValueError, match="hash mismatch"):
        other.resume(path)

    # A corrupted manifest is a loud, typed failure.
    path.write_text('{"kind": "sharded-campai')
    with pytest.raises(ValueError):
        _learner().resume(path)


def test_resume_of_finished_checkpoint_replays_final_state(tmp_path):
    """Resuming a checkpoint whose rounds all completed just re-runs the
    deterministic final fit wave and returns the same result."""
    path = tmp_path / "manifest.json"
    first = _learner().run(checkpoint_path=path)
    again = _learner().resume(path)
    _assert_identical(first, again)

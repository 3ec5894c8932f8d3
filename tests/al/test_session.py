"""ActiveLearner checkpoint/resume and the atomic JSON writer."""

import json

import numpy as np
import pytest

from repro.al import (
    ActiveLearner,
    CostEfficiency,
    CostModelEfficiency,
    RandomSampling,
    VarianceReduction,
    default_model_factory,
    random_partition,
)
from repro.al.guardrails import GuardrailConfig, HealthConfig
from repro.al.session import run_or_resume, write_json_atomic

N = 50

#: No fit past the first few passes this, so the gate rolls back, escalates
#: remediation and force-accepts all through the run.
_GUARDED = GuardrailConfig(
    health=HealthConfig(max_condition_number=1.0 + 1e-9), max_rollbacks=2
)

#: id -> (strategy factory, learner options, repeated pool rows)
CASES = {
    "variance": (VarianceReduction, {}, False),
    "random": (lambda: RandomSampling(seed=7), {}, False),
    "fast_refits": (VarianceReduction, {"fast_refits": True, "refit_every": 3}, False),
    "fuse_repeats": (VarianceReduction, {"fuse_repeats": True}, True),
    "cost_model": (CostModelEfficiency, {}, False),
    # Killed between refits: the cost model must be refitted as of iteration 3.
    "cost_model_fast": (
        CostModelEfficiency, {"fast_refits": True, "refit_every": 3}, False
    ),
    # The replay must rebuild the gate's snapshot and level, not just the model.
    "guarded_fast_refits": (
        VarianceReduction,
        {"guardrails": _GUARDED, "fast_refits": True, "refit_every": 3},
        False,
    ),
}


def _learner(case="variance", **overrides):
    make_strategy, options, repeats = CASES[case]
    rng = np.random.default_rng(0)
    if repeats:
        # Every configuration measured three times (bit-identical rows).
        X = np.repeat(np.sort(rng.uniform(0, 10, size=N // 3)), 3)[:, np.newaxis]
    else:
        X = np.sort(rng.uniform(0, 10, size=N))[:, np.newaxis]
    n = X.shape[0]
    y = 0.4 * X[:, 0] + 0.05 * rng.standard_normal(n)
    costs = np.abs(y) + 1.0 + rng.uniform(0, 1, size=n)
    part = random_partition(n, rng=0)
    return ActiveLearner(
        X, y, costs, part, make_strategy(),
        model_factory=default_model_factory(1e-2),
        **{**options, **overrides},
    )


class _Killed(RuntimeError):
    pass


def _kill_after(learner, n_steps):
    """Make ``learner.step`` raise once ``n_steps`` iterations have run."""
    step = learner.step

    def dying_step():
        if len(learner.trace) >= n_steps:
            raise _Killed(f"killed after iteration {n_steps}")
        return step()

    learner.step = dying_step


def _killed_run(case, path, n_iterations=10, kill_at=5):
    victim = _learner(case)
    _kill_after(victim, kill_at)
    with pytest.raises(_Killed):
        victim.run(n_iterations, checkpoint_path=path)


def _assert_resume_is_bit_identical(tmp_path, case, kill_at=5):
    straight = _learner(case)
    straight.run(10)
    path = tmp_path / "learner.json"
    _killed_run(case, path, kill_at=kill_at)

    resumed = _learner(case)
    resumed.resume(path)
    assert len(resumed.trace) == len(straight.trace) == 10
    for got, want in zip(resumed.trace.records, straight.trace.records):
        for name, value in vars(want).items():
            np.testing.assert_array_equal(getattr(got, name), value, err_msg=name)
    assert resumed.cumulative_cost == straight.cumulative_cost
    assert resumed.n_train == straight.n_train
    np.testing.assert_array_equal(
        resumed.pool.available_indices(), straight.pool.available_indices()
    )
    X_test = straight._X_test
    for want, got in zip(
        straight.model.predict(X_test, return_std=True),
        resumed.model.predict(X_test, return_std=True),
    ):
        np.testing.assert_array_equal(got, want)
    assert resumed.n_rollbacks == straight.n_rollbacks


@pytest.mark.parametrize("case", sorted(CASES))
def test_kill_and_resume_is_bit_identical(tmp_path, case):
    _assert_resume_is_bit_identical(tmp_path, case)


@pytest.mark.parametrize("kill_at", range(1, 10))
def test_guarded_fast_refits_resume_at_every_kill_point(tmp_path, kill_at):
    _assert_resume_is_bit_identical(tmp_path, "guarded_fast_refits", kill_at)


def test_snapshot_roundtrip_continues_identically(tmp_path):
    """A finished checkpointed run, resumed and extended, must produce
    exactly the run-through trajectory."""
    straight = _learner()
    straight.run(10)
    path = tmp_path / "learner.json"
    _learner().run(5, checkpoint_path=path)

    resumed = _learner()
    resumed.resume(path)
    assert len(resumed.trace) == 5
    resumed.run(5)

    np.testing.assert_array_equal(
        straight.trace.series("rmse"), resumed.trace.series("rmse")
    )
    np.testing.assert_array_equal(
        straight.trace.selected_points, resumed.trace.selected_points
    )
    assert straight.cumulative_cost == resumed.cumulative_cost


def test_restore_preserves_consumed_pool_entries(tmp_path):
    path = tmp_path / "learner.json"
    learner = _learner()
    learner.run(6, checkpoint_path=path)
    consumed_before = set(np.flatnonzero(~learner.pool._available).tolist())
    resumed = _learner()
    resumed.resume(path)
    consumed_after = set(np.flatnonzero(~resumed.pool._available).tolist())
    assert len(consumed_before) == 6
    assert consumed_before == consumed_after


def test_run_or_resume_runs_then_resumes(tmp_path):
    path = tmp_path / "learner.json"
    straight = _learner().run(6)
    trace, resumed = run_or_resume(_learner(), path)
    assert not resumed and len(trace) == _learner().pool.n_available
    _killed_run("variance", path, n_iterations=6, kill_at=3)
    trace, resumed = run_or_resume(_learner(), path)
    assert resumed
    np.testing.assert_array_equal(trace.series("rmse"), straight.series("rmse"))


def test_checkpoint_holds_no_dataset_rows(tmp_path):
    """Config, target, records, generators and gate: it grows per iteration."""
    path = tmp_path / "learner.json"
    learner = _learner()
    learner.run(2, checkpoint_path=path)
    payload = json.loads(path.read_text())
    assert set(payload) == {
        "version", "strategy", "dataset_hash", "fast_refits", "refit_every",
        "warm_start", "fuse_repeats", "repeat_noise_variance",
        "target", "records", "generators", "gate",
    }
    assert (payload["target"], len(payload["records"])) == (2, 2)
    learner.run(2, checkpoint_path=path)
    payload = json.loads(path.read_text())
    assert (payload["target"], len(payload["records"])) == (4, 4)


# fast_refits, refit_every and dataset_hash: test_checkpoint_compat REJECTIONS.
@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"warm_start": True}, "warm_start"),
        ({"fuse_repeats": True}, "fuse_repeats"),
        ({"repeat_noise_variance": 0.5}, "repeat_noise_variance"),
    ],
)
def test_mismatched_config_rejected(tmp_path, overrides, key):
    path = tmp_path / "learner.json"
    _killed_run("variance", path, kill_at=2)
    with pytest.raises(ValueError, match=f"{key} mismatch"):
        _learner(**overrides).resume(path)


def test_strategy_mismatch_rejected(tmp_path):
    path = tmp_path / "learner.json"
    _killed_run("variance", path, kill_at=2)
    learner = _learner()
    learner.strategy = CostEfficiency()
    with pytest.raises(ValueError, match="strategy mismatch"):
        learner.resume(path)


def test_foreign_selection_rejected(tmp_path):
    """The replay re-runs every selection: a recorded pick the strategy
    does not make marks a checkpoint of another run."""
    path = tmp_path / "learner.json"
    _learner().run(3, checkpoint_path=path)
    payload = json.loads(path.read_text())
    records = payload["records"]
    records[1]["selected_pool_index"] = records[0]["selected_pool_index"]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="iteration 1 selects pool record"):
        _learner().resume(path)


def test_resume_requires_fresh_learner(tmp_path):
    path = tmp_path / "learner.json"
    learner = _learner()
    learner.run(2, checkpoint_path=path)
    with pytest.raises(RuntimeError, match="freshly constructed"):
        learner.resume(path)


def test_malformed_file_rejected(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ValueError, match="not an AL learner checkpoint file"):
        _learner().resume(path)


def test_checkpoint_write_is_atomic(tmp_path, monkeypatch):
    """A crash mid-write must leave the previous complete file intact and
    no temporary droppings behind."""
    path = tmp_path / "learner.json"
    learner = _learner()
    learner.run(2, checkpoint_path=path)
    good = path.read_text()

    def exploding_dumps(payload):
        raise OSError("disk full")

    monkeypatch.setattr(json, "dumps", exploding_dumps)
    with pytest.raises(OSError):
        learner.run(1, checkpoint_path=path)
    assert path.read_text() == good  # previous version survives
    leftovers = [p for p in tmp_path.iterdir() if p.name != "learner.json"]
    assert leftovers == []


def test_truncated_file_reports_corruption(tmp_path):
    path = tmp_path / "learner.json"
    _learner().run(2, checkpoint_path=path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(ValueError, match="truncated or corrupt"):
        _learner().resume(path)


class TestWriteDurability:
    """write_json_atomic must fsync data before the rename (power-loss
    safety), and best-effort fsync the directory after it."""

    def test_fsyncs_file_before_replace_and_directory_after(
        self, tmp_path, monkeypatch
    ):
        import os


        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def spy_fsync(fd):
            # Classify: directory fds stat as directories.
            kind = "dir" if os.fstat(fd).st_mode & 0o40000 else "file"
            events.append(("fsync", kind))
            return real_fsync(fd)

        def spy_replace(src, dst):
            events.append(("replace", None))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        path = write_json_atomic({"version": 1, "v": 7}, tmp_path / "doc.json")
        assert path.exists()
        assert events == [
            ("fsync", "file"),
            ("replace", None),
            ("fsync", "dir"),
        ]

    def test_directory_fsync_failure_is_tolerated(self, tmp_path, monkeypatch):
        import os


        real_fsync = os.fsync

        def flaky_fsync(fd):
            if os.fstat(fd).st_mode & 0o40000:
                raise OSError("fsync not supported on directories here")
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", flaky_fsync)
        path = write_json_atomic({"version": 1}, tmp_path / "doc.json")
        assert path.read_text() == '{"version": 1}'

    def test_file_fsync_failure_keeps_previous_version(
        self, tmp_path, monkeypatch
    ):
        import os


        target = tmp_path / "doc.json"
        write_json_atomic({"version": 1, "generation": 1}, target)
        good = target.read_text()

        def exploding_fsync(fd):
            raise OSError("I/O error")

        monkeypatch.setattr(os, "fsync", exploding_fsync)
        with pytest.raises(OSError):
            write_json_atomic({"version": 1, "generation": 2}, target)
        assert target.read_text() == good
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

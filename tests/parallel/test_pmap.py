"""Tests for repro.parallel.pmap — the determinism contract itself."""

import os

import numpy as np
import pytest

from repro import telemetry as tm
from repro.parallel import (
    BACKENDS,
    ENV_BACKEND,
    ParallelMap,
    resolve_backend,
    spawn_generators,
    spawn_seeds,
)

# Module-level tasks so the process backend can pickle them.


def square(x):
    return x * x


def seeded_draw(item):
    """Draw from the task's own spawned stream — the determinism pattern."""
    index, seed_seq = item
    rng = np.random.default_rng(seed_seq)
    return index, rng.standard_normal(4).tolist()


def telemetry_task(item):
    tm.count("pmap.tasks")
    tm.observe("pmap.values", float(item))
    tm.gauge_set("pmap.last", float(item))
    return item


def boom(x):
    raise RuntimeError(f"task {x} exploded")


class TestResolveBackend:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "thread")
        assert resolve_backend("serial") == "serial"

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "thread")
        assert resolve_backend(None, default="process") == "thread"

    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv(ENV_BACKEND, raising=False)
        assert resolve_backend(None, default="serial") == "serial"

    def test_empty_env_falls_through(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "")
        assert resolve_backend(None, default="process") == "process"

    def test_case_insensitive(self):
        assert resolve_backend("PROCESS") == "process"

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown parallel backend"):
            resolve_backend("gpu")

    def test_env_typo_fails_loudly(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "proces")
        with pytest.raises(ValueError, match="proces"):
            resolve_backend(None)


class TestSpawnSeeds:
    def test_streams_are_independent_and_stable(self):
        a = [np.random.default_rng(s).random(8) for s in spawn_seeds(42, 3)]
        b = [np.random.default_rng(s).random(8) for s in spawn_seeds(42, 3)]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        assert not np.allclose(a[0], a[1])
        assert not np.allclose(a[1], a[2])

    def test_prefix_stability(self):
        """Child i is the same stream regardless of how many siblings exist."""
        few = spawn_seeds(7, 2)
        many = spawn_seeds(7, 5)
        for f, m in zip(few, many):
            np.testing.assert_array_equal(
                np.random.default_rng(f).random(4),
                np.random.default_rng(m).random(4),
            )

    def test_accepts_seedsequence(self):
        root = np.random.SeedSequence(3)
        assert len(spawn_seeds(root, 2)) == 2

    def test_generators_helper(self):
        gens = spawn_generators(0, 3)
        assert len(gens) == 3
        assert all(isinstance(g, np.random.Generator) for g in gens)

    def test_negative_n_raises(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)


class TestParallelMap:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_results_in_input_order(self, backend):
        pm = ParallelMap(backend, 3)
        assert pm.map(square, range(10)) == [x * x for x in range(10)]

    def test_backends_and_widths_bit_identical(self):
        """The core contract: same answers on every backend, every width."""
        items = list(enumerate(spawn_seeds(123, 6)))
        baseline = ParallelMap("serial").map(seeded_draw, items)
        for backend in ("thread", "process"):
            for width in (2, 4):
                got = ParallelMap(backend, width).map(seeded_draw, items)
                assert got == baseline, (backend, width)

    def test_empty_items(self):
        assert ParallelMap("process", 2).map(square, []) == []

    def test_single_item_avoids_pool(self):
        assert ParallelMap("process", 4).map(square, [3]) == [9]

    def test_invalid_workers(self):
        with pytest.raises(ValueError, match="n_workers"):
            ParallelMap("serial", 0)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_exceptions_propagate(self, backend):
        pm = ParallelMap(backend, 2)
        with pytest.raises(RuntimeError, match="exploded"):
            pm.map(boom, [1, 2, 3])

    def test_starmap(self):
        pm = ParallelMap("process", 2)
        assert pm.starmap(pow, [(2, 3), (3, 2)]) == [8, 9]

    def test_repr(self):
        assert "serial" in repr(ParallelMap("serial", 2))

    def test_instance_is_picklable(self):
        import pickle

        pm = pickle.loads(pickle.dumps(ParallelMap("process", 3)))
        assert pm.backend == "process" and pm.n_workers == 3


class TestCrossProcessTelemetry:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_worker_metrics_merge_into_parent(self, backend):
        """Counters/histograms recorded inside workers survive the join."""
        with tm.session():
            ParallelMap(backend, 2).map(telemetry_task, [1.0, 2.0, 3.0, 4.0])
            reg = tm.get_registry()
            snap = reg.snapshot()
        assert snap["counters"]["pmap.tasks"] == 4
        hist = snap["histograms"]["pmap.values"]
        assert hist["count"] == 4
        assert hist["total"] == pytest.approx(10.0)
        # Gauge merge is last-write-wins in *input* order.
        assert snap["gauges"]["pmap.last"] == pytest.approx(4.0)

    def test_process_backend_without_telemetry(self):
        """No session enabled: tasks still run, nothing is recorded."""
        assert not tm.enabled()
        assert ParallelMap("process", 2).map(telemetry_task, [1.0, 2.0]) == [
            1.0,
            2.0,
        ]

    def test_worker_session_isolates_and_restores(self):
        with tm.session():
            parent = tm.get_registry()
            tm.count("outer")
            with tm.worker_session() as worker_reg:
                assert tm.get_registry() is worker_reg
                assert tm.get_writer() is None
                tm.count("inner")
            assert tm.get_registry() is parent
            snap = parent.snapshot()
        assert snap["counters"] == {"outer": 1}
        assert worker_reg.snapshot()["counters"] == {"inner": 1}


def test_env_var_steers_callsites(monkeypatch):
    monkeypatch.setenv(ENV_BACKEND, "serial")
    assert ParallelMap(None, 4, default_backend="process").backend == "serial"
    monkeypatch.delenv(ENV_BACKEND, raising=False)
    assert ParallelMap(None, 4, default_backend="serial").backend == "serial"


def test_worker_count_defaults_to_cpu_count():
    assert ParallelMap("serial").n_workers == (os.cpu_count() or 1)

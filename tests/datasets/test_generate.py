"""Tests for the dataset-generation campaigns (Table I fidelity)."""

import numpy as np
import pytest

from repro.datasets import (
    MAX_REPEATS,
    PERFORMANCE_N_JOBS,
    POWER_N_JOBS,
    generate_performance_dataset,
    generate_power_dataset,
)
from repro.datasets.generate import (
    DENSE_SLICE_JOBS,
    ModelExecutor,
    feasible_configurations,
)
from repro.perfmodel.runtime import RuntimeModel


def test_performance_dataset_size(performance_dataset):
    assert len(performance_dataset) == PERFORMANCE_N_JOBS == 3246


def test_power_dataset_size(power_dataset):
    assert len(power_dataset) == POWER_N_JOBS == 640


def test_dense_slice_matches_paper(performance_dataset):
    """The paper's AL evaluation slice holds 251 jobs (Section V-B3)."""
    sub = performance_dataset.subset(operator="poisson1", np_ranks=32)
    assert len(sub) == DENSE_SLICE_JOBS == 251


def test_runtime_range_matches_table1(performance_dataset):
    lo, hi = performance_dataset.response_range("runtime_seconds")
    # Table I: 0.005 - 458.436 (ours is calibrated, not digit-identical).
    assert 0.002 < lo < 0.01
    assert 250 < hi < 600


def test_power_energy_range_matches_table1(power_dataset):
    lo, hi = power_dataset.response_range("energy_joules")
    # Table I: 6.4e3 - 1.1e5.
    assert 2e3 < lo < 2e4
    assert 5e4 < hi < 5e5


def test_all_factor_levels_exercised(performance_dataset):
    assert performance_dataset.unique_levels("operator") == [
        "poisson1",
        "poisson2",
        "poisson2affine",
    ]
    assert performance_dataset.unique_levels("np_ranks") == [
        1, 2, 4, 8, 16, 24, 32, 48, 64, 96, 128,
    ]
    assert performance_dataset.unique_levels("freq_ghz") == [1.2, 1.5, 1.8, 2.1, 2.4]


def test_repeats_capped(performance_dataset):
    from collections import Counter

    counts = Counter(
        (r.operator, r.problem_size, r.np_ranks, r.freq_ghz)
        for r in performance_dataset.records
    )
    assert max(counts.values()) <= MAX_REPEATS
    assert any(v > 1 for v in counts.values())  # repeats actually happen


def test_generation_deterministic():
    a = generate_performance_dataset(seed=99, n_jobs=2750)
    b = generate_performance_dataset(seed=99, n_jobs=2750)
    assert len(a) == len(b) == 2750
    assert [r.runtime_seconds for r in a.records[:50]] == [
        r.runtime_seconds for r in b.records[:50]
    ]


def test_power_jobs_all_usable(power_dataset):
    assert all(r.energy_usable for r in power_dataset.records)
    assert all(r.energy_joules is not None for r in power_dataset.records)
    assert all(r.state == "COMPLETED" for r in power_dataset.records)


def test_power_jobs_long_running(power_dataset):
    """The power campaign excludes short jobs (too few IPMI samples)."""
    lo, _ = power_dataset.response_range("runtime_seconds")
    assert lo > 25.0


def test_feasible_configurations_filtered():
    configs = feasible_configurations()
    from repro.datasets import full_factorial

    assert 0 < len(configs) < len(full_factorial())


@pytest.mark.parametrize(
    "model", [RuntimeModel(), RuntimeModel(seconds_per_dof=8e-6, smt_efficiency=0.9)]
)
def test_feasible_configurations_match_scalar_loop(model):
    """The per-operator vectorised filter keeps exactly the scalar-loop list."""
    from repro.datasets import full_factorial
    from repro.datasets.schema import FeasibilityRule

    rule = FeasibilityRule()
    scalar = [
        (op, size, np_ranks, freq)
        for op, size, np_ranks, freq in full_factorial()
        if rule.feasible(
            size, np_ranks, float(model.runtime(op, size, np_ranks, freq))
        )
    ]
    assert feasible_configurations(model, rule) == scalar
    assert len(full_factorial()) == 2805
    if model == RuntimeModel():
        assert len(scalar) == 2701


def test_model_executor_estimate_noise_free():
    ex = ModelExecutor()
    from repro.cluster import JobSpec

    spec = JobSpec("poisson1", 1e7, 32, 2.4)
    e1 = ex.estimate(spec)
    e2 = ex.estimate(spec)
    assert e1 == e2 > 0


def test_model_executor_execute_noisy():
    ex = ModelExecutor()
    from repro.cluster import JobSpec

    spec = JobSpec("poisson1", 1e7, 32, 2.4)
    rng = np.random.default_rng(0)
    outcomes = {ex.execute(spec, rng).runtime_seconds for _ in range(5)}
    assert len(outcomes) == 5  # measurements differ
    est = ex.estimate(spec)
    for t in outcomes:
        assert 0.5 * est < t < 3.0 * est


def test_power_floor_too_high_rejected():
    with pytest.raises((ValueError, RuntimeError)):
        generate_power_dataset(seed=0, min_runtime_s=400.0)

"""Micro-benchmarks: discrete-event scheduler throughput.

Measures how fast the SLURM-like simulator drains a batch — relevant
because the dataset campaigns push thousands of jobs through it.  The
3,246-job case is the paper's Performance campaign itself.
"""

import numpy as np
import pytest

from repro.cluster import (
    ExecutionOutcome,
    IPMISampler,
    JobSpec,
    PowerModel,
    SlurmSimulator,
    wisconsin_cluster,
)
from repro.datasets import PERFORMANCE_N_JOBS, generate_performance_dataset


class _QuickExec:
    def estimate(self, spec):
        return spec.problem_size

    def execute(self, spec, rng):
        return ExecutionOutcome(runtime_seconds=spec.problem_size)


def _specs(n, seed=0):
    rng = np.random.default_rng(seed)
    return [
        JobSpec("poisson1", float(rng.uniform(1, 50)),
                int(rng.choice([1, 8, 32, 64, 128])), 2.4, repeat_index=i)
        for i in range(n)
    ]


@pytest.mark.parametrize("n_jobs", [100, 500])
def test_scheduler_throughput(benchmark, n_jobs):
    specs = _specs(n_jobs)

    def run():
        sim = SlurmSimulator(wisconsin_cluster(), _QuickExec(), rng=0)
        return sim.run_batch(specs)

    records = benchmark(run)
    assert len(records) == n_jobs


def test_scheduler_with_power_tracing(benchmark):
    specs = _specs(100)

    def run():
        sim = SlurmSimulator(
            wisconsin_cluster(), _QuickExec(),
            power_model=PowerModel(), sampler=IPMISampler(), rng=0,
        )
        return sim.run_batch(specs)

    records = benchmark(run)
    assert sum(1 for r in records if r.energy_joules is not None) > 80


def test_performance_campaign_3246_jobs(benchmark):
    """The full Performance campaign: 3,246 model-executed jobs, FIFO + backfill."""
    dataset = benchmark.pedantic(
        generate_performance_dataset, args=(1,), rounds=3, iterations=1
    )
    assert len(dataset) == PERFORMANCE_N_JOBS == 3246
    makespan_h = max(r.end_time for r in dataset.records) / 3600.0
    assert abs(makespan_h - 5.07056) < 1e-5

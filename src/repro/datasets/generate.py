"""Generation of the paper's two datasets on the simulated testbed.

Reproduces the data-collection campaigns of Section IV:

* **Performance dataset** — 3,246 HPGMG-FE jobs over the full Table I
  factor grid (feasibility-filtered), with up to 3 repeats per
  configuration, executed through the SLURM-like scheduler.  Response:
  runtime.
* **Power dataset** — 640 jobs drawn from the longer-running part of the
  grid (jobs long enough for meaningful IPMI energy integration), executed
  with power-trace sampling; jobs whose traces fail the paper's 10-records-
  per-minute rule are excluded, exactly like the real campaign whose gaps
  shrank this dataset.  Responses: runtime and energy.

Everything is seeded and deterministic: the same seed always yields the
same job records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cluster.jobs import JobSpec
from ..cluster.machine import ClusterSpec, wisconsin_cluster
from ..cluster.power import IPMISampler, PowerModel
from ..cluster.scheduler import ExecutionOutcome, SlurmSimulator
from ..perfmodel.noise import PERFORMANCE_NOISE, NoiseModel
from ..perfmodel.runtime import RuntimeModel
from .dataset import PerfDataset
from .schema import (
    MAX_REPEATS,
    PERFORMANCE_N_JOBS,
    POWER_N_JOBS,
    FeasibilityRule,
    full_factorial,
)

__all__ = [
    "ModelExecutor",
    "generate_performance_dataset",
    "generate_power_dataset",
    "feasible_configurations",
]


@dataclass
class ModelExecutor:
    """Scheduler executor backed by the analytic performance model.

    ``estimate`` returns the noise-free model runtime (what a scheduler
    would be told); ``execute`` draws a noisy measurement from the noise
    model, plus plausible solver statistics for the accounting record.
    """

    runtime_model: RuntimeModel = field(default_factory=RuntimeModel)
    noise: NoiseModel = PERFORMANCE_NOISE
    bytes_per_dof: float = 48.0

    def estimate(self, spec: JobSpec) -> float:
        """Noise-free model runtime (what the scheduler is told)."""
        return float(
            self.runtime_model.runtime(
                spec.operator, spec.problem_size, spec.np_ranks, spec.freq_ghz
            )
        )

    def execute(self, spec: JobSpec, rng: np.random.Generator) -> ExecutionOutcome:
        """Draw one noisy measured run plus plausible solver statistics."""
        clean = self.estimate(spec)
        measured = float(self.noise.apply(clean, rng))
        n_nodes = self.runtime_model.nodes_needed(spec.np_ranks)
        rss = spec.problem_size * self.bytes_per_dof / n_nodes / 1e6
        return ExecutionOutcome(
            runtime_seconds=measured,
            mg_cycles=int(rng.integers(5, 10)),
            final_residual=float(10 ** rng.uniform(-9.5, -8.0)),
            dofs_per_second=spec.problem_size / measured,
            work_units=float(rng.uniform(28, 36)),
            verification_passed=True,
            rss_mb_per_node=rss,
        )


def _expected_runtimes(
    runtime_model: RuntimeModel, configs: list[tuple[str, int, int, float]]
) -> list[float]:
    """Noise-free runtime of each ``(op, size, np, freq)``, one call per operator."""
    out = np.empty(len(configs))
    rows_by_op: dict[str, list[int]] = {}
    for i, cfg in enumerate(configs):
        rows_by_op.setdefault(cfg[0], []).append(i)
    for op, rows in rows_by_op.items():
        size, np_ranks, freq = zip(*(configs[i][1:] for i in rows))
        out[rows] = runtime_model.runtime(op, size, np_ranks, freq)
    return out.tolist()


def feasible_configurations(
    runtime_model: RuntimeModel | None = None,
    rule: FeasibilityRule | None = None,
) -> list[tuple[str, int, int, float]]:
    """Table I grid filtered by memory and time-limit feasibility."""
    runtime_model = runtime_model or RuntimeModel()
    rule = rule or FeasibilityRule()
    grid = full_factorial()
    expected = _expected_runtimes(runtime_model, grid)
    return [cfg for cfg, t in zip(grid, expected) if rule.feasible(cfg[1], cfg[2], t)]


#: The densely-sampled slice of the real campaign: the paper's AL evaluation
#: (Fig. 6-8) runs on the poisson1 / NP=32 cross-section, which holds 251 of
#: the 3,246 Performance jobs — roughly 3 repeats of every configuration.
DENSE_SLICE = {"operator": "poisson1", "np_ranks": 32}
DENSE_SLICE_JOBS = 251


def _specs_with_repeats(
    configs: list[tuple[str, int, int, float]],
    target_jobs: int,
    rng: np.random.Generator,
    *,
    dense_slice: dict | None = None,
    dense_slice_jobs: int = 0,
) -> list[JobSpec]:
    """Assign 1-3 repeats per configuration to hit ``target_jobs`` exactly.

    If ``dense_slice`` is given, configurations matching it are sampled
    first, with as many repeats as needed to contribute exactly
    ``dense_slice_jobs`` jobs (mirroring the real campaign's dense coverage
    of the slice the paper's AL evaluation uses).
    """
    n = len(configs)
    if target_jobs > n * MAX_REPEATS:
        raise ValueError(
            f"target of {target_jobs} jobs exceeds {n} configs x {MAX_REPEATS} repeats"
        )
    if target_jobs < n and not dense_slice:
        # Small campaign: run a random subset of configurations once each.
        chosen = sorted(rng.choice(n, size=target_jobs, replace=False).tolist())
        configs = [configs[i] for i in chosen]
        n = len(configs)
    repeats = np.ones(n, dtype=int)

    dense_idx: list[int] = []
    if dense_slice:
        keymap = {"operator": 0, "problem_size": 1, "np_ranks": 2, "freq_ghz": 3}
        dense_idx = [
            i
            for i, cfg in enumerate(configs)
            if all(cfg[keymap[k]] == v for k, v in dense_slice.items())
        ]
        if dense_slice_jobs:
            if not dense_idx:
                raise ValueError(f"no configurations match dense slice {dense_slice}")
            if not len(dense_idx) <= dense_slice_jobs <= len(dense_idx) * MAX_REPEATS:
                raise ValueError(
                    f"dense slice of {len(dense_idx)} configs cannot hold "
                    f"{dense_slice_jobs} jobs with <= {MAX_REPEATS} repeats"
                )
            base, extra_dense = divmod(dense_slice_jobs, len(dense_idx))
            repeats[dense_idx] = base
            bump = rng.permutation(dense_idx)[:extra_dense]
            repeats[bump] += 1

    other_idx = np.array(
        [i for i in range(n) if i not in set(dense_idx)], dtype=int
    )
    extra = target_jobs - int(repeats.sum())
    if extra < 0:
        raise ValueError(
            f"target of {target_jobs} jobs is below the minimum of {repeats.sum()}"
        )
    order = rng.permutation(other_idx) if other_idx.size else np.empty(0, dtype=int)
    i = 0
    while extra > 0:
        if order.size == 0:
            raise ValueError("cannot place extra repeats: no non-dense configs")
        idx = order[i % order.size]
        if repeats[idx] < MAX_REPEATS:
            repeats[idx] += 1
            extra -= 1
        i += 1
        if i > 10 * n:
            raise ValueError("unable to distribute repeats within the repeat cap")
    specs = []
    for (op, size, np_ranks, freq), r in zip(configs, repeats):
        for rep in range(int(r)):
            specs.append(
                JobSpec(
                    operator=op,
                    problem_size=float(size),
                    np_ranks=np_ranks,
                    freq_ghz=freq,
                    repeat_index=rep,
                )
            )
    return specs


def generate_performance_dataset(
    seed: int = 2016,
    *,
    n_jobs: int = PERFORMANCE_N_JOBS,
    cluster: ClusterSpec | None = None,
    runtime_model: RuntimeModel | None = None,
    noise: NoiseModel = PERFORMANCE_NOISE,
) -> PerfDataset:
    """The 3,246-job Performance dataset (runtime response only)."""
    cluster = cluster or wisconsin_cluster()
    runtime_model = runtime_model or RuntimeModel()
    rng = np.random.default_rng(seed)
    configs = feasible_configurations(runtime_model)
    dense = DENSE_SLICE if n_jobs == PERFORMANCE_N_JOBS else None
    specs = _specs_with_repeats(
        configs,
        n_jobs,
        rng,
        dense_slice=dense,
        dense_slice_jobs=DENSE_SLICE_JOBS if dense else 0,
    )
    executor = ModelExecutor(runtime_model=runtime_model, noise=noise)
    sim = SlurmSimulator(
        cluster,
        executor,
        rng=rng,
        time_limit_seconds=FeasibilityRule().time_limit_seconds + 120.0,
    )
    records = sim.run_batch(specs)
    ds = PerfDataset(name="Performance", records=records)
    assert len(ds) == n_jobs
    return ds


def generate_power_dataset(
    seed: int = 2016,
    *,
    n_jobs: int = POWER_N_JOBS,
    min_runtime_s: float = 50.0,
    cluster: ClusterSpec | None = None,
    runtime_model: RuntimeModel | None = None,
    power_model: PowerModel | None = None,
    sampler: IPMISampler | None = None,
    noise: NoiseModel = PERFORMANCE_NOISE,
) -> PerfDataset:
    """The 640-job Power dataset (runtime and energy responses).

    Draws configurations whose expected runtime is at least
    ``min_runtime_s`` (short jobs yield too few IPMI samples for a
    meaningful energy integral), runs them with power tracing, drops jobs
    whose traces fail the 10-records-per-minute rule, and keeps the first
    ``n_jobs`` usable jobs in job-id order.
    """
    cluster = cluster or wisconsin_cluster()
    runtime_model = runtime_model or RuntimeModel()
    power_model = power_model or PowerModel()
    sampler = sampler or IPMISampler()
    rng = np.random.default_rng(seed + 1)

    rule = FeasibilityRule()
    configs = feasible_configurations(runtime_model, rule)
    long_configs = [
        cfg
        for cfg, t in zip(configs, _expected_runtimes(runtime_model, configs))
        if t >= min_runtime_s
    ]
    if not long_configs:
        raise RuntimeError("no configurations satisfy the power-campaign runtime floor")
    # Submit more jobs than needed so trace-gap exclusions still leave n_jobs.
    target = min(int(np.ceil(n_jobs * 1.2)), len(long_configs) * MAX_REPEATS)
    if target < n_jobs:
        raise ValueError(
            f"only {target} jobs possible above the {min_runtime_s}s floor; "
            f"lower min_runtime_s or n_jobs"
        )
    specs = _specs_with_repeats(long_configs, target, rng)

    executor = ModelExecutor(runtime_model=runtime_model, noise=noise)
    sim = SlurmSimulator(
        cluster,
        executor,
        power_model=power_model,
        sampler=sampler,
        rng=rng,
        time_limit_seconds=rule.time_limit_seconds + 120.0,
    )
    records = sim.run_batch(specs)
    usable = [
        r
        for r in records
        if r.state == "COMPLETED" and r.energy_usable and r.energy_joules is not None
    ]
    usable.sort(key=lambda r: r.job_id)
    if len(usable) < n_jobs:
        raise RuntimeError(
            f"power campaign produced only {len(usable)} usable jobs (< {n_jobs}); "
            "increase the oversubmission factor"
        )
    return PerfDataset(name="Power", records=usable[:n_jobs])

"""The benchmark's three workloads and the layer entry points the traced run wraps.

Each workload generates every input from its seed in ``setup``, runs one
measured pass over those inputs in ``run_pass`` and checks the pass's
outputs in ``check`` (outside the timed region).  A pass is deterministic
given its inputs, so two passes of one run must produce the same
fingerprint.

* ``paper_al`` -- the paper's Fig. 8 loop: Variance Reduction, then Cost
  Efficiency, on one partition of the 251-row poisson1/NP=32 slice, with a
  full guarded refit every round.  Fitting dominates.
* ``big_pool`` -- incremental-refit Variance Reduction over a large
  synthetic pool, publishing each full refit to a model registry while a
  closed-loop client queries a ``PredictionService``.  Pool scoring and
  evaluation dominate; serving runs beside registry writes.
* ``cluster_sim`` -- the 3,246-job Performance campaign through the
  scheduler simulator.  No GP at all; the scheduler dominates.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from repro.al import (
    ActiveLearner,
    CostEfficiency,
    VarianceReduction,
    default_model_factory,
    random_partition,
)
from repro.al import learner as al_learner
from repro.al.guardrails import ModelHealth
from repro.al.pool import CandidatePool
from repro.al.strategies import Strategy
from repro.cluster.jobs import JobSpec
from repro.cluster.scheduler import SlurmSimulator
from repro.datasets.generate import (
    ModelExecutor,
    feasible_configurations,
    generate_performance_dataset,
)
from repro.datasets.schema import PERFORMANCE_N_JOBS, PROBLEM_SIZES
from repro.gp import gpr
from repro.gp.gpr import GaussianProcessRegressor
from repro.gp.kernels import Kernel
from repro.perfmodel.noise import PERFORMANCE_NOISE
from repro.perfmodel.runtime import RuntimeModel
from repro.serve import ModelRegistry, PredictionService

__all__ = ["PassResult", "WORKLOADS", "trace_points", "LAYERS"]

#: Noise-variance floor of every learner (the paper's robust Fig. 7b/8 setting).
NOISE_FLOOR = 1e-1


@dataclass
class PassResult:
    """What one measured pass produced, for metrics and output checks."""

    campaign_s: float
    round_s: list = field(default_factory=list)
    query_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: per-learner RMSE series (AL workloads)
    rmse: list = field(default_factory=list)
    makespan_h: float | None = None
    jobs: int = 0
    #: workload-specific data the checks read
    data: dict = field(default_factory=dict)
    #: equal for two passes over equal inputs
    fingerprint: tuple = ()


def _timed_rounds(learner: ActiveLearner, n_rounds: int, result: PassResult, after=None):
    """Step ``learner`` ``n_rounds`` times, timing each round.

    A round that raises counts as failed and ends this learner's run.
    ``after(round_index)`` runs after each successful round, untimed.
    """
    clock = time.perf_counter
    for r in range(n_rounds):
        result.attempted += 1
        t0 = clock()
        try:
            learner.step()
        except Exception as exc:  # a failed round is a measured outcome
            result.failed += 1
            result.data.setdefault("errors", []).append(f"round {r}: {exc!r}")
            return
        result.round_s.append(clock() - t0)
        if after is not None:
            after(r)


def _check_rmse(name: str, series: np.ndarray, n_rounds: int) -> list[str]:
    problems = []
    if series.size != n_rounds:
        problems.append(f"{name}: ran {series.size} of {n_rounds} rounds")
    elif not np.all(np.isfinite(series)):
        problems.append(f"{name}: non-finite RMSE")
    elif not series[-1] < series[0]:
        problems.append(
            f"{name}: final RMSE {series[-1]:.4g} not below round-0 {series[0]:.4g}"
        )
    return problems


class PaperAL:
    """Fig. 8 shape: VR then CE on one partition of the 251-row slice."""

    name = "paper_al"

    def __init__(self, quick: bool = False):
        self.n_rounds = 10 if quick else 100

    def setup(self, seed: int, scratch) -> dict:
        rng = np.random.default_rng(seed)
        executor = ModelExecutor()
        configs = [
            c for c in feasible_configurations() if c[0] == "poisson1" and c[2] == 32
        ]
        # Three repeats of every configuration, trimmed at random to the
        # slice's 251 jobs (the Performance campaign's dense coverage).
        specs = [
            JobSpec(op, float(size), np_ranks, freq, repeat_index=r)
            for op, size, np_ranks, freq in configs
            for r in range(3)
        ]
        keep = np.sort(rng.choice(len(specs), size=251, replace=False))
        specs = [specs[i] for i in keep]
        runtime = np.array([executor.execute(s, rng).runtime_seconds for s in specs])
        X = np.array([[np.log10(s.problem_size), s.freq_ghz] for s in specs])
        y = np.log10(runtime)
        costs = runtime * np.array([s.np_ranks for s in specs], dtype=float)
        partition = random_partition(len(specs), rng)
        factory = default_model_factory(noise_floor=NOISE_FLOOR)
        learners = [
            ActiveLearner(
                X, y, costs, partition, strategy,
                model_factory=factory,
                refit_every=1,
                guardrails=True,
            )
            for strategy in (VarianceReduction(seed=seed), CostEfficiency(seed=seed))
        ]
        return {"learners": learners}

    def run_pass(self, inputs: dict) -> PassResult:
        result = PassResult(campaign_s=0.0)
        t0 = time.perf_counter()
        for learner in inputs["learners"]:
            _timed_rounds(learner, self.n_rounds, result)
        result.campaign_s = time.perf_counter() - t0
        result.rmse = [learner.trace.series("rmse") for learner in inputs["learners"]]
        result.data["names"] = [learner.strategy.name for learner in inputs["learners"]]
        result.fingerprint = tuple(
            tuple(learner.trace.series("selected_pool_index").tolist())
            + tuple(learner.trace.series("rmse").tolist())
            for learner in inputs["learners"]
        )
        return result

    def check(self, inputs: dict, result: PassResult) -> list[str]:
        problems = []
        for name, series in zip(result.data["names"], result.rmse):
            problems += _check_rmse(name, series, self.n_rounds)
        return problems

    def close(self, inputs: dict) -> None:
        pass


class BigPool:
    """Incremental VR over a large synthetic pool, served while it learns."""

    name = "big_pool"

    def __init__(self, quick: bool = False):
        self.pool_rows = 2_000 if quick else 50_000
        #: rounds per pass: short passes, so a run takes the median of several
        self.n_rounds = 10 if quick else 50
        self.queries_per_round = 2 if quick else 10
        self.query_rows = 2_048
        self.refit_every = 20 if not quick else 5
        #: every ``check_every``-th query answer is kept and re-derived
        self.check_every = 25

    def _draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        lo, hi = np.log10(PROBLEM_SIZES[0]), np.log10(PROBLEM_SIZES[-1])
        return np.column_stack(
            [
                rng.uniform(lo, hi, n),  # log10 global problem size
                rng.integers(0, 8, n).astype(float),  # log2 NP: 1 .. 128 ranks
                rng.uniform(1.2, 2.4, n),  # DVFS frequency, GHz
            ]
        )

    def setup(self, seed: int, scratch) -> dict:
        rng = np.random.default_rng(seed)
        X = self._draw(rng, self.pool_rows)
        np_ranks = 2.0 ** X[:, 1]
        clean = RuntimeModel().runtime("poisson1", 10.0 ** X[:, 0], np_ranks, X[:, 2])
        runtime = PERFORMANCE_NOISE.apply(clean, rng)
        y = np.log10(runtime)
        partition = random_partition(X.shape[0], rng)
        queries = [self._draw(rng, self.query_rows) for _ in range(self.queries_per_round)]
        root = tempfile.mkdtemp(prefix="registry-", dir=scratch)
        registry = ModelRegistry(root)
        learner = ActiveLearner(
            X, y, runtime * np_ranks, partition, VarianceReduction(seed=seed),
            model_factory=default_model_factory(noise_floor=NOISE_FLOOR),
            fast_refits=True,
            refit_every=self.refit_every,
            registry=registry,
        )
        return {"learner": learner, "registry": registry, "queries": queries}

    def run_pass(self, inputs: dict) -> PassResult:
        learner, registry = inputs["learner"], inputs["registry"]
        queries = inputs["queries"]
        result = PassResult(campaign_s=0.0)
        samples = []
        service = None
        clock = time.perf_counter

        def client(round_index: int) -> None:
            nonlocal service
            if service is None:  # the registry holds a version from round 0 on
                service = PredictionService(registry, auto_refresh=True)
            for q, Xq in enumerate(queries):
                result.attempted += 1
                t0 = clock()
                try:
                    mu, sd = service.predict_std(Xq)
                except Exception as exc:  # shed or failed queries are outcomes
                    result.failed += 1
                    result.data.setdefault("errors", []).append(f"query: {exc!r}")
                    continue
                result.query_s.append(clock() - t0)
                if (len(result.query_s) - 1) % self.check_every == 0:
                    samples.append((service.version, q, mu, sd))

        t0 = clock()
        _timed_rounds(learner, self.n_rounds, result, after=client)
        result.campaign_s = clock() - t0
        result.rmse = [learner.trace.series("rmse")]
        result.data.update(
            samples=samples,
            rollovers=service.n_rollovers if service is not None else 0,
        )
        result.fingerprint = tuple(learner.trace.series("selected_pool_index").tolist()) + tuple(
            result.rmse[0].tolist()
        )
        return result

    def check(self, inputs: dict, result: PassResult) -> list[str]:
        problems = _check_rmse("variance-reduction", result.rmse[0], self.n_rounds)
        registry = inputs["registry"]
        served = {}
        for version, q, mu, sd in result.data["samples"]:
            if version not in served:
                served[version] = registry.load(version)[0]
            ref_mu, ref_sd = served[version].predict(inputs["queries"][q], return_std=True)
            if not (np.array_equal(mu, ref_mu) and np.array_equal(sd, ref_sd)):
                problems.append(f"query answer differs from served version {version}")
        if not result.data["samples"]:
            problems.append("no query answers were sampled")
        publishes = len(registry.versions())
        expected = -(-self.n_rounds // self.refit_every)
        if publishes != expected:
            problems.append(f"{publishes} publishes, expected {expected}")
        # The service opens on the first publish and rolls over to each later one.
        if result.data["rollovers"] != publishes - 1:
            problems.append(
                f"{result.data['rollovers']} rollovers for {publishes} publishes"
            )
        return problems

    def close(self, inputs: dict) -> None:
        shutil.rmtree(inputs["registry"].root, ignore_errors=True)


class ClusterSim:
    """The 3,246-job Performance campaign through FIFO+EASY backfill."""

    name = "cluster_sim"

    #: jobs of the poisson1 / NP=32 slice in the full campaign
    SLICE_JOBS = 251

    def __init__(self, quick: bool = False):
        self.n_jobs = 300 if quick else PERFORMANCE_N_JOBS

    def setup(self, seed: int, scratch) -> dict:
        # The campaign draws everything else from the seed inside the call;
        # set-up enumerates the feasible input space the checks rely on.
        configs = feasible_configurations()
        return {"seed": seed, "n_configs": len(configs)}

    def run_pass(self, inputs: dict) -> PassResult:
        t0 = time.perf_counter()
        dataset = generate_performance_dataset(inputs["seed"], n_jobs=self.n_jobs)
        result = PassResult(campaign_s=time.perf_counter() - t0)
        records = dataset.records
        # A TIMEOUT is the scheduler enforcing the time limit on a job the
        # noise model made overrun it: a correct simulated outcome whose
        # recorded runtime is the limit.  Any other state is a failure.
        completed = sum(r.state == "COMPLETED" for r in records)
        timeouts = sum(
            r.state == "TIMEOUT"
            and abs(r.runtime_seconds - r.time_limit_seconds) <= 1e-9 * r.time_limit_seconds
            for r in records
        )
        result.attempted = len(records)
        result.failed = len(records) - completed - timeouts
        result.jobs = completed + timeouts
        result.makespan_h = max(r.end_time for r in records) / 3600.0
        result.data.update(
            n_records=len(records),
            timeouts=timeouts,
            in_slice=len(dataset.subset(operator="poisson1", np_ranks=32)),
        )
        result.fingerprint = tuple((r.job_id, r.state, r.end_time) for r in records)
        return result

    def check(self, inputs: dict, result: PassResult) -> list[str]:
        data = result.data
        problems = []
        if data["n_records"] != self.n_jobs:
            problems.append(f"{data['n_records']} records, expected {self.n_jobs}")
        if self.n_jobs == PERFORMANCE_N_JOBS and data["in_slice"] != self.SLICE_JOBS:
            problems.append(
                f"{data['in_slice']} jobs in poisson1/NP=32, expected {self.SLICE_JOBS}"
            )
        return problems

    def close(self, inputs: dict) -> None:
        pass


WORKLOADS = {w.name: w for w in (PaperAL, BigPool, ClusterSim)}


# --------------------------------------------------------------- trace points


def _kernel_entries(args, kwargs, result):
    X = args[1]
    Y = args[2] if len(args) > 2 else kwargs.get("Y")
    yield "entries", len(X) * (len(X) if Y is None else len(Y))


def _predict_rows(args, kwargs, result):
    X = np.asarray(args[1])
    yield "rows", X.shape[0] if X.ndim == 2 else 1


def _optimize_starts(args, kwargs, result):
    yield "starts", len(result.statuses)


def _health_unhealthy(args, kwargs, result):
    yield "unhealthy", 0 if result.healthy else 1


def _publish_bytes(args, kwargs, result):
    registry = args[0]
    yield "bytes", registry._version_path(result.version).stat().st_size


def _kernel_classes():
    """Every kernel class that defines its own ``__call__``."""
    seen, todo = [], [Kernel]
    while todo:
        cls = todo.pop()
        if "__call__" in vars(cls) and cls not in seen:
            seen.append(cls)
        todo.extend(cls.__subclasses__())
    return seen


#: Layer names in report order.
LAYERS = (
    "gp.fit", "gp.optimize", "gp.lml", "gp.kernel", "gp.update", "gp.predict",
    "al.select", "al.evaluate", "al.pool", "al.guardrails",
    "serve.publish", "serve.load", "serve.query",
    "cluster.run_batch", "datasets.estimate", "datasets.execute",
    "perfmodel.runtime",
)


def trace_points() -> list:
    """``(owner, attribute, layer, measure)`` for every traced entry point.

    Each name is patched where its caller looks it up: methods on their
    class, and ``minimize_with_restarts`` / ``evaluate_model`` in the
    module that imported them by name.
    """
    points = [
        (GaussianProcessRegressor, "fit", "gp.fit", None),
        (gpr, "minimize_with_restarts", "gp.optimize", _optimize_starts),
        (GaussianProcessRegressor, "log_marginal_likelihood", "gp.lml", None),
        (GaussianProcessRegressor, "update", "gp.update", None),
        (GaussianProcessRegressor, "predict", "gp.predict", _predict_rows),
        (Strategy, "select", "al.select", None),
        (al_learner, "evaluate_model", "al.evaluate", None),
        (CandidatePool, "available_X", "al.pool", None),
        (CandidatePool, "available_indices", "al.pool", None),
        (CandidatePool, "consume", "al.pool", None),
        (ModelHealth, "check", "al.guardrails", _health_unhealthy),
        (ModelRegistry, "publish", "serve.publish", _publish_bytes),
        (ModelRegistry, "load", "serve.load", None),
        (PredictionService, "predict", "serve.query", None),
        (PredictionService, "predict_std", "serve.query", None),
        (SlurmSimulator, "run_batch", "cluster.run_batch", None),
        (ModelExecutor, "estimate", "datasets.estimate", None),
        (ModelExecutor, "execute", "datasets.execute", None),
        (RuntimeModel, "runtime", "perfmodel.runtime", None),
    ]
    points += [(cls, "__call__", "gp.kernel", _kernel_entries) for cls in _kernel_classes()]
    return points

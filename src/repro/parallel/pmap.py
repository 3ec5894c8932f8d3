"""Deterministic serial/thread/process map for embarrassingly parallel work.

The paper's methodology fans out in two places: the multi-restart LML
gradient ascent behind every GPR fit (Section V-B2) and the replicate AL
runs averaged in Figs. 4-8.  Both are embarrassingly parallel, both are
CPU-bound numpy, and both must stay *deterministic*: a result may never
depend on the backend, the worker count, or task completion order.

:class:`ParallelMap` provides exactly that contract:

* three backends — ``"serial"`` (plain loop), ``"thread"``
  (:class:`~concurrent.futures.ThreadPoolExecutor`; useful when the work
  releases the GIL) and ``"process"``
  (:class:`~concurrent.futures.ProcessPoolExecutor`; true multi-core for
  GIL-bound numpy/scipy code);
* results are returned **in input order**, never completion order;
* task functions and items must be picklable for the ``process`` backend
  (module-level functions or instances of module-level classes);
* per-task randomness comes from :func:`spawn_seeds` /
  :func:`spawn_generators` — ``numpy.random.SeedSequence.spawn`` children
  keyed by *task index*, so streams are independent and bit-identical
  across backends and worker counts;
* telemetry recorded by process workers is not lost: each task runs under
  a fresh worker-local :class:`~repro.telemetry.registry.Registry` whose
  contents are shipped back and merged into the parent registry on join
  (see :func:`repro.telemetry.worker_session`).

The default backend is resolved from the ``REPRO_PARALLEL_BACKEND``
environment variable, so whole test suites can be re-run under the
process backend without touching call sites.

Fault tolerance (process backend)
---------------------------------
A long unattended sweep cannot die because one worker was OOM-killed.
The process backend therefore survives the chaos the training loop
already models (:mod:`repro.cluster.faults`):

* **Worker death** — a SIGKILL'd worker breaks the pool
  (:class:`~concurrent.futures.process.BrokenProcessPool`); unfinished
  tasks are resubmitted to a fresh pool.  Blame is attributed
  conservatively: a round that made progress before breaking blames
  nobody (an innocent task may have been co-resident with the killer),
  while a *fruitless* round — zero completions — blames every unfinished
  task.  A task repeatedly present in fruitless rounds exhausts
  ``max_task_retries`` and raises :class:`WorkerCrashed`; innocents
  complete in earlier rounds.  ``max_pool_failures`` bounds total pool
  rebuilds so a flapping machine cannot loop forever.
* **Per-task timeouts** — ``task_timeout`` bounds the in-order wait for
  each result (by the time task *i* is waited on it is at the queue
  head, so the clock is generous); an overrun kills the pool, retries
  the task up to ``max_task_retries`` times, then raises
  :class:`TaskTimeout`.
* **Backend degradation** — when the pool cannot even be *constructed*
  (fork/spawn resource exhaustion, an infra failure no task caused),
  ``degrade_after`` consecutive construction failures degrade
  process→thread→serial for the remaining tasks.  Task-attributed pool
  breaks never degrade: re-running a SIGKILLing task in a thread would
  kill the parent.

Retries preserve the determinism contract: a task is a pure function of
``(fn, item)`` with its randomness in the item's spawned seed, so a
retried task returns bit-identical results and every task still runs
effectively exactly once.  Telemetry: ``parallel.task.retries``,
``parallel.task.timeouts``, ``parallel.worker.deaths``,
``parallel.pool.failures``, ``parallel.backend.degraded``.

Everything here is standard library + numpy — no new dependencies.
"""

from __future__ import annotations

import os
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    TimeoutError as FuturesTimeout,
)
from typing import Callable, Iterable, Sequence

import numpy as np

from .. import telemetry as tm

__all__ = [
    "BACKENDS",
    "ENV_BACKEND",
    "ParallelMap",
    "TaskTimeout",
    "WorkerCrashed",
    "resolve_backend",
    "spawn_seeds",
    "spawn_generators",
]


class TaskTimeout(RuntimeError):
    """A task exceeded ``task_timeout`` on every allowed attempt."""


class WorkerCrashed(RuntimeError):
    """A task repeatedly killed its worker, or the pool kept breaking."""

#: Recognized backend names, in "cheapest first" order.
BACKENDS = ("serial", "thread", "process")

#: Environment variable consulted when no explicit backend is given.
ENV_BACKEND = "REPRO_PARALLEL_BACKEND"


def resolve_backend(backend: str | None = None, *, default: str = "process") -> str:
    """Pick the execution backend: explicit > ``$REPRO_PARALLEL_BACKEND`` > default.

    Raises ``ValueError`` for names outside :data:`BACKENDS` so a typo in
    the environment fails loudly rather than silently running serial.
    """
    if backend is None:
        backend = os.environ.get(ENV_BACKEND) or default
    backend = str(backend).lower()
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown parallel backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend


def spawn_seeds(seed, n: int) -> list[np.random.SeedSequence]:
    """``n`` independent child :class:`~numpy.random.SeedSequence` s.

    ``seed`` may be an int, ``None``, or an existing ``SeedSequence``.
    Children are keyed by spawn index, so child ``i`` is the same stream no
    matter which worker runs it or how many workers exist — the foundation
    of the bit-identical-across-backends guarantee.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return ss.spawn(n)


def spawn_generators(seed, n: int) -> list[np.random.Generator]:
    """Per-task generators over :func:`spawn_seeds` children."""
    return [np.random.default_rng(s) for s in spawn_seeds(seed, n)]


# --------------------------------------------------------------- worker shims
#
# Module-level so they pickle for the process backend.  ``fn`` travels with
# each task; ProcessPoolExecutor pickles it once per submitted call.


def _run_collected(payload):
    """Process-worker shim: run one task under a local telemetry registry.

    The parent had telemetry enabled, so the task's counters/gauges/
    histograms must not vanish into the worker process.  The task runs
    under :func:`repro.telemetry.worker_session` — a fresh worker-local
    registry with *no* trace writer (a forked copy of the parent's writer
    must never flush, or it would clobber the parent's trace file) — and
    the registry contents return with the result for an in-order merge.
    """
    fn, item = payload
    with tm.worker_session() as registry:
        result = fn(item)
    return result, registry.dump()


def _run_plain(payload):
    """Process-worker shim: run one task, telemetry disabled in the parent."""
    fn, item = payload
    with tm.worker_session():
        # Still scope out any forked parent state: a worker must never
        # write into an inherited trace buffer.
        result = fn(item)
    return result, None


class ParallelMap:
    """Ordered, deterministically seeded map over one of three backends.

    Parameters
    ----------
    backend:
        ``"serial"``, ``"thread"`` or ``"process"``; ``None`` resolves via
        ``$REPRO_PARALLEL_BACKEND`` and then ``default_backend``.
    n_workers:
        Pool width for the thread/process backends; defaults to
        ``os.cpu_count()``.  Ignored by the serial backend.
    default_backend:
        What ``backend=None`` falls back to when the environment variable
        is unset.  Call sites that historically ran serial pass
        ``"serial"`` here so behaviour only changes when asked.
    task_timeout:
        Per-task wall-clock bound in seconds for the process backend
        (``None`` = unbounded; ignored by serial/thread, which cannot
        abandon a running call).
    max_task_retries:
        Extra attempts granted to a task blamed for a timeout or a
        fruitless pool break before :class:`TaskTimeout` /
        :class:`WorkerCrashed` is raised.
    max_pool_failures:
        Total pool breaks tolerated across one :meth:`map` call.
    degrade_after:
        Consecutive pool *construction* failures before degrading
        process→thread→serial for the remaining tasks.

    Instances hold no live pool (one is created per :meth:`map` call), so
    a ``ParallelMap`` is cheap, reusable, and picklable.
    """

    def __init__(
        self,
        backend: str | None = None,
        n_workers: int | None = None,
        *,
        default_backend: str = "process",
        task_timeout: float | None = None,
        max_task_retries: int = 2,
        max_pool_failures: int = 10,
        degrade_after: int = 2,
    ):
        self.backend = resolve_backend(backend, default=default_backend)
        if n_workers is None:
            n_workers = os.cpu_count() or 1
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError("task_timeout must be positive (or None)")
        if max_task_retries < 0:
            raise ValueError("max_task_retries must be >= 0")
        if max_pool_failures < 1:
            raise ValueError("max_pool_failures must be >= 1")
        if degrade_after < 1:
            raise ValueError("degrade_after must be >= 1")
        self.n_workers = int(n_workers)
        self.task_timeout = task_timeout
        self.max_task_retries = int(max_task_retries)
        self.max_pool_failures = int(max_pool_failures)
        self.degrade_after = int(degrade_after)

    def map(self, fn: Callable, items: Iterable) -> list:
        """Apply ``fn`` to every item; results in input order.

        A worker exception propagates to the caller (the pool is shut
        down first), matching the serial loop's behaviour.  For the
        process backend, ``fn`` and every item must be picklable, and any
        telemetry the tasks record is merged back into the parent
        registry in input order once all tasks complete.
        """
        items = list(items)
        if not items:
            return []
        if self.backend == "serial" or self.n_workers == 1 or len(items) == 1:
            return [fn(item) for item in items]
        if self.backend == "thread":
            # Threads share the parent's registry and trace writer
            # directly; no merge step is needed.
            with ThreadPoolExecutor(max_workers=self.n_workers) as pool:
                return list(pool.map(fn, items))
        return self._map_process(fn, items)

    def _map_process(self, fn: Callable, items: list) -> list:
        shim = _run_collected if tm.enabled() else _run_plain
        n = len(items)
        outcomes: dict[int, tuple] = {}
        attempts = [0] * n
        pool_failures = 0
        construction_failures = 0
        while len(outcomes) < n:
            pending = [i for i in range(n) if i not in outcomes]
            try:
                pool = ProcessPoolExecutor(
                    max_workers=min(self.n_workers, len(pending))
                )
            except OSError as exc:
                # Infra failure no task caused (fork/spawn exhaustion):
                # the only case where switching backend is safe.
                construction_failures += 1
                tm.count("parallel.pool.failures")
                if construction_failures >= self.degrade_after:
                    self._run_degraded(fn, items, outcomes, pending, exc)
                continue
            construction_failures = 0
            broke = False
            timed_out: int | None = None
            completed = 0
            futures: dict = {}
            try:
                try:
                    for i in pending:
                        futures[i] = pool.submit(shim, (fn, items[i]))
                except (BrokenExecutor, OSError):
                    broke = True
                for i in pending:
                    fut = futures.get(i)
                    if fut is None or broke:
                        break
                    try:
                        outcomes[i] = fut.result(timeout=self.task_timeout)
                    except FuturesTimeout:
                        timed_out = i
                        break
                    except BrokenExecutor:
                        broke = True
                        break
                    completed += 1
                if timed_out is not None:
                    # Tasks behind the stuck one may have finished while
                    # we waited; harvest them before killing the pool.
                    for j in pending:
                        fut = futures.get(j)
                        if (
                            j not in outcomes
                            and fut is not None
                            and fut.done()
                            and not fut.cancelled()
                        ):
                            try:
                                outcomes[j] = fut.result()
                                completed += 1
                            except BrokenExecutor:
                                pass
            finally:
                if timed_out is not None:
                    # The stuck worker would otherwise run (and block
                    # interpreter exit) forever.
                    pool.shutdown(wait=False, cancel_futures=True)
                    for proc in list(
                        (getattr(pool, "_processes", None) or {}).values()
                    ):
                        try:
                            proc.terminate()
                        except OSError:
                            pass
                else:
                    pool.shutdown(wait=True, cancel_futures=broke)
            if timed_out is not None:
                tm.count("parallel.task.timeouts")
                attempts[timed_out] += 1
                if attempts[timed_out] > self.max_task_retries:
                    raise TaskTimeout(
                        f"task {timed_out} exceeded task_timeout="
                        f"{self.task_timeout}s on {attempts[timed_out]} attempts"
                    )
                tm.count("parallel.task.retries")
            elif broke:
                pool_failures += 1
                tm.count("parallel.worker.deaths")
                tm.event(
                    "parallel.pool.broken",
                    n_pending=len(pending),
                    completed=completed,
                    pool_failures=pool_failures,
                )
                if pool_failures >= self.max_pool_failures:
                    raise WorkerCrashed(
                        f"process pool broke {pool_failures} times; giving up "
                        f"with {n - len(outcomes)} of {n} tasks unfinished"
                    )
                if completed == 0:
                    # A fruitless round: nothing completed before the
                    # break, so every unfinished task is a suspect.  A
                    # poison task keeps landing in fruitless rounds and
                    # exhausts its retries; innocents complete earlier.
                    for i in pending:
                        if i in outcomes:
                            continue
                        attempts[i] += 1
                        if attempts[i] > self.max_task_retries:
                            raise WorkerCrashed(
                                f"task {i} implicated in {attempts[i]} "
                                "worker deaths; not retrying again"
                            )
                        tm.count("parallel.task.retries")
        results = []
        registry = tm.get_registry()
        for i in range(n):
            result, dump = outcomes[i]
            results.append(result)
            if dump is not None and registry is not None:
                # Merge in input order so gauge last-write-wins is
                # deterministic regardless of completion order.
                registry.merge(dump)
        return results

    def _run_degraded(self, fn, items, outcomes, pending, exc) -> None:
        """Finish ``pending`` on thread (then serial) after infra failure."""
        tm.count("parallel.backend.degraded")
        tm.event(
            "parallel.backend.degraded",
            from_backend="process",
            to_backend="thread",
            n_pending=len(pending),
            error=str(exc),
        )
        # In-parent execution: run fn directly (no worker shim — telemetry
        # lands in the parent registry), store a dump-less outcome.
        try:
            pool = ThreadPoolExecutor(max_workers=min(self.n_workers, len(pending)))
        except (OSError, RuntimeError):
            tm.count("parallel.backend.degraded")
            tm.event(
                "parallel.backend.degraded",
                from_backend="thread",
                to_backend="serial",
                n_pending=len(pending),
            )
            for i in pending:
                outcomes[i] = (fn(items[i]), None)
            return
        with pool:
            for i, result in zip(
                pending, pool.map(fn, [items[i] for i in pending])
            ):
                outcomes[i] = (result, None)

    def starmap(self, fn: Callable, items: Iterable[Sequence]) -> list:
        """:meth:`map` for tasks taking several positional arguments."""
        return self.map(_Star(fn), items)

    def __repr__(self) -> str:
        return f"ParallelMap(backend={self.backend!r}, n_workers={self.n_workers})"


class _Star:
    """Picklable adapter turning ``fn(*args)`` into ``fn(args)``."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable):
        self.fn = fn

    def __call__(self, args):
        return self.fn(*args)

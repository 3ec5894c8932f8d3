"""Always-on prediction front-end over a :class:`~repro.serve.registry.ModelRegistry`.

The campaign machinery *trains* models; this module *serves* them.  A
:class:`PredictionService` holds a read-only snapshot of the registry's
published model and answers large batched queries by chunking them
through the vectorized :meth:`~repro.gp.GaussianProcessRegressor.predict`
— the cached Cholesky factor is shared across every query instead of
being recomputed or copied, so a block of 10^4+ points costs two
triangular solves per chunk and nothing else.

Hot rollover
------------
:meth:`PredictionService.refresh` re-reads the manifest and, when a newer
version was published (or the pointer was rolled back), atomically swaps
the served snapshot.  Queries capture the snapshot *once* at entry, so an
in-flight query finishes on the version it started with while the next
query sees the new one — no locks on the query path, no torn reads.
``auto_refresh=True`` folds the manifest check into every query, which is
the always-on mode the CLI uses.

Serving under failure
---------------------
Production serving cannot assume a healthy filesystem, so the service
degrades instead of dying:

* **Retry with jittered backoff** — transient registry I/O errors during
  :meth:`refresh` are retried ``refresh_retries`` times with exponential,
  jittered backoff (``serve.retry.total``).
* **Stale-while-revalidate** — when a refresh still fails after retries,
  the held snapshot keeps answering; the service is *degraded*
  (``serve.refresh.errors`` counts failures, ``serve.degraded.queries``
  counts queries served stale) until a refresh succeeds again.  Checksum
  verification in :meth:`ModelRegistry.load` guarantees a degraded
  service still never answers from a corrupt model.
* **Admission control** — with ``max_inflight`` set, at most that many
  queries execute concurrently and at most ``max_queue`` wait; beyond
  that the service *sheds load* with an explicit :class:`ServiceOverloaded`
  (``serve.shed``) instead of queueing unboundedly.
* **Deadlines** — ``deadline_s`` (per service or per query) bounds a
  query's total latency, checked between chunks; an overrun raises
  :class:`DeadlineExceeded` (``serve.deadline.exceeded``).

Telemetry: ``serve.predict.seconds`` / ``serve.refresh.seconds``
histograms, ``serve.predict.requests`` / ``serve.predict.points`` /
``serve.rollover.total`` / ``serve.shed`` / ``serve.retry.total`` /
``serve.refresh.errors`` / ``serve.degraded.queries`` counters, and
``serve.rollover`` / ``serve.degraded`` / ``serve.recovered`` trace
events (all zero-cost when telemetry is disabled).
"""

from __future__ import annotations

import random
import threading
import time

import numpy as np

from .. import telemetry as tm
from ..gp.gpr import GaussianProcessRegressor
from ..gp.solvers import row_blocks
from ..gp.validate import as_2d_array
from .registry import ModelRegistry, ModelVersion, RegistryError

__all__ = ["PredictionService", "ServiceOverloaded", "DeadlineExceeded"]

#: Exceptions treated as transient/recoverable on the refresh path.
_REFRESH_ERRORS = (RegistryError, OSError, ValueError)


class ServiceOverloaded(RuntimeError):
    """The admission queue is full (or the wait timed out); query shed."""


class DeadlineExceeded(RuntimeError):
    """A query overran its deadline and was abandoned between chunks."""


class PredictionService:
    """Serve batched predictions from the registry's published model.

    Parameters
    ----------
    registry:
        The :class:`~repro.serve.registry.ModelRegistry` (or a path to
        one) to serve from.
    version:
        Pin a specific version instead of tracking ``latest``; a pinned
        service never rolls over.
    chunk_size:
        Query rows per call of the model's ``predict``, and so how often
        the deadline is checked.  Memory does not depend on it: the exact
        ``predict`` itself works in blocks of 2,048 query rows, so its
        transient ``(rows, n_train)`` cross-covariance stays bounded
        whatever the chunk.  The chunks follow the model's own block rule
        (:func:`~repro.gp.solvers.row_blocks`: a one-row tail joins the
        chunk before it), so at the default, 2048, they are exactly the
        blocks an exact model's ``predict`` uses, and the answers are
        bitwise the in-memory model's for any number of rows.  Each query row's
        prediction depends only on its own row of ``K_*``, so other chunk
        sizes are exact *as long as BLAS picks the same matvec kernel for
        the chunked and unchunked shapes* — true for sizes near the
        default; pathologically tiny chunks (single digits) can differ
        from the full-block result in the last ulp.
    auto_refresh:
        Check the manifest for a newer published version before every
        query (hot rollover without an external trigger).  A refresh
        failure never fails the query: the held snapshot answers and the
        service is marked degraded until a refresh succeeds.
    deadline_s:
        Default per-query deadline in seconds (``None`` = unbounded).
        Covers admission wait plus prediction, checked between chunks.
    max_inflight:
        Maximum concurrently executing queries (``None`` disables
        admission control entirely — the pre-existing behaviour).
    max_queue:
        Queries allowed to *wait* for an execution slot when
        ``max_inflight`` is reached; one more is shed.
    queue_timeout_s:
        Upper bound on the admission wait when the query has no deadline
        (admission latency must never be unbounded).
    refresh_retries:
        Transient registry-I/O retries per :meth:`refresh` call.
    retry_backoff_s:
        Base backoff before the first retry; doubles per attempt, with
        multiplicative jitter in [0.5, 1.5).
    """

    def __init__(
        self,
        registry: ModelRegistry | str,
        *,
        version: int | None = None,
        chunk_size: int = 2048,
        auto_refresh: bool = False,
        deadline_s: float | None = None,
        max_inflight: int | None = None,
        max_queue: int = 8,
        queue_timeout_s: float = 1.0,
        refresh_retries: int = 2,
        retry_backoff_s: float = 0.05,
    ):
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive (or None)")
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be >= 1 (or None)")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        if queue_timeout_s <= 0:
            raise ValueError("queue_timeout_s must be positive")
        if refresh_retries < 0:
            raise ValueError("refresh_retries must be >= 0")
        if not isinstance(registry, ModelRegistry):
            registry = ModelRegistry(registry)
        self.registry = registry
        self.chunk_size = int(chunk_size)
        self.auto_refresh = bool(auto_refresh)
        self.deadline_s = deadline_s
        self.max_inflight = max_inflight
        self.max_queue = int(max_queue)
        self.queue_timeout_s = float(queue_timeout_s)
        self.refresh_retries = int(refresh_retries)
        self.retry_backoff_s = float(retry_backoff_s)
        self._pinned = None if version is None else int(version)
        # One immutable (model, meta) snapshot, swapped wholesale under the
        # lock; query paths read it once into a local, so they never see a
        # half-updated pair and never block each other.
        self._snapshot: tuple[GaussianProcessRegressor, ModelVersion] = (
            registry.load(self._pinned)
        )
        self._lock = threading.Lock()
        self._admit_cond = threading.Condition()
        self._inflight = 0
        self._queued = 0
        # Dedicated jitter stream + injectable sleep keep retry timing
        # deterministic under test.
        self._retry_rng = random.Random(0xA11CE)
        self._sleep = time.sleep
        self.n_rollovers = 0
        self.n_shed = 0
        self._degraded = False
        self.consecutive_refresh_failures = 0

    # ------------------------------------------------------------------ state

    @property
    def version(self) -> int:
        """Version number of the currently served model."""
        return self._snapshot[1].version

    @property
    def meta(self) -> ModelVersion:
        """Metadata of the currently served model."""
        return self._snapshot[1]

    @property
    def model(self) -> GaussianProcessRegressor:
        """The served model snapshot (treat as read-only)."""
        return self._snapshot[0]

    @property
    def degraded(self) -> bool:
        """Whether the last refresh failed and queries answer from the stale snapshot."""
        return self._degraded

    def health(self) -> dict:
        """Serving-health snapshot (mirrored by the CLI's stderr logs)."""
        return {
            "version": self.version,
            "degraded": self._degraded,
            "consecutive_refresh_failures": self.consecutive_refresh_failures,
            "n_rollovers": self.n_rollovers,
            "n_shed": self.n_shed,
            "inflight": self._inflight,
            "queued": self._queued,
            "pinned": self._pinned,
        }

    # -------------------------------------------------------------- refreshes

    def refresh(self) -> bool:
        """Re-read the manifest; swap in the published version if it changed.

        Returns ``True`` when a rollover happened.  A pinned service
        always returns ``False``.  Safe to call from any thread, and safe
        to race with in-flight queries: they keep the snapshot they
        captured at entry.

        Transient registry errors are retried ``refresh_retries`` times
        with jittered exponential backoff; persistent failure marks the
        service degraded and re-raises (``auto_refresh`` queries swallow
        the error and serve the held snapshot instead).
        """
        if self._pinned is not None:
            return False
        t0 = time.perf_counter()
        last_exc: BaseException | None = None
        for attempt in range(self.refresh_retries + 1):
            if attempt:
                tm.count("serve.retry.total")
                delay = self.retry_backoff_s * (2 ** (attempt - 1))
                self._sleep(delay * (0.5 + self._retry_rng.random()))
            try:
                rolled = self._refresh_once(t0)
            except _REFRESH_ERRORS as exc:
                last_exc = exc
                continue
            if self._degraded:
                tm.event("serve.recovered", version=self.version)
            self._degraded = False
            self.consecutive_refresh_failures = 0
            return rolled
        self._degraded = True
        self.consecutive_refresh_failures += 1
        tm.count("serve.refresh.errors")
        tm.event(
            "serve.degraded",
            error=str(last_exc),
            consecutive=self.consecutive_refresh_failures,
            version=self.version,
        )
        raise last_exc

    def _refresh_once(self, t0: float) -> bool:
        target = self.registry.latest_version()
        if target is None:
            raise RegistryError(f"registry {self.registry.root} is empty")
        with self._lock:
            if target == self._snapshot[1].version:
                return False
        # load() verifies checksums and falls back to last-known-good on a
        # corrupt latest, so `snapshot` may resolve to the version already
        # served — that is a no-op, not a rollover.
        snapshot = self.registry.load()
        with self._lock:
            old = self._snapshot[1].version
            if snapshot[1].version == old:
                return False
            self._snapshot = snapshot
            self.n_rollovers += 1
        tm.count("serve.rollover.total")
        tm.observe("serve.refresh.seconds", time.perf_counter() - t0)
        tm.event("serve.rollover", from_version=old, to_version=snapshot[1].version)
        return True

    # ---------------------------------------------------------------- queries

    def _enter_query(self) -> tuple[GaussianProcessRegressor, ModelVersion]:
        if self.auto_refresh:
            try:
                self.refresh()
            except _REFRESH_ERRORS:
                # Stale-while-revalidate: refresh() already recorded the
                # failure; the held (checksum-verified) snapshot answers.
                pass
        if self._degraded:
            tm.count("serve.degraded.queries")
        return self._snapshot

    def _deadline(self, deadline_s: float | None) -> float | None:
        s = self.deadline_s if deadline_s is None else deadline_s
        return None if s is None else time.monotonic() + s

    def _check_deadline(self, deadline: float | None) -> None:
        if deadline is not None and time.monotonic() > deadline:
            tm.count("serve.deadline.exceeded")
            raise DeadlineExceeded(
                "query overran its deadline; partial prediction abandoned"
            )

    def _admit(self, deadline: float | None) -> None:
        if self.max_inflight is None:
            return
        with self._admit_cond:
            if self._inflight < self.max_inflight:
                self._inflight += 1
                return
            if self._queued >= self.max_queue:
                self.n_shed += 1
                tm.count("serve.shed")
                raise ServiceOverloaded(
                    f"{self._inflight} queries in flight and "
                    f"{self._queued} queued (max_queue={self.max_queue})"
                )
            self._queued += 1
            try:
                while self._inflight >= self.max_inflight:
                    if deadline is None:
                        timeout = self.queue_timeout_s
                    else:
                        timeout = min(
                            self.queue_timeout_s, deadline - time.monotonic()
                        )
                    if timeout <= 0 or not self._admit_cond.wait(timeout):
                        self.n_shed += 1
                        tm.count("serve.shed")
                        raise ServiceOverloaded(
                            "admission wait exceeded "
                            f"{self.queue_timeout_s if deadline is None else 'the deadline'}"
                        )
                self._inflight += 1
            finally:
                self._queued -= 1

    def _release(self) -> None:
        if self.max_inflight is None:
            return
        with self._admit_cond:
            self._inflight -= 1
            self._admit_cond.notify()

    def _chunks(self, X: np.ndarray):
        for start, stop in row_blocks(X.shape[0], self.chunk_size):
            yield X[start:stop]

    def predict(self, X, *, deadline_s: float | None = None) -> np.ndarray:
        """Posterior mean at the query rows, chunk by chunk."""
        X = as_2d_array(X)
        deadline = self._deadline(deadline_s)
        self._admit(deadline)
        try:
            model, _ = self._enter_query()
            t0 = time.perf_counter()
            parts = []
            for chunk in self._chunks(X):
                self._check_deadline(deadline)
                parts.append(model.predict(chunk))
            mean = np.concatenate(parts)
            self._observe(t0, X.shape[0])
            return mean
        finally:
            self._release()

    def predict_std(
        self, X, *, include_noise: bool = True, deadline_s: float | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and predictive SD at the query rows, chunked."""
        X = as_2d_array(X)
        deadline = self._deadline(deadline_s)
        self._admit(deadline)
        try:
            model, _ = self._enter_query()
            t0 = time.perf_counter()
            means, sds = [], []
            for chunk in self._chunks(X):
                self._check_deadline(deadline)
                mu, sd = model.predict(
                    chunk, return_std=True, include_noise=include_noise
                )
                means.append(mu)
                sds.append(sd)
            self._observe(t0, X.shape[0])
            return np.concatenate(means), np.concatenate(sds)
        finally:
            self._release()

    def _observe(self, t0: float, n_points: int) -> None:
        if not tm.enabled():
            return
        tm.observe("serve.predict.seconds", time.perf_counter() - t0)
        tm.count("serve.predict.requests")
        tm.count("serve.predict.points", n_points)

    def __repr__(self) -> str:
        meta = self.meta
        return (
            f"PredictionService(registry={str(self.registry.root)!r}, "
            f"version={meta.version}, n_train={meta.n_train}, "
            f"chunk_size={self.chunk_size})"
        )

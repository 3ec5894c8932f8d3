"""Discrete-event SLURM-like scheduler for the simulated testbed.

The paper organized HPGMG-FE jobs "into batches and submitted [them] to the
job queue, after which SLURM managed their execution on the available
nodes".  This module reproduces that pipeline: a 4-node cluster, a FIFO
queue with backfill, whole-node allocation (one MPI rank per core, as
HPC schedulers do for exclusive jobs), per-node IPMI power sampling during
execution, and a full 46-attribute accounting record per job.

The simulator is generic over a :class:`Executor`, which supplies the job's
actual behaviour.  Two executors exist:

* ``ModelExecutor`` (in :mod:`repro.datasets.generate`) evaluates the
  analytic performance model — used to produce the paper-scale datasets;
* ``HPGMGExecutor`` (in :mod:`repro.al.oracle`) actually runs the mini
  HPGMG-FE solver — used for the online active-learning example.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Protocol, Sequence

import numpy as np

from .. import telemetry as tm
from .breaker import AllNodesOpenError, NodeCircuitBreaker
from .energy import integrate_energy, records_per_minute, trace_is_usable
from .jobs import JobRecord, JobSpec
from .machine import ClusterSpec
from .power import IPMISampler, PowerModel

__all__ = ["ExecutionOutcome", "Executor", "SlurmSimulator"]


@dataclass(frozen=True)
class ExecutionOutcome:
    """What actually happened when a job ran.

    ``runtime_seconds`` drives the simulation clock; the remaining fields
    are copied into the accounting record.
    """

    runtime_seconds: float
    mg_cycles: int = 0
    final_residual: float = 0.0
    dofs_per_second: float = 0.0
    work_units: float = 0.0
    verification_passed: bool = True
    rss_mb_per_node: float = 0.0
    failed: bool = False


class Executor(Protocol):
    """Behaviour model plugged into the scheduler."""

    def estimate(self, spec: JobSpec) -> float:
        """Expected runtime in seconds (used for backfill reservations)."""
        ...

    def execute(self, spec: JobSpec, rng: np.random.Generator) -> ExecutionOutcome:
        """Run the job and return its measured outcome."""
        ...


@dataclass(eq=False)
class _QueuedJob:
    job_id: int
    spec: JobSpec
    submit_time: float
    n_nodes: int
    #: the executor's runtime estimate, asked for on first use only
    runtime_estimate: Optional[float] = None


@dataclass(eq=False)
class _RunningJob:
    queued: _QueuedJob
    start_time: float
    end_time: float
    nodes: tuple[int, ...]
    outcome: ExecutionOutcome


class SlurmSimulator:
    """FIFO + backfill scheduler over a homogeneous cluster.

    Parameters
    ----------
    cluster:
        Hardware description (defaults elsewhere to the Wisconsin testbed).
    executor:
        Supplies estimated and actual job behaviour.
    power_model / sampler:
        If both are given, every job gets per-node IPMI power traces and an
        integrated energy estimate; otherwise energy fields are ``None``.
    rng:
        Seed or generator driving all stochastic components.
    time_limit_seconds:
        SLURM time limit recorded for (and enforced on) each job.
    breaker:
        Optional :class:`~repro.cluster.breaker.NodeCircuitBreaker`.  When
        present, open/blacklisted nodes take no new jobs, every completion
        is fed back as success/failure, a stalled queue fast-forwards
        across cooldowns, and a permanently unplaceable queue raises
        :class:`~repro.cluster.breaker.AllNodesOpenError` instead of the
        generic deadlock error.  The breaker typically outlives the
        simulator (one breaker per campaign, one simulator per wave).
    breaker_clock_offset:
        Added to this simulator's local clock (which starts at 0 every
        ``run_batch``) before any breaker call, mapping wave-local times
        onto the campaign-global timeline that cooldowns are measured in.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        executor: Executor,
        *,
        power_model: Optional[PowerModel] = None,
        sampler: Optional[IPMISampler] = None,
        rng=None,
        time_limit_seconds: float = 3600.0,
        policy: str = "fifo",
        breaker: Optional[NodeCircuitBreaker] = None,
        breaker_clock_offset: float = 0.0,
    ):
        if (power_model is None) != (sampler is None):
            raise ValueError("power_model and sampler must be supplied together")
        if policy not in ("fifo", "sjf"):
            raise ValueError(f"unknown policy {policy!r}; expected 'fifo' or 'sjf'")
        self.cluster = cluster
        self.executor = executor
        self.power_model = power_model
        self.sampler = sampler
        self.rng = np.random.default_rng(rng)
        self.time_limit_seconds = float(time_limit_seconds)
        self.policy = policy
        self.breaker = breaker
        self.breaker_clock_offset = float(breaker_clock_offset)
        if breaker is not None and breaker.n_nodes != cluster.n_nodes:
            raise ValueError(
                f"breaker tracks {breaker.n_nodes} nodes, cluster has "
                f"{cluster.n_nodes}"
            )
        self._job_counter = itertools.count(1)

    # ------------------------------------------------------------------ running

    def run_batch(
        self, specs: Sequence[JobSpec], *, submit_spacing_s: float = 0.0
    ) -> list[JobRecord]:
        """Submit ``specs`` in order and simulate until the queue drains.

        Job ``i`` is submitted at ``i * submit_spacing_s``.  Returns one
        :class:`JobRecord` per spec, in completion order.
        """
        if not (math.isfinite(submit_spacing_s) and submit_spacing_s >= 0):
            raise ValueError(
                f"submit_spacing_s must be finite and >= 0, got {submit_spacing_s!r}"
            )
        free_nodes = set(range(self.cluster.n_nodes))
        queue: list[_QueuedJob] = []
        running: list[_RunningJob] = []
        records: list[JobRecord] = []
        # Event heap holds job completions: (end_time, tiebreak, running_job).
        heap: list[tuple[float, int, _RunningJob]] = []
        tiebreak = itertools.count()

        now = 0.0
        for i, spec in enumerate(specs):
            n_nodes = self.cluster.nodes_for_ranks(spec.np_ranks)
            queue.append(
                _QueuedJob(
                    job_id=next(self._job_counter),
                    spec=spec,
                    submit_time=i * submit_spacing_s,
                    n_nodes=n_nodes,
                )
            )
        # Submit times never decrease along the queue, so from the last
        # submission on every queued job is eligible.
        last_submit = queue[-1].submit_time if queue else 0.0

        def estimate(qjob: _QueuedJob) -> float:
            """The executor's runtime estimate, asked for once per job."""
            if qjob.runtime_estimate is None:
                qjob.runtime_estimate = self.executor.estimate(qjob.spec)
            return qjob.runtime_estimate

        def usable_free(t: float) -> list[int]:
            """Free nodes the breaker (if any) lets a job start on at ``t``."""
            if self.breaker is None:
                return sorted(free_nodes)
            bt = t + self.breaker_clock_offset
            return [n for n in sorted(free_nodes) if self.breaker.allow(n, bt)]

        def start_job(qjob: _QueuedJob, t: float) -> None:
            nodes = tuple(usable_free(t)[: qjob.n_nodes])
            for node in nodes:
                free_nodes.remove(node)
            if self.breaker is not None:
                self.breaker.on_job_start(nodes, t + self.breaker_clock_offset)
            execute_on = getattr(self.executor, "execute_on", None)
            if execute_on is not None:
                outcome = execute_on(qjob.spec, self.rng, nodes)
            else:
                outcome = self.executor.execute(qjob.spec, self.rng)
            runtime = min(outcome.runtime_seconds, self.time_limit_seconds)
            rjob = _RunningJob(
                queued=qjob,
                start_time=t,
                end_time=t + runtime,
                nodes=nodes,
                outcome=outcome,
            )
            running.append(rjob)
            heapq.heappush(heap, (rjob.end_time, next(tiebreak), rjob))

        def schedule(t: float) -> None:
            """Queue head first; backfill for the rest.

            Under ``fifo`` the head is the oldest submission; under ``sjf``
            (shortest job first) eligible jobs are ordered by estimated
            runtime, a classical makespan-reducing policy for throughput
            campaigns.  A blocked head gets a reservation at its shadow
            time (when enough running jobs will have finished); a later job
            is backfilled only if its estimated runtime ends by then.
            Unlike full EASY backfill, a job that would outlast the shadow
            time is never started on nodes the head will not need.
            """
            while queue:
                if t >= last_submit:
                    eligible = queue
                else:
                    eligible = [q for q in queue if q.submit_time <= t]
                    if not eligible:
                        return
                if self.policy == "sjf":
                    # A total order, so sorting the queue itself in place
                    # gives the same head and candidates as sorting a copy.
                    eligible.sort(key=lambda q: (estimate(q), q.job_id))
                n_usable = len(usable_free(t))
                head = eligible[0]
                if head.n_nodes <= n_usable:
                    queue.remove(head)
                    start_job(head, t)
                    continue
                # Head blocked: compute its shadow start from running jobs.
                ends = sorted((r.end_time, len(r.nodes)) for r in running)
                avail = n_usable
                shadow = t
                for end_time, released in ends:
                    avail += released
                    if avail >= head.n_nodes:
                        shadow = end_time
                        break
                for q in itertools.islice(eligible, 1, None):
                    if q.n_nodes > n_usable:
                        continue
                    if t + min(estimate(q), self.time_limit_seconds) <= shadow:
                        queue.remove(q)
                        start_job(q, t)
                        break  # re-evaluate shadow with updated state
                else:
                    return

        # Prime with any jobs submitted at t=0 and iterate completions.
        pending_submits = sorted({q.submit_time for q in queue})
        submit_iter = iter(pending_submits)
        next_submit = next(submit_iter, None)

        while queue or heap:
            # Advance to the next event: a submission or a completion.
            next_end = heap[0][0] if heap else None
            if next_submit is not None and (next_end is None or next_submit <= next_end):
                now = next_submit
                next_submit = next(submit_iter, None)
                schedule(now)
                continue
            if next_end is None:
                if self.breaker is not None:
                    # Nothing running, nothing arriving: the only event that
                    # can unblock the queue is a breaker cooldown expiring.
                    bt = now + self.breaker_clock_offset
                    nxt = self.breaker.next_transition_time(bt)
                    if nxt is not None:
                        now = nxt - self.breaker_clock_offset
                        schedule(now)
                        continue
                    needed = min(q.n_nodes for q in queue)
                    raise AllNodesOpenError(
                        self.breaker.describe_stall(bt, needed)
                    )
                raise RuntimeError("queue non-empty but nothing running or arriving")
            now, _, rjob = heapq.heappop(heap)
            running.remove(rjob)
            for node in rjob.nodes:
                free_nodes.add(node)
            record = self._make_record(rjob)
            records.append(record)
            if self.breaker is not None:
                bt = now + self.breaker_clock_offset
                feed = (
                    self.breaker.record_success
                    if record.state == "COMPLETED"
                    else self.breaker.record_failure
                )
                for node in rjob.nodes:
                    feed(node, bt)
            schedule(now)
        if tm.enabled():
            self._record_batch_telemetry(records)
        return records

    def _record_batch_telemetry(self, records: list[JobRecord]) -> None:
        for record in records:
            tm.count(f"scheduler.jobs.{record.state.lower()}")
        makespan = max((r.end_time for r in records), default=0.0)
        tm.observe("scheduler.makespan_seconds", makespan)
        utilization = 0.0
        if makespan > 0:
            busy = sum(r.runtime_seconds * r.n_nodes for r in records)
            utilization = busy / (self.cluster.n_nodes * makespan)
            tm.observe("scheduler.node_utilization", utilization)
        tm.event(
            "scheduler.batch",
            n_jobs=len(records),
            makespan=makespan,
            node_utilization=utilization,
            policy=self.policy,
        )

    # --------------------------------------------------------------- accounting

    def _make_record(self, rjob: _RunningJob) -> JobRecord:
        qjob = rjob.queued
        spec = qjob.spec
        outcome = rjob.outcome
        runtime = rjob.end_time - rjob.start_time
        timed_out = outcome.runtime_seconds > self.time_limit_seconds
        cores_per_node = self.cluster.node.total_cores
        threads_per_node = self.cluster.node.total_threads
        n_nodes = len(rjob.nodes)
        ranks_per_node = [
            min(threads_per_node, spec.np_ranks - i * threads_per_node)
            for i in range(n_nodes)
        ]

        energy: Optional[float] = None
        mean_power: Optional[float] = None
        n_power_records = 0
        rec_per_min = 0.0
        usable = False
        if self.power_model is not None and self.sampler is not None:
            node_energies = []
            densities = []
            node_usable = []
            n_power_records = 0
            for ranks in ranks_per_node:
                watts = self.power_model.sample_job_power(
                    ranks, spec.freq_ghz, self.rng
                )
                trace = self.sampler.sample(runtime, watts, self.rng)
                n_power_records += trace.n_records
                node_usable.append(trace_is_usable(trace, runtime))
                if trace.n_records:
                    node_energies.append(integrate_energy(trace, runtime))
                    densities.append(records_per_minute(trace, runtime))
                else:
                    densities.append(0.0)
            rec_per_min = float(min(densities)) if densities else 0.0
            usable = all(node_usable) and len(node_energies) == n_nodes
            if len(node_energies) == n_nodes:
                energy = float(sum(node_energies))
                if runtime > 0:
                    mean_power = energy / runtime

        rss = outcome.rss_mb_per_node
        rss_nodes = [rss if i < n_nodes else 0.0 for i in range(4)]
        util_nodes = [
            (ranks_per_node[i] / threads_per_node if i < n_nodes else 0.0)
            for i in range(4)
        ]
        # Rough NFS/NIC accounting: inputs scale with size, comm with ranks.
        nic_mb = 0.02 * spec.problem_size ** (2.0 / 3.0) * max(spec.np_ranks - 1, 0) / 1e3

        return JobRecord(
            job_id=qjob.job_id,
            operator=spec.operator,
            problem_size=spec.problem_size,
            np_ranks=spec.np_ranks,
            freq_ghz=spec.freq_ghz,
            repeat_index=spec.repeat_index,
            submit_time=qjob.submit_time,
            start_time=rjob.start_time,
            end_time=rjob.end_time,
            wait_seconds=rjob.start_time - qjob.submit_time,
            runtime_seconds=runtime,
            n_nodes=n_nodes,
            cores_per_node=cores_per_node,
            node_list=",".join(f"node{n}" for n in rjob.nodes),
            state="TIMEOUT" if timed_out else ("FAILED" if outcome.failed else "COMPLETED"),
            exit_code=1 if (timed_out or outcome.failed) else 0,
            partition="wisconsin",
            account="repro",
            user="al-perf",
            time_limit_seconds=self.time_limit_seconds,
            priority=100,
            requeue_count=0,
            batch_host=f"node{rjob.nodes[0]}",
            qos="normal",
            max_rss_mb_node0=rss_nodes[0],
            max_rss_mb_node1=rss_nodes[1],
            max_rss_mb_node2=rss_nodes[2],
            max_rss_mb_node3=rss_nodes[3],
            avg_cpu_util_node0=util_nodes[0],
            avg_cpu_util_node1=util_nodes[1],
            avg_cpu_util_node2=util_nodes[2],
            avg_cpu_util_node3=util_nodes[3],
            nic_rx_mb_node0=nic_mb,
            nic_tx_mb_node0=nic_mb,
            nfs_read_mb=0.4 + spec.problem_size / 1e6,
            nfs_write_mb=0.1 + spec.problem_size / 1e7,
            mg_cycles=outcome.mg_cycles,
            final_residual=outcome.final_residual,
            dofs_per_second=outcome.dofs_per_second,
            work_units=outcome.work_units,
            verification_passed=outcome.verification_passed,
            power_records=n_power_records,
            power_records_per_minute=rec_per_min,
            mean_power_watts=mean_power,
            energy_joules=energy,
            energy_usable=usable,
        )

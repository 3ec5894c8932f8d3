"""Job specifications and SLURM-style accounting records.

The paper's published datasets carry "up to 46 attributes for each job:
controlled variables, job execution properties reported by SLURM (e.g.,
memory usage on every node), and the listed responses".  :class:`JobRecord`
reproduces that record layout: the four controlled variables, scheduling
timestamps, per-node resource accounting (up to the 4 Wisconsin nodes), the
benchmark's own output metrics, power-trace bookkeeping, and the responses.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

__all__ = ["JobSpec", "JobRecord", "JOB_RECORD_FIELDS"]


@dataclass(frozen=True)
class JobSpec:
    """A benchmark configuration to run: the paper's controlled variables."""

    operator: str
    problem_size: float  # global problem size (DOF)
    np_ranks: int
    freq_ghz: float
    repeat_index: int = 0

    def __post_init__(self):
        if self.problem_size <= 0:
            raise ValueError("problem_size must be positive")
        if self.np_ranks < 1:
            raise ValueError("np_ranks must be >= 1")
        if self.freq_ghz <= 0:
            raise ValueError("freq_ghz must be positive")
        if self.repeat_index < 0:
            raise ValueError("repeat_index must be >= 0")


@dataclass(slots=True)
class JobRecord:
    """One completed job with full SLURM-style accounting (46 attributes).

    Slotted: a campaign holds thousands of records and never extends them.
    """

    # --- identity & controlled variables (6)
    job_id: int
    operator: str
    problem_size: float
    np_ranks: int
    freq_ghz: float
    repeat_index: int

    # --- scheduling (8)
    submit_time: float
    start_time: float
    end_time: float
    wait_seconds: float
    runtime_seconds: float
    n_nodes: int
    cores_per_node: int
    node_list: str  # comma-joined node names

    # --- SLURM accounting (10)
    state: str  # COMPLETED / FAILED / TIMEOUT
    exit_code: int
    partition: str
    account: str
    user: str
    time_limit_seconds: float
    priority: int
    requeue_count: int
    batch_host: str
    qos: str

    # --- per-node resources, up to 4 nodes (12)
    max_rss_mb_node0: float
    max_rss_mb_node1: float
    max_rss_mb_node2: float
    max_rss_mb_node3: float
    avg_cpu_util_node0: float
    avg_cpu_util_node1: float
    avg_cpu_util_node2: float
    avg_cpu_util_node3: float
    nic_rx_mb_node0: float
    nic_tx_mb_node0: float
    nfs_read_mb: float
    nfs_write_mb: float

    # --- benchmark output (5)
    mg_cycles: int
    final_residual: float
    dofs_per_second: float
    work_units: float
    verification_passed: bool

    # --- power/energy (5)
    power_records: int
    power_records_per_minute: float
    mean_power_watts: Optional[float]
    energy_joules: Optional[float]
    energy_usable: bool

    @property
    def spec(self) -> JobSpec:
        """The controlled-variable configuration of this job."""
        return JobSpec(
            operator=self.operator,
            problem_size=self.problem_size,
            np_ranks=self.np_ranks,
            freq_ghz=self.freq_ghz,
            repeat_index=self.repeat_index,
        )

    @property
    def cost_core_seconds(self) -> float:
        """The paper's experiment cost: compute time x number of cores."""
        return self.runtime_seconds * self.np_ranks


#: Ordered attribute names of :class:`JobRecord` (the CSV schema).
JOB_RECORD_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(JobRecord))

"""Golden digests pinning scheduler output bit for bit.

Each digest is a SHA-256 over every field of every :class:`JobRecord`, in
the order ``run_batch`` returns them.  The values were taken from the
scheduler before runtime estimates were cached per queued job; any change
to scheduling order, node placement, RNG consumption or accounting shows up
here.  Regenerate them only for a deliberate change of simulator
behaviour, and say so in the change log.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.cluster import (
    BreakerConfig,
    FaultConfig,
    FaultyExecutor,
    IPMISampler,
    JobSpec,
    NodeCircuitBreaker,
    PowerModel,
    SlurmSimulator,
    wisconsin_cluster,
)
from repro.cluster.jobs import JOB_RECORD_FIELDS
from repro.datasets import generate_performance_dataset
from repro.datasets.generate import ModelExecutor, feasible_configurations


def records_digest(records) -> str:
    h = hashlib.sha256()
    for r in records:
        for name in JOB_RECORD_FIELDS:
            h.update(f"{name}={getattr(r, name)!r};".encode())
        h.update(b"\n")
    return h.hexdigest()


def _mixed_specs(n: int, seed: int) -> list[JobSpec]:
    """``n`` feasible Table I configurations drawn without replacement."""
    configs = feasible_configurations()
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(configs), size=n, replace=False)
    return [
        JobSpec(op, float(size), np_ranks, freq)
        for op, size, np_ranks, freq in (configs[i] for i in picks)
    ]


def _batch(policy: str, *, spacing: float = 0.0, power: bool = False):
    kw = {}
    if power:
        kw = dict(power_model=PowerModel(), sampler=IPMISampler())
    sim = SlurmSimulator(
        wisconsin_cluster(),
        ModelExecutor(),
        rng=5,
        time_limit_seconds=600.0,
        policy=policy,
        **kw,
    )
    return sim.run_batch(_mixed_specs(120, seed=17), submit_spacing_s=spacing)


def _breaker_batch(policy: str):
    breaker = NodeCircuitBreaker(
        BreakerConfig(failure_threshold=2, cooldown_seconds=300.0, max_opens=50),
        n_nodes=4,
    )
    executor = FaultyExecutor(
        ModelExecutor(),
        FaultConfig(crash_rate=0.05, node_crash_rates={1: 0.3}),
        rng=11,
    )
    sim = SlurmSimulator(
        wisconsin_cluster(),
        executor,
        rng=3,
        time_limit_seconds=600.0,
        policy=policy,
        breaker=breaker,
        breaker_clock_offset=1000.0,
    )
    return sim.run_batch(_mixed_specs(80, seed=23), submit_spacing_s=2.0)


GOLDEN = {
    "performance_seed1": "1ec4834928d250702d90b085ddd971f19fd8ce368c702d73cac75d2ecc206bc7",
    "performance_seed9": "2e4f4cbecc57b6965ff86833492aa2f3c3791c801f18915338f9b7773123eba4",
    "fifo": "5e90842f156fddcf9a64afa67804348833bfc8f01ea15f0b4524f5790702f7f9",
    "fifo_spaced_power": "0758efd64b8ef46f3e8ab7cb5d88c2b024333f296fc4da38f2e59da7c29bb978",
    "sjf": "e84514bdb5dae858717eccd85e16e79205d9d82fc519dc1cbbfac4d9ab082360",
    "sjf_spaced": "eb8873029ff3ef4137f404da7ace448e779ae56577260c3a12a4a2adc8cfb52b",
    "breaker_fifo": "043bb2a4a11498be34d7d544166d3cb461946ffbc06377d0fced3becb0911054",
    "breaker_sjf": "5a222faeda899aad282795b4fa9ed207153a0e2f7d5f00f453c6546ee9a549a0",
}

CASES = {
    "performance_seed1": lambda: generate_performance_dataset(1, n_jobs=300).records,
    "performance_seed9": lambda: generate_performance_dataset(9, n_jobs=300).records,
    "fifo": lambda: _batch("fifo"),
    "fifo_spaced_power": lambda: _batch("fifo", spacing=3.0, power=True),
    "sjf": lambda: _batch("sjf"),
    "sjf_spaced": lambda: _batch("sjf", spacing=3.0),
    "breaker_fifo": lambda: _breaker_batch("fifo"),
    "breaker_sjf": lambda: _breaker_batch("sjf"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_records_bit_identical_to_golden(case):
    assert records_digest(CASES[case]()) == GOLDEN[case]

"""Tests for the discrete-event SLURM-like scheduler."""

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


class FixedExecutor:
    """Deterministic executor: runtime keyed off the spec's problem size."""

    def estimate(self, spec):
        return spec.problem_size  # abuse: problem_size stores seconds

    def execute(self, spec, rng):
        return ExecutionOutcome(runtime_seconds=spec.problem_size)


def _spec(seconds, ranks, rep=0):
    return JobSpec("poisson1", float(seconds), ranks, 2.4, repeat_index=rep)


def _sim(**kw):
    return SlurmSimulator(wisconsin_cluster(), FixedExecutor(), rng=0, **kw)


def test_single_job_runs_immediately():
    records = _sim().run_batch([_spec(10.0, 32)])
    assert len(records) == 1
    r = records[0]
    assert r.start_time == 0.0
    assert r.runtime_seconds == pytest.approx(10.0)
    assert r.n_nodes == 1
    assert r.state == "COMPLETED"


def test_capacity_never_exceeded():
    """At any instant, concurrently running jobs fit in 4 nodes."""
    specs = [_spec(5.0 + i, ranks, i) for i, ranks in enumerate(
        [128, 64, 64, 32, 32, 32, 32, 128, 96, 16] * 3)]
    records = _sim().run_batch(specs)
    events = []
    for r in records:
        events.append((r.start_time, r.n_nodes))
        events.append((r.end_time, -r.n_nodes))
    in_use = 0
    # Process releases before acquisitions at tie timestamps.
    for _, delta in sorted(events, key=lambda e: (e[0], e[1])):
        in_use += delta
        assert in_use <= 4


def test_no_node_double_booking():
    specs = [_spec(7.0, 64, i) for i in range(6)]
    records = _sim().run_batch(specs)
    # 6 jobs x 2 nodes on 4 nodes: at most 2 concurrent.
    intervals = {}
    for r in records:
        for node in r.node_list.split(","):
            intervals.setdefault(node, []).append((r.start_time, r.end_time))
    for node, spans in intervals.items():
        spans.sort()
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert s2 >= e1 - 1e-9, f"{node} double-booked"


def test_fifo_order_without_backfill_opportunity():
    """Equal-size jobs must start in submission order."""
    specs = [_spec(3.0, 128, i) for i in range(4)]
    records = _sim().run_batch(specs)
    records.sort(key=lambda r: r.job_id)
    starts = [r.start_time for r in records]
    assert starts == sorted(starts)
    np.testing.assert_allclose(np.diff(starts), 3.0, atol=1e-9)


def test_backfill_fills_holes_without_delaying_head():
    """A short small job may jump a blocked wide job iff it fits the shadow."""
    specs = [
        _spec(100.0, 64, 0),   # occupies 2 nodes
        _spec(100.0, 128, 1),  # blocked: needs all 4 nodes
        _spec(5.0, 32, 2),     # short: backfills into a free node
    ]
    records = {r.repeat_index: r for r in _sim().run_batch(specs)}
    assert records[2].start_time < records[1].start_time  # backfilled
    assert records[1].start_time == pytest.approx(100.0)  # head not delayed


def test_long_backfill_candidate_not_started():
    """A long narrow job must NOT backfill if it would delay the wide head."""
    specs = [
        _spec(100.0, 64, 0),
        _spec(100.0, 128, 1),
        _spec(500.0, 96, 2),  # needs 3 nodes; only 2 free -> cannot start anyway
        _spec(500.0, 32, 3),  # 1 node free slot, but 500s > shadow of 100s
    ]
    records = {r.repeat_index: r for r in _sim().run_batch(specs)}
    assert records[3].start_time >= records[1].start_time


def test_wait_times_recorded():
    specs = [_spec(10.0, 128, 0), _spec(10.0, 128, 1)]
    records = {r.repeat_index: r for r in _sim().run_batch(specs)}
    assert records[0].wait_seconds == pytest.approx(0.0)
    assert records[1].wait_seconds == pytest.approx(10.0)


def test_time_limit_truncates():
    sim = _sim(time_limit_seconds=5.0)
    records = sim.run_batch([_spec(100.0, 32)])
    r = records[0]
    assert r.state == "TIMEOUT"
    assert r.runtime_seconds == pytest.approx(5.0)
    assert r.exit_code == 1


def test_power_accounting_fields():
    sim = SlurmSimulator(
        wisconsin_cluster(),
        FixedExecutor(),
        power_model=PowerModel(),
        sampler=IPMISampler(gap_rate_per_minute=0.0),
        rng=0,
    )
    records = sim.run_batch([_spec(60.0, 64)])
    r = records[0]
    assert r.energy_joules is not None
    assert r.energy_usable
    assert r.power_records > 100  # 2 nodes x 61 samples
    assert r.mean_power_watts == pytest.approx(r.energy_joules / 60.0, rel=1e-6)
    # Two busy nodes at 2.4 GHz: several hundred Watts.
    assert 300 < r.mean_power_watts < 700


def test_no_power_model_gives_none():
    records = _sim().run_batch([_spec(60.0, 32)])
    r = records[0]
    assert r.energy_joules is None
    assert not r.energy_usable
    assert r.power_records == 0


def test_power_model_and_sampler_must_pair():
    with pytest.raises(ValueError):
        SlurmSimulator(wisconsin_cluster(), FixedExecutor(), power_model=PowerModel())


def test_submit_spacing():
    records = _sim().run_batch(
        [_spec(1.0, 32, 0), _spec(1.0, 32, 1)], submit_spacing_s=50.0
    )
    records.sort(key=lambda r: r.job_id)
    assert records[0].submit_time == 0.0
    assert records[1].submit_time == 50.0
    assert records[1].start_time >= 50.0


def test_per_node_utilization_fields():
    records = _sim().run_batch([_spec(5.0, 48)])
    r = records[0]
    assert r.n_nodes == 2
    assert r.avg_cpu_util_node0 == pytest.approx(1.0)  # 32 of 32 threads
    assert r.avg_cpu_util_node1 == pytest.approx(0.5)  # 16 of 32 threads
    assert r.avg_cpu_util_node2 == 0.0


def test_all_records_returned_once():
    specs = [_spec(2.0 + i * 0.1, 32, i) for i in range(20)]
    records = _sim().run_batch(specs)
    assert len(records) == 20
    assert len({r.job_id for r in records}) == 20


def test_sjf_policy_reduces_mean_wait():
    """Shortest-job-first: short jobs jump the queue, mean wait drops."""
    specs = [_spec(t, 128, i) for i, t in enumerate([50.0, 5.0, 20.0])]
    fifo = _sim(policy="fifo").run_batch(specs)
    sjf = _sim(policy="sjf").run_batch(specs)
    mean_wait = lambda rs: sum(r.wait_seconds for r in rs) / len(rs)
    assert mean_wait(sjf) < mean_wait(fifo)
    # SJF starts jobs in estimated-runtime order.
    order = [r.problem_size for r in sorted(sjf, key=lambda r: r.start_time)]
    assert order == sorted(order)


def test_unknown_policy_rejected():
    import pytest as _pytest

    with _pytest.raises(ValueError, match="policy"):
        _sim(policy="fairshare")


@pytest.mark.parametrize("spacing", [-1.0, float("nan"), float("inf"), float("-inf")])
def test_submit_spacing_must_be_finite_and_non_negative(spacing):
    # Negative spacing would make submit times decrease along the queue,
    # which the scheduler's "everything submitted" fast path relies on.
    with pytest.raises(ValueError, match="submit_spacing_s"):
        _sim().run_batch([_spec(1.0, 32, 0), _spec(1.0, 32, 1)], submit_spacing_s=spacing)


class CountingExecutor(FixedExecutor):
    """Counts ``estimate`` calls per job (keyed by repeat_index)."""

    def __init__(self):
        self.calls = {}

    def estimate(self, spec):
        self.calls[spec.repeat_index] = self.calls.get(spec.repeat_index, 0) + 1
        return super().estimate(spec)


@pytest.mark.parametrize("policy", ["fifo", "sjf"])
@pytest.mark.parametrize("spacing", [0.0, 4.0])
def test_estimate_asked_at_most_once_per_job(policy, spacing):
    rng = np.random.default_rng(4)
    specs = [
        _spec(float(rng.uniform(1, 60)), int(rng.choice([1, 32, 64, 96, 128])), i)
        for i in range(150)
    ]
    ex = CountingExecutor()
    sim = SlurmSimulator(wisconsin_cluster(), ex, rng=0, policy=policy)
    records = sim.run_batch(specs, submit_spacing_s=spacing)
    assert len(records) == 150
    assert max(ex.calls.values()) == 1
    if policy == "sjf":
        assert len(ex.calls) == 150  # every job is ordered by its estimate
    # A second batch on the same simulator asks afresh, once per job again.
    ex.calls.clear()
    sim.run_batch(specs, submit_spacing_s=spacing)
    assert max(ex.calls.values()) == 1


def test_fifo_asks_no_estimate_when_nothing_waits():
    """Estimates are lazy: a queue that never blocks never asks for one."""
    ex = CountingExecutor()
    records = SlurmSimulator(wisconsin_cluster(), ex, rng=0).run_batch(
        [_spec(5.0, 32, i) for i in range(4)]
    )
    assert len(records) == 4
    assert ex.calls == {}

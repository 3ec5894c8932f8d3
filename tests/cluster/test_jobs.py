"""Tests for job specs and the 46-attribute accounting record."""

import pytest

from repro.cluster import JOB_RECORD_FIELDS, JobSpec


def test_job_record_has_46_attributes():
    """The paper: 'up to 46 attributes for each job'."""
    assert len(JOB_RECORD_FIELDS) == 46


def test_job_record_field_groups_present():
    for field in (
        "operator",
        "problem_size",
        "np_ranks",
        "freq_ghz",
        "runtime_seconds",
        "energy_joules",
        "max_rss_mb_node0",
        "state",
        "partition",
        "power_records_per_minute",
    ):
        assert field in JOB_RECORD_FIELDS


def test_job_spec_validation():
    JobSpec("poisson1", 1e6, 32, 2.4)
    with pytest.raises(ValueError):
        JobSpec("poisson1", -1.0, 32, 2.4)
    with pytest.raises(ValueError):
        JobSpec("poisson1", 1e6, 0, 2.4)
    with pytest.raises(ValueError):
        JobSpec("poisson1", 1e6, 32, 0.0)
    with pytest.raises(ValueError):
        JobSpec("poisson1", 1e6, 32, 2.4, repeat_index=-1)


def test_cost_core_seconds(performance_dataset):
    record = performance_dataset.records[0]
    assert record.cost_core_seconds == pytest.approx(
        record.runtime_seconds * record.np_ranks
    )


def test_spec_roundtrip(performance_dataset):
    record = performance_dataset.records[0]
    spec = record.spec
    assert spec.operator == record.operator
    assert spec.np_ranks == record.np_ranks
    assert spec.problem_size == record.problem_size


def test_job_record_is_slotted_and_round_trips():
    """Slotted records still pickle (process backend) and ``replace`` cleanly."""
    import dataclasses
    import pickle

    from repro.cluster import JobRecord
    from repro.datasets import PerfDataset, generate_performance_dataset

    records = generate_performance_dataset(3, n_jobs=20).records
    record = records[0]
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.not_a_field = 1

    restored = pickle.loads(pickle.dumps(records))
    assert restored == records
    assert all(type(r) is JobRecord for r in restored)

    doubled = dataclasses.replace(record, runtime_seconds=2 * record.runtime_seconds)
    assert doubled.runtime_seconds == 2 * record.runtime_seconds
    assert doubled.job_id == record.job_id and doubled.spec == record.spec
    assert record.runtime_seconds == restored[0].runtime_seconds  # original untouched

    ds = PerfDataset(name="rt", records=[doubled, *restored[1:]])
    assert len(ds) == 20
    assert ds.column("runtime_seconds")[0] == doubled.runtime_seconds

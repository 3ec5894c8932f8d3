"""Tests for the PredictionService (chunked queries + hot rollover)."""

import numpy as np
import pytest

from repro import telemetry
from repro.serve import ModelRegistry, PredictionService, RegistryError


@pytest.fixture()
def registry(tmp_path, fitted_models):
    reg = ModelRegistry(tmp_path / "reg")
    reg.publish(fitted_models[0], health=True)
    return reg


def test_service_requires_nonempty_registry(tmp_path):
    with pytest.raises(RegistryError, match="empty"):
        PredictionService(ModelRegistry(tmp_path / "nothing"))


def test_chunked_predictions_bit_identical(registry, fitted_models, query_block):
    """The acceptance-scale check: a 10k-point block answered by the
    service equals the in-memory model's full-block prediction bitwise."""
    service = PredictionService(registry, chunk_size=2048)
    model = fitted_models[0]
    mu, sd = model.predict(query_block, return_std=True)
    assert np.array_equal(service.predict(query_block), mu)
    mu_s, sd_s = service.predict_std(query_block)
    assert np.array_equal(mu_s, mu)
    assert np.array_equal(sd_s, sd)


@pytest.mark.parametrize("rows", [2049, 4097])
def test_one_row_tail_joins_the_chunk_before(registry, fitted_models, rows):
    """A query one row past a chunk edge is still the model's answer bitwise.

    A lone last chunk of one row would take another BLAS path, whose SD
    and mean differ from the model's in the last bits.
    """
    service = PredictionService(registry, chunk_size=2048)
    Q = np.random.default_rng(rows).uniform(size=(rows, 3))
    mu, sd = fitted_models[0].predict(Q, return_std=True)
    mu_s, sd_s = service.predict_std(Q)
    assert np.array_equal(mu_s, mu)
    assert np.array_equal(sd_s, sd)
    assert np.array_equal(service.predict(Q), mu)


def test_include_noise_passthrough(registry, fitted_models):
    service = PredictionService(registry)
    Q = np.random.default_rng(3).uniform(size=(32, 3))
    _, sd_noiseless = fitted_models[0].predict(
        Q, return_std=True, include_noise=False
    )
    _, sd_s = service.predict_std(Q, include_noise=False)
    assert np.array_equal(sd_s, sd_noiseless)


def test_hot_rollover_swaps_served_version(
    registry, fitted_models, query_block
):
    service = PredictionService(registry)
    assert service.version == 1
    before = service.predict(query_block)

    registry.publish(fitted_models[1], health=True)
    # Not yet rolled over: still answering on v1.
    assert service.version == 1
    assert np.array_equal(service.predict(query_block), before)

    assert service.refresh() is True
    assert service.version == 2
    assert service.n_rollovers == 1
    assert np.array_equal(
        service.predict(query_block), fitted_models[1].predict(query_block)
    )
    # Idempotent when nothing new was published.
    assert service.refresh() is False


def test_rollback_rolls_the_service_back_exactly(
    registry, fitted_models, query_block
):
    before = PredictionService(registry).predict(query_block)
    registry.publish(fitted_models[1])
    service = PredictionService(registry)
    assert service.version == 2
    registry.rollback()
    assert service.refresh() is True
    assert service.version == 1
    assert np.array_equal(service.predict(query_block), before)


def test_auto_refresh_folds_rollover_into_queries(registry, fitted_models):
    service = PredictionService(registry, auto_refresh=True)
    Q = np.random.default_rng(4).uniform(size=(16, 3))
    service.predict(Q)
    registry.publish(fitted_models[2])
    out = service.predict(Q)
    assert service.version == 2
    assert np.array_equal(out, fitted_models[2].predict(Q))


def test_pinned_version_never_rolls_over(registry, fitted_models):
    registry.publish(fitted_models[1])
    service = PredictionService(registry, version=1, auto_refresh=True)
    registry.publish(fitted_models[2])
    Q = np.random.default_rng(5).uniform(size=(8, 3))
    service.predict(Q)
    assert service.version == 1
    assert service.refresh() is False
    assert service.n_rollovers == 0


def test_in_flight_snapshot_survives_rollover(registry, fitted_models):
    """A query that captured its snapshot keeps it across a refresh."""
    service = PredictionService(registry)
    model, meta = service._enter_query()
    registry.publish(fitted_models[1])
    service.refresh()
    assert service.version == 2
    # The captured snapshot still answers as v1.
    Q = np.random.default_rng(6).uniform(size=(8, 3))
    assert meta.version == 1
    assert np.array_equal(model.predict(Q), fitted_models[0].predict(Q))


def test_chunk_size_validation(registry):
    with pytest.raises(ValueError, match="chunk_size"):
        PredictionService(registry, chunk_size=0)


def test_service_accepts_path(tmp_path, registry):
    service = PredictionService(str(registry.root))
    assert service.version == 1


def test_serving_telemetry(tmp_path, registry, fitted_models):
    trace = tmp_path / "serve.jsonl"
    with telemetry.session(trace) as reg:
        service = PredictionService(registry)
        Q = np.random.default_rng(7).uniform(size=(100, 3))
        service.predict(Q)
        service.predict_std(Q)
        registry.publish(fitted_models[1])
        service.refresh()
        snap = reg.snapshot()
    assert snap["counters"]["serve.predict.requests"] == 2
    assert snap["counters"]["serve.predict.points"] == 200
    assert snap["counters"]["serve.rollover.total"] == 1
    assert snap["histograms"]["serve.predict.seconds"]["count"] == 2

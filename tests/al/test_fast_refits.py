"""Tests for the incremental-refit fast path of the AL loop."""

import numpy as np
import pytest

from repro.al import (
    EMCM,
    ActiveLearner,
    CandidatePool,
    VarianceReduction,
    default_model_factory,
    random_partition,
    run_batch,
    select_batch,
)
from repro.gp import GaussianProcessRegressor, SquaredExponential


def _problem(n=60, seed=0):
    rng = np.random.default_rng(seed)
    X = np.sort(rng.uniform(0, 10, size=n))[:, np.newaxis]
    y = 0.5 * X[:, 0] + np.sin(X[:, 0]) + 0.05 * rng.standard_normal(n)
    costs = np.abs(y) + 1.0
    return X, y, costs


def _learner(seed=0, **kw):
    X, y, costs = _problem(seed=seed)
    part = random_partition(X.shape[0], rng=seed)
    defaults = dict(model_factory=default_model_factory(noise_floor=1e-2))
    defaults.update(kw)
    return ActiveLearner(X, y, costs, part, VarianceReduction(), **defaults)


# ------------------------------------------------------- learner fast path


def test_fast_refits_default_schedule_matches_slow_path():
    """With refit_every=1 the fast path is the paper-faithful slow path."""
    slow = _learner(seed=2).run(8)
    fast = _learner(seed=2, fast_refits=True).run(8)
    np.testing.assert_allclose(slow.series("rmse"), fast.series("rmse"))
    np.testing.assert_allclose(slow.selected_points, fast.selected_points)


def test_fast_refits_schedule_refits_on_multiples():
    learner = _learner(seed=1, fast_refits=True, refit_every=4)
    learner.run(9)
    # Between refits the model object persists and only grows its posterior;
    # it covers all training rows except the one queried this iteration.
    assert learner.model.X_train_.shape[0] == learner.n_train - 1


def test_fast_refits_trains_comparably():
    """The k-schedule loses little accuracy on a smooth response."""
    slow = _learner(seed=4).run(20)
    fast = _learner(seed=4, fast_refits=True, refit_every=5).run(20)
    assert fast.final.rmse < 3 * slow.final.rmse + 1e-3
    assert fast.final.rmse < 0.5 * fast.records[0].rmse


def test_fast_refits_records_stay_valid():
    learner = _learner(seed=3, fast_refits=True, refit_every=3)
    trace = learner.run(7)
    for rec in trace.records:
        assert np.isfinite(rec.lml)
        assert rec.sd_at_selected > 0
        assert rec.noise_variance > 0


def test_refit_every_validation():
    with pytest.raises(ValueError, match="refit_every"):
        _learner(refit_every=0)


def test_warm_start_runs():
    learner = _learner(seed=5, fast_refits=True, refit_every=2, warm_start=True)
    trace = learner.run(6)
    assert len(trace) == 6
    assert trace.final.rmse < trace.records[0].rmse * 2


def test_sd_at_selected_reuses_strategy_scores():
    """The recorded SD equals the strategy's pool SD at the selected record
    (no second, drifting prediction path)."""
    learner = _learner(seed=6)
    rec = learner.step()
    model = learner.model
    # Recompute what the strategy saw: pool SDs before consumption.
    x_sel = rec.x_selected[np.newaxis, :]
    _, sd = model.predict(x_sel, return_std=True)
    assert rec.sd_at_selected == pytest.approx(float(sd[0]), rel=1e-12)
    assert learner.strategy.last_selected_sd == pytest.approx(rec.sd_at_selected)


# ------------------------------------------------------------ run_batch knob


def test_run_batch_fast_refits_matches_slow_path():
    X, y, costs = _problem()
    kwargs = dict(
        strategy_factory=lambda i: VarianceReduction(),
        n_partitions=3,
        n_iterations=10,
        seed=1,
        model_factory=default_model_factory(1e-2),
    )
    slow = run_batch(X, y, costs, **kwargs)
    fast = run_batch(X, y, costs, fast_refits=True, **kwargs)
    np.testing.assert_allclose(
        slow.series_matrix("rmse")[:, -1],
        fast.series_matrix("rmse")[:, -1],
        atol=1e-6,
    )


def test_run_batch_accepts_schedule():
    X, y, costs = _problem()
    result = run_batch(
        X,
        y,
        costs,
        strategy_factory=lambda i: VarianceReduction(),
        n_partitions=2,
        n_iterations=8,
        seed=0,
        model_factory=default_model_factory(1e-2),
        fast_refits=True,
        refit_every=4,
    )
    assert result.series_matrix("rmse").shape == (2, 8)


# --------------------------------------------------------- select_batch fast


@pytest.fixture()
def fitted_model():
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 4, size=(12, 1))
    y = np.sin(X[:, 0]) + 0.05 * rng.standard_normal(12)
    model = GaussianProcessRegressor(
        kernel=SquaredExponential(
            1.0, 1.0, signal_variance_bounds="fixed", length_scale_bounds="fixed"
        ),
        noise_variance=0.01,
        noise_variance_bounds="fixed",
        optimizer=None,
    )
    return model.fit(X, y)


def _pool():
    X = np.linspace(0, 10, 21)[:, np.newaxis]
    return CandidatePool(X, np.sin(X[:, 0]), np.linspace(1, 3, 21))


def test_select_batch_fast_matches_slow(fitted_model):
    fast = select_batch(fitted_model, _pool(), VarianceReduction(), 5, fast=True)
    slow = select_batch(fitted_model, _pool(), VarianceReduction(), 5, fast=False)
    assert fast == slow


def test_select_batch_fast_leaves_model_untouched(fitted_model):
    n_before = fitted_model.X_train_.shape[0]
    select_batch(fitted_model, _pool(), VarianceReduction(), 4)
    assert fitted_model.X_train_.shape[0] == n_before


# ----------------------------------------------------------------- EMCM fast


def test_emcm_fast_matches_slow_on_first_call(fitted_model):
    pool = _pool()
    fast_scores = EMCM(n_members=3, seed=0, fast=True).scores(fitted_model, pool)
    slow_scores = EMCM(n_members=3, seed=0, fast=False).scores(fitted_model, pool)
    np.testing.assert_allclose(fast_scores, slow_scores)


def test_emcm_fast_members_persist_and_advance(fitted_model):
    emcm = EMCM(n_members=3, seed=0, fast=True)
    pool = _pool()
    emcm.scores(fitted_model, pool)
    members_before = emcm._members
    n_before = emcm._seen_n
    # Grow the primary model incrementally; members must advance, not rebuild.
    fitted_model.update(np.array([[5.0]]), 0.5)
    emcm.scores(fitted_model, pool)
    assert emcm._members is members_before
    assert emcm._seen_n == n_before + 1


def test_emcm_fast_rebuilds_on_hyperparameter_change(fitted_model):
    emcm = EMCM(n_members=2, seed=0, fast=True)
    pool = _pool()
    emcm.scores(fitted_model, pool)
    members_before = emcm._members
    fitted_model.noise_variance_ *= 2.0  # simulate a hyperparameter refit
    emcm.scores(fitted_model, pool)
    assert emcm._members is not members_before


def test_emcm_fast_in_learner_loop():
    X, y, costs = _problem(seed=9)
    part = random_partition(X.shape[0], rng=9)
    learner = ActiveLearner(
        X, y, costs, part, EMCM(n_members=2, seed=0),
        model_factory=default_model_factory(1e-2),
        fast_refits=True, refit_every=3,
    )
    trace = learner.run(7)
    assert len(trace) == 7
    assert np.all(np.isfinite(trace.series("rmse")))

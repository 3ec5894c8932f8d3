"""Tests for the active-learning loop."""

import numpy as np
import pytest

from repro.al import (
    ActiveLearner,
    VarianceReduction,
    default_model_factory,
    random_partition,
)


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


def test_run_produces_trace():
    learner = _learner()
    trace = learner.run(10)
    assert len(trace) == 10
    assert trace.strategy == "variance-reduction"
    assert trace.selected_points.shape == (10, 1)


def test_training_set_grows():
    learner = _learner()
    assert learner.n_train == 1  # paper: single seed experiment
    learner.step()
    assert learner.n_train == 2
    learner.run(3)
    assert learner.n_train == 5


def test_cumulative_cost_monotone_and_correct():
    learner = _learner()
    trace = learner.run(8)
    cum = trace.series("cumulative_cost")
    costs = trace.series("cost")
    assert np.all(np.diff(cum) > 0)
    np.testing.assert_allclose(np.cumsum(costs), cum)


def test_rmse_improves():
    learner = _learner()
    trace = learner.run(25)
    rmse = trace.series("rmse")
    assert rmse[-1] < 0.5 * rmse[0]


def test_queried_values_match_dataset():
    X, y, costs = _problem()
    part = random_partition(X.shape[0], rng=0)
    learner = ActiveLearner(
        X, y, costs, part, VarianceReduction(),
        model_factory=default_model_factory(1e-2),
    )
    trace = learner.run(5)
    for rec in trace.records:
        # The measured y of the selected x must be the dataset value.
        matches = np.flatnonzero((X == rec.x_selected).all(axis=1))
        assert any(y[m] == rec.y_selected for m in matches)


def test_pool_exhaustion_run_stops():
    learner = _learner()
    n_pool = learner.pool.n_available
    trace = learner.run(10_000)  # asks for more than exists
    assert len(trace) == n_pool
    assert learner.pool.exhausted
    with pytest.raises(ValueError, match="exhausted"):
        learner.step()


def test_noise_floor_schedule_applied():
    floors = []

    def schedule(iteration):
        floor = 0.5 / np.sqrt(iteration + 1)
        floors.append(floor)
        return floor

    learner = _learner(noise_floor_schedule=schedule)
    trace = learner.run(5)
    assert len(floors) == 5
    for rec, floor in zip(trace.records, floors):
        assert rec.noise_variance >= floor * 0.999


def test_bad_noise_floor_schedule_rejected():
    learner = _learner(noise_floor_schedule=lambda i: -1.0)
    with pytest.raises(ValueError, match="positive"):
        learner.step()


def test_iteration_record_fields():
    learner = _learner()
    rec = learner.step()
    assert rec.iteration == 0
    assert rec.n_train == 1
    assert rec.sd_at_selected > 0
    assert rec.rmse > 0
    assert rec.amsd > 0
    assert np.isfinite(rec.lml)
    assert rec.cost > 0


def test_input_validation():
    X, y, costs = _problem()
    part = random_partition(X.shape[0], rng=0)
    with pytest.raises(ValueError):
        ActiveLearner(X, y[:-1], costs, part, VarianceReduction())
    with pytest.raises(ValueError):
        ActiveLearner(X[:-1], y[:-1], costs[:-1], part, VarianceReduction())
    learner = _learner()
    with pytest.raises(ValueError):
        learner.run(-1)


def test_deterministic_runs():
    t1 = _learner(seed=3).run(6)
    t2 = _learner(seed=3).run(6)
    np.testing.assert_allclose(t1.series("rmse"), t2.series("rmse"))
    np.testing.assert_allclose(
        t1.selected_points, t2.selected_points
    )


def test_trace_final_and_empty():
    from repro.al import ALTrace

    with pytest.raises(ValueError):
        ALTrace(strategy="x").final
    learner = _learner()
    learner.run(2)
    assert learner.trace.final.iteration == 1


def test_fixed_noise_bounds_with_schedule_rejected():
    """Regression: a schedule used to silently replace 'fixed' bounds with a
    numeric interval, re-enabling noise optimization behind the caller's back."""
    from repro.gp import GaussianProcessRegressor

    def fixed_factory():
        return GaussianProcessRegressor(
            noise_variance=0.1, noise_variance_bounds="fixed", rng=0
        )

    learner = _learner(
        model_factory=fixed_factory,
        noise_floor_schedule=lambda i: 0.5 / np.sqrt(i + 1),
    )
    with pytest.raises(ValueError, match="fixed"):
        learner.step()


def test_fixed_noise_bounds_without_schedule_still_work():
    from repro.gp import GaussianProcessRegressor

    def fixed_factory():
        return GaussianProcessRegressor(
            noise_variance=0.1, noise_variance_bounds="fixed", rng=0
        )

    learner = _learner(model_factory=fixed_factory)
    rec = learner.step()
    assert rec.noise_variance == pytest.approx(0.1)


def test_large_noise_floor_widens_upper_bound():
    """Regression: noise_floor > 1e3 used to produce an inverted bounds box."""
    factory = default_model_factory(noise_floor=5e3)
    model = factory()
    low, high = model.noise_variance_bounds
    assert low == 5e3
    assert high == 5e4
    assert low < high
    model.fit(np.linspace(0, 1, 8)[:, np.newaxis], np.arange(8.0))
    assert low <= model.noise_variance_ <= high


def test_default_model_factory_validates_noise_floor():
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="noise_floor"):
            default_model_factory(noise_floor=bad)


def test_learner_refits_cost_model_on_primary_cadence():
    """Regression: CostModelEfficiency's cost model went stale (fitted once,
    never updated).  Inside the learner it must now be refitted alongside
    every full primary-model refit, on exactly the costs observed so far."""
    from repro.al import CostModelEfficiency

    X, y, costs = _problem()
    part = random_partition(X.shape[0], rng=0, n_initial=3)
    strat = CostModelEfficiency(seed=0)
    learner = ActiveLearner(
        X, y, costs, part, strat,
        model_factory=default_model_factory(noise_floor=1e-2),
    )
    trace = learner.run(4)
    assert len(trace) == 4
    assert strat.cost_model is not None and strat.cost_model.fitted
    # Refit happens at fit time, before that iteration's selection: the
    # final (4th) refit saw the initial partition plus the 3 records
    # consumed by iterations 1-3.
    assert strat.cost_model.n_train_ == 3 + 3


def test_fuse_repeats_consumes_and_pools_duplicates():
    """With fuse_repeats, selecting a repeated configuration consumes every
    available sibling and trains on their precision-weighted mean."""
    # 4 distinct configs; config 0 measured 3 times with spread responses.
    X = np.array([[0.0], [0.0], [0.0], [3.0], [6.0], [9.0], [1.5], [4.5], [7.5]])
    y = np.array([1.0, 1.2, 0.8, 2.0, 3.0, 4.0, 1.5, 2.5, 3.5])
    costs = np.ones(9)
    from repro.al import Partition, VarianceReduction

    part = Partition(
        initial=np.array([3, 5]),
        active=np.array([0, 1, 2, 4, 6]),
        test=np.array([7, 8]),
    )
    learner = ActiveLearner(
        X, y, costs, part, VarianceReduction(seed=0),
        model_factory=default_model_factory(noise_floor=1e-2),
        fuse_repeats=True,
        repeat_noise_variance=0.04,
    )
    trace = learner.run(4)
    fused = [r for r in trace.records if r.n_fused > 1]
    assert fused, "the triple-measured config was never fused"
    rec = fused[0]
    assert rec.n_fused == 3
    assert rec.y_selected == pytest.approx(np.mean([1.0, 1.2, 0.8]))
    assert rec.cost == pytest.approx(3.0)  # all three records paid for
    # Pool drained early: 2 fused groups + singles < 5 iterations possible.
    assert learner.model.noise_alpha_ is not None


def test_fuse_repeats_conflicts_with_noise_floor_schedule():
    X, y, costs = _problem()
    part = random_partition(X.shape[0], rng=0)
    with pytest.raises(ValueError, match="schedule"):
        ActiveLearner(
            X, y, costs, part, VarianceReduction(),
            fuse_repeats=True,
            noise_floor_schedule=lambda i: 1e-2,
        )


def test_fuse_repeats_validates_repeat_noise_variance():
    X, y, costs = _problem()
    part = random_partition(X.shape[0], rng=0)
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="repeat_noise_variance"):
            ActiveLearner(
                X, y, costs, part, VarianceReduction(),
                fuse_repeats=True, repeat_noise_variance=bad,
            )


def test_unguarded_learner_takes_no_gate_snapshot(monkeypatch):
    """An unchecked gate never rolls back, so it copies none of the fits."""
    from repro.gp.gpr import GaussianProcessRegressor

    clones = []
    clone_fitted = GaussianProcessRegressor.clone_fitted

    def counting(self):
        clones.append(self)
        return clone_fitted(self)

    monkeypatch.setattr(GaussianProcessRegressor, "clone_fitted", counting)
    _learner().run(5)
    assert clones == []
    # A guarded learner still snapshots its accepted fits.
    _learner(guardrails=True).run(5)
    assert clones

"""Tests for continuous-domain candidate selection (paper Section VI)."""

import numpy as np
import pytest

from repro.al import (
    ContinuousActiveLearner,
    maximize_cost_efficiency,
    maximize_sd,
)
from repro.gp import GaussianProcessRegressor, SquaredExponential


@pytest.fixture()
def left_trained_model():
    """GP trained on [0, 4] of a [0, 10] domain: sigma grows to the right."""
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 4, size=(15, 1))
    y = 0.5 * X[:, 0] + 0.05 * rng.standard_normal(15)
    model = GaussianProcessRegressor(
        kernel=SquaredExponential(
            1.0, 1.0, signal_variance_bounds="fixed", length_scale_bounds="fixed"
        ),
        noise_variance=0.01,
        noise_variance_bounds="fixed",
        optimizer=None,
    )
    return model.fit(X, y)


def test_maximize_sd_finds_far_corner(left_trained_model):
    result = maximize_sd(left_trained_model, [[0.0, 10.0]], n_starts=6, rng=0)
    # Far from all data, the SD saturates at the prior level; the optimizer
    # must land deep in the unexplored right region.
    assert result.x[0] > 7.0
    _, sd = left_trained_model.predict(result.x[np.newaxis, :], return_std=True)
    assert result.value == pytest.approx(float(sd[0]), rel=1e-9)


def test_maximize_sd_beats_dense_grid(left_trained_model):
    """Continuous optimization must match/beat a 1000-point grid search."""
    grid = np.linspace(0, 10, 1000)[:, np.newaxis]
    _, sd = left_trained_model.predict(grid, return_std=True)
    result = maximize_sd(left_trained_model, [[0.0, 10.0]], n_starts=6, rng=0)
    assert result.value >= sd.max() - 1e-9


def test_maximize_cost_efficiency_tradeoff():
    """CE's optimum shifts toward the cheap side of an uncertainty plateau.

    Train on both ends of the domain with a strongly increasing response:
    the SD peaks mid-domain, while the predicted (log-)cost rises to the
    right, so ``sigma - mu`` peaks left of ``sigma``'s maximum.
    """
    rng = np.random.default_rng(2)
    X = np.concatenate([rng.uniform(0, 2, 8), rng.uniform(8, 10, 8)])[:, np.newaxis]
    y = 0.5 * X[:, 0] + 0.02 * rng.standard_normal(16)
    model = GaussianProcessRegressor(
        kernel=SquaredExponential(
            4.0, 1.5, signal_variance_bounds="fixed", length_scale_bounds="fixed"
        ),
        noise_variance=0.01,
        noise_variance_bounds="fixed",
        optimizer=None,
    ).fit(X, y)
    sd_opt = maximize_sd(model, [[0.0, 10.0]], n_starts=8, rng=0)
    ce_opt = maximize_cost_efficiency(
        model, [[0.0, 10.0]], cost_weight=1.0, n_starts=8, rng=0
    )
    assert 3.0 < sd_opt.x[0] < 7.0  # mid-domain uncertainty bump
    assert ce_opt.x[0] < sd_opt.x[0]  # pushed toward the cheap (low-mu) side


def test_acquisition_respects_bounds(left_trained_model):
    result = maximize_sd(left_trained_model, [[2.0, 3.0]], n_starts=4, rng=0)
    assert 2.0 <= result.x[0] <= 3.0


def test_acquisition_validation(left_trained_model):
    with pytest.raises(ValueError):
        maximize_sd(left_trained_model, [[1.0, 0.0]])
    with pytest.raises(ValueError):
        maximize_sd(left_trained_model, [0.0, 1.0])
    with pytest.raises(RuntimeError):
        maximize_sd(GaussianProcessRegressor(), [[0.0, 1.0]])


def test_continuous_learner_reduces_uncertainty():
    """AL over a continuous box shrinks the max SD across the domain."""
    rng = np.random.default_rng(1)

    def experiment(x):
        return float(np.sin(x[0]) + 0.3 * x[1] + 0.02 * rng.standard_normal())

    learner = ContinuousActiveLearner(
        experiment, [[0.0, 6.0], [0.0, 2.0]], rng=0, n_starts=4
    )
    learner.seed()
    learner.run(12)
    model = learner.model
    probe = np.column_stack(
        [np.repeat(np.linspace(0, 6, 12), 5), np.tile(np.linspace(0, 2, 5), 12)]
    )
    _, sd = model.predict(probe, return_std=True)
    # Early model for comparison: same factory, seed point only.
    early = learner.model_factory()
    X, y = learner.trace.as_arrays()
    early.fit(X[:1], y[:1])
    _, sd_early = early.predict(probe, return_std=True)
    assert sd.max() < sd_early.max()
    # Uncertainty is also fairly uniform after AL (no forgotten corner).
    assert sd.max() < 4.0 * sd.min()


def test_continuous_learner_covers_domain():
    def experiment(x):
        return float(x[0])

    learner = ContinuousActiveLearner(experiment, [[0.0, 1.0]], rng=0, n_starts=4)
    learner.run(8)  # auto-seeds
    X, _ = learner.trace.as_arrays()
    assert X.shape == (9, 1)
    # Visits must spread over the interval, not cluster.
    assert X.min() < 0.15 and X.max() > 0.85


def test_continuous_learner_strategy_option():
    def experiment(x):
        return float(x[0])

    learner = ContinuousActiveLearner(
        experiment, [[0.0, 1.0]], strategy="cost-efficiency", rng=0, n_starts=3
    )
    learner.run(3)
    assert len(learner.trace.X) == 4
    with pytest.raises(ValueError):
        ContinuousActiveLearner(experiment, [[0.0, 1.0]], strategy="ucb")


def test_continuous_learner_custom_seed():
    def experiment(x):
        return float(x[0])

    learner = ContinuousActiveLearner(experiment, [[0.0, 2.0]], rng=0)
    y = learner.seed(np.array([0.5]))
    assert y == 0.5
    np.testing.assert_allclose(learner.trace.X[0], [0.5])

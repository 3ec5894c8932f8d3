"""Tests for the experiment-selection strategies."""

import numpy as np
import pytest

from repro.al import (
    EMCM,
    CandidatePool,
    CostEfficiency,
    RandomSampling,
    VarianceReduction,
    select_batch,
)
from repro.gp import GaussianProcessRegressor, SquaredExponential


@pytest.fixture()
def fitted_model():
    """GP trained on the left half of [0, 10]: uncertainty grows rightward."""
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


@pytest.fixture()
def pool():
    X = np.linspace(0, 10, 21)[:, np.newaxis]
    y = np.sin(X[:, 0])
    costs = np.linspace(1, 3, 21)
    return CandidatePool(X, y, costs)


def test_variance_reduction_picks_most_uncertain(fitted_model, pool):
    idx = VarianceReduction().select(fitted_model, pool)
    _, sd = fitted_model.predict(pool.X, return_std=True)
    assert idx == int(np.argmax(sd))
    # Data lives on [0, 4]; the most uncertain candidate is far right.
    assert pool.X[idx, 0] > 7.0


def test_variance_reduction_revisits_after_consumption(fitted_model, pool):
    strat = VarianceReduction()
    first = strat.select(fitted_model, pool)
    pool.consume(first)
    second = strat.select(fitted_model, pool)
    assert second != first


def test_cost_efficiency_penalizes_predicted_cost(fitted_model, pool):
    """With cost_weight high, CE must pick low-mean (cheap) points."""
    ce = CostEfficiency(cost_weight=50.0)
    idx = ce.select(fitted_model, pool)
    mu = fitted_model.predict(pool.X)
    assert mu[idx] == pytest.approx(mu.min(), abs=1e-9)


def test_cost_efficiency_zero_weight_is_variance_reduction(fitted_model, pool):
    ce = CostEfficiency(cost_weight=0.0)
    vr = VarianceReduction()
    assert ce.select(fitted_model, pool) == vr.select(fitted_model, pool)


def test_cost_efficiency_score_formula(fitted_model, pool):
    ce = CostEfficiency()
    scores = ce.scores(fitted_model, pool)
    mu, sd = fitted_model.predict(pool.available_X(), return_std=True)
    np.testing.assert_allclose(scores, sd - mu)


def test_random_sampling_reproducible(fitted_model, pool):
    a = RandomSampling(seed=5)
    b = RandomSampling(seed=5)
    assert a.select(fitted_model, pool) == b.select(fitted_model, pool)


def test_random_sampling_covers_pool(fitted_model):
    X = np.linspace(0, 10, 10)[:, np.newaxis]
    pool = CandidatePool(X, np.zeros(10), np.ones(10))
    strat = RandomSampling(seed=0)
    picks = set()
    for _ in range(10):
        idx = strat.select(fitted_model, pool)
        picks.add(idx)
        pool.consume(idx)
    assert picks == set(range(10))


def test_emcm_scores_positive_and_shaped(fitted_model, pool):
    emcm = EMCM(n_members=3, seed=0)
    scores = emcm.scores(fitted_model, pool)
    assert scores.shape == (pool.n_available,)
    assert np.all(scores >= 0)
    assert scores.max() > 0


def test_emcm_requires_fitted_model(pool):
    with pytest.raises(ValueError, match="fitted"):
        EMCM().scores(GaussianProcessRegressor(), pool)


def test_emcm_blind_to_extrapolation_region(fitted_model, pool):
    """EMCM's Monte-Carlo disagreement vanishes far from the data.

    With a mean-reverting GP, every bootstrap member predicts the prior
    mean in unexplored regions, so EMCM sees no "model change" there —
    exactly the weakness (noisy, data-bound variance estimates) that makes
    the paper prefer the GPR posterior variance (Section III).
    """
    emcm = EMCM(n_members=8, seed=1)
    scores = emcm.scores(fitted_model, pool)
    x = pool.X[:, 0]
    assert scores[x < 2.0].mean() > 10 * scores[x > 8.0].mean()


def test_exhausted_pool_raises(fitted_model):
    pool = CandidatePool(np.zeros((1, 1)), np.zeros(1), np.ones(1))
    pool.consume(0)
    with pytest.raises(ValueError, match="exhausted"):
        VarianceReduction().select(fitted_model, pool)


def test_select_batch_distinct_and_spread(fitted_model, pool):
    picks = select_batch(fitted_model, pool, VarianceReduction(), 4)
    assert len(picks) == len(set(picks)) == 4
    # Kriging-believer conditioning must spread picks, not cluster them at
    # the single highest-variance spot.
    xs = np.sort(pool.X[picks, 0])
    assert np.min(np.diff(xs)) > 0.4


def test_select_batch_consumes_pool(fitted_model, pool):
    n0 = pool.n_available
    select_batch(fitted_model, pool, VarianceReduction(), 3)
    assert pool.n_available == n0 - 3


def test_select_batch_validation(fitted_model, pool):
    with pytest.raises(ValueError):
        select_batch(fitted_model, pool, VarianceReduction(), 0)
    with pytest.raises(ValueError):
        select_batch(fitted_model, pool, VarianceReduction(), pool.n_available + 1)


def test_cost_model_efficiency_uses_external_cost(fitted_model, pool):
    """With a separate cost model, CE avoids configurations the *cost*
    model flags as expensive even when the response model is flat."""
    from repro.al import CostModelEfficiency

    # Cost grows steeply to the right of the domain.
    cost_gp = GaussianProcessRegressor(
        kernel=SquaredExponential(
            1.0, 2.0, signal_variance_bounds="fixed", length_scale_bounds="fixed"
        ),
        noise_variance=1e-4, noise_variance_bounds="fixed", optimizer=None,
    ).fit(pool.X, 0.5 * pool.X[:, 0])
    strat = CostModelEfficiency(cost_model=cost_gp, cost_weight=10.0)
    idx = strat.select(fitted_model, pool)
    assert pool.X[idx, 0] < 2.0  # pushed to the cheap side

    # With zero weight it reduces to variance reduction.
    neutral = CostModelEfficiency(cost_model=cost_gp, cost_weight=0.0)
    assert neutral.select(fitted_model, pool) == VarianceReduction().select(
        fitted_model, pool
    )


def test_cost_model_efficiency_requires_fitted_cost_model(fitted_model, pool):
    from repro.al import CostModelEfficiency

    with pytest.raises(ValueError, match="cost_model"):
        CostModelEfficiency().scores(fitted_model, pool)
    with pytest.raises(ValueError, match="cost_model"):
        CostModelEfficiency(cost_model=GaussianProcessRegressor()).scores(
            fitted_model, pool
        )


def test_tied_scores_break_randomly_not_by_pool_order():
    """With a constant prior every score ties; selection must not
    deterministically favour record 0 (dataset order)."""
    X = np.linspace(0, 10, 15)[:, np.newaxis]
    prior = GaussianProcessRegressor(
        kernel=SquaredExponential(
            1.0, 1.0, signal_variance_bounds="fixed", length_scale_bounds="fixed"
        ),
        noise_variance=0.01,
        noise_variance_bounds="fixed",
        optimizer=None,
    )  # unfitted: constant prior SD at every candidate
    picks = {
        VarianceReduction(seed=s).select(
            prior, CandidatePool(X, np.zeros(15), np.ones(15))
        )
        for s in range(12)
    }
    assert len(picks) > 1  # different seeds explore different tied records
    assert picks != {0}


def test_tied_scores_reproducible_per_seed():
    X = np.linspace(0, 10, 15)[:, np.newaxis]
    prior = GaussianProcessRegressor(
        kernel=SquaredExponential(
            1.0, 1.0, signal_variance_bounds="fixed", length_scale_bounds="fixed"
        ),
        noise_variance=0.01,
        noise_variance_bounds="fixed",
        optimizer=None,
    )
    a = VarianceReduction(seed=7).select(
        prior, CandidatePool(X, np.zeros(15), np.ones(15))
    )
    b = VarianceReduction(seed=7).select(
        prior, CandidatePool(X, np.zeros(15), np.ones(15))
    )
    assert a == b


def test_untied_scores_still_pick_the_argmax(fitted_model, pool):
    """Tie-breaking must not disturb selections with a unique maximum."""
    _, sd = fitted_model.predict(pool.X, return_std=True)
    assert VarianceReduction().select(fitted_model, pool) == int(np.argmax(sd))


def test_select_exposes_sd_at_selected(fitted_model, pool):
    strat = VarianceReduction()
    idx = strat.select(fitted_model, pool)
    _, sd = fitted_model.predict(pool.X[idx][np.newaxis, :], return_std=True)
    assert strat.last_selected_sd == pytest.approx(float(sd[0]))
    # Strategies that never compute SDs expose None.
    rnd = RandomSampling(seed=0)
    rnd.select(fitted_model, pool)
    assert rnd.last_selected_sd is None


def _cost_model_strategy(pool):
    from repro.al import CostModelEfficiency

    cost_gp = GaussianProcessRegressor(
        kernel=SquaredExponential(
            1.0, 2.0, signal_variance_bounds="fixed", length_scale_bounds="fixed"
        ),
        noise_variance=1e-4, noise_variance_bounds="fixed", optimizer=None,
    ).fit(pool.X, 0.5 * pool.X[:, 0])
    return CostModelEfficiency(cost_model=cost_gp, cost_weight=0.5)


@pytest.mark.parametrize("make", [lambda pool: VarianceReduction(), _cost_model_strategy])
def test_select_from_the_pool_pass_matches_predicting(fitted_model, pool, make):
    """Selecting from a full-pool SD pass gives the pick, the scores and
    the SD at the pick of the strategy's own prediction, bit for bit."""
    for i in (0, 3, 20):
        pool.consume(i)
    _, pool_sd = fitted_model.predict(pool.X, return_std=True)
    own, sliced = make(pool), make(pool)
    assert own.select(fitted_model, pool) == sliced.select(
        fitted_model, pool, pool_sd=pool_sd
    )
    assert np.array_equal(own._last_sd, sliced._last_sd)
    assert own.last_selected_sd == sliced.last_selected_sd
    # The pass, not a prediction, decides: an SD rising with the index
    # picks the last available record.
    ramp = np.arange(pool.n_total, dtype=float)
    assert make(pool).select(fitted_model, pool, pool_sd=ramp) == 19


def test_single_available_record_is_predicted_not_sliced(fitted_model, pool):
    """A one-row SD is not a bitwise slice of a larger pass, so the
    strategy predicts the last available record itself."""
    for i in range(pool.n_total - 1):
        pool.consume(i)
    poisoned = np.full(pool.n_total, np.nan)
    strat = VarianceReduction()
    assert strat.select(fitted_model, pool, pool_sd=poisoned) == pool.n_total - 1
    _, sd = fitted_model.predict(pool.available_X(), return_std=True)
    assert strat.last_selected_sd == float(sd[0])


def test_select_rejects_a_pool_pass_of_the_wrong_shape(fitted_model, pool):
    with pytest.raises(ValueError, match="pool_sd"):
        VarianceReduction().select(
            fitted_model, pool, pool_sd=np.ones(pool.n_available - 1)
        )


def test_strategy_names():
    from repro.al import CostModelEfficiency

    assert VarianceReduction().name == "variance-reduction"
    assert CostEfficiency().name == "cost-efficiency"
    assert CostModelEfficiency().name == "cost-model-efficiency"
    assert RandomSampling().name == "random"
    assert EMCM().name == "emcm"


def test_cost_model_efficiency_auto_refit_tracks_observed_costs(fitted_model, pool):
    """Regression: the cost model was fitted once by the caller and never
    refreshed, so its predictions went stale as real costs streamed in.
    refit_cost_model must replace the stale posterior with one trained on
    the observed costs."""
    from repro.al import CostModelEfficiency

    strat = CostModelEfficiency()
    assert strat.auto_refit
    assert strat.cost_model is None
    # Costs observed so far: steeply increasing with x.
    X_seen = np.linspace(0, 10, 9)[:, np.newaxis]
    strat.refit_cost_model(X_seen, 10.0 ** X_seen[:, 0])
    assert strat.cost_model is not None and strat.cost_model.fitted
    mu = strat.cost_model.predict(np.array([[2.0], [8.0]]))
    assert mu[1] > mu[0] + 3  # log10 costs: ~2 vs ~8
    # A later refit on different costs really replaces the fit.
    strat.refit_cost_model(X_seen, np.full(9, 100.0))
    mu2 = strat.cost_model.predict(np.array([[2.0], [8.0]]))
    np.testing.assert_allclose(mu2, 2.0, atol=0.2)


def test_cost_model_efficiency_refit_floors_zero_costs(fitted_model):
    from repro.al import CostModelEfficiency

    strat = CostModelEfficiency()
    X_seen = np.array([[0.0], [1.0]])
    strat.refit_cost_model(X_seen, np.array([0.0, 1.0]))  # no -inf blowup
    assert np.all(np.isfinite(strat.cost_model.predict(X_seen)))


def test_cost_model_efficiency_auto_refit_false_keeps_caller_ownership(
    fitted_model, pool
):
    from repro.al import CostModelEfficiency

    strat = CostModelEfficiency(auto_refit=False)
    with pytest.raises(ValueError) as err:
        strat.scores(fitted_model, pool)
    assert "refit_cost_model" not in str(err.value)  # hint only when auto

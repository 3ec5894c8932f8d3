"""Property-based tests of core GP invariants (hypothesis)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.gp import GaussianProcessRegressor, SquaredExponential


def _fixed_gp(noise=0.01, l=1.0, amp=1.0):
    return GaussianProcessRegressor(
        kernel=SquaredExponential(
            amp, l, signal_variance_bounds="fixed", length_scale_bounds="fixed"
        ),
        noise_variance=noise,
        noise_variance_bounds="fixed",
        optimizer=None,
    )


@given(
    n=st.integers(2, 20),
    seed=st.integers(0, 200),
)
@settings(max_examples=30, deadline=None)
def test_posterior_variance_never_exceeds_prior(n, seed):
    """Conditioning on data can only reduce the latent variance."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-3, 3, size=(n, 1))
    y = rng.standard_normal(n)
    gp = _fixed_gp().fit(X, y)
    Xq = rng.uniform(-5, 5, size=(10, 1))
    _, sd = gp.predict(Xq, return_std=True, include_noise=False)
    prior_sd = 1.0  # amplitude 1
    assert np.all(sd <= prior_sd + 1e-9)


@given(seed=st.integers(0, 100))
@settings(max_examples=20, deadline=None)
def test_adding_data_shrinks_variance_pointwise(seed):
    """More observations never increase the predictive variance anywhere."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 10, size=(15, 1))
    y = np.sin(X[:, 0])
    gp_small = _fixed_gp().fit(X[:7], y[:7])
    gp_big = _fixed_gp().fit(X, y)
    Xq = np.linspace(0, 10, 25)[:, np.newaxis]
    _, sd_small = gp_small.predict(Xq, return_std=True, include_noise=False)
    _, sd_big = gp_big.predict(Xq, return_std=True, include_noise=False)
    assert np.all(sd_big <= sd_small + 1e-7)


@given(shift=st.floats(-100, 100))
@settings(max_examples=20, deadline=None)
def test_translation_equivariance_of_predictions(shift):
    """Stationary kernel: shifting all inputs shifts predictions with them."""
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 5, size=(12, 1))
    y = np.cos(X[:, 0])
    Xq = rng.uniform(0, 5, size=(6, 1))
    gp1 = _fixed_gp().fit(X, y)
    gp2 = _fixed_gp().fit(X + shift, y)
    mu1, sd1 = gp1.predict(Xq, return_std=True)
    mu2, sd2 = gp2.predict(Xq + shift, return_std=True)
    np.testing.assert_allclose(mu1, mu2, atol=1e-8, rtol=1e-8)
    np.testing.assert_allclose(sd1, sd2, atol=1e-8, rtol=1e-8)


@given(noise=st.floats(1e-4, 10.0))
@settings(max_examples=20, deadline=None)
def test_more_claimed_noise_means_smoother_posterior(noise):
    """As sigma_n grows, the posterior mean's deviation from y shrinks
    toward the data mean (stronger regularization)."""
    rng = np.random.default_rng(1)
    X = rng.uniform(0, 4, size=(10, 1))
    y = rng.standard_normal(10)
    tight = _fixed_gp(noise=1e-6).fit(X, y)
    loose = _fixed_gp(noise=noise).fit(X, y)
    # Training-data fit degrades monotonically with claimed noise.
    r_tight = float(np.mean((tight.predict(X) - y) ** 2))
    r_loose = float(np.mean((loose.predict(X) - y) ** 2))
    assert r_loose >= r_tight - 1e-12


@given(
    seed=st.integers(0, 100),
    amp=st.floats(0.1, 10.0),
)
@settings(max_examples=20, deadline=None)
def test_lml_is_a_proper_density_ordering(seed, amp):
    """LML of the data under the generating amplitude beats a far-off one."""
    rng = np.random.default_rng(seed)
    X = np.linspace(0, 5, 30)[:, np.newaxis]
    gp_gen = _fixed_gp(noise=0.01, amp=amp)
    y = gp_gen.sample_y(X, n_samples=1, rng=seed)[:, 0]
    gp_right = _fixed_gp(noise=0.01, amp=amp).fit(X, y)
    gp_wrong = _fixed_gp(noise=0.01, amp=amp * 100).fit(X, y)
    assert gp_right.lml_ > gp_wrong.lml_


@given(seed=st.integers(0, 50), n=st.integers(3, 12))
@settings(max_examples=20, deadline=None)
def test_observation_interval_contains_training_targets_mostly(seed, n):
    """With fitted noise, ~all training targets sit inside mean +- 4 sd."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 5, size=(n, 1))
    y = rng.standard_normal(n)
    gp = GaussianProcessRegressor(
        noise_variance=0.1, noise_variance_bounds=(1e-3, 1e3),
        n_restarts=0, rng=0,
    ).fit(X, y)
    mu, sd = gp.predict(X, return_std=True, include_noise=True)
    assert np.all(np.abs(y - mu) <= 4.0 * sd + 1e-6)

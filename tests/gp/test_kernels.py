"""Unit and property-based tests for the squared-exponential kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist, squareform

from repro.gp import SquaredExponential, default_kernel
from repro.gp.kernels import se_covariance


def _se(length_scale, amplitude="free", scale="free"):
    return SquaredExponential(
        2.0,
        length_scale,
        signal_variance_bounds=(1e-3, 1e3) if amplitude == "free" else "fixed",
        length_scale_bounds=(1e-2, 1e2) if scale == "free" else "fixed",
    )


# The four free/fixed configurations, isotropic and ARD, plus the defaults.
ALL_KERNELS = [
    lambda: _se(1.3),
    lambda: _se(1.3, amplitude="fixed"),
    lambda: _se(1.3, scale="fixed"),
    lambda: _se(1.3, amplitude="fixed", scale="fixed"),
    lambda: _se([0.8, 2.0]),
    lambda: _se([0.8, 2.0], amplitude="fixed"),
    lambda: _se([0.8, 2.0], scale="fixed"),
    lambda: _se([0.8, 2.0], amplitude="fixed", scale="fixed"),
    lambda: default_kernel(1),
    lambda: default_kernel(2, ard=True),
]


def _data(d=1, n=9, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-2, 2, size=(n, d))


@pytest.mark.parametrize("make", ALL_KERNELS)
def test_symmetry(make):
    k = make()
    d = 2 if k.anisotropic else 1
    X = _data(d)
    K = k(X)
    np.testing.assert_allclose(K, K.T, atol=1e-12)


@pytest.mark.parametrize("make", ALL_KERNELS)
def test_positive_semidefinite(make):
    k = make()
    d = 2 if k.anisotropic else 1
    X = _data(d)
    eigvals = np.linalg.eigvalsh(k(X))
    assert eigvals.min() > -1e-9


@pytest.mark.parametrize("make", ALL_KERNELS)
def test_diag_matches_full(make):
    k = make()
    d = 2 if k.anisotropic else 1
    X = _data(d)
    np.testing.assert_allclose(k.diag(X), np.diag(k(X)), atol=1e-12)


@pytest.mark.parametrize("make", ALL_KERNELS)
def test_cross_covariance_consistent(make):
    """k(X, X) as cross-covariance must match k(X)."""
    k = make()
    d = 2 if k.anisotropic else 1
    X = _data(d)
    np.testing.assert_allclose(k(X, X), k(X), atol=1e-12)


@pytest.mark.parametrize("make", ALL_KERNELS)
def test_gradient_matches_finite_differences(make):
    k = make()
    d = 2 if k.anisotropic else 1
    X = _data(d)
    K, grad = k(X, eval_gradient=True)
    theta = k.theta
    assert grad.shape == (len(X), len(X), theta.size)
    eps = 1e-6
    for j in range(theta.size):
        tp, tm = theta.copy(), theta.copy()
        tp[j] += eps
        tm[j] -= eps
        num = (k.clone_with_theta(tp)(X) - k.clone_with_theta(tm)(X)) / (2 * eps)
        np.testing.assert_allclose(grad[:, :, j], num, atol=1e-6)


@pytest.mark.parametrize("make", ALL_KERNELS)
def test_theta_roundtrip(make):
    k = make()
    theta = k.theta
    k.theta = theta + 0.3
    np.testing.assert_allclose(k.theta, theta + 0.3)
    k2 = k.clone_with_theta(theta)
    np.testing.assert_allclose(k2.theta, theta)
    # Clone must not alias the original (which still holds theta + 0.3).
    k2.theta = theta - 1.0
    np.testing.assert_allclose(k.theta, theta + 0.3)


def test_theta_is_log_space():
    k = SquaredExponential(3.0, 2.0)
    np.testing.assert_allclose(k.theta, np.log([3.0, 2.0]))
    k.theta = np.log([4.0, 5.0])
    assert k.signal_variance == pytest.approx(4.0)
    assert k.length_scale == pytest.approx(5.0)


def test_fixed_hyperparameters_excluded():
    k = SquaredExponential(2.0, 1.0, signal_variance_bounds="fixed")
    assert k.n_dims == 1  # only the length scale is free
    K, grad = k(_data(), eval_gradient=True)
    assert grad.shape[-1] == 1


def test_fully_fixed_kernel_has_empty_theta():
    k = SquaredExponential(
        2.0, 1.0, signal_variance_bounds="fixed", length_scale_bounds="fixed"
    )
    assert k.theta.size == 0
    assert k.bounds.shape == (0, 2)


def test_bounds_shape_and_log_space():
    k = SquaredExponential(
        1.0, 1.0, signal_variance_bounds=(1e-2, 1e2), length_scale_bounds=(1e-1, 1e1)
    )
    b = k.bounds
    assert b.shape == (2, 2)
    np.testing.assert_allclose(b[0], np.log([1e-2, 1e2]))
    np.testing.assert_allclose(b[1], np.log([1e-1, 1e1]))


def test_composite_theta_ordering():
    """theta is [log sigma_f^2, log l_1, ..., log l_d]; ARD scales follow in order."""
    k = SquaredExponential(2.0, [3.0, 0.5])
    np.testing.assert_allclose(k.theta, np.log([2.0, 3.0, 0.5]))
    k.theta = np.log([4.0, 5.0, 0.2])
    assert k.signal_variance == pytest.approx(4.0)
    np.testing.assert_allclose(k.length_scale, [5.0, 0.2])
    np.testing.assert_allclose(k.bounds[1:], np.log([[1e-5, 1e5]] * 2))


def test_rbf_ard_mismatched_dims_raises():
    with pytest.raises(ValueError, match="ARD"):
        SquaredExponential(1.0, [1.0, 2.0])(_data(d=3))


def test_invalid_constructor_args():
    with pytest.raises(ValueError):
        SquaredExponential(1.0, -1.0)
    with pytest.raises(ValueError):
        SquaredExponential(1.0, [1.0, 0.0])
    with pytest.raises(ValueError):
        SquaredExponential(0.0, 1.0)


def test_gradient_with_Y_raises():
    X = _data()
    with pytest.raises(ValueError, match="gradient"):
        SquaredExponential()(X, X, eval_gradient=True)


def test_hyperparameter_bounds_validation():
    for bad in ((1.0, 0.5), (-1.0, 2.0), "frozen"):
        with pytest.raises(ValueError):
            SquaredExponential(signal_variance_bounds=bad)
        with pytest.raises(ValueError):
            SquaredExponential(length_scale_bounds=bad)


@given(
    ls=st.floats(0.1, 10.0),
    amp=st.floats(0.1, 10.0),
    n=st.integers(2, 12),
)
@settings(max_examples=30, deadline=None)
def test_property_psd_and_bounded(ls, amp, n):
    """SE kernels are PSD with entries in [0, amp]."""
    rng = np.random.default_rng(0)
    X = rng.uniform(-3, 3, size=(n, 2))
    K = SquaredExponential(amp, ls)(X)
    assert np.all(K <= amp + 1e-12)
    assert np.all(K >= 0)
    assert np.linalg.eigvalsh(K).min() > -1e-8 * amp


@given(shift=st.floats(-5, 5))
@settings(max_examples=25, deadline=None)
def test_property_stationarity(shift):
    """The kernel is invariant under input translation."""
    for make in ALL_KERNELS:
        k = make()
        X = _data(2 if k.anisotropic else 1)
        np.testing.assert_allclose(k(X), k(X + shift), atol=1e-10)


@pytest.mark.parametrize("seed", range(4))
def test_se_covariance_distances_are_pdists_bit_for_bit(seed):
    """The per-dimension distance sum gives the floats of scipy's ``pdist``.

    Generated cases: d = 1-4, n = 1-120, duplicate rows, input scales of
    1e-6 to 1e6, ARD and isotropic length scales; the covariance and its
    gradient are compared with the ``squareform(pdist(...))`` formula.
    """
    rng = np.random.default_rng(seed)
    for _ in range(150):
        d, n = int(rng.integers(1, 5)), int(rng.integers(1, 121))
        X = rng.uniform(-1.0, 1.0, size=(n, d)) * 10.0 ** rng.choice([-6, 0, 6])
        if rng.integers(2):
            X[n // 2 :] = X[: n - n // 2]
        ard = d > 1 and bool(rng.integers(2))
        ls = rng.uniform(0.1, 3.0, size=d) if ard else float(rng.uniform(0.1, 3.0))
        c = float(rng.uniform(0.1, 3.0))
        Xs = X / np.atleast_1d(ls)
        sq = squareform(pdist(Xs, metric="sqeuclidean"))
        unit = np.exp(-0.5 * sq)
        K, grad = se_covariance(X, c, ls, eval_gradient=True)
        assert np.array_equal(K, c * unit)
        assert np.array_equal(se_covariance(X, c, ls), K)
        if not ard:
            assert np.array_equal(grad[:, :, 1], (unit * sq) * c)

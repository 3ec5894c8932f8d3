"""Exact serialization round-trips (GaussianProcessRegressor.to_dict/from_dict).

The model registry promises bit-identical predictions from a reloaded
model; every test here round-trips through ``json.dumps``/``loads`` (not
just the dict) so Python's shortest-float repr semantics are exercised.
"""

import json

import numpy as np
import pytest

from repro.gp import (
    GaussianProcessRegressor,
    SquaredExponential,
    kernel_from_dict,
    kernel_to_dict,
)
from repro.serve import ModelRegistry, model_checksum


def _roundtrip(model):
    payload = json.loads(json.dumps(model.to_dict()))
    return GaussianProcessRegressor.from_dict(payload)


def _problem(n=25, d=2, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, d))
    y = np.sin(X @ np.arange(1, d + 1)) + 0.05 * rng.standard_normal(n)
    return X, y


def _assert_identical_predictions(a, b, X):
    mu_a, sd_a = a.predict(X, return_std=True)
    mu_b, sd_b = b.predict(X, return_std=True)
    assert np.array_equal(mu_a, mu_b)
    assert np.array_equal(sd_a, sd_b)
    mu_a, cov_a = a.predict(X, return_cov=True)
    mu_b, cov_b = b.predict(X, return_cov=True)
    assert np.array_equal(cov_a, cov_b)


class TestModelRoundTrip:
    def test_plain_fit_bit_identical(self):
        X, y = _problem()
        model = GaussianProcessRegressor(rng=0, n_restarts=2).fit(X, y)
        restored = _roundtrip(model)
        Q = np.random.default_rng(1).uniform(size=(200, X.shape[1]))
        _assert_identical_predictions(model, restored, Q)
        assert restored.lml_ == model.lml_
        assert np.array_equal(restored.kernel_.theta, model.kernel_.theta)

    def test_normalize_y_bit_identical(self):
        X, y = _problem(seed=3)
        model = GaussianProcessRegressor(
            rng=0, n_restarts=1, normalize_y=True
        ).fit(X, y * 40.0 + 300.0)
        restored = _roundtrip(model)
        Q = np.random.default_rng(2).uniform(size=(100, X.shape[1]))
        _assert_identical_predictions(model, restored, Q)

    def test_fixed_noise_bit_identical(self):
        X, y = _problem(seed=4)
        model = GaussianProcessRegressor(
            noise_variance=1e-4,
            noise_variance_bounds="fixed",
            rng=0,
            n_restarts=1,
        ).fit(X, y)
        restored = _roundtrip(model)
        assert restored.noise_variance_bounds == "fixed"
        assert restored.noise_variance_ == model.noise_variance_
        Q = np.random.default_rng(5).uniform(size=(50, X.shape[1]))
        _assert_identical_predictions(model, restored, Q)

    def test_post_update_bit_identical(self):
        """A rank-1-updated posterior round-trips exactly too."""
        X, y = _problem(n=30, seed=6)
        model = GaussianProcessRegressor(rng=0, n_restarts=1).fit(X[:20], y[:20])
        model.update(X[20:], y[20:])
        restored = _roundtrip(model)
        Q = np.random.default_rng(7).uniform(size=(80, X.shape[1]))
        _assert_identical_predictions(model, restored, Q)

    def test_unfitted_model_roundtrips(self):
        model = GaussianProcessRegressor(noise_variance=3e-2, jitter=1e-9)
        restored = _roundtrip(model)
        assert not restored.fitted
        assert restored.noise_variance == model.noise_variance
        assert restored.jitter == model.jitter

    def test_explicit_kernel_template_preserved(self):
        X, y = _problem(seed=8)
        kernel = SquaredExponential(
            2.0,
            [1.0, 2.0],
            signal_variance_bounds=(1e-3, 1e3),
            length_scale_bounds=(1e-2, 1e2),
        )
        model = GaussianProcessRegressor(kernel=kernel, rng=0, n_restarts=1)
        model.fit(X, y)
        restored = _roundtrip(model)
        assert np.array_equal(restored.kernel.theta, model.kernel.theta)
        assert np.array_equal(restored.kernel_.theta, model.kernel_.theta)
        Q = np.random.default_rng(9).uniform(size=(50, X.shape[1]))
        _assert_identical_predictions(model, restored, Q)


class TestIntegrity:
    def test_training_hash_matches_on_reload(self):
        X, y = _problem()
        model = GaussianProcessRegressor(rng=0, n_restarts=1).fit(X, y)
        assert _roundtrip(model).training_hash() == model.training_hash()

    def test_tampered_payload_rejected(self):
        X, y = _problem()
        model = GaussianProcessRegressor(rng=0, n_restarts=1).fit(X, y)
        payload = json.loads(json.dumps(model.to_dict()))
        payload["fit"]["y"][0] += 1e-9
        with pytest.raises(ValueError, match="hash mismatch"):
            GaussianProcessRegressor.from_dict(payload)

    def test_unknown_format_version_rejected(self):
        X, y = _problem()
        payload = GaussianProcessRegressor(rng=0, n_restarts=1).fit(X, y).to_dict()
        payload["format_version"] = 999
        with pytest.raises(ValueError, match="format version"):
            GaussianProcessRegressor.from_dict(payload)

    def test_training_hash_requires_fit(self):
        with pytest.raises(RuntimeError):
            GaussianProcessRegressor().training_hash()

    def test_hash_differs_across_training_sets(self):
        X, y = _problem()
        a = GaussianProcessRegressor(rng=0, n_restarts=1).fit(X, y)
        b = GaussianProcessRegressor(rng=0, n_restarts=1).fit(X, y + 1e-12)
        assert a.training_hash() != b.training_hash()


_FIXED = "fixed"

# The removed kernel types and compositions an older version could write.
_REMOVED_SPECS = [
    {"type": "Matern", "length_scale": 1.0, "length_scale_bounds": _FIXED, "nu": 1.5},
    {"type": "WhiteKernel", "noise_level": 0.1, "noise_level_bounds": _FIXED},
    {
        "type": "Sum",
        "k1": {"type": "RBF", "length_scale": 1.0, "length_scale_bounds": _FIXED},
        "k2": {"type": "WhiteKernel", "noise_level": 0.1, "noise_level_bounds": _FIXED},
    },
    {
        "type": "Product",
        "k1": {"type": "ConstantKernel", "constant_value": 1.0,
               "constant_value_bounds": _FIXED},
        "k2": {"type": "Matern", "length_scale": 1.0, "length_scale_bounds": _FIXED,
               "nu": 2.5},
    },
    {"type": "RBF", "length_scale": 1.0, "length_scale_bounds": _FIXED},
]


class TestKernelRoundTrip:
    @pytest.mark.parametrize(
        "kernel",
        [
            pytest.param(
                SquaredExponential(1.0, 0.7, signal_variance_bounds=_FIXED,
                                   length_scale_bounds=(1e-2, 1e2)),
                id="unit_amp-iso",
            ),
            pytest.param(
                SquaredExponential(1.0, [0.5, 2.0, 1.3], signal_variance_bounds=_FIXED,
                                   length_scale_bounds=(1e-2, 1e2)),
                id="unit_amp-ard",
            ),
            pytest.param(
                SquaredExponential(1.0, 1.0, signal_variance_bounds=_FIXED,
                                   length_scale_bounds=_FIXED),
                id="all_fixed",
            ),
            pytest.param(
                SquaredExponential(4.2, 1.0, signal_variance_bounds=_FIXED),
                id="fixed_amp",
            ),
            pytest.param(
                SquaredExponential(1.5, 0.8, signal_variance_bounds=(1e-3, 1e3),
                                   length_scale_bounds=(1e-2, 1e2)),
                id="all_free",
            ),
            pytest.param(
                SquaredExponential(1.5, [0.8, 3.0], signal_variance_bounds=(1e-3, 1e3),
                                   length_scale_bounds=_FIXED),
                id="fixed_ard_ls",
            ),
        ],
    )
    def test_theta_bounds_and_matrix_identical(self, kernel):
        spec = json.loads(json.dumps(kernel_to_dict(kernel)))
        restored = kernel_from_dict(spec)
        assert type(restored) is type(kernel)
        assert np.array_equal(restored.theta, kernel.theta)
        assert np.array_equal(restored.bounds, kernel.bounds)
        X = np.random.default_rng(0).uniform(size=(9, np.size(kernel.length_scale)))
        assert np.array_equal(restored(X), kernel(X))

    def test_unserializable_kernel_raises(self):
        with pytest.raises(ValueError, match="unsupported kernel spec"):
            kernel_from_dict({"type": "NoSuchKernel"})
        with pytest.raises(ValueError):
            kernel_from_dict({"no_type": True})
        with pytest.raises(TypeError):
            kernel_to_dict("not a kernel")

    @pytest.mark.parametrize("spec", _REMOVED_SPECS, ids=lambda s: s["type"])
    def test_removed_kernel_names_the_supported_form(self, spec, tmp_path):
        form = r"Product\(ConstantKernel, RBF\)"
        with pytest.raises(ValueError, match=form):
            kernel_from_dict(spec)
        X, y = _problem(n=12)
        model = GaussianProcessRegressor(rng=0, n_restarts=0).fit(X, y)
        payload = json.loads(json.dumps(model.to_dict()))
        payload["kernel_"] = spec
        with pytest.raises(ValueError, match=form):
            GaussianProcessRegressor.from_dict(payload)
        # A registry version written with a removed kernel (checksums intact).
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(model)
        path = registry._version_path(1)
        entry = json.loads(path.read_text())
        entry["model"]["kernel_"] = spec
        entry["checksum"] = model_checksum(entry["model"])
        path.write_text(json.dumps(entry))
        manifest = json.loads(registry.manifest_path.read_text())
        manifest["entries"]["1"]["checksum"] = entry["checksum"]
        registry.manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=form):
            registry.load(1)


class TestUpdateClearsStaleFitState:
    def test_optimize_outcome_and_history_cleared(self):
        """update() must not carry the previous fit's optimizer diagnostics."""
        X, y = _problem(n=20, seed=11)
        model = GaussianProcessRegressor(rng=0, n_restarts=2).fit(X[:15], y[:15])
        assert model._fit.optimize_outcome is not None
        model.update(X[15:], y[15:])
        assert model._fit.optimize_outcome is None
        assert model._fit.theta_history == []

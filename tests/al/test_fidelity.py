"""Multi-fidelity oracles, precision fusion, and the (x, tier) learner."""

import json

import numpy as np
import pytest

from repro.al import fidelity
from repro.al.fidelity import (
    FidelityTier,
    FusionState,
    MultiFidelityCostEfficiency,
    MultiFidelityLearner,
    MultiFidelityOracle,
    tiers_from_spec,
)

from .test_checkpoint_compat import _Killed, _write_kill

TIERS = (
    FidelityTier("probe", cost_multiplier=0.1, noise_variance=0.0225),
    FidelityTier("full", cost_multiplier=1.0, noise_variance=4e-4),
)


def _ref(x):
    x = np.asarray(x)
    return float(np.sin(3 * x[0]) + 0.5 * x[1])


def _learner(seed=3, n_rounds=8, with_test=True, **kw):
    oracle = MultiFidelityOracle(_ref, TIERS, rng=7)
    rng = np.random.default_rng(0)
    cands = rng.uniform(-1, 1, size=(25, 2))
    test = None
    if with_test:
        tX = np.random.default_rng(1).uniform(-1, 1, size=(30, 2))
        test = (tX, np.array([_ref(x) for x in tX]))
    return MultiFidelityLearner(
        oracle, cands, n_rounds=n_rounds, n_initial=2, seed=seed, test=test, **kw
    )


# ---------------------------------------------------------------------- tiers


def test_tier_validation():
    with pytest.raises(ValueError, match="cost_multiplier"):
        FidelityTier("t", cost_multiplier=0.0, noise_variance=0.1)
    with pytest.raises(ValueError, match="noise_variance"):
        FidelityTier("t", cost_multiplier=1.0, noise_variance=0.0)
    with pytest.raises(ValueError, match="name"):
        FidelityTier("", cost_multiplier=1.0, noise_variance=0.1)


def test_tiers_from_spec_parses_sd_not_variance():
    tiers = tiers_from_spec("probe:0.1:0.15,full:1.0:0.02")
    assert [t.name for t in tiers] == ["probe", "full"]
    assert tiers[0].noise_variance == pytest.approx(0.15**2)
    assert tiers[1].cost_multiplier == 1.0
    with pytest.raises(ValueError, match="spec"):
        tiers_from_spec("probe:0.1")
    with pytest.raises(ValueError, match="duplicate"):
        tiers_from_spec("a:1:0.1,a:2:0.1")


def test_tier_round_trip():
    t = TIERS[0]
    assert FidelityTier.from_dict(t.to_dict()) == t


# --------------------------------------------------------------------- oracle


def test_oracle_query_noise_scales_with_tier():
    oracle = MultiFidelityOracle(_ref, TIERS, rng=0)
    x = np.array([0.2, -0.4])
    truth = _ref(x)
    probe_err = [abs(oracle.query(x, "probe").y - truth) for _ in range(200)]
    full_err = [abs(oracle.query(x, "full").y - truth) for _ in range(200)]
    assert np.mean(probe_err) > 3 * np.mean(full_err)


def test_oracle_cost_and_tier_resolution():
    oracle = MultiFidelityOracle(_ref, TIERS, cost_fn=lambda x: 10.0, rng=0)
    obs = oracle.query([0.0, 0.0], 0)
    assert obs.tier == "probe"
    assert obs.cost == pytest.approx(1.0)  # 10 x 0.1
    assert oracle.query([0.0, 0.0], "full").cost == pytest.approx(10.0)
    assert oracle.reference_tier.name == "full"
    with pytest.raises(KeyError):
        oracle.tier("nope")


def test_oracle_rng_state_round_trips():
    a = MultiFidelityOracle(_ref, TIERS, rng=5)
    state = a.rng_state
    y1 = a.query([0.1, 0.1], "probe").y
    a.rng_state = state
    y2 = a.query([0.1, 0.1], "probe").y
    assert y1 == y2


def test_oracle_accepts_query_style_reference():
    class FakeOracle:
        def query(self, x):
            class Obs:
                pass

            o = Obs()
            o.x, o.y, o.cost = np.asarray(x), _ref(x), 7.0
            return o

    oracle = MultiFidelityOracle(FakeOracle(), TIERS, rng=0)
    obs = oracle.query([0.3, 0.3], "probe")
    assert obs.cost == pytest.approx(0.7)


# --------------------------------------------------------------------- fusion


def test_fusion_matches_closed_form_pooled_estimate():
    fs = FusionState()
    x = [1.0, 2.0]
    ys, s2 = [3.0, 3.2, 2.8, 3.4], 0.04
    for y in ys:
        fs.add(x, y, s2)
    X, y_fused, alpha = fs.fused()
    assert X.shape == (1, 2)
    assert y_fused[0] == pytest.approx(np.mean(ys))
    assert alpha[0] == pytest.approx(s2 / len(ys))
    assert fs.count_at(x) == 4
    assert fs.n_observations == 4


def test_fusion_mixed_variances_weight_by_precision():
    fs = FusionState()
    fs.add([0.0], 0.0, 1.0)  # noisy probe says 0
    fs.add([0.0], 1.0, 0.01)  # accurate run says 1
    _, y, alpha = fs.fused()
    expected = (0.0 / 1.0 + 1.0 / 0.01) / (1 / 1.0 + 1 / 0.01)
    assert y[0] == pytest.approx(expected)
    assert y[0] > 0.98  # dominated by the accurate observation
    assert alpha[0] == pytest.approx(1.0 / (1 / 1.0 + 1 / 0.01))


def test_fusion_preserves_insertion_order_and_round_trips():
    fs = FusionState()
    fs.add([2.0], 1.0, 0.1)
    fs.add([1.0], 2.0, 0.1)
    fs.add([2.0], 1.2, 0.1)
    X, y, alpha = fs.fused()
    np.testing.assert_array_equal(X[:, 0], [2.0, 1.0])
    restored = FusionState.from_dict(fs.to_dict())
    assert restored.to_dict() == fs.to_dict()
    X2, y2, a2 = restored.fused()
    np.testing.assert_array_equal(X, X2)
    np.testing.assert_array_equal(y, y2)
    np.testing.assert_array_equal(alpha, a2)


def test_fusion_rejects_bad_variance_and_empty_state():
    fs = FusionState()
    with pytest.raises(ValueError):
        fs.add([0.0], 1.0, 0.0)
    with pytest.raises(ValueError):
        fs.fused()


# ---------------------------------------------------------------- acquisition


def test_acquisition_prefers_cheap_tier_under_broad_uncertainty():
    """When latent variance dwarfs every tier's noise, the variance gains
    are nearly equal and the cheap probe wins on cost."""
    from repro.gp.gpr import GaussianProcessRegressor
    from repro.gp.kernels import SquaredExponential

    rng = np.random.default_rng(0)
    X = rng.uniform(-1, 1, size=(6, 2))
    y = np.array([_ref(x) for x in X])
    model = GaussianProcessRegressor(
        kernel=SquaredExponential(
            4.0, 0.3, signal_variance_bounds="fixed", length_scale_bounds="fixed"
        ),
        noise_variance=1e-4,
        noise_variance_bounds="fixed",
        optimizer=None,
    ).fit(X, y)
    cands = rng.uniform(-1, 1, size=(40, 2))
    acq = MultiFidelityCostEfficiency(seed=0)
    _, tier_idx = acq.select(model, cands, np.ones(40), TIERS)
    assert TIERS[tier_idx].name == "probe"


def test_acquisition_prefers_accurate_tier_near_probe_noise_floor():
    """Once the latent variance is at the probe's own noise level, another
    probe can barely reduce it and the accurate tier wins despite 10x cost."""

    class FlatModel:
        def predict(self, X, return_std=False, include_noise=True):
            mu = np.zeros(len(X))
            sd = np.full(len(X), 0.02)  # well below probe sd 0.15
            return (mu, sd) if return_std else mu

    acq = MultiFidelityCostEfficiency(seed=0)
    scores = acq.scores(FlatModel(), np.zeros((5, 2)), np.ones(5), TIERS)
    assert np.all(scores[:, 1] > scores[:, 0])


def test_acquisition_tie_break_is_seeded():
    class FlatModel:
        def predict(self, X, return_std=False, include_noise=True):
            return np.zeros(len(X)), np.full(len(X), 0.1)

    picks = {
        MultiFidelityCostEfficiency(seed=s).select(
            FlatModel(), np.zeros((12, 2)), np.ones(12), TIERS[:1]
        )[0]
        for s in range(10)
    }
    assert len(picks) > 1  # not pinned to candidate 0
    a = MultiFidelityCostEfficiency(seed=4)
    b = MultiFidelityCostEfficiency(seed=4)
    sel = lambda acq: acq.select(FlatModel(), np.zeros((12, 2)), np.ones(12), TIERS[:1])
    assert [sel(a) for _ in range(5)] == [sel(b) for _ in range(5)]


# -------------------------------------------------------------------- learner


def test_learner_runs_and_satisfies_replicate_protocol():
    res = _learner().run()
    assert res.stop_reason == "completed"
    assert len(res.rounds) == 8
    assert res.n_observations == 10  # 2 initial + 8 rounds
    assert res.simulated_seconds == res.cumulative_cost
    assert res.cpu_core_seconds == res.cumulative_cost
    assert res.n_failed == res.n_retries == res.n_quarantined == 0
    assert res.wasted_core_seconds == 0.0
    assert np.isfinite(res.final_rmse)
    assert sum(res.tier_counts.values()) == 10
    assert res.model is not None and res.model.fitted


def test_learner_fuses_repeats_into_heteroscedastic_rows():
    res = _learner(n_rounds=15).run()
    # Repeats happened (fewer locations than observations) and the final
    # model carries per-point noise.
    assert res.n_locations < res.n_observations or res.model.noise_alpha_ is not None
    assert res.model.noise_alpha_ is not None


def test_learner_validation():
    oracle = MultiFidelityOracle(_ref, TIERS, rng=0)
    cands = np.zeros((4, 2))
    with pytest.raises(ValueError, match="n_initial"):
        MultiFidelityLearner(oracle, cands, n_initial=9)
    with pytest.raises(ValueError, match="base_costs"):
        MultiFidelityLearner(oracle, cands, base_costs=np.ones(3))
    with pytest.raises(ValueError, match="base_costs"):
        MultiFidelityLearner(oracle, cands, base_costs=np.zeros(4))
    with pytest.raises(ValueError, match="candidates"):
        MultiFidelityLearner(oracle, np.zeros((0, 2)))


def _killed_after(path, n_rounds):
    """Run with checkpointing, killed once ``n_rounds`` rounds are saved."""
    # Write 1 saves the initial design and write r + 1 the first r rounds.
    with _write_kill(n_rounds + 2, fidelity), pytest.raises(_Killed):
        _learner().run(checkpoint_path=path)


def test_checkpoint_resume_is_bit_identical(tmp_path):
    full_path = tmp_path / "full.json"
    part_path = tmp_path / "part.json"

    r_full = _learner().run(checkpoint_path=full_path)

    _killed_after(part_path, 3)
    assert len(json.loads(part_path.read_text())["records"]) == 3

    r_res = _learner().resume(part_path)
    assert r_res.stop_reason == "completed"
    assert r_res.resumed

    assert r_full.y == r_res.y
    assert r_full.cumulative_cost == r_res.cumulative_cost
    assert [r.payload() for r in r_full.rounds] == [
        r.payload() for r in r_res.rounds
    ]
    assert r_full.model.to_dict() == r_res.model.to_dict()
    assert full_path.read_bytes() == part_path.read_bytes()


def test_resume_rejects_mismatched_configuration(tmp_path):
    path = tmp_path / "ck.json"
    _killed_after(path, 2)
    other = _learner(n_rounds=99)
    with pytest.raises(ValueError, match="n_rounds"):
        other.resume(path)
    bad_seed = _learner(seed=11)
    with pytest.raises(ValueError, match="seed"):
        bad_seed.resume(path)


def test_checkpoint_is_json_and_versioned(tmp_path):
    path = tmp_path / "ck.json"
    _killed_after(path, 1)
    payload = json.loads(path.read_text())
    assert payload["version"] == 1
    assert payload["fusion"]["entries"]
    assert payload["tier_counts"]


def test_runs_under_run_replicates(tmp_path):
    from repro.al.replicates import run_replicates

    def factory(index, rng):
        oracle = MultiFidelityOracle(_ref, TIERS, rng=rng)
        cands = np.random.default_rng(0).uniform(-1, 1, size=(20, 2))
        return MultiFidelityLearner(
            oracle, cands, n_rounds=4, n_initial=2, seed=index
        )

    sweep = run_replicates(
        factory, 3, seed=0, checkpoint_dir=tmp_path / "ck", backend="serial"
    )
    assert sweep.n_replicates == 3
    assert all(r.stop_reason == "completed" for r in sweep.replicates)
    assert all(r.n_observations == 6 for r in sweep.replicates)
    # Second sweep loads results instead of re-running.
    again = run_replicates(
        factory, 3, seed=0, checkpoint_dir=tmp_path / "ck", backend="serial"
    )
    assert all(r.loaded for r in again.replicates)
    assert [r.y for r in again.replicates] == [r.y for r in sweep.replicates]


def test_registry_marks_heteroscedastic_models(tmp_path):
    from repro.serve.registry import ModelRegistry

    res = _learner(n_rounds=6).run()
    reg = ModelRegistry(tmp_path / "reg")
    meta = reg.publish(res.model)
    assert meta.extra["heteroscedastic"] is True
    assert meta.extra["n_noise_alpha"] == res.n_locations
    # Scalar models stay unmarked (absence implies scalar).
    from repro.gp.gpr import GaussianProcessRegressor

    X = np.random.default_rng(0).uniform(-1, 1, size=(8, 2))
    scalar = GaussianProcessRegressor(rng=0).fit(
        X, np.array([_ref(x) for x in X])
    )
    meta2 = reg.publish(scalar)
    assert "heteroscedastic" not in meta2.extra

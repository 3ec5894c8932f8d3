"""Integration tests: guarded online campaigns (guardrails + breaker)."""

import numpy as np
import pytest

from repro.al import campaign as campaign_module
from repro.al.campaign import CampaignConfig, OnlineCampaign, load_checkpoint
from repro.al.guardrails import DriftConfig, GuardrailConfig, HealthConfig
from repro.cluster import BreakerConfig, NodeCircuitBreaker
from repro.cluster.faults import FaultConfig, FaultyExecutor
from repro.datasets.generate import ModelExecutor
from repro.gp.gpr import GaussianProcessRegressor

from .test_checkpoint_compat import _Killed, _write_kill


def _candidates():
    sizes = [48**3, 96**3, 192**3, 384**3]
    nps = [1, 8, 32, 128]
    freqs = [1.2, 2.4]
    return np.array(
        [(s, p, f) for s in sizes for p in nps for f in freqs], dtype=float
    )


def _config(batch_size=2, n_rounds=6):
    return CampaignConfig(
        operator="poisson1",
        candidates=_candidates(),
        batch_size=batch_size,
        n_rounds=n_rounds,
    )


def test_unguarded_campaign_reports_no_tallies():
    campaign = OnlineCampaign(_config(n_rounds=3), ModelExecutor(), rng=0)
    result = campaign.run()
    assert result.guardrails is None
    assert result.stop_reason == "completed"


def test_guarded_faultfree_campaign_is_quiet():
    """Guardrails on a clean campaign should not fire anything."""
    campaign = OnlineCampaign(
        _config(n_rounds=4), ModelExecutor(), rng=0, guardrails=True
    )
    result = campaign.run()
    assert result.stop_reason == "completed"
    t = result.guardrails
    assert t is not None
    assert t.n_rollbacks == 0
    assert t.n_drift_events == 0
    assert t.n_watchdog_stops == 0
    assert result.model.fitted


def test_drift_fault_triggers_detector_and_trim():
    # A 10x slowdown after job 10 shifts log10 runtimes by 1.0; with a
    # lowered alarm threshold the changepoint test must catch it before
    # the GP absorbs the new regime.
    executor = FaultyExecutor(
        ModelExecutor(),
        FaultConfig(drift_after_jobs=10, drift_factor=10.0),
    )
    campaign = OnlineCampaign(
        _config(batch_size=3, n_rounds=8),
        executor,
        rng=2,
        guardrails=GuardrailConfig(drift=DriftConfig(threshold=6.0)),
    )
    result = campaign.run()
    assert result.stop_reason == "completed"
    assert executor.stats.n_drifted > 0
    t = result.guardrails
    assert t.n_drift_events >= 1
    assert t.n_trimmed_points >= 1
    assert result.model.fitted


@pytest.mark.parametrize("normalize_y", [False, True])
def test_drift_residuals_are_standardized_by_the_predictive_sd(
    monkeypatch, normalize_y
):
    """The detector sees ``(y - mu) / sd`` with ``mu, sd = predict(x)``.

    ``predict`` returns the observation SD, which already includes the
    noise variance (in the units of y); adding the noise variance again
    shrank every residual, and under ``normalize_y`` added it in
    normalized units.
    """
    expected, received = [], []
    submit = OnlineCampaign._submit

    def recording_submit(self, rows, *, model=None, clock0=0.0):
        outcome = submit(self, rows, model=model, clock0=clock0)
        if model is not None:
            mu, sd = model.predict(campaign_module._features(rows), return_std=True)
            expected.append(
                [(outcome.accepted[s] - mu[s]) / sd[s] for s in sorted(outcome.accepted)]
            )
        return outcome

    def recording_update_many(self, values):
        received.append(list(values))
        return False

    monkeypatch.setattr(OnlineCampaign, "_submit", recording_submit)
    monkeypatch.setattr(
        campaign_module.DriftDetector, "update_many", recording_update_many
    )
    factory = lambda: GaussianProcessRegressor(  # noqa: E731
        noise_variance_bounds=(1e-2, 1e3), normalize_y=normalize_y, n_restarts=1, rng=0
    )
    OnlineCampaign(
        _config(batch_size=3, n_rounds=4), ModelExecutor(), rng=2,
        model_factory=factory, guardrails=True,
    ).run()
    assert len(received) == 4  # one batch a round
    assert received == [e for e in expected if e]


def test_breaker_opens_on_crashy_node_and_campaign_completes():
    # Single-node jobs only: once the breaker opens the dead node, the
    # scheduler can still route every job to the three healthy nodes.
    sizes = [48**3, 96**3, 192**3, 384**3]
    cand = np.array(
        [(s, p, f) for s in sizes for p in [1, 8, 32] for f in [1.2, 2.4]],
        dtype=float,
    )
    config = CampaignConfig(
        operator="poisson1", candidates=cand, batch_size=3, n_rounds=6
    )
    executor = FaultyExecutor(
        ModelExecutor(), FaultConfig(node_crash_rates={0: 1.0})
    )
    campaign = OnlineCampaign(
        config,
        executor,
        rng=3,
        guardrails=True,
        breaker=BreakerConfig(failure_threshold=2, cooldown_seconds=1e8),
    )
    result = campaign.run()
    assert result.stop_reason == "completed"
    assert result.guardrails.n_breaker_opens >= 1
    assert result.model.fitted
    assert result.y.shape[0] >= 3
    # The breaker object is shared across waves on one campaign clock.
    assert campaign.breaker.n_opened >= 1


def test_breaker_accepts_prebuilt_instance_and_true():
    br = NodeCircuitBreaker(BreakerConfig(), n_nodes=4)
    campaign = OnlineCampaign(_config(n_rounds=2), ModelExecutor(), breaker=br)
    assert campaign.breaker is br
    campaign2 = OnlineCampaign(_config(n_rounds=2), ModelExecutor(), breaker=True)
    assert campaign2.breaker is not None
    assert campaign2.breaker.n_nodes == 4


def test_watchdog_stops_campaign_on_wall_budget():
    guard = GuardrailConfig(max_wall_seconds=1.0)  # trips after the seed job
    campaign = OnlineCampaign(
        _config(n_rounds=8), ModelExecutor(), rng=0, guardrails=guard
    )
    result = campaign.run()
    assert result.stop_reason == "watchdog"
    assert result.guardrails.n_watchdog_stops == 1
    assert len(result.rounds) < 8  # rounds were actually cut short
    assert result.model.fitted  # best-effort final fit on the seed data


def test_watchdog_cost_budget():
    guard = GuardrailConfig(max_cost_core_seconds=1.0)
    campaign = OnlineCampaign(
        _config(n_rounds=8), ModelExecutor(), rng=0, guardrails=guard
    )
    result = campaign.run()
    assert result.stop_reason == "watchdog"


def test_unhealthy_fits_roll_back_with_escalation():
    # An impossible condition-number bound marks every fit unhealthy: the
    # first fit is accepted (nothing to roll back to), later ones roll
    # back until the escalation budget is spent.
    guard = GuardrailConfig(
        health=HealthConfig(max_condition_number=1.0 + 1e-9),
        check_drift=False,
        max_rollbacks=2,
    )
    campaign = OnlineCampaign(
        _config(batch_size=2, n_rounds=6), ModelExecutor(), rng=1,
        guardrails=guard,
    )
    result = campaign.run()
    assert result.stop_reason == "completed"
    t = result.guardrails
    assert t.n_unhealthy_fits >= 3
    assert t.n_rollbacks >= 1
    assert t.n_remediations >= 1  # rolled-back rounds refit remediated
    assert result.model.fitted


def test_guarded_checkpoint_resume_carries_tallies(tmp_path):
    path = tmp_path / "guarded.json"
    guard = GuardrailConfig(
        health=HealthConfig(max_condition_number=1.0 + 1e-9),
        check_drift=False,
        max_rollbacks=2,
    )

    def fresh():
        return OnlineCampaign(
            _config(batch_size=2, n_rounds=6), ModelExecutor(), rng=1,
            guardrails=guard,
        )

    full = fresh().run()

    # Early fits collapse to a near-diagonal kernel (cond == 1), so the
    # impossible condition bound only bites from the n=7 fit onwards —
    # kill at the 6th checkpoint write (rounds 0-3 saved) to capture non-zero
    # tallies.
    with _write_kill(6, campaign_module), pytest.raises(_Killed):
        fresh().run(checkpoint_path=path)

    checkpoint = load_checkpoint(path)
    assert checkpoint.guardrail_state is not None
    assert checkpoint.guardrail_state["tallies"]["n_unhealthy_fits"] >= 1

    resumed = fresh().resume(path)
    assert resumed.stop_reason == "completed"
    # The replayed fits rebuild the gate, so the run continues exactly.
    assert resumed.guardrails.as_dict() == full.guardrails.as_dict()
    assert resumed.rounds == full.rounds
    np.testing.assert_array_equal(resumed.y, full.y)


def test_pre_guardrail_checkpoints_still_load(tmp_path):
    """Checkpoints written by unguarded campaigns have no guardrail_state."""
    path = tmp_path / "plain.json"
    campaign = OnlineCampaign(_config(n_rounds=2), ModelExecutor(), rng=0)
    campaign.run(checkpoint_path=path)
    checkpoint = load_checkpoint(path)
    assert checkpoint.guardrail_state is None
    resumed = OnlineCampaign(_config(n_rounds=2), ModelExecutor(), rng=0).resume(
        path
    )
    assert resumed.stop_reason == "completed"


def test_force_accepted_tiny_fit_sets_no_lml_baseline(tmp_path):
    """An unhealthy fit accepted for want of rollbacks below
    ``HealthConfig.min_points`` must not become the per-point-LML baseline,
    exactly like a healthy tiny fit."""
    path = tmp_path / "tiny.json"
    guard = GuardrailConfig(
        health=HealthConfig(max_condition_number=1.0 + 1e-9, min_points=1000),
        check_drift=False,
        max_rollbacks=0,
    )
    campaign = OnlineCampaign(
        _config(batch_size=2, n_rounds=6), ModelExecutor(), rng=1,
        guardrails=guard,
    )
    result = campaign.run(checkpoint_path=path)
    assert result.guardrails.n_unhealthy_fits >= 1
    assert result.y.shape[0] < 1000
    assert load_checkpoint(path).guardrail_state["prev_lml_per_point"] is None

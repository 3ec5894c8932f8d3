"""Acceptance tests: fault-tolerant online campaigns (ISSUE 2).

Covers the tentpole guarantees: a campaign under 20% injected faults
completes without exceptions, no FAILED/TIMEOUT/unverified measurement
enters the GP training set, failure accounting sums to the injected
counts, and a campaign killed mid-run resumes bit-identically.
"""

import numpy as np
import pytest

from repro.al import ActiveLearner, VarianceReduction, random_partition
from repro.al.campaign import (
    CampaignConfig,
    OnlineCampaign,
    load_checkpoint,
)
from repro.al.fidelity import FidelityTier, MultiFidelityLearner, MultiFidelityOracle
from repro.al.resilience import QuarantinePolicy, RetryPolicy
from repro.al.strategies import RandomSampling
from repro.cluster.faults import FaultConfig, FaultyExecutor
from repro.datasets.generate import ModelExecutor
from repro.gp.gpr import GaussianProcessRegressor


def _candidates():
    sizes = [48**3, 96**3, 192**3, 384**3]
    nps = [1, 8, 32, 128]
    freqs = [1.2, 2.4]
    return np.array(
        [(s, p, f) for s in sizes for p in nps for f in freqs], dtype=float
    )


# On this grid the longest clean job is ~250 s and a 3x straggler ~750 s,
# both far below the 3600 s limit, so every hang (7200 s) times out and
# nothing else does: crash -> FAILED, hang -> TIMEOUT, corrupt ->
# COMPLETED + failed verification, straggler -> clean COMPLETED.
TWENTY_PCT = FaultConfig(crash_rate=0.10, hang_rate=0.05, corrupt_rate=0.05)


def _config(batch_size=2, n_rounds=6):
    return CampaignConfig(
        operator="poisson1",
        candidates=_candidates(),
        batch_size=batch_size,
        n_rounds=n_rounds,
    )


class _LoggingFaultyExecutor(FaultyExecutor):
    """FaultyExecutor that remembers every faulty log10 runtime it emitted."""

    def __init__(self, *args, time_limit_seconds=3600.0, **kwargs):
        super().__init__(*args, **kwargs)
        self.faulty_log_runtimes = []
        self._limit = time_limit_seconds

    def execute(self, spec, rng):
        out = super().execute(spec, rng)
        if out.failed or not out.verification_passed:
            # Both the raw runtime and the value the scheduler will record
            # after truncating at the time limit.
            self.faulty_log_runtimes.append(np.log10(out.runtime_seconds))
            self.faulty_log_runtimes.append(
                np.log10(min(out.runtime_seconds, self._limit))
            )
        return out


def test_campaign_survives_twenty_percent_faults():
    executor = FaultyExecutor(ModelExecutor(), TWENTY_PCT)
    campaign = OnlineCampaign(_config(), executor, rng=1)
    result = campaign.run()

    assert result.model.fitted
    assert result.y.shape[0] >= 1
    # Accounting sums to the injected counts, at the event level: every
    # crash/hang execution ends FAILED/TIMEOUT, every corruption completes
    # but is gated out by verification.
    stats = executor.stats
    assert stats.n_faults > 0  # the 20% rate actually bit at this seed
    assert result.n_failed == stats.n_crashes + stats.n_hangs
    assert result.n_quarantined == stats.n_corrupted
    assert stats.n_stragglers >= 0  # stragglers are slow but usable
    # Only quarantined executions waste compute.
    if result.n_failed + result.n_quarantined:
        assert result.wasted_core_seconds > 0
    # Accepted observations per round plus the seed equals the total.
    n_ok = sum(r["n_ok"] for r in result.rounds)
    n_seed = result.y.shape[0] - n_ok
    assert n_seed in (0, 1)


def test_no_faulty_measurement_enters_training_set():
    executor = _LoggingFaultyExecutor(ModelExecutor(), TWENTY_PCT)
    campaign = OnlineCampaign(_config(), executor, rng=1)
    result = campaign.run()

    assert executor.faulty_log_runtimes  # faults were injected at this seed
    for bad in executor.faulty_log_runtimes:
        assert not np.any(np.isclose(result.y, bad, rtol=0, atol=1e-12))


def test_retries_recover_observations():
    """With retries on, rejected experiments are re-run (and the backoff is
    charged to the makespan); with RetryPolicy.none() they are simply lost."""
    resilient = OnlineCampaign(
        _config(), FaultyExecutor(ModelExecutor(), TWENTY_PCT), rng=2
    )
    res = resilient.run()
    naive = OnlineCampaign(
        _config(),
        FaultyExecutor(ModelExecutor(), TWENTY_PCT),
        rng=2,
        retry_policy=RetryPolicy.none(),
    )
    nav = naive.run()
    assert res.n_retries > 0
    assert nav.n_retries == 0
    # Retried experiments land: the resilient campaign keeps more points.
    assert res.y.shape[0] >= nav.y.shape[0]


def test_whole_batch_failure_is_graceful():
    """Every job crashing forever must not raise; the campaign records the
    rounds, keeps the model untouched and returns an unfitted model."""
    executor = FaultyExecutor(ModelExecutor(), FaultConfig(crash_rate=1.0))
    campaign = OnlineCampaign(_config(n_rounds=3), executor, rng=0)
    with pytest.warns(RuntimeWarning, match="no usable observations"):
        result = campaign.run()
    assert result.y.shape == (0,)
    assert result.X.shape == (0, 3)
    assert not result.model.fitted
    assert len(result.rounds) == 3
    assert all(r["n_ok"] == 0 for r in result.rounds)
    assert result.n_failed > 0
    assert result.simulated_seconds > 0  # failures still cost wall-clock
    assert result.wasted_core_seconds == pytest.approx(result.cpu_core_seconds)


class _FailAfterFirst:
    """Executor whose first execution succeeds, all later ones crash."""

    def __init__(self):
        self.inner = ModelExecutor()
        self.n_calls = 0

    def estimate(self, spec):
        return self.inner.estimate(spec)

    def execute(self, spec, rng):
        self.n_calls += 1
        out = self.inner.execute(spec, rng)
        if self.n_calls > 1:
            import dataclasses

            out = dataclasses.replace(
                out, failed=True, verification_passed=False
            )
        return out


def test_batch_failure_after_seed_leaves_model_untouched():
    campaign = OnlineCampaign(_config(n_rounds=3), _FailAfterFirst(), rng=0)
    result = campaign.run()
    # Only the seed observation survives; every AL round comes back empty
    # but the round is still recorded and the model stays fitted on the seed.
    assert result.y.shape == (1,)
    assert result.model.fitted
    assert result.model.X_train_.shape == (1, 3)
    assert len(result.rounds) == 3
    assert all(r["n_ok"] == 0 for r in result.rounds)


class _Killed(RuntimeError):
    pass


class _KillSwitch:
    """Executor wrapper that raises after a fixed number of executions."""

    def __init__(self, inner, kill_after):
        self.inner = inner
        self.kill_after = kill_after
        self.n_calls = 0

    def estimate(self, spec):
        return self.inner.estimate(spec)

    def execute(self, spec, rng):
        self.n_calls += 1
        if self.n_calls > self.kill_after:
            raise _Killed(f"killed after {self.kill_after} executions")
        return self.inner.execute(spec, rng)


@pytest.mark.parametrize(
    "fast_refits, strategy",
    [
        pytest.param(False, None, id="False"),
        pytest.param(True, None, id="True"),
        # The strategy's sampling stream must be checkpointed too.
        pytest.param(False, RandomSampling, id="RandomSampling"),
    ],
)
def test_kill_and_resume_is_bit_identical(tmp_path, fast_refits, strategy):
    config = _config(batch_size=2, n_rounds=5)
    path = tmp_path / "campaign.json"

    def campaign(executor):
        return OnlineCampaign(
            config, executor, rng=7, fast_refits=fast_refits, refit_every=2,
            strategy=strategy(seed=3) if strategy else None,
        )

    # Reference: uninterrupted run.  Scheduler-stream fault mode (rng=None)
    # makes the fault pattern a pure function of the campaign seed.
    reference = campaign(FaultyExecutor(ModelExecutor(), TWENTY_PCT)).run(
        checkpoint_path=tmp_path / "ref.json"
    )

    # Same campaign, killed partway through.
    killer = _KillSwitch(FaultyExecutor(ModelExecutor(), TWENTY_PCT), 6)
    with pytest.raises(_Killed):
        campaign(killer).run(checkpoint_path=path)
    killed_at = load_checkpoint(path).next_round
    assert killed_at < config.n_rounds  # it died mid-campaign

    # Fresh process: new campaign object, resume from the checkpoint.
    resumed = campaign(FaultyExecutor(ModelExecutor(), TWENTY_PCT)).resume(path)

    np.testing.assert_array_equal(resumed.X, reference.X)
    np.testing.assert_array_equal(resumed.y, reference.y)
    assert resumed.simulated_seconds == reference.simulated_seconds
    assert resumed.cpu_core_seconds == reference.cpu_core_seconds
    assert resumed.rounds == reference.rounds
    assert resumed.n_failed == reference.n_failed
    assert resumed.n_retries == reference.n_retries
    assert resumed.n_quarantined == reference.n_quarantined
    assert resumed.wasted_core_seconds == reference.wasted_core_seconds
    grid = np.column_stack(
        [
            np.log10(config.candidates[:, 0]),
            np.log2(config.candidates[:, 1]),
            config.candidates[:, 2],
        ]
    )
    mu_a, sd_a = reference.model.predict(grid, return_std=True)
    mu_b, sd_b = resumed.model.predict(grid, return_std=True)
    np.testing.assert_array_equal(mu_a, mu_b)
    np.testing.assert_array_equal(sd_a, sd_b)


def test_resume_rejects_mismatched_config(tmp_path):
    path = tmp_path / "campaign.json"
    OnlineCampaign(_config(n_rounds=2), ModelExecutor(), rng=0).run(
        checkpoint_path=path
    )
    other = CampaignConfig(
        operator="poisson1",
        candidates=_candidates(),
        batch_size=3,
        n_rounds=2,
    )
    with pytest.raises(ValueError, match="batch_size"):
        OnlineCampaign(other, ModelExecutor(), rng=0).resume(path)


def test_missing_scheduler_record_is_descriptive(monkeypatch):
    """A scheduler dropping a job must fail loudly, naming the lost slot."""
    from repro.cluster.scheduler import SlurmSimulator

    class DroppingSimulator(SlurmSimulator):
        def run_batch(self, specs):
            return super().run_batch(specs)[:-1]

    monkeypatch.setattr(
        "repro.al.campaign.SlurmSimulator", DroppingSimulator
    )
    campaign = OnlineCampaign(_config(), ModelExecutor(), rng=0)
    with pytest.raises(RuntimeError, match="repeat_index"):
        campaign.run()


class _FragileGPR(GaussianProcessRegressor):
    """Raises the Cholesky error unless the jitter has been escalated."""

    def fit(self, X, y, **fit_kw):
        if self.jitter < 1e-8:
            raise np.linalg.LinAlgError("matrix not positive definite")
        return super().fit(X, y, **fit_kw)


# Each loop runs ``n_rounds`` rounds on models from ``factory`` and returns
# its final model.  The multi-fidelity loop passes the fused per-point
# noise (``fit(X, y, alpha=...)``); the other two call a plain ``fit(X, y)``.


def _campaign_model(factory, n_rounds):
    result = OnlineCampaign(
        _config(n_rounds=n_rounds), ModelExecutor(), rng=0, model_factory=factory
    ).run()
    assert len(result.rounds) == n_rounds
    assert result.y.shape[0] == 1 + n_rounds * 2  # seed + two jobs a round
    return result.model


def _learner_model(factory, n_rounds):
    rng = np.random.default_rng(0)
    X = np.sort(rng.uniform(0, 10, size=40))[:, np.newaxis]
    y = 0.4 * X[:, 0] + 0.05 * rng.standard_normal(40)
    learner = ActiveLearner(
        X, y, np.ones(40), random_partition(40, rng=0), VarianceReduction(),
        model_factory=factory,
    )
    assert len(learner.run(n_rounds)) == n_rounds
    return learner.model


def _multifidelity_model(factory, n_rounds):
    tiers = [FidelityTier("probe", 0.1, 1e-2), FidelityTier("full", 1.0, 1e-4)]
    oracle = MultiFidelityOracle(lambda x: float(np.sin(3.0 * x[0])), tiers, rng=0)
    result = MultiFidelityLearner(
        oracle, np.linspace(-1.0, 1.0, 15)[:, np.newaxis],
        n_rounds=n_rounds, model_factory=factory, seed=0,
    ).run()
    assert len(result.rounds) == n_rounds
    return result.model


LOOPS = {
    "campaign": _campaign_model,
    "learner": _learner_model,
    "multifidelity": _multifidelity_model,
}


@pytest.mark.parametrize("loop", sorted(LOOPS))
def test_jitter_escalation_recovers_cholesky_failure(loop):
    model = LOOPS[loop](
        lambda: _FragileGPR(noise_variance=1e-2, optimizer=None, jitter=1e-10),
        n_rounds=2,
    )  # must not raise: jitter * 1e3 clears the bar
    assert model.fitted
    assert model.jitter >= 1e-8


@pytest.mark.parametrize("loop", sorted(LOOPS))
def test_cholesky_failure_keeps_previous_round_model(loop):
    """When even escalated jitter cannot fit, the previous round's model
    survives (a stale posterior beats a dead loop), and every round still
    runs on it."""
    built = []

    class _DoomedGPR(GaussianProcessRegressor):
        def fit(self, X, y, **fit_kw):
            if len(built) > 1:  # every model after the first refuses to fit
                raise np.linalg.LinAlgError("matrix not positive definite")
            return super().fit(X, y, **fit_kw)

    def factory():
        model = _DoomedGPR(noise_variance=1e-2, optimizer=None)
        built.append(model)
        return model

    with pytest.warns(RuntimeWarning, match="previous round's model"):
        model = LOOPS[loop](factory, n_rounds=3)
    assert model is built[0]
    assert model.fitted


def test_z_threshold_gates_corrupted_measurements():
    """With verification gating off, an aggressive z-threshold still keeps
    grossly corrupted runtimes (a million times too fast) out of the
    training set.  The aggressive threshold also rejects some legitimate
    early-campaign points whose predictions are still poor — the false-
    positive cost that makes the z-gate opt-in (``z_threshold=None``)."""
    config = _config(batch_size=2, n_rounds=6)
    corrupt = FaultConfig(corrupt_rate=0.25, corrupt_runtime_factor=1e-6)
    policy = QuarantinePolicy(require_verification=False, z_threshold=3.0)
    executor = FaultyExecutor(ModelExecutor(), corrupt)
    campaign = OnlineCampaign(
        config,
        executor,
        rng=2,
        quarantine_policy=policy,
        retry_policy=RetryPolicy.none(),
    )
    result = campaign.run()
    assert executor.stats.n_corrupted > 0
    assert result.n_quarantined > 0
    # Every training target is consistent with the clean runtime surface:
    # the six-decade corruptions were all z-gated.
    from repro.perfmodel import RuntimeModel

    truth = RuntimeModel()
    clean = np.array(
        [
            np.log10(truth.runtime("poisson1", 10.0 ** x[0], 2.0 ** x[1], x[2]))
            for x in result.X
        ]
    )
    assert np.all(np.abs(result.y - clean) < 1.0)

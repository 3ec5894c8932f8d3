"""Golden digests pinning the post-fit gate's decisions bit for bit.

Each run uses a health configuration no fit can pass (or a campaign
configuration whose later fits fail it), so the gate rolls back, escalates
remediation, force-accepts and publishes on every path the three loops
have: the offline :class:`ActiveLearner` (slow and ``fast_refits`` paths,
with a registry), the :class:`OnlineCampaign` (straight through, and
under ``fast_refits`` killed at every checkpoint then resumed), and the
:class:`ShardedLearner` (unbounded per-shard rollbacks under injected
shard faults).  A SHA-256 over the outputs that depend on every gate
decision is compared against values taken before the three loops shared
one gate.  Four of them were re-taken when the LML objective moved to the
closed-form gradient: the fitted hyperparameters, and the LML, SD and RMSE
floats recorded from them, moved in their last bits (at most ~1e-9
relative), and no selection, rollback or publish decision changed.
Regenerate them only for a deliberate change of gate behaviour, and say so
in the change log.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.al import (
    ActiveLearner,
    VarianceReduction,
    default_model_factory,
    random_partition,
)
from repro.al.campaign import CampaignConfig, OnlineCampaign
from repro.al.guardrails import GuardrailConfig, HealthConfig
from repro.al.sharding import ShardedLearner, ShardingConfig, mixed_operator_pool
from repro.al.strategies import CostEfficiency
from repro.cluster.faults import ShardFaultConfig
from repro.datasets.generate import ModelExecutor
from repro.serve.registry import ModelRegistry

#: No kernel matrix with two distinct rows has a condition number this close
#: to 1, so every fit past the first few is unhealthy.
IMPOSSIBLE = HealthConfig(max_condition_number=1.0 + 1e-9)


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _floats(values) -> list[str]:
    return [repr(float(v)) for v in values]


# ------------------------------------------------------------------ learner


def _learner_run(tmp_path, **kw):
    rng = np.random.default_rng(4)
    X = np.sort(rng.uniform(0, 10, size=50))[:, np.newaxis]
    y = 0.5 * X[:, 0] + np.sin(X[:, 0]) + 0.05 * rng.standard_normal(50)
    costs = np.abs(y) + 1.0
    registry = ModelRegistry(tmp_path / "registry")
    learner = ActiveLearner(
        X, y, costs, random_partition(50, rng=4), VarianceReduction(),
        model_factory=default_model_factory(noise_floor=1e-2),
        guardrails=GuardrailConfig(health=IMPOSSIBLE, max_rollbacks=2),
        registry=registry,
        **kw,
    )
    trace = learner.run(14)
    published = [v.extra["iteration"] for v in registry.versions()]
    return learner, trace, published


LEARNER_GOLDEN = {
    "slow": "e2f47135faea1638196b28a67b668d7e54fb4e561a03431b11ff8a4284034bdf",
    "fast": "0c038195f1f9c6edaafc57998568199b547b623e3bd79da90c1ca82fd885c1c5",
}


@pytest.mark.parametrize(
    "name, kw",
    [("slow", {}), ("fast", dict(fast_refits=True, refit_every=3))],
)
def test_learner_gate_golden(tmp_path, name, kw):
    learner, trace, published = _learner_run(tmp_path, **kw)
    assert learner.n_rollbacks > 0
    assert len(published) < len(trace)  # rollback iterations publish nothing
    digest = _digest(
        {
            "selected": [int(i) for i in trace.series("selected_pool_index")],
            "y": _floats(trace.series("y_selected")),
            "lml": _floats(trace.series("lml")),
            "noise": _floats(trace.series("noise_variance")),
            "n_rollbacks": learner.n_rollbacks,
            "published": published,
        }
    )
    assert digest == LEARNER_GOLDEN[name]


# ----------------------------------------------------------------- campaign


def _campaign(**kw):
    sizes = [48**3, 96**3, 192**3, 384**3]
    candidates = np.array(
        [(s, p, f) for s in sizes for p in [1, 8, 32, 128] for f in [1.2, 2.4]],
        dtype=float,
    )
    config = CampaignConfig(
        operator="poisson1", candidates=candidates, batch_size=2, n_rounds=6
    )
    guard = GuardrailConfig(health=IMPOSSIBLE, check_drift=False, max_rollbacks=2)
    return OnlineCampaign(config, ModelExecutor(), rng=1, guardrails=guard, **kw)


def _campaign_digest(result) -> str:
    return _digest(
        {
            "y": _floats(result.y),
            "rounds": result.rounds,
            "tallies": result.guardrails.as_dict(),
        }
    )


CAMPAIGN_GOLDEN = {
    "straight": "bc3944ca2543a7feb0cc9ecd5b7db241c56b56e85c13eb9b95931d15ffd5261a",
    # The same fast_refits campaign run uninterrupted: a resume replays the
    # recorded fits through the gate, so it must land on this digest too.
    "resumed": "f7a7a22c660a6874c471a69273292996bedb89d2406c70f9ed1cff6ea6e5b33a",
}


def test_campaign_gate_golden():
    result = _campaign().run()
    assert result.guardrails.n_rollbacks > 0
    assert _campaign_digest(result) == CAMPAIGN_GOLDEN["straight"]


class _Killed(Exception):
    pass


def _killed_then_resumed(path, kill_at):
    """Kill the fast_refits campaign after its ``kill_at``-th checkpoint."""
    campaign = _campaign(fast_refits=True, refit_every=2)
    checkpoint = campaign._checkpoint
    calls = {"n": 0}

    def dying_checkpoint(state, p):
        checkpoint(state, p)
        calls["n"] += 1
        if calls["n"] == kill_at:
            raise _Killed()

    campaign._checkpoint = dying_checkpoint
    with pytest.raises(_Killed):
        campaign.run(checkpoint_path=path)
    return _campaign(fast_refits=True, refit_every=2).resume(path)


def test_campaign_gate_golden_fast_refits_resumed(tmp_path):
    result = _killed_then_resumed(tmp_path / "campaign.json", 5)
    assert result.guardrails.n_unhealthy_fits > 0
    assert _campaign_digest(result) == CAMPAIGN_GOLDEN["resumed"]


def test_campaign_gate_golden_fast_refits_straight():
    result = _campaign(fast_refits=True, refit_every=2).run()
    assert _campaign_digest(result) == CAMPAIGN_GOLDEN["resumed"]


# Seven checkpoints: the seed's and one per round.
@pytest.mark.parametrize("kill_at", range(1, 8))
def test_campaign_fast_refits_resume_at_every_checkpoint(tmp_path, kill_at):
    result = _killed_then_resumed(tmp_path / "campaign.json", kill_at)
    assert _campaign_digest(result) == CAMPAIGN_GOLDEN["resumed"]


# ------------------------------------------------------------------ sharded


SHARDED_GOLDEN = "21b39c4ccd8780392a6fe83a591d95bb5848e939cf01cf4b65d7d55cb3b1e1ab"


def test_sharded_gate_golden():
    X, y, costs = mixed_operator_pool(90, seed=3)
    part = random_partition(90, rng=7, n_initial=12, test_fraction=0.25)
    result = ShardedLearner(
        X, y, costs, part,
        config=ShardingConfig(
            n_shards=4, n_rounds=6, batch_size=2, seed=11, health=IMPOSSIBLE
        ),
        strategy=CostEfficiency(),
        fault_config=ShardFaultConfig(crash_rate=0.15, corrupt_rate=0.1),
    ).run()
    assert result.guardrails.n_rollbacks > 0
    digest = _digest(
        {
            "y": _floats(result.y),
            "rmse": [r["rmse"] for r in result.rounds],
            "availability": result.shard_availability,
        }
    )
    assert digest == SHARDED_GOLDEN

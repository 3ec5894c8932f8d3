"""The checkpoint codec: older checkpoints resume, bad ones are rejected.

The fixtures under ``data/`` were written before every loop shared one
checkpoint codec (:mod:`repro.al.session`):

* ``campaign.json`` / ``campaign-fast.json`` -- an :class:`OnlineCampaign`
  under 20% injected faults, killed after six executions (plain, and with
  ``fast_refits=True, refit_every=2``);
* ``sharded/manifest.json`` -- a fault-injected :class:`ShardedLearner`
  with per-shard ``RandomSampling``, killed in round 3;
* ``multifidelity.json`` -- a :class:`MultiFidelityLearner` killed in
  round 2;
* ``replicates/`` -- a two-replicate sweep whose replicate 0 finished
  (``replicate-0000.result.json``) and whose replicate 1 was killed
  mid-campaign (``replicate-0001.json``).

``DIGESTS`` held the SHA-256 of each *uninterrupted* run's result, taken
with that same older code.  Each test resumes a copy of its fixture with
the current code and compares.  When the LML objective moved to the
closed-form gradient, the fitted hyperparameters moved in their last bits,
and the four digests of fitted runs were re-taken from the resumed results.
For the two campaigns they equal the uninterrupted run at the current code;
for ``sharded`` and ``multifidelity`` the round records written before the
kill keep the older code's last bits, so only those floats differ from a
fresh run.  Every fixture still resumes and replays its selections.

``test_codec_rejects`` then alters the same documents, plus an
:class:`ActiveLearner` checkpoint the test writes itself (no older learner
format exists), by version, each stored config key and truncation, and
checks the error every loop raises.  Regenerate fixtures and digests
together (only for a deliberate format change, and say so in the change
log) with::

    PYTHONPATH=src python tests/al/test_checkpoint_compat.py
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro.al import ActiveLearner, default_model_factory
from repro.al import fidelity, session, sharding
from repro.al.campaign import CampaignConfig, OnlineCampaign
from repro.al.fidelity import FidelityTier, MultiFidelityLearner, MultiFidelityOracle
from repro.al.partition import random_partition
from repro.al.replicates import run_replicates
from repro.al.sharding import ShardedLearner, ShardingConfig, mixed_operator_pool
from repro.al.strategies import RandomSampling, VarianceReduction
from repro.cluster.faults import FaultConfig, FaultyExecutor, ShardFaultConfig
from repro.datasets.generate import ModelExecutor

DATA = Path(__file__).parent / "data"

FAULTS = FaultConfig(crash_rate=0.10, hang_rate=0.05, corrupt_rate=0.05)
GRID = np.array(
    [(s, p, f) for s in (48**3, 96**3, 192**3) for p in (1, 8, 32) for f in (1.2, 2.4)],
    dtype=float,
)

DIGESTS = {
    "campaign.json": "f77c618e93750ac5e51948d7fc8568e69f59e7dd462e08e190b6ab411763ed81",
    "campaign-fast.json": "1ed3b044b5b7a54ea805f8588395ef586b0edfa8fa2d8d5d0f16fd454b3b6ece",
    "sharded": "3cbdbdb0cc78086336e4671eae195b68f78ee10ed6d295b1e858ee59555f3ddf",
    "multifidelity.json": "633fb3d3755a9f69a25d19b30455bd9dfebb7b29ef3976105016529928b0b444",
    "replicates": "40805d4aa49cd19465905ade3b9d35289be56647b4d496982cd7a6297f75db08",
}


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _floats(values) -> list[str]:
    return [repr(float(v)) for v in np.ravel(values)]


class _Killed(RuntimeError):
    pass


class _WriteKill:
    """``write_json_atomic`` that counts its calls and raises at ``kill_at``."""

    def __init__(self, kill_at=None):
        self.kill_at = kill_at
        self.n_writes = 0

    def __call__(self, payload, path):
        self.n_writes += 1
        if self.n_writes == self.kill_at:
            raise _Killed(f"killed at checkpoint write {self.kill_at}")
        return session.write_json_atomic(payload, path)


@contextmanager
def _write_kill(kill_at, *modules):
    """Route ``modules``' checkpoint writes through one :class:`_WriteKill`.

    A loop whose write ``kill_at`` raises has done that round's work but not
    saved it: the state a crash leaves behind.
    """
    kill = _WriteKill(kill_at)
    saved = [module.write_json_atomic for module in modules]
    for module in modules:
        module.write_json_atomic = kill
    try:
        yield kill
    finally:
        for module, write in zip(modules, saved):
            module.write_json_atomic = write


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


# ---------------------------------------------------------------- campaign

CAMPAIGNS = {
    "campaign.json": {},
    "campaign-fast.json": {"fast_refits": True, "refit_every": 2},
}


def _campaign(executor, **kw) -> OnlineCampaign:
    config = CampaignConfig(
        operator="poisson1", candidates=GRID, batch_size=2, n_rounds=5
    )
    return OnlineCampaign(config, executor, rng=7, **kw)


def _campaign_digest(result) -> str:
    feats = np.column_stack(
        [np.log10(GRID[:, 0]), np.log2(GRID[:, 1]), GRID[:, 2]]
    )
    mu, sd = result.model.predict(feats, return_std=True)
    return _digest(
        {
            "X": _floats(result.X),
            "y": _floats(result.y),
            "seconds": _floats([result.simulated_seconds, result.cpu_core_seconds]),
            "rounds": result.rounds,
            "accounting": [
                result.n_failed,
                result.n_retries,
                result.n_quarantined,
                repr(result.wasted_core_seconds),
            ],
            "stop_reason": result.stop_reason,
            "mu": _floats(mu),
            "sd": _floats(sd),
        }
    )


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_checkpoint_resumes_to_parent_digest(tmp_path, name):
    path = shutil.copy(DATA / name, tmp_path / name)
    campaign = _campaign(FaultyExecutor(ModelExecutor(), FAULTS), **CAMPAIGNS[name])
    assert _campaign_digest(campaign.resume(path)) == DIGESTS[name]


# ----------------------------------------------------------------- sharded


def _sharded() -> ShardedLearner:
    X, y, costs = mixed_operator_pool(90, seed=3)
    part = random_partition(90, rng=7, n_initial=12, test_fraction=0.25)
    return ShardedLearner(
        X, y, costs, part,
        config=ShardingConfig(n_shards=4, n_rounds=6, batch_size=2, seed=11),
        strategy=RandomSampling(),
        fault_config=ShardFaultConfig(crash_rate=0.15, corrupt_rate=0.1),
    )


def _sharded_digest(learner, result) -> str:
    mu, sd = result.model.predict(learner.X_test, return_std=True)
    return _digest(
        {
            "X": _floats(result.X),
            "y": _floats(result.y),
            "mu": _floats(mu),
            "sd": _floats(sd),
            "rounds": result.rounds,
            "availability": result.shard_availability,
            "guardrails": result.guardrails.as_dict(),
            "stop_reason": result.stop_reason,
        }
    )


def test_sharded_manifest_resumes_to_parent_digest(tmp_path):
    directory = shutil.copytree(DATA / "sharded", tmp_path / "sharded")
    learner = _sharded()
    result = learner.resume(directory / "manifest.json")
    assert _sharded_digest(learner, result) == DIGESTS["sharded"]


# ---------------------------------------------------------- multi-fidelity

TIERS = (
    FidelityTier("probe", cost_multiplier=0.1, noise_variance=0.0225),
    FidelityTier("full", cost_multiplier=1.0, noise_variance=4e-4),
)
TEST_X = np.random.default_rng(1).uniform(-1, 1, size=(30, 2))


def _ref(x):
    x = np.asarray(x)
    return float(np.sin(3 * x[0]) + 0.5 * x[1])


def _multifidelity() -> MultiFidelityLearner:
    oracle = MultiFidelityOracle(_ref, TIERS, rng=7)
    cands = np.random.default_rng(0).uniform(-1, 1, size=(25, 2))
    test = (TEST_X, np.array([_ref(x) for x in TEST_X]))
    return MultiFidelityLearner(
        oracle, cands, n_rounds=6, n_initial=2, seed=3, test=test
    )


def _multifidelity_digest(result) -> str:
    mu, sd = result.model.predict(TEST_X, return_std=True)
    return _digest(
        {
            "y": _floats(result.y),
            "cost": repr(result.cumulative_cost),
            "rounds": [r.payload() for r in result.rounds],
            "tier_counts": result.tier_counts,
            "rmse": repr(result.final_rmse),
            "mu": _floats(mu),
            "sd": _floats(sd),
        }
    )


def test_multifidelity_checkpoint_resumes_to_parent_digest(tmp_path):
    path = shutil.copy(DATA / "multifidelity.json", tmp_path / "mf.json")
    result = _multifidelity().resume(path)
    assert result.resumed
    assert _multifidelity_digest(result) == DIGESTS["multifidelity.json"]


# -------------------------------------------------------------- replicates


class _SweepFactory:
    """Picklable ``(index, rng) -> OnlineCampaign``; can kill replicate 1."""

    def __init__(self, kill_after=None):
        self.kill_after = kill_after

    def __call__(self, index, rng):
        executor = FaultyExecutor(ModelExecutor(), FaultConfig(crash_rate=0.2))
        if index == 1 and self.kill_after is not None:
            executor = _KillSwitch(executor, self.kill_after)
        config = CampaignConfig(
            operator="poisson1", candidates=GRID, batch_size=2, n_rounds=4
        )
        return OnlineCampaign(config, executor, rng=rng)


def _sweep(checkpoint_dir=None, kill_after=None):
    return run_replicates(
        _SweepFactory(kill_after), 2, seed=5, backend="serial",
        checkpoint_dir=checkpoint_dir,
    )


def _sweep_digest(sweep) -> str:
    return _digest([r.payload() for r in sweep.replicates])


def test_replicate_sweep_resumes_to_parent_digest(tmp_path):
    directory = shutil.copytree(DATA / "replicates", tmp_path / "replicates")
    sweep = _sweep(directory)
    assert [(r.loaded, r.resumed) for r in sweep.replicates] == [
        (True, False),
        (False, True),
    ]
    assert _sweep_digest(sweep) == DIGESTS["replicates"]


# --------------------------------------------------------------- rejections


def _learner() -> ActiveLearner:
    rng = np.random.default_rng(0)
    X = np.sort(rng.uniform(0, 10, size=30))[:, np.newaxis]
    y = 0.4 * X[:, 0] + 0.05 * rng.standard_normal(30)
    return ActiveLearner(
        X, y, np.ones(30), random_partition(30, rng=0), VarianceReduction(),
        model_factory=default_model_factory(1e-2),
    )


#: kind -> (document inside a copy of ``data/``, how its loop opens that copy)
DOCUMENTS = {
    "campaign checkpoint": (
        "campaign.json",
        lambda root: _campaign(ModelExecutor()).resume(root / "campaign.json"),
    ),
    "sharded campaign checkpoint": (
        "sharded/manifest.json",
        lambda root: _sharded().resume(root / "sharded" / "manifest.json"),
    ),
    "multi-fidelity checkpoint": (
        "multifidelity.json",
        lambda root: _multifidelity().resume(root / "multifidelity.json"),
    ),
    "replicate result": (
        "replicates/replicate-0000.result.json",
        lambda root: _sweep(root / "replicates"),
    ),
    "learner checkpoint": (
        "learner.json",
        lambda root: _learner().resume(root / "learner.json"),
    ),
}

# (kind, stored key, altered value); a key of None truncates the file.
# Keys some other test already alters are left out: campaign batch_size,
# sharded n_rounds/dataset_hash, multi-fidelity n_rounds/seed, learner
# strategy/warm_start/fuse_repeats/repeat_noise_variance and the replicate
# result version.
REJECTIONS = [
    ("campaign checkpoint", "version", 99),
    ("campaign checkpoint", "operator", "poisson2"),
    ("campaign checkpoint", "n_rounds", 99),
    ("campaign checkpoint", "time_limit_seconds", 60.0),
    ("campaign checkpoint", "candidates", GRID[:-1].tolist()),
    ("sharded campaign checkpoint", "version", 99),
    ("sharded campaign checkpoint", "kind", "campaign"),
    ("sharded campaign checkpoint", "n_shards", 3),
    ("sharded campaign checkpoint", "batch_size", 5),
    ("sharded campaign checkpoint", "seed", 12),
    ("multi-fidelity checkpoint", "version", 99),
    ("multi-fidelity checkpoint", "tiers", [TIERS[1].to_dict()]),
    ("multi-fidelity checkpoint", "n_initial", 3),
    ("learner checkpoint", "version", 99),
    ("learner checkpoint", "dataset_hash", "0" * 64),
    ("learner checkpoint", "fast_refits", True),
    ("learner checkpoint", "refit_every", 2),
] + [(kind, None, None) for kind in DOCUMENTS]


@pytest.mark.parametrize(
    "kind, key, value",
    REJECTIONS,
    ids=[f"{kind}-{key or 'truncated'}" for kind, key, _ in REJECTIONS],
)
def test_codec_rejects(tmp_path, kind, key, value):
    root = shutil.copytree(DATA, tmp_path / "data")
    _learner().run(2, checkpoint_path=root / "learner.json")
    document, open_loop = DOCUMENTS[kind]
    path = root / document
    text = path.read_text()
    if key is None:
        path.write_text(text[: len(text) // 2])
        expected = rf"not a valid {re.escape(kind)} file"
    else:
        payload = json.loads(text)
        payload[key] = value
        path.write_text(json.dumps(payload))
        expected = "version" if key == "version" else f"{key} mismatch"
    with pytest.raises(ValueError, match=expected):
        open_loop(root)


# -------------------------------------------------------------- regenerate


def _write_fixtures(data: Path) -> dict:
    """Write every fixture into ``data``; return the uninterrupted digests."""
    shutil.rmtree(data, ignore_errors=True)
    data.mkdir(parents=True)
    digests = {}
    for name, kw in CAMPAIGNS.items():
        reference = _campaign(FaultyExecutor(ModelExecutor(), FAULTS), **kw).run()
        digests[name] = _campaign_digest(reference)
        killer = _KillSwitch(FaultyExecutor(ModelExecutor(), FAULTS), 6)
        try:
            _campaign(killer, **kw).run(checkpoint_path=data / name)
        except _Killed:
            pass

    learner = _sharded()
    digests["sharded"] = _sharded_digest(learner, learner.run())
    # Killed in round 3: the fourth write would have saved it.
    with _write_kill(4, sharding):
        try:
            _sharded().run(checkpoint_path=data / "sharded" / "manifest.json")
        except _Killed:
            pass

    digests["multifidelity.json"] = _multifidelity_digest(_multifidelity().run())
    # Writes 1-3 save the initial design and rounds 0-1.
    with _write_kill(4, fidelity):
        try:
            _multifidelity().run(checkpoint_path=data / "multifidelity.json")
        except _Killed:
            pass

    digests["replicates"] = _sweep_digest(_sweep())
    try:
        _sweep(data / "replicates", kill_after=5)
    except _Killed:
        pass
    return digests


if __name__ == "__main__":
    print(json.dumps(_write_fixtures(DATA), indent=4))

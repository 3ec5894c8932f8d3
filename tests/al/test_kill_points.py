"""Kill-point sweep: every loop resumes bit-identically from every kill point.

Every loop saves its state with one ``write_json_atomic`` call per round,
and that write is where each case crashes: the case first runs
uninterrupted and counts its checkpoint writes; then, for every k from 1 to
that count, a run whose write k raises (the round's work is done but not
saved, which is what a SIGKILL leaves) is followed by a fresh loop through
:func:`repro.al.session.run_or_resume`, whose result digest must equal the
uninterrupted one.  The cases cover all five checkpoint documents: the
learner and campaign checkpoints, the sharded manifest, the multi-fidelity
checkpoint and the replicate result file.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.al import (
    EMCM,
    ActiveLearner,
    VarianceReduction,
    campaign,
    default_model_factory,
    fidelity,
    learner,
    random_partition,
    replicates,
    sharding,
)
from repro.al.guardrails import GuardrailConfig, HealthConfig
from repro.al.session import run_or_resume
from repro.cluster.faults import FaultyExecutor, ShardFaultConfig
from repro.datasets.generate import ModelExecutor

from .test_checkpoint_compat import (
    FAULTS,
    _campaign,
    _campaign_digest,
    _digest,
    _floats,
    _Killed,
    _multifidelity,
    _multifidelity_digest,
    _sharded_digest,
    _sweep,
    _sweep_digest,
    _write_kill,
)
from .test_sharded_resume import FAULTS as SHARD_FAULTS
from .test_sharded_resume import _learner as _sharded

#: No kernel matrix with two distinct rows has a condition number this close
#: to 1, so the gate rolls back, escalates and force-accepts all through.
_IMPOSSIBLE = HealthConfig(max_condition_number=1.0 + 1e-9)
_GUARDED = GuardrailConfig(health=_IMPOSSIBLE, max_rollbacks=2)


# ------------------------------------------------------------------- loops


def _learner(make_strategy, *, repeats=False, **options):
    """``test_session.py``'s problem at 30 rows, with a 10-row pool."""
    rng = np.random.default_rng(0)
    n = 30
    if repeats:
        X = np.repeat(np.sort(rng.uniform(0, 10, size=n // 3)), 3)[:, np.newaxis]
    else:
        X = np.sort(rng.uniform(0, 10, size=n))[:, np.newaxis]
    y = 0.4 * X[:, 0] + 0.05 * rng.standard_normal(n)
    costs = np.abs(y) + 1.0 + rng.uniform(0, 1, size=n)
    part = random_partition(n, rng=0, test_fraction=0.65)

    def go(path):
        loop = ActiveLearner(
            X, y, costs, part, make_strategy(),
            model_factory=default_model_factory(1e-2),
            fuse_repeats=repeats,
            **options,
        )
        trace, _ = run_or_resume(loop, path)
        mu, sd = loop.model.predict(X[part.test], return_std=True)
        return _digest(
            {
                "records": [r.payload() for r in trace.records],
                "mu": _floats(mu),
                "sd": _floats(sd),
                "n_rollbacks": loop.n_rollbacks,
            }
        )

    return go


def _campaign_case(**options):
    def go(path):
        loop = _campaign(FaultyExecutor(ModelExecutor(), FAULTS), **options)
        result, _ = run_or_resume(loop, path)
        tallies = result.guardrails.as_dict() if result.guardrails else None
        return _digest([_campaign_digest(result), tallies])

    return go


def _sharded_case(path):
    loop = _sharded(ShardFaultConfig(**SHARD_FAULTS))
    result, _ = run_or_resume(loop, path)
    return _sharded_digest(loop, result)


def _multifidelity_case(path):
    result, _ = run_or_resume(_multifidelity(), path)
    return _multifidelity_digest(result)


def _sweep_case(path):
    # ``path`` names the sweep's directory; each replicate goes through
    # run_or_resume inside run_replicates.
    return _sweep_digest(_sweep(path))


#: id -> (modules whose checkpoint writes are killed, ``go(path) -> digest``)
CASES = {
    "learner-slow-guarded": (
        [learner], _learner(VarianceReduction, guardrails=_GUARDED)
    ),
    "learner-fast-guarded": (
        [learner],
        _learner(
            VarianceReduction, guardrails=_GUARDED, fast_refits=True, refit_every=3
        ),
    ),
    "learner-emcm-fast": (
        [learner],
        _learner(lambda: EMCM(fast=True), fast_refits=True, refit_every=3),
    ),
    "learner-fuse-repeats": ([learner], _learner(VarianceReduction, repeats=True)),
    "campaign-slow-guarded": (
        [campaign],
        _campaign_case(
            guardrails=GuardrailConfig(
                health=_IMPOSSIBLE, check_drift=False, max_rollbacks=2
            )
        ),
    ),
    "campaign-fast-refits": (
        [campaign], _campaign_case(fast_refits=True, refit_every=2)
    ),
    "sharded-faulted": ([sharding], _sharded_case),
    "multifidelity": ([fidelity], _multifidelity_case),
    "replicates": ([campaign, replicates], _sweep_case),
}


@pytest.mark.parametrize("case", list(CASES))
def test_resume_is_bit_identical_at_every_checkpoint_write(tmp_path, case):
    modules, go = CASES[case]
    with _write_kill(None, *modules) as counter:
        want = go(tmp_path / "straight" / "checkpoint")
    assert counter.n_writes >= 3, counter.n_writes

    for k in range(1, counter.n_writes + 1):
        path = tmp_path / f"kill-{k}" / "checkpoint"
        with _write_kill(k, *modules), pytest.raises(_Killed):
            go(path)
        assert go(path) == want, f"resume after a kill at write {k} diverged"

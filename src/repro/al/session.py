"""Checkpoint/resume: one codec for every AL loop, plus learner snapshots.

The paper's target use case is *online* operation: "every iteration of AL
includes selecting an experiment, running it, and using the experiment
outcome to update the underlying GPR model."  Real campaigns run for hours
or days across scheduler outages and operator handoffs, so the campaign
state must survive the Python process.  Every loop's checkpoint goes
through one codec here: :func:`check_checkpoint` (version, then config),
:func:`capture_generators` / :func:`restore_generators` (RNG states) and
:func:`run_or_resume`.  :class:`ALSessionState` captures everything an
:class:`~repro.al.learner.ActiveLearner` needs to continue — training
data, remaining pool, test set, cumulative cost, per-iteration history —
as a single JSON document.

Example
-------
>>> state = snapshot(learner)
>>> save_session(state, "campaign.json")
...  # process restarts ...
>>> learner = restore(load_session("campaign.json"), VarianceReduction())
>>> learner.step()
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .learner import ActiveLearner, ALTrace, IterationRecord, default_model_factory
from .partition import Partition
from .pool import CandidatePool
from .strategies import Strategy

__all__ = [
    "ALSessionState",
    "snapshot",
    "restore",
    "save_session",
    "load_session",
    "write_json_atomic",
    "read_json_checked",
    "read_checkpoint",
    "check_checkpoint",
    "capture_generators",
    "restore_generators",
    "run_or_resume",
]

_FORMAT_VERSION = 1


@dataclass
class ALSessionState:
    """Serializable snapshot of an in-progress AL campaign."""

    version: int
    strategy: str
    X_train: list
    y_train: list
    pool_X: list
    pool_y: list
    pool_costs: list
    pool_available: list  # bool per pool record
    X_active_full: list
    X_test: list
    y_test: list
    cumulative_cost: float
    records: list  # serialized IterationRecord dicts


def snapshot(learner: ActiveLearner) -> ALSessionState:
    """Capture a learner's full state."""
    pool = learner.pool
    records = []
    for r in learner.trace.records:
        d = asdict(r)
        d["x_selected"] = np.asarray(r.x_selected).tolist()
        records.append(d)
    return ALSessionState(
        version=_FORMAT_VERSION,
        strategy=learner.strategy.name,
        X_train=learner._X_train.tolist(),
        y_train=learner._y_train.tolist(),
        pool_X=pool.X.tolist(),
        pool_y=pool.y.tolist(),
        pool_costs=pool.costs.tolist(),
        pool_available=pool._available.tolist(),
        X_active_full=learner._X_active_full.tolist(),
        X_test=learner._X_test.tolist(),
        y_test=learner._y_test.tolist(),
        cumulative_cost=learner.cumulative_cost,
        records=records,
    )


def restore(
    state: ALSessionState,
    strategy: Strategy,
    *,
    model_factory: Callable | None = None,
    noise_floor_schedule: Callable[[int], float] | None = None,
) -> ActiveLearner:
    """Rebuild a learner from a snapshot.

    The strategy object is supplied by the caller (strategies may hold
    unserializable state such as RNGs); its name must match the snapshot.
    """
    expect = {"strategy": strategy.name}
    check_checkpoint(vars(state), "session snapshot", _FORMAT_VERSION, expect=expect)
    X_train = np.asarray(state.X_train, dtype=float)
    pool_X = np.asarray(state.pool_X, dtype=float)
    X_test = np.asarray(state.X_test, dtype=float).reshape(-1, X_train.shape[1])
    y_test = np.asarray(state.y_test, dtype=float)
    # Build via a synthetic partition over the *concatenated* arrays so the
    # constructor's validation applies, then overwrite the internals with
    # the snapshot's exact state.  Partition forbids an empty test set, so
    # when the snapshot has none (online campaigns measure everything) the
    # training row stands in and the true empty arrays are installed below.
    if X_test.shape[0]:
        test_X_rows, test_y_rows = X_test, y_test
    else:
        test_X_rows = X_train[:1]
        test_y_rows = np.asarray(state.y_train[:1], dtype=float)
    X_all = np.vstack([X_train[:1], pool_X, test_X_rows])
    y_all = np.concatenate(
        [
            np.asarray(state.y_train[:1], dtype=float),
            np.asarray(state.pool_y, dtype=float),
            test_y_rows,
        ]
    )
    costs_all = np.concatenate(
        [
            np.zeros(1),
            np.asarray(state.pool_costs, dtype=float),
            np.zeros(len(test_y_rows)),
        ]
    )
    n_pool = pool_X.shape[0]
    part = Partition(
        initial=np.array([0]),
        active=np.arange(1, 1 + n_pool),
        test=np.arange(1 + n_pool, 1 + n_pool + len(test_y_rows)),
    )
    learner = ActiveLearner(
        X_all,
        y_all,
        costs_all,
        part,
        strategy,
        model_factory=model_factory or default_model_factory(),
        noise_floor_schedule=noise_floor_schedule,
    )
    # Install the exact snapshot state.
    learner._X_train = X_train
    learner._y_train = np.asarray(state.y_train, dtype=float)
    learner.pool = CandidatePool(
        pool_X,
        np.asarray(state.pool_y, dtype=float),
        np.asarray(state.pool_costs, dtype=float),
    )
    learner.pool._available = np.asarray(state.pool_available, dtype=bool)
    learner._X_active_full = np.asarray(state.X_active_full, dtype=float)
    learner._X_test = X_test
    learner._y_test = y_test
    learner._cumulative_cost = float(state.cumulative_cost)
    records = []
    for d in state.records:
        d = dict(d)
        d["x_selected"] = np.asarray(d["x_selected"], dtype=float)
        records.append(IterationRecord(**d))
    learner.trace = ALTrace(strategy=state.strategy, records=records)
    return learner


def write_json_atomic(payload: dict, path) -> Path:
    """Atomically write ``payload`` as JSON to ``path``.

    The document lands in a temporary file in the target directory, is
    flushed and fsynced, and is moved into place with
    :func:`os.replace` (atomic within one filesystem), so a crash mid-write
    can never leave a truncated file behind — at worst the previous
    complete version survives.  Without the fsync the rename could be
    durable before the data blocks, and a *power loss* (not just a process
    crash) could surface a zero-length file; the directory itself is also
    fsynced best-effort so the rename is durable too.  Shared by session
    snapshots, campaign checkpoints, and the model registry
    (:mod:`repro.serve`).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(payload))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    try:
        # Durable rename: fsync the directory entry (not supported on every
        # platform/filesystem, hence best-effort).
        dir_fd = os.open(path.parent, os.O_RDONLY)
    except OSError:
        pass
    else:
        try:
            os.fsync(dir_fd)
        except OSError:
            pass
        finally:
            os.close(dir_fd)
    return path


def read_json_checked(path, *, kind: str = "session") -> dict:
    """Read a JSON document, raising a descriptive error on corruption."""
    text = Path(path).read_text()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path} is not a valid {kind} file: truncated or corrupt JSON "
            f"({exc.msg} at line {exc.lineno} column {exc.colno})"
        ) from exc
    if not isinstance(payload, dict) or "version" not in payload:
        raise ValueError(f"{path} is not an AL {kind} file")
    return payload


def read_checkpoint(path, kind: str, version: int, *, expect=None) -> dict:
    """Read a checkpoint document and :func:`check_checkpoint` it."""
    payload = read_json_checked(path, kind=kind)
    return check_checkpoint(payload, kind, version, path=path, expect=expect)


def check_checkpoint(
    payload: dict, kind: str, version: int, *, path=None, expect=None
) -> dict:
    """Check a document's ``version``, then each stored config value.

    ``expect`` maps stored keys to the live run's values, compared exactly
    (floats round-trip exactly through JSON); one ``ValueError`` names
    every mismatching key.
    """
    where = kind if path is None else f"{kind} {path}"
    if payload.get("version") != version:
        raise ValueError(
            f"{where} has unsupported version {payload.get('version')!r} "
            f"(expected {version})"
        )
    bad = [key for key, live in (expect or {}).items() if payload.get(key) != live]
    if bad:
        raise ValueError(
            f"{where} does not match this run "
            f"({', '.join(f'{key} mismatch' for key in bad)})"
        )
    return payload


def capture_generators(generators: dict) -> dict:
    """States of named Generators (nested dicts recurse; non-Generators -> None)."""
    states = {}
    for name, gen in generators.items():
        if isinstance(gen, dict):
            states[name] = capture_generators(gen)
        elif isinstance(gen, np.random.Generator):
            states[name] = gen.bit_generator.state
        else:
            states[name] = None
    return states


def restore_generators(generators: dict, states: dict | None) -> None:
    """Install captured states; a missing or None entry leaves its generator as is."""
    for name, gen in generators.items():
        state = (states or {}).get(name)
        if isinstance(gen, dict):
            restore_generators(gen, state)
        elif isinstance(gen, np.random.Generator) and state is not None:
            gen.bit_generator.state = state


def run_or_resume(loop, checkpoint, *, marker: str | None = None):
    """Resume ``loop`` from ``checkpoint`` if one exists, else run it.

    ``checkpoint`` is a file, or a directory holding ``marker`` (the sharded
    ``manifest.json``); ``None`` runs without checkpointing.  Returns
    ``(result, resumed)``.
    """
    if checkpoint is not None and Path(checkpoint, marker or "").exists():
        return loop.resume(checkpoint), True
    key = "checkpoint_dir" if marker else "checkpoint_path"
    return loop.run(**{key: checkpoint}), False


def save_session(state: ALSessionState, path) -> Path:
    """Atomically write a snapshot to a JSON file; returns the path."""
    return write_json_atomic(asdict(state), path)


def load_session(path) -> ALSessionState:
    """Read a snapshot previously written by :func:`save_session`."""
    return ALSessionState(**read_json_checked(path, kind="session"))

"""Checkpoint/resume: one codec and one protocol for every AL loop.

The paper's target use case is *online* operation: "every iteration of AL
includes selecting an experiment, running it, and using the experiment
outcome to update the underlying GPR model."  Real campaigns run for hours
or days across scheduler outages and operator handoffs, so the campaign
state must survive the Python process.  Every loop's checkpoint goes
through one codec here: :func:`write_json_atomic`, :func:`check_checkpoint`
(version, then config), :func:`capture_generators` /
:func:`restore_generators` (RNG states), :func:`dataset_digest` and
:func:`run_or_resume`.

Every loop (``ActiveLearner``, ``OnlineCampaign``, ``ShardedLearner``,
``MultiFidelityLearner``) speaks one protocol: ``run(...,
checkpoint_path=None)`` rewrites one checkpoint file after each round, and
``resume(path)`` on a freshly built loop continues from it, replaying the
recorded fits, bit-identically to an uninterrupted run.  The checkpoint
write is the one crash point: a loop killed anywhere loses at most the
work since its last completed write.

Example
-------
>>> learner = ActiveLearner(X, y, costs, partition, VarianceReduction())
>>> trace, resumed = run_or_resume(learner, "learner.json")

Killed mid-run, the same two lines in a new process find ``learner.json``,
resume (``resumed`` is True) and finish bit-identically.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np

__all__ = [
    "write_json_atomic",
    "read_json_checked",
    "read_checkpoint",
    "check_checkpoint",
    "capture_generators",
    "restore_generators",
    "dataset_digest",
    "run_or_resume",
]


def write_json_atomic(payload: dict, path) -> Path:
    """Atomically write ``payload`` as JSON to ``path``.

    The document lands in a temporary file in the target directory, is
    flushed and fsynced, and is moved into place with
    :func:`os.replace` (atomic within one filesystem), so a crash mid-write
    can never leave a truncated file behind — at worst the previous
    complete version survives.  Without the fsync the rename could be
    durable before the data blocks, and a *power loss* (not just a process
    crash) could surface a zero-length file; the directory itself is also
    fsynced best-effort so the rename is durable too.  Shared by every
    loop's checkpoint and the model registry (:mod:`repro.serve`).
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


def read_json_checked(path, *, kind: str = "checkpoint") -> dict:
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


def dataset_digest(*arrays) -> str:
    """SHA-256 over the exact bytes of ``arrays``, in order.

    A loop stores it as ``dataset_hash`` so a resume over other data is
    rejected.
    """
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def run_or_resume(loop, checkpoint):
    """Resume ``loop`` from the file ``checkpoint`` if it exists, else run it.

    ``None`` runs without checkpointing.  Returns ``(result, resumed)``.
    """
    if checkpoint is not None and Path(checkpoint).exists():
        return loop.resume(checkpoint), True
    return loop.run(checkpoint_path=checkpoint), False

"""Relation and memory tests of the blocked exact and Nystrom predictive passes.

``predict`` builds the ``(q, n)`` cross-covariance (``(q, m)`` for the
Nystrom backend) in blocks of ``_PREDICT_ROWS`` query rows, so its
transient memory no longer grows with the number of queries.  The blocks
must not change a bit.  These tests compare ``predict`` against the
one-shot pass it replaced (written out below) over query counts around the
block edges, training sizes 1 to 120, dimensions 1 to 4, ARD and isotropic
length scales, heteroscedastic ``alpha`` and ``normalize_y``, and the
Nystrom pass against its one-shot pass on a few fits:

* the SD is bitwise the one-shot SD under any BLAS threading;
* the mean is bitwise the one-shot mean when the pass is one block, and
  for every block count under single-threaded BLAS.  With several BLAS
  threads a matrix-vector product over a block may differ in its last bit
  from the product over all rows, as the one-shot product already differs
  between thread counts; that case runs in a subprocess pinned to one
  BLAS thread.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.spatial.distance import cdist

import repro
from repro.gp import SquaredExponential, gpr
from repro.gp.gpr import GaussianProcessRegressor
from repro.gp.solvers import _PREDICT_ROWS, _predict_nystrom, row_blocks

#: Query counts around the block edges (3 * 2048 + 3 leaves a 3-row tail).
QUERY_ROWS = (1, 2, 2047, 2048, 2049, 4097, 3 * _PREDICT_ROWS + 3)
TRAIN_ROWS = (1, 10, 60, 120)


def _one_shot(kernel, X, L, weights, Xq, want=None):
    """The exact predictive pass before blocking: the whole ``(q, n)`` at once."""
    ls = np.atleast_1d(kernel.length_scale)
    K_star = kernel.signal_variance * np.exp(
        -0.5 * cdist(Xq / ls, X / ls, metric="sqeuclidean")
    )
    mean = K_star @ weights
    if want is None:
        return mean, None
    v = solve_triangular(L, K_star.T, lower=True, check_finite=False)
    return mean, kernel.diag(Xq) - np.sum(v**2, axis=0)


def _one_shot_nystrom(arrays, kernel, Xq, want):
    """The Nystrom predictive pass before blocking: the whole ``(q, m)`` at once."""
    K_sm = kernel(Xq, arrays["Z"])
    mean = K_sm @ arrays["w"]
    v1 = solve_triangular(arrays["Lm"], K_sm.T, lower=True, check_finite=False)
    v2 = solve_triangular(arrays["Lc"], K_sm.T, lower=True, check_finite=False)
    if want == "cov":
        return mean, kernel(Xq) - v1.T @ v1 + v2.T @ v2
    return mean, kernel.diag(Xq) - np.sum(v1**2, axis=0) + np.sum(v2**2, axis=0)


def _cases():
    """``(n, d, ard, hetero, normalize_y)``: every axis takes each of its values."""
    cases = []
    for i, n in enumerate(TRAIN_ROWS):
        for d in range(1, 5):
            k = 4 * i + d
            cases.append((n, d, d > 1 and k % 2 == 0, k % 3 == 0, k % 4 < 2))
    return cases


def _fitted(n, d, ard, hetero, normalize_y) -> GaussianProcessRegressor:
    rng = np.random.default_rng(100 * n + d)
    X = rng.uniform(0.0, 3.0, size=(n, d))
    y = np.sin(X).sum(axis=1) + 0.1 * rng.standard_normal(n)
    alpha = 0.01 + 0.05 * rng.random(n) if hetero else None
    model = GaussianProcessRegressor(
        SquaredExponential(1.0, np.ones(d) if ard else 1.0),
        noise_variance_bounds=(1e-6, 1e3),
        normalize_y=normalize_y,
        n_restarts=0,
        rng=0,
    )
    return model.fit(X, y, alpha=alpha)


def _queries(model, q: int) -> np.ndarray:
    X = model.X_train_
    rng = np.random.default_rng(q)
    Xq = rng.uniform(-0.5, 3.5, size=(q, X.shape[1]))
    Xq[: min(q, len(X))] = X[: min(q, len(Xq))]  # queries on measured points
    return Xq


def _mismatches() -> list:
    """``(case, q, part)`` of every output where ``predict`` is not the one-shot pass.

    ``part`` is ``"sd"``, ``"mean"`` (of ``return_std=True``) or
    ``"mean_only"`` (of the mean-only pass).
    """
    found = []
    for case in _cases():
        model = _fitted(*case)
        for q in QUERY_ROWS:
            Xq = _queries(model, q)
            blocked = model.predict(Xq, return_std=True), model.predict(Xq)
            saved = gpr.predict_exact
            gpr.predict_exact = _one_shot
            try:
                one_shot = model.predict(Xq, return_std=True), model.predict(Xq)
            finally:
                gpr.predict_exact = saved
            (mean, sd), mean_only = blocked
            (mean_ref, sd_ref), mean_only_ref = one_shot
            for part, got, want in (
                ("sd", sd, sd_ref),
                ("mean", mean, mean_ref),
                ("mean_only", mean_only, mean_only_ref),
            ):
                if not np.array_equal(got, want):
                    found.append((case, q, part))
    return found


def _nystrom_fitted(n, d, ard) -> GaussianProcessRegressor:
    rng = np.random.default_rng(7 * n + d)
    X = rng.uniform(0.0, 3.0, size=(n, d))
    model = GaussianProcessRegressor(
        SquaredExponential(1.0, np.ones(d) if ard else 1.0),
        n_restarts=0,
        rng=0,
        solver={"name": "nystrom", "n_inducing": 40, "opt_subset": 100},
    )
    return model.fit(X, np.sin(X).sum(axis=1) + 0.1 * rng.standard_normal(n))


def _nystrom_mismatches() -> list:
    """``(case, q, part)`` of every output where the Nystrom pass is not the one-shot pass."""
    found = []
    for case in ((300, 1, False), (150, 2, True), (500, 3, False)):
        model = _nystrom_fitted(*case)
        arrays, kernel = model._afit.arrays, model.kernel_
        for q in QUERY_ROWS:
            Xq = _queries(model, q)
            mean_ref, var_ref = _one_shot_nystrom(arrays, kernel, Xq, "var")
            mean, var = _predict_nystrom(arrays, kernel, None, None, Xq, "var")
            mean_only, none = _predict_nystrom(arrays, kernel, None, None, Xq, None)
            assert none is None
            for part, got, want in (
                ("sd", var, var_ref),
                ("mean", mean, mean_ref),
                ("mean_only", mean_only, mean_ref),
            ):
                if not np.array_equal(got, want):
                    found.append((case, q, part))
    return found


def _on_one_blas_thread(function: str) -> str:
    """What this module's ``function()`` prints in a subprocess on one BLAS thread."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import importlib.util\n"
        f"spec = importlib.util.spec_from_file_location('chunked', {__file__!r})\n"
        "module = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(module)\n"
        f"print(module.{function}())\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=600
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_row_blocks_cover_the_queries_and_never_end_in_one_row():
    for q in range(1, 3 * _PREDICT_ROWS + 5):
        blocks = list(row_blocks(q))
        assert blocks[0][0] == 0 and blocks[-1][1] == q
        assert all(b0[1] == b1[0] for b0, b1 in zip(blocks, blocks[1:]))
        assert all(b - a <= _PREDICT_ROWS + 1 for a, b in blocks)
        if q > 1:
            assert all(b - a >= 2 for a, b in blocks), q


def test_blocked_predict_matches_the_one_shot_pass():
    """SD bitwise always; the mean bitwise whenever the pass is one block."""
    found = _mismatches()
    assert [m for m in found if m[2] == "sd"] == []
    single_block = [m for m in found if len(list(row_blocks(m[1]))) == 1]
    assert single_block == []


def test_blocked_predict_matches_the_one_shot_pass_on_one_blas_thread():
    """Under single-threaded BLAS every part is bitwise, at every block count."""
    assert _on_one_blas_thread("_mismatches") == "[]"


def test_blocked_nystrom_predict_matches_the_one_shot_pass():
    """SD bitwise under any BLAS threading; the mean too whenever the pass is one block."""
    found = _nystrom_mismatches()
    assert [m for m in found if m[2] == "sd"] == []
    assert [m for m in found if len(list(row_blocks(m[1]))) == 1] == []


def test_blocked_nystrom_predict_matches_the_one_shot_pass_on_one_blas_thread():
    assert _on_one_blas_thread("_nystrom_mismatches") == "[]"


def test_nystrom_covariance_is_the_one_shot_pass():
    model = _nystrom_fitted(300, 2, True)
    arrays, kernel = model._afit.arrays, model.kernel_
    Xq = _queries(model, 50)
    got = _predict_nystrom(arrays, kernel, None, None, Xq, "cov")
    want = _one_shot_nystrom(arrays, kernel, Xq, "cov")
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_predict_memory_does_not_grow_with_the_queries():
    """Traced peak of a 50,000-row SD pass at n = 60: ~70 MB one-shot, ~4 MB blocked."""
    rng = np.random.default_rng(0)
    X = rng.uniform(0.0, 3.0, size=(60, 3))
    model = GaussianProcessRegressor(n_restarts=0, rng=0).fit(X, np.sin(X).sum(axis=1))
    Xq = rng.uniform(0.0, 3.0, size=(50_000, 3))
    model.predict(Xq[:10], return_std=True)  # warm caches outside the trace
    tracemalloc.start()
    try:
        model.predict(Xq, return_std=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6, f"traced peak {peak / 1e6:.1f} MB"


def test_nystrom_predict_memory_does_not_grow_with_the_queries():
    """Traced peak of a 50,000-row SD pass, m = 256 of 3,000 rows: ~411 MB one-shot."""
    rng = np.random.default_rng(0)
    X = rng.uniform(0.0, 3.0, size=(3000, 3))
    model = GaussianProcessRegressor(n_restarts=0, rng=0, solver="nystrom")
    model.fit(X, np.sin(X).sum(axis=1))
    Xq = rng.uniform(0.0, 3.0, size=(50_000, 3))
    model.predict(Xq[:10], return_std=True)  # warm caches outside the trace
    tracemalloc.start()
    try:
        model.predict(Xq, return_std=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40e6, f"traced peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("ard", [False, True])
def test_cross_covariance_is_the_out_of_place_formula(ard):
    """``kernel(X, Y)``, built in place, equals ``sigma_f^2 * exp(-0.5 * sq)`` bitwise."""
    rng = np.random.default_rng(5)
    X, Y = rng.uniform(0, 3, size=(37, 3)), rng.uniform(0, 3, size=(11, 3))
    kernel = SquaredExponential(1.7, np.array([0.4, 1.3, 2.2]) if ard else 0.8)
    ls = np.atleast_1d(kernel.length_scale)
    expected = 1.7 * np.exp(-0.5 * cdist(X / ls, Y / ls, metric="sqeuclidean"))
    assert np.array_equal(kernel(X, Y), expected)

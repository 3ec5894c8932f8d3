"""Solver-backend crossover: fit/predict time and accuracy per backend.

Produces the measurements behind ``repro.gp.solvers.AUTO_EXACT_MAX`` — the
training-set size where ``solver="auto"`` stops using the exact O(n^3)
solver and switches to Nystrom.  For each pool size the sweep fits both
backends on the same synthetic data and reports fit seconds, predict
seconds, RMSE against the noise-free ground truth, and the recorded
exact-vs-approximate error budget.

Two entry points:

* ``pytest benchmarks/bench_solver_crossover.py --benchmark-only`` — the
  reduced sweep used alongside the other benches.
* ``python benchmarks/bench_solver_crossover.py [--quick]`` — standalone,
  no pytest plugins needed; ``--quick`` is the CI smoke configuration.
"""

import argparse
import sys
import time

import numpy as np

from repro.gp import AUTO_EXACT_MAX, GaussianProcessRegressor

BACKENDS = ("exact", "nystrom")

# (sizes, largest n the exact solver is asked to fit)
FULL_SIZES = (200, 500, 1000, 2000, 4000)
FULL_EXACT_MAX = 2000
QUICK_SIZES = (150, 300, 600)
QUICK_EXACT_MAX = 600


def _banner(title):
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def _data(n, d=2, seed=0, noise=0.1):
    """Synthetic pool: smooth 2-D surface (the paper's configuration-space
    dimensionality) + homoscedastic noise."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 10.0, size=(n, d))
    f = np.sin(X[:, 0]) + 0.5 * np.cos(0.7 * X[:, 1])
    y = f + noise * rng.standard_normal(n)
    return X, y, f


def _model(backend, n_restarts):
    # The paper's robust settings (noise floor) — without a floor the fit
    # absorbs noise into tiny length scales, whose huge effective rank no
    # fixed-size approximation can track.
    return GaussianProcessRegressor(
        noise_variance=1e-2, noise_variance_bounds=(1e-2, 1e2),
        rng=0, n_restarts=n_restarts, solver=backend,
    )


def sweep(sizes, exact_max, n_test=512, n_restarts=0):
    """Fit every backend at every size; return printable result rows."""
    rows = []
    Xq, _, fq = _data(n_test, seed=10_001)
    # Untimed warm-up: the first fit also pays one-time imports
    # (scipy.optimize), which would inflate the first timed row.
    X, y, _ = _data(50, seed=50)
    for backend in BACKENDS:
        _model(backend, n_restarts).fit(X, y)
    for n in sizes:
        X, y, _ = _data(n, seed=n)
        for backend in BACKENDS:
            if backend == "exact" and n > exact_max:
                continue
            model = _model(backend, n_restarts)
            t0 = time.perf_counter()
            model.fit(X, y)
            fit_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            mean, sd = model.predict(Xq, return_std=True)
            pred_s = time.perf_counter() - t0
            rmse = float(np.sqrt(np.mean((mean - fq) ** 2)))
            budget = (model.solver_info or {}).get("error_budget") or {}
            rows.append(
                {
                    "n": n,
                    "backend": backend,
                    "fit_s": fit_s,
                    "pred_s": pred_s,
                    "rmse": rmse,
                    "max_mean_err": budget.get("max_mean_err"),
                    "within_budget": budget.get("within_budget"),
                }
            )
    return rows


def crossover_n(rows):
    """Largest measured n where the exact fit stays within 25% of the
    fastest approximate build (exactness breaks near-ties)."""
    best = None
    for n in sorted({r["n"] for r in rows}):
        at_n = {r["backend"]: r["fit_s"] for r in rows if r["n"] == n}
        if "exact" not in at_n:
            break
        if at_n["exact"] <= 1.25 * min(
            v for k, v in at_n.items() if k != "exact"
        ):
            best = n
    return best


def print_rows(rows):
    print(
        f"{'n':>6} {'backend':>8} {'fit s':>9} {'pred s':>8} "
        f"{'rmse':>8} {'budget max_mean_err':>20}"
    )
    for r in rows:
        err = r["max_mean_err"]
        err_s = "(unchecked)" if err is None else f"{err:.4f}"
        if r["within_budget"] is False:
            err_s += " BLOWN"
        print(
            f"{r['n']:>6} {r['backend']:>8} {r['fit_s']:>9.3f} "
            f"{r['pred_s']:>8.4f} {r['rmse']:>8.4f} {err_s:>20}"
        )
    cross = crossover_n(rows)
    print()
    print(f"measured exact-within-25%-of-fastest up to n = {cross}")
    print(
        f"shipping auto-mode threshold AUTO_EXACT_MAX = {AUTO_EXACT_MAX} "
        "(exact tolerated past the strict time crossover for its "
        "approximation-free posterior; see repro/gp/solvers.py)"
    )


def _check(rows):
    """Sanity assertions shared by pytest and the standalone smoke run."""
    assert rows, "sweep produced no measurements"
    for r in rows:
        assert np.isfinite(r["fit_s"]) and np.isfinite(r["rmse"]), r
    # Every checked approximate fit must respect its declared budget.
    blown = [r for r in rows if r["within_budget"] is False]
    assert not blown, f"error budget exceeded: {blown}"
    # Approximate accuracy stays comparable to exact at the largest
    # common size (2x headroom: a stochastic approximation).
    biggest = max(r["n"] for r in rows if r["backend"] == "exact")
    at_n = {r["backend"]: r["rmse"] for r in rows if r["n"] == biggest}
    assert at_n["nystrom"] <= 2.0 * at_n["exact"] + 0.05, at_n


def test_solver_crossover(once):
    rows = once(sweep, QUICK_SIZES, QUICK_EXACT_MAX)
    _banner("SOLVER CROSSOVER — fit/predict time and RMSE per backend")
    print_rows(rows)
    _check(rows)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke configuration (small sizes, seconds not minutes)",
    )
    args = parser.parse_args(argv)
    sizes = QUICK_SIZES if args.quick else FULL_SIZES
    exact_max = QUICK_EXACT_MAX if args.quick else FULL_EXACT_MAX
    rows = sweep(sizes, exact_max)
    _banner("SOLVER CROSSOVER — fit/predict time and RMSE per backend")
    print_rows(rows)
    _check(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Ablation: adaptive AL vs the classical static designs of Section II-B.

Jain's designs (one-factor-at-a-time, 2^k factorial, fractional factorial)
and Latin hypercube sampling pick all experiments a priori; AL adapts.  The
paper argues static designs "do not change as measurements become
available" and represent the input space poorly — this bench quantifies
that on the Fig. 6 subset at matched experiment counts.
"""

import numpy as np
from conftest import banner

from repro.al import VarianceReduction, default_model_factory, random_partition
from repro.al.design import (
    latin_hypercube,
    nearest_pool_indices,
    one_factor_at_a_time,
    static_design_rmse,
    two_level_factorial,
)
from repro.al.learner import ActiveLearner
from repro.experiments.common import fig6_subset


def _compare(X, y, costs, n_seeds=5):
    rows = []
    for seed in range(n_seeds):
        part = random_partition(X.shape[0], seed)
        Xp, yp = X[part.active], y[part.active]
        Xt, yt = X[part.test], y[part.test]

        # Static designs (trained once).
        designs = {
            "2^k factorial": two_level_factorial(Xp),
            "one-factor-at-a-time": one_factor_at_a_time(Xp, levels_per_factor=5),
        }
        budgets = {}
        static_rmse = {}
        for name, design in designs.items():
            r, n_used = static_design_rmse(design, Xp, yp, Xt, yt)
            static_rmse[name] = r
            budgets[name] = n_used
        # LHS and AL at the largest static budget for a fair match.
        budget = max(budgets.values())
        lhs = latin_hypercube(Xp, budget, rng=seed)
        static_rmse["latin hypercube"], _ = static_design_rmse(lhs, Xp, yp, Xt, yt)
        budgets["latin hypercube"] = budget

        learner = ActiveLearner(
            X, y, costs, part, VarianceReduction(),
            model_factory=default_model_factory(1e-1),
        )
        trace = learner.run(budget)
        # The trace's metrics are measured pre-selection; fit once more, on
        # the seed rows plus every selected experiment, for the post-budget
        # model quality.
        from repro.al.metrics import rmse as rmse_metric

        model = learner.model_factory().fit(
            np.vstack([X[part.initial], trace.selected_points]),
            np.append(y[part.initial], trace.series("y_selected")),
        )
        static_rmse["active learning (VR)"] = rmse_metric(model, Xt, yt)
        budgets["active learning (VR)"] = budget
        rows.append((seed, static_rmse, budgets))
    return rows


def test_al_vs_static_designs(once):
    X, y, costs = fig6_subset()
    rows = once(_compare, X, y, costs)
    banner("ABLATION — AL vs static designs (paper section II-B)")
    names = list(rows[0][1].keys())
    agg = {name: [] for name in names}
    for _, rmses, budgets in rows:
        for name in names:
            agg[name].append(rmses[name])
    print(f"{'design':>22} {'experiments':>12} {'RMSE mean':>10} {'RMSE std':>9}")
    for name in names:
        budget = rows[0][2][name]
        vals = np.asarray(agg[name])
        print(f"{name:>22} {budget:>12} {vals.mean():>10.4f} {vals.std():>9.4f}")
    # Adaptive AL must beat the 2^k corner design (which cannot see the
    # response surface's interior curvature at all).
    assert np.mean(agg["active learning (VR)"]) < np.mean(agg["2^k factorial"])

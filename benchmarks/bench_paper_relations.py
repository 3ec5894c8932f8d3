"""The paper's Fig. 7/8 claims as relations over a grid of data seeds.

``tests/experiments/test_figures.py`` checks each claim at one seed (2016).
One seed is one cell of a grid, and AL conclusions can flip between cells,
so this script evaluates the claims per data seed and counts the cells
where each holds:

* Fig. 8 at 6 partitions x 60 iterations (noise floor 1e-1):
  - ``crossover``: Cost Efficiency's tradeoff curve crosses Variance
    Reduction's at some cost C;
  - ``reduction_at_2C``: at 2C, Cost Efficiency's error is lower (2C can
    lie past the curves' shared maximum cost, and then the claim fails);
  - ``rmse_converges``: the final mean RMSE is below 0.3x (VR) and 0.5x
    (CE) of the round-0 value, the thresholds of ``test_figures.py``.
* Fig. 7 at 4 partitions x 25 iterations:
  - ``no_collapse_1e-1``: with the noise floor at 1e-1 the SD at the
    selected candidate stays >= 0.99 sqrt(0.1) over the first 5 iterations;
  - ``collapse_1e-8``: with the floor at 1e-8 it collapses below
    0.5 sqrt(0.1).

Beside the claims it reports per cell the statistics they are read from:
C, the reduction at 2C, the largest reduction, the final RMSE of both
strategies and the smallest early SD at both floors.

Two modes:

* ``PYTHONPATH=src python benchmarks/bench_paper_relations.py [--seeds 2016]``
  evaluates the grid on one tree and prints the table; ``--strict`` exits 1
  when a claim fails in any cell.
* ``python benchmarks/bench_paper_relations.py --parent <tree> --change <tree>``
  runs each tree's ``src`` in its own subprocess, at one BLAS thread, and
  prints both sides.  It exits 1 when a claim holds in fewer cells at the
  change than at the parent (the acceptance relation for a change to the
  numerics).  ``--out`` writes the table as Markdown.

Each cell takes ~12 s on one core; the default grid (data seeds 1-5 and
2016) ~75 s per tree.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

DEFAULT_SEEDS = (1, 2, 3, 4, 5, 2016)

CLAIMS = (
    "fig8.crossover",
    "fig8.reduction_at_2C",
    "fig8.rmse_converges",
    "fig7.no_collapse_1e-1",
    "fig7.collapse_1e-8",
)

STATISTICS = (
    "fig8.C",
    "fig8.reduction_at_2C",
    "fig8.max_reduction",
    "fig8.final_rmse_vr",
    "fig8.final_rmse_ce",
    "fig7.min_early_sd_1e-1",
    "fig7.min_early_sd_1e-8",
)


def evaluate_cell(seed: int) -> dict:
    """Claims and statistics of one data seed, from the ``repro`` on the path."""
    import numpy as np

    from repro.experiments import fig7, fig8

    r8 = fig8.run(seed, n_partitions=6, n_iterations=60)
    comp = r8.comparison
    vr = r8.variance_reduction.mean_series("rmse")
    ce = r8.cost_efficiency.mean_series("rmse")
    at_2c = comp.reductions_at_multiples.get(2.0)
    r7 = fig7.run(seed, n_partitions=4, n_iterations=25)
    floor_scale = float(np.sqrt(1e-1))
    high = r7.high_floor.min_early_sd_selected
    low = r7.low_floor.min_early_sd_selected
    claims = {
        "fig8.crossover": comp.crossover is not None,
        "fig8.reduction_at_2C": at_2c is not None and at_2c > 0.0,
        "fig8.rmse_converges": bool(vr[-1] < 0.3 * vr[0] and ce[-1] < 0.5 * ce[0]),
        "fig7.no_collapse_1e-1": bool(high >= 0.99 * floor_scale),
        "fig7.collapse_1e-8": bool(low < 0.5 * floor_scale),
    }
    statistics = {
        "fig8.C": comp.crossover,
        "fig8.reduction_at_2C": at_2c,
        "fig8.max_reduction": comp.max_reduction,
        "fig8.final_rmse_vr": float(vr[-1]),
        "fig8.final_rmse_ce": float(ce[-1]),
        "fig7.min_early_sd_1e-1": float(high),
        "fig7.min_early_sd_1e-8": float(low),
    }
    return {"seed": seed, "claims": claims, "statistics": statistics}


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return f"{value:.4g}"


def _counts(cells: list[dict]) -> dict:
    return {c: sum(cell["claims"][c] for cell in cells) for c in CLAIMS}


def single_table(cells: list[dict]) -> str:
    seeds = [cell["seed"] for cell in cells]
    lines = [
        "| | " + " | ".join(f"seed {s}" for s in seeds) + " | holds in |",
        "|---|" + "---|" * (len(seeds) + 1),
    ]
    counts = _counts(cells)
    for claim in CLAIMS:
        row = [_fmt(cell["claims"][claim]) for cell in cells]
        lines.append(f"| {claim} | " + " | ".join(row) + f" | {counts[claim]}/{len(cells)} |")
    for stat in STATISTICS:
        row = [_fmt(cell["statistics"][stat]) for cell in cells]
        lines.append(f"| {stat} | " + " | ".join(row) + " | |")
    return "\n".join(lines)


def paired_table(parent: list[dict], change: list[dict]) -> str:
    seeds = [cell["seed"] for cell in parent]
    lines = [
        "| | " + " | ".join(f"seed {s}" for s in seeds) + " | holds in (parent → change) |",
        "|---|" + "---|" * (len(seeds) + 1),
    ]
    pc, cc = _counts(parent), _counts(change)
    for claim in CLAIMS:
        row = [
            f"{_fmt(p['claims'][claim])} → {_fmt(c['claims'][claim])}"
            for p, c in zip(parent, change)
        ]
        lines.append(
            f"| {claim} | " + " | ".join(row)
            + f" | {pc[claim]}/{len(seeds)} → {cc[claim]}/{len(seeds)} |"
        )
    lines.append("")
    lines.append("| statistic | " + " | ".join(f"seed {s}" for s in seeds)
                 + " | largest relative change |")
    lines.append("|---|" + "---|" * (len(seeds) + 1))
    for stat in STATISTICS:
        row, worst = [], 0.0
        for p, c in zip(parent, change):
            a, b = p["statistics"][stat], c["statistics"][stat]
            row.append(_fmt(a) if a == b else f"{_fmt(a)} → {_fmt(b)}")
            if a is not None and b is not None and a != b:
                worst = max(worst, abs(b - a) / max(abs(a), 1e-300))
            elif (a is None) != (b is None):
                worst = float("inf")
        lines.append(f"| {stat} | " + " | ".join(row) + f" | {worst:.2g} |")
    return "\n".join(lines)


def _start_tree(tree: Path, seeds) -> subprocess.Popen:
    """This script's cell evaluation, importing ``repro`` from ``tree/src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(tree / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--emit-json", "--seeds"]
    cmd += [str(s) for s in seeds]
    return subprocess.Popen(cmd, env=env, cwd=tree, stdout=subprocess.PIPE, text=True)


def _collect(proc: subprocess.Popen, tree: Path) -> list[dict]:
    out, _ = proc.communicate()
    if proc.returncode != 0:
        raise SystemExit(f"cell evaluation failed in {tree} (exit {proc.returncode})")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(DEFAULT_SEEDS))
    parser.add_argument("--parent", type=Path, help="source tree of the parent")
    parser.add_argument("--change", type=Path, help="source tree of the change")
    parser.add_argument("--out", type=Path, help="also write the table here")
    parser.add_argument(
        "--strict", action="store_true",
        help="single-tree mode: exit 1 if a claim fails in any cell",
    )
    parser.add_argument("--emit-json", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.emit_json:
        print(json.dumps([evaluate_cell(s) for s in args.seeds]))
        return 0
    if (args.parent is None) != (args.change is None):
        parser.error("--parent and --change go together")

    if args.parent is not None:
        trees = (args.parent.resolve(), args.change.resolve())
        procs = [_start_tree(tree, args.seeds) for tree in trees]
        parent, change = (_collect(p, t) for p, t in zip(procs, trees))
        table = paired_table(parent, change)
        pc, cc = _counts(parent), _counts(change)
        failed = [c for c in CLAIMS if cc[c] < pc[c]]
        verdict = (
            "every claim holds in at least as many cells as at the parent"
            if not failed
            else "fewer cells than at the parent: " + ", ".join(failed)
        )
    else:
        cells = [evaluate_cell(s) for s in args.seeds]
        table = single_table(cells)
        counts = _counts(cells)
        failed = [c for c in CLAIMS if counts[c] < len(cells)] if args.strict else []
        verdict = "claims failing in some cell: " + ", ".join(failed) if failed else ""
    print(table)
    if verdict:
        print()
        print(verdict)
    if args.out is not None:
        args.out.write_text(table + ("\n\n" + verdict if verdict else "") + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

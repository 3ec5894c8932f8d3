#!/usr/bin/env python3
"""Run a benchmarking campaign through the simulated CloudLab testbed.

Shows the data-collection pipeline of the paper's Section IV end to end:
define a batch of HPGMG-FE job specs, submit them to the SLURM-like
scheduler (4 Wisconsin nodes, FIFO + backfill), sample IPMI power
traces during execution, integrate energies, and print the resulting
46-attribute accounting records and campaign statistics.

Run:  python examples/cluster_campaign.py
"""

import numpy as np

from repro.cluster import (
    IPMISampler,
    JobSpec,
    PowerModel,
    SlurmSimulator,
    wisconsin_cluster,
)
from repro.datasets import ModelExecutor
from repro.viz import histogram


def main() -> None:
    cluster = wisconsin_cluster()
    print(f"testbed: {cluster.n_nodes} x {cluster.node.name} "
          f"({cluster.node.n_sockets}x{cluster.node.cpu.model}, "
          f"{cluster.node.total_cores} cores / {cluster.node.total_threads} threads, "
          f"{cluster.node.ram_gb:.0f} GB)")

    rng = np.random.default_rng(11)
    specs = []
    for size in (48**3, 96**3, 192**3):
        for np_ranks in (8, 32, 64, 128):
            for rep in range(2):
                specs.append(JobSpec(
                    operator="poisson2",
                    problem_size=float(size),
                    np_ranks=np_ranks,
                    freq_ghz=float(rng.choice([1.2, 1.8, 2.4])),
                    repeat_index=rep,
                ))
    print(f"submitting {len(specs)} jobs...")

    sim = SlurmSimulator(
        cluster,
        ModelExecutor(),
        power_model=PowerModel(),
        sampler=IPMISampler(),
        rng=42,
    )
    records = sim.run_batch(specs)

    print(f"\n{'job':>4} {'size':>11} {'np':>4} {'GHz':>4} {'wait[s]':>8} "
          f"{'run[s]':>8} {'nodes':>5} {'energy[J]':>10} {'usable':>6}")
    for r in records[:12]:
        energy = f"{r.energy_joules:,.0f}" if r.energy_joules is not None else "-"
        print(f"{r.job_id:>4} {r.problem_size:>11.3g} {r.np_ranks:>4} "
              f"{r.freq_ghz:>4.1f} {r.wait_seconds:>8.1f} {r.runtime_seconds:>8.2f} "
              f"{r.n_nodes:>5} {energy:>10} {str(r.energy_usable):>6}")
    print(f"  ... ({len(records)} records total)")

    makespan = max(r.end_time for r in records)
    busy = sum(r.runtime_seconds * r.n_nodes for r in records)
    print(f"\ncampaign makespan: {makespan:,.1f}s simulated")
    print(f"node utilization: {busy / (makespan * cluster.n_nodes):.1%}")
    usable = sum(1 for r in records if r.energy_usable)
    print(f"jobs with usable energy traces: {usable}/{len(records)} "
          f"(the paper's gap-filtering effect)")
    print(histogram([r.runtime_seconds for r in records], bins=8,
                    title="\njob runtime distribution [s]"))


if __name__ == "__main__":
    main()

"""Ablation bench: duty-cycle merge policy in ScheduleResidue.

DESIGN.md section 5: Algorithm 1 sorts residues by occupancy and merges
best-fit.  This ablation compares best-fit vs first-fit vs worst-fit on
random residual workloads: best-fit should use no more GPUs than
worst-fit on average, and all policies must produce valid plans.
"""

import numpy as np
from paper_shape_report import report

from repro.core.squishy import schedule_residue
from repro.experiments.common import ExperimentResult
from repro.experiments.ilp_gap import random_instance


def run_merge_ablation(trials: int = 20, n: int = 10, seed: int = 3):
    rng = np.random.default_rng(seed)
    totals = {"best_fit": 0, "first_fit": 0, "worst_fit": 0}
    for _ in range(trials):
        loads = random_instance(n, rng)
        for order in totals:
            nodes, infeasible = schedule_residue(loads, merge_order=order)
            assert not infeasible
            for node in nodes:
                assert not node.validate()
            totals[order] += len(nodes)
    result = ExperimentResult(
        name="Ablation: residual merge policy",
        columns=["policy", "total_gpus"],
    )
    for order, total in totals.items():
        result.add(order, total)
    return result


def test_ablation_merge_order(benchmark):
    result = benchmark(run_merge_ablation)
    report(result)

    gpus = dict(result.rows)
    assert gpus["best_fit"] <= gpus["worst_fit"]
    assert gpus["best_fit"] <= gpus["first_fit"] * 1.1

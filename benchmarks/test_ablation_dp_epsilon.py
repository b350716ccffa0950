"""Ablation bench: DP budget granularity epsilon (section 6.2).

The latency-split DP discretizes the budget into L/epsilon segments and
is quadratic in that count.  This ablation sweeps epsilon and checks that
finer grids never produce worse splits and that the cost grows
super-linearly as the grid refines.
"""

import time

from paper_shape_report import report

from repro.core.profile import LinearProfile
from repro.core.query import Query, QueryStage, plan_query
from repro.experiments.common import ExperimentResult


def _query() -> Query:
    ssd = LinearProfile(name="ssd", alpha=8.0, beta=12.0, max_batch=64)
    rec = LinearProfile(name="rec", alpha=1.0, beta=8.0, max_batch=128)
    root = QueryStage("ssd", ssd)
    root.add_child(QueryStage("rec", rec, gamma=2.0))
    return Query("q", root, slo_ms=400.0)


def run_epsilon_ablation(epsilons=(50.0, 20.0, 10.0, 5.0, 2.0)):
    query = _query()
    result = ExperimentResult(
        name="Ablation: DP epsilon granularity",
        columns=["epsilon_ms", "total_gpus", "solve_ms"],
    )
    for eps in epsilons:
        t0 = time.perf_counter()
        split = plan_query(query, rate_rps=500.0, epsilon_ms=eps)
        elapsed = (time.perf_counter() - t0) * 1000.0
        result.add(eps, round(split.total_gpus, 4), round(elapsed, 2))
    return result


def test_ablation_dp_epsilon(benchmark):
    result = benchmark(run_epsilon_ablation)
    report(result)

    gpus = result.column("total_gpus")
    # Refining the grid never needs more GPUs.
    assert all(b <= a + 1e-9 for a, b in zip(gpus, gpus[1:]))
    # And the fine grid costs measurably more time than the coarse one.
    times = result.column("solve_ms")
    assert times[-1] > times[0]

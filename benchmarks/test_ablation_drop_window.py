"""Ablation bench: early-drop sliding-window length (DESIGN.md section 5).

Nexus sets the early-drop window to the batch size the global scheduler
chose.  This ablation fixes the workload (the Figure 9 setup at alpha=1)
and sweeps the window: too-small windows under-batch (lazy-drop-like
inefficiency), far-too-large windows over-drop; the scheduler's choice
sits on the efficient plateau.
"""

from paper_shape_report import report

from repro.core.drop import EarlyDropPolicy, simulate_dispatch
from repro.experiments.common import ExperimentResult
from repro.experiments.fig5 import SLO_MS, fig5_profile
from repro.workloads.arrivals import poisson_arrivals


def run_window_ablation(windows=(1, 4, 12, 25, 50), rate=450.0,
                        duration_ms=40_000.0):
    prof = fig5_profile(1.0)
    scheduler_choice = prof.max_batch_under_slo(SLO_MS)  # = 25
    arrivals = poisson_arrivals(rate, duration_ms, seed=11)
    result = ExperimentResult(
        name="Ablation: early-drop window length",
        columns=["window", "bad_rate", "mean_batch", "goodput_rps"],
        notes=f"scheduler would pick window={scheduler_choice}",
    )
    for window in windows:
        stats = simulate_dispatch(
            arrivals, prof, SLO_MS, EarlyDropPolicy(target_batch=window)
        )
        result.add(window, round(stats.bad_rate, 4),
                   round(stats.mean_batch, 1),
                   round(stats.goodput_rps, 1))
    return result


def test_ablation_drop_window(benchmark):
    result = benchmark(run_window_ablation)
    report(result)

    by_w = {r[0]: r for r in result.rows}
    # A window of 1 degenerates to tiny batches and a high bad rate.
    assert by_w[1][1] > by_w[25][1]
    # The scheduler's choice (25) is on the efficient plateau: within a
    # few percent of the best observed goodput.
    best = max(r[3] for r in result.rows)
    assert by_w[25][3] >= 0.93 * best

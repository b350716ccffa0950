"""Ablation bench: epoch length (DESIGN.md section 5).

The paper uses 30-60 s epochs with a 10 s minimum period.  Shorter epochs
react faster to workload steps but reconfigure more often; this ablation
steps the offered rate x3 mid-run and measures the bad rate during the
transition window for several epoch lengths.
"""

from paper_shape_report import report

from repro.cluster.nexus import ClusterConfig, NexusCluster
from repro.experiments.common import ExperimentResult
from repro.workloads.apps import traffic_query

STEP_MS = 40_000.0
DURATION_MS = 100_000.0


def run_epoch_ablation(epochs_ms=(10_000.0, 20_000.0, 40_000.0)):
    result = ExperimentResult(
        name="Ablation: epoch length vs adaptation",
        columns=["epoch_s", "epochs_run", "transition_bad",
                 "steady_bad"],
        notes="offered rate steps x3 at t=40 s",
    )
    for epoch_ms in epochs_ms:
        config = ClusterConfig(
            device="gtx1080ti", max_gpus=32, dynamic=True,
            expand_to_cluster=False, epoch_ms=epoch_ms, seed=5,
        )
        cluster = NexusCluster(config)
        cluster.add_query(
            traffic_query(config.device), rate_rps=60.0,
            rate_fn=lambda t: 60.0 if t < STEP_MS else 180.0,
        )
        res = cluster.run(DURATION_MS)
        recs = res.query_metrics.records
        transition = [r for r in recs
                      if STEP_MS <= r.arrival_ms < STEP_MS + 2 * epoch_ms]
        steady = [r for r in recs
                  if r.arrival_ms >= STEP_MS + 2 * epoch_ms]
        t_bad = sum(1 for r in transition if not r.ok) / max(len(transition), 1)
        s_bad = sum(1 for r in steady if not r.ok) / max(len(steady), 1)
        result.add(epoch_ms / 1000.0, res.epochs, round(t_bad, 4),
                   round(s_bad, 4))
    return result


def test_ablation_epoch_length(benchmark):
    result = benchmark.pedantic(run_epoch_ablation, rounds=1, iterations=1)
    report(result)

    rows = {r[0]: r for r in result.rows}
    # More epochs fire with shorter periods.
    assert rows[10.0][1] > rows[40.0][1]
    # After adaptation, every configuration serves well.
    for r in result.rows:
        assert r[3] < 0.05, r

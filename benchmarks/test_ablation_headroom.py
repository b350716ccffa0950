"""Ablation bench: planning headroom and SLO margin (DESIGN.md section 5).

Nexus plans capacity for (1 + headroom) x the offered rate and packs
sessions against (1 - margin) x their SLO.  Zero slack balances the
deployment on a knife edge -- every worst-case bound met with equality --
so runtime jitter shows up directly as SLO misses.  This ablation
measures goodput at a fixed offered rate as slack varies.
"""

from paper_shape_report import report

from repro.cluster.nexus import ClusterConfig, NexusCluster
from repro.experiments.common import ExperimentResult
from repro.workloads.apps import traffic_query


def run_headroom_ablation(rate: float = 400.0, duration_ms: float = 8_000.0):
    result = ExperimentResult(
        name="Ablation: planning headroom / SLO margin",
        columns=["headroom", "slo_margin", "good_rate", "gpus"],
    )
    for headroom, margin in ((0.0, 0.0), (0.0, 0.1), (0.15, 0.0),
                             (0.15, 0.1), (0.3, 0.2)):
        config = ClusterConfig(
            device="gtx1080ti", max_gpus=16,
            plan_headroom=headroom, slo_margin=margin,
            expand_to_cluster=False,
        )
        cluster = NexusCluster(config)
        cluster.add_query(traffic_query(config.device), rate_rps=rate)
        res = cluster.run(duration_ms, warmup_ms=duration_ms / 5)
        result.add(headroom, margin, round(res.good_rate, 4), res.gpus_used)
    return result


def test_ablation_headroom(benchmark):
    result = benchmark(run_headroom_ablation)
    report(result)

    by_cfg = {(r[0], r[1]): r[2] for r in result.rows}
    # More slack never hurts goodput materially...
    assert by_cfg[(0.15, 0.1)] >= by_cfg[(0.0, 0.0)] - 0.01
    # ...and the fully-slacked configuration serves essentially everything.
    assert by_cfg[(0.3, 0.2)] > 0.97

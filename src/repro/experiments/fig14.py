"""Figure 14: GPU multiplexing -- throughput vs co-located model count/SLO.

Section 7.5: increasing numbers of Inception copies share ONE GPU with a
100 ms SLO (panel a), then 3 copies under SLOs from 50 to 200 ms (panel
b).  Four systems: Clipper (independent containers, interference), TF
Serving (round robin, no interference, no overlap/early-drop),
"Nexus-parallel" (Nexus without interference control: containers in
parallel but overlapped), and Nexus.

Paper: Nexus achieves 1.4-2.1x TF Serving and 1.9-9.8x Clipper on a
single GPU; Nexus-parallel sits between.
"""

from __future__ import annotations

from ..baselines import clipper_config, tf_serving_config
from ..baselines.clipper import CLIPPER_INTERFERENCE
from ..cluster.nexus import ClusterConfig, NexusCluster
from ..core.query import Query, QueryStage
from ..models.profiler import profile
from .common import ExperimentResult, max_rate_search

__all__ = ["run", "make_multiplex_cluster"]


def _nexus_parallel_config(device: str) -> ClusterConfig:
    """Nexus minus interference control: greedy containers, but keeps
    overlap and early drop (section 7.5's 'Nexus-parallel')."""
    return ClusterConfig(
        device=device, max_gpus=1, scheduler="squishy", pacing="greedy",
        drop_policy="early", overlap=True, prefix_batching=False,
        query_analysis=False, interference_factor=CLIPPER_INTERFERENCE / 2,
    )


def make_multiplex_cluster(config: ClusterConfig, rate: float,
                           num_models: int, slo_ms: float) -> NexusCluster:
    """num_models distinct Inception-v3 variants sharing one GPU."""
    cluster = NexusCluster(config)
    for i in range(num_models):
        stage = QueryStage(
            name="inception",
            profile=profile(f"inception_v3@copy{i}:1000", config.device),
            model_id=f"inception_v3@copy{i}:1000",
        )
        cluster.add_query(
            Query(name=f"m{i}", root=stage, slo_ms=slo_ms),
            rate_rps=rate / num_models,
        )
    return cluster


def _systems(device: str):
    return [
        ("clipper", clipper_config(device, max_gpus=1)),
        ("tf_serving", tf_serving_config(device, max_gpus=1)),
        ("nexus_parallel", _nexus_parallel_config(device)),
        ("nexus", ClusterConfig(device=device, max_gpus=1,
                                prefix_batching=False)),
    ]


def run(device: str = "gtx1080ti", duration_ms: float = 10_000.0,
        iterations: int = 8,
        model_counts: tuple[int, ...] = (2, 3, 4, 5),
        slos: tuple[float, ...] = (50.0, 100.0, 150.0, 200.0),
        systems: list[str] | None = None) -> ExperimentResult:
    result = ExperimentResult(
        name="Figure 14: GPU multiplexing on one GPU",
        columns=["panel", "x", "system", "throughput_rps"],
        notes="(a) varies co-located models at SLO 100 ms; "
              "(b) varies SLO with 3 models",
    )
    for n in model_counts:
        for name, config in _systems(device):
            if systems is not None and name not in systems:
                continue
            rate = max_rate_search(
                lambda r, c=config, k=n: make_multiplex_cluster(c, r, k, 100.0),
                duration_ms=duration_ms, warmup_ms=duration_ms / 5,
                iterations=iterations, hi_rps=4_000.0,
            )
            result.add("a:models", n, name, round(rate))
    for slo in slos:
        for name, config in _systems(device):
            if systems is not None and name not in systems:
                continue
            rate = max_rate_search(
                lambda r, c=config, s=slo: make_multiplex_cluster(c, r, 3, s),
                duration_ms=duration_ms, warmup_ms=duration_ms / 5,
                iterations=iterations, hi_rps=4_000.0,
            )
            result.add("b:slo_ms", slo, name, round(rate))
    return result


if __name__ == "__main__":
    print(run(model_counts=(2, 4), slos=(50.0, 200.0)))

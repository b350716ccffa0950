"""Parallel experiment runner: serial-vs-parallel identity.

The process-pool runner's whole contract is that fanning work across
workers changes wall-clock only, never content: same report bytes, same
sweep points, same footer counts.  These tests pin that contract with a
cheap experiment subset (the full fast-subset identity holds too --
``python -m repro.experiments.report --no-timing --workers 4`` -- but is
too slow for tier-1).
"""

from __future__ import annotations

import pytest

from repro.experiments.common import (
    parallel_map,
    run_experiment,
    run_experiments,
)
from repro.experiments.report import generate_report

#: Cheap, deterministic subset: covers an analytic table, a seeded
#: dispatch sweep, and a full cluster run (the three experiment shapes).
_SUBSET: list[tuple[str, dict]] = [
    ("table1", {}),
    ("fig2", {}),
    ("fig5", {"duration_ms": 3_000.0}),
    ("utilization", {"duration_ms": 3_000.0}),
]


def _make_cluster(rate_rps: float, seed: int):
    from repro.cluster.nexus import ClusterConfig, NexusCluster
    from repro.workloads.apps import all_apps

    config = ClusterConfig(device="gtx1080ti", expand_to_cluster=False,
                           seed=seed)
    cluster = NexusCluster(config)
    queries = all_apps("gtx1080ti", num_games=4)
    for query in queries:
        cluster.add_query(query, rate_rps=rate_rps / len(queries))
    return cluster


def _cluster_point(args: tuple[float, float, int]) -> tuple[float, float]:
    """One rate-sweep point: a full cluster run at the given offered rate.

    Module-level (picklable) and seeded through its arguments, so sweep
    points can fan across the process pool and still reproduce serial
    results exactly.
    """
    rate_rps, duration_ms, seed = args
    cluster = _make_cluster(rate_rps, seed)
    result = cluster.run(duration_ms, warmup_ms=duration_ms / 10)
    return (rate_rps, round(result.good_rate, 6))


class TestSerialParallelIdentity:
    def test_run_experiments_identical(self):
        serial = run_experiments(_SUBSET, workers=None)
        parallel = run_experiments(_SUBSET, workers=2)
        assert [r.name for r in serial] == [r.name for r in parallel]
        for s, p in zip(serial, parallel):
            assert str(s.result) == str(p.result)
            assert s.plans_checked == p.plans_checked

    def test_report_byte_identical(self):
        serial = generate_report(_SUBSET, workers=None, include_timing=False)
        parallel = generate_report(_SUBSET, workers=2, include_timing=False)
        assert serial == parallel

    def test_parallel_map_preserves_order_and_values(self):
        tasks = [(rate, 2_000.0, 0) for rate in (300.0, 600.0, 900.0)]
        serial = parallel_map(_cluster_point, tasks, workers=1)
        pooled = parallel_map(_cluster_point, tasks, workers=2)
        assert serial == pooled
        assert [rate for rate, _ in pooled] == [300.0, 600.0, 900.0]

    def test_run_experiment_rejects_non_result(self):
        with pytest.raises(ModuleNotFoundError):
            run_experiment("no_such_experiment", {})

    def test_tracing_excludes_parallelism(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            generate_report(_SUBSET, trace_dir="/tmp/x", workers=2)

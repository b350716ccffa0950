#!/usr/bin/env python3
"""Quickstart: serve one DNN application on a simulated GPU cluster.

Builds the paper's traffic-analysis query (SSD object detection feeding
car and face recognizers -- Figure 8), deploys it on 8 simulated GTX
1080Ti GPUs with full Nexus (squishy bin packing, query analysis, prefix
batching, early drop, CPU/GPU overlap), offers 200 queries/second for 20
virtual seconds, and reports what happened.

Run:  python examples/quickstart.py
"""

from repro import ClusterConfig, NexusCluster
from repro.workloads import traffic_query


def main() -> None:
    # 1. Configure the cluster: device model, size, and feature flags
    #    (all Nexus features are on by default).
    config = ClusterConfig(device="gtx1080ti", max_gpus=8)
    cluster = NexusCluster(config)

    # 2. Declare the application: a dataflow query with one whole-query
    #    latency SLO (400 ms).  Nexus splits the SLO across stages itself.
    query = traffic_query(config.device, slo_ms=400.0)
    cluster.add_query(query, rate_rps=200.0)

    # 3. Inspect the plan before running: which sessions, which GPUs,
    #    what batch sizes.
    plan = cluster.plan()
    print(f"planned {plan.num_gpus} GPUs for 200 q/s:")
    for i, gpu in enumerate(plan.gpus):
        allocs = ", ".join(
            f"{a.session_id} (batch {a.batch}, {a.exec_ms:.0f} ms)"
            for a in gpu.allocations
        )
        print(f"  gpu{i}: duty {gpu.duty_cycle_ms:.0f} ms, "
              f"occupancy {gpu.occupancy:.0%} -> {allocs}")
    print("latency split:", {
        stage: f"{budget:.0f} ms"
        for stage, budget in cluster.splits[query.name].items()
    })

    # 4. Serve traffic for 20 virtual seconds (2 s warmup excluded).
    result = cluster.run(duration_ms=20_000.0, warmup_ms=2_000.0)

    # 5. Report.
    print(f"\nserved {result.query_metrics.total} queries")
    print(f"good rate (within 400 ms SLO): {result.good_rate:.2%}")
    print(f"p50 latency: {result.query_metrics.latency_percentile(50):.0f} ms")
    print(f"p99 latency: {result.query_metrics.latency_percentile(99):.0f} ms")
    print(f"GPUs used: {result.gpus_used}")


if __name__ == "__main__":
    main()

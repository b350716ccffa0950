"""repro: a Python reproduction of Nexus (SOSP 2019).

Nexus is a GPU cluster engine for serving DNN-based video analysis under
latency SLOs.  This package reimplements the full system -- squishy bin
packing, complex query scheduling, prefix batching, batch-aware dispatch
-- on top of an analytic GPU cost model and a discrete-event cluster
simulator (see DESIGN.md for the substitution map).

Quickstart::

    from repro import NexusCluster, ClusterConfig
    from repro.workloads import traffic_query

    cluster = NexusCluster(ClusterConfig(device="gtx1080ti", max_gpus=16))
    cluster.add_query(traffic_query("gtx1080ti"), rate_rps=100)
    result = cluster.run(duration_ms=20_000, warmup_ms=2_000)
    print(result.good_rate, result.gpus_used)
"""

from .cluster import (
    AppSpec,
    ClusterConfig,
    ClusterResult,
    NexusCluster,
)
from .core import (
    BatchingProfile,
    EarlyDropPolicy,
    LatencySplit,
    LazyDropPolicy,
    LinearProfile,
    Query,
    QueryStage,
    Session,
    SessionLoad,
    TabulatedProfile,
    even_split,
    plan_query,
    squishy_bin_packing,
)
from .models import get_device, get_model, profile, profile_model
from .observability import TraceBuffer, TraceEvent, Tracer, capture_trace

__version__ = "1.0.0"

__all__ = [
    "AppSpec",
    "ClusterConfig",
    "ClusterResult",
    "NexusCluster",
    "BatchingProfile",
    "EarlyDropPolicy",
    "LatencySplit",
    "LazyDropPolicy",
    "LinearProfile",
    "Query",
    "QueryStage",
    "Session",
    "SessionLoad",
    "TabulatedProfile",
    "even_split",
    "plan_query",
    "squishy_bin_packing",
    "get_device",
    "get_model",
    "profile",
    "profile_model",
    "TraceBuffer",
    "TraceEvent",
    "Tracer",
    "capture_trace",
    "__version__",
]

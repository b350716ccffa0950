"""Cluster runtime: frontends, backends, control plane, NexusCluster."""

from .backend import Backend, BackendSession
from .faults import FaultEvent, FaultInjector, FaultPlan, seeded_plan
from .frontend import Frontend, QueryInstance, RetryPolicy, RoutingTable
from .global_scheduler import (
    BackendPool,
    HeartbeatMonitor,
    PoolConfig,
    make_policy,
)
from .messages import Request
from .nexus import (
    AppSpec,
    ClusterConfig,
    ClusterResult,
    NexusCluster,
    equivalence_report,
)

__all__ = [
    "Backend",
    "BackendSession",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "seeded_plan",
    "Frontend",
    "QueryInstance",
    "RetryPolicy",
    "RoutingTable",
    "BackendPool",
    "HeartbeatMonitor",
    "PoolConfig",
    "make_policy",
    "Request",
    "AppSpec",
    "ClusterConfig",
    "ClusterResult",
    "NexusCluster",
    "equivalence_report",
]

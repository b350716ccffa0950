"""Nexus's core contribution: batching-aware scheduling and dispatch.

- :mod:`profile` -- batching profiles (Equation 1 and tabulated curves);
- :mod:`session` -- the (model, SLO) session abstraction;
- :mod:`squishy` -- squishy bin packing (Algorithm 1);
- :mod:`ilp` -- exact small-instance solver (the CPLEX substitute);
- :mod:`query` -- complex query latency-SLO splitting (section 6.2);
- :mod:`dag` -- fork-join (series-parallel) query planning, the general
  case section 6.2 mentions;
- :mod:`prefix` -- prefix batching of specialized models (section 6.3);
- :mod:`drop` -- lazy/early drop dispatch policies (sections 4.3, 6.3);
- :mod:`epoch` -- incremental epoch scheduling (sections 5, 6.1);
- :mod:`queueing` -- closed-form queueing oracle for O(1) capacity /
  what-if answers (docs/queueing.md).
"""

from .dag import Parallel, Series, SPPlan, SPStage, plan_sp, sp_from_edges
from .drop import (
    DispatchStats,
    DropPolicy,
    EarlyDropPolicy,
    LazyDropPolicy,
    max_goodput,
    simulate_dispatch,
)
from .epoch import EpochScheduler, EpochUpdate
from .fleet import ClassAssignment, Fleet, GpuClass, assign_classes
from .ilp import exact_min_gpus, fgsp_feasible_partition, subset_feasible
from .prefix import PrefixBatchedProfile, PrefixGroup, find_prefix_groups
from .profile import (
    BatchingProfile,
    EffectiveProfile,
    LinearProfile,
    TabulatedProfile,
)
from .queueing import (
    OracleInapplicable,
    QueueEstimate,
    analytic_estimate,
    capacity_answer,
    max_batch_under_p99,
    queue_latencies,
    simulate_estimate,
)
from .query import (
    LatencySplit,
    MixedSplit,
    Query,
    QueryStage,
    evaluate_split,
    even_split,
    plan_query,
    plan_query_classes,
)
from .session import Session, SessionLoad
from .squishy import (
    Allocation,
    GpuPlan,
    SchedulePlan,
    pack_fleet,
    schedule_residue,
    schedule_saturate,
    squishy_bin_packing,
)

__all__ = [
    "Parallel",
    "Series",
    "SPPlan",
    "SPStage",
    "plan_sp",
    "sp_from_edges",
    "DispatchStats",
    "DropPolicy",
    "EarlyDropPolicy",
    "LazyDropPolicy",
    "max_goodput",
    "simulate_dispatch",
    "EpochScheduler",
    "EpochUpdate",
    "ClassAssignment",
    "Fleet",
    "GpuClass",
    "assign_classes",
    "exact_min_gpus",
    "fgsp_feasible_partition",
    "subset_feasible",
    "PrefixBatchedProfile",
    "PrefixGroup",
    "find_prefix_groups",
    "BatchingProfile",
    "EffectiveProfile",
    "LinearProfile",
    "TabulatedProfile",
    "OracleInapplicable",
    "QueueEstimate",
    "analytic_estimate",
    "capacity_answer",
    "max_batch_under_p99",
    "queue_latencies",
    "simulate_estimate",
    "LatencySplit",
    "MixedSplit",
    "Query",
    "QueryStage",
    "evaluate_split",
    "even_split",
    "plan_query",
    "plan_query_classes",
    "Session",
    "SessionLoad",
    "Allocation",
    "GpuPlan",
    "SchedulePlan",
    "pack_fleet",
    "schedule_residue",
    "schedule_saturate",
    "squishy_bin_packing",
]

"""NexusCluster: the deployable system, end to end.

Wires the whole paper together: applications declare queries (dataflow
graphs with a whole-query SLO) and offered rates; the cluster

1. splits each query's SLO across stages (query analysis, section 6.2 --
   or an even split when disabled, the -QA ablation);
2. fuses sessions whose models share a prefix and latency SLO into
   prefix-batched pseudo-models (section 6.3, the -PB ablation);
3. packs sessions onto GPUs with squishy bin packing (section 6.1 -- or
   the batch-oblivious baseline, the -SS ablation);
4. deploys schedules/routes and serves traffic through the event-driven
   runtime with early-drop admission control and CPU/GPU overlap (the
   -ED and -OL ablations);
5. optionally re-plans every epoch from observed workload statistics
   (section 5's control plane; Figure 13).

The paper's baselines are configurations of the same machinery: see
:func:`repro.baselines.clipper_config` and
:func:`repro.baselines.tf_serving_config`.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..core.epoch import EpochScheduler
from ..core.fleet import Fleet, assign_classes
from ..core.prefix import PrefixGroup
from ..core.profile import EffectiveProfile
from ..core.profile_tables import remember
from ..core.query import (
    Query,
    QueryStage,
    StageCost,
    even_split,
    plan_query,
    split_gpus,
    stage_costs,
)
from ..core.session import Session, SessionLoad
from ..core.squishy import SchedulePlan, pack_fleet, squishy_bin_packing
from ..baselines.batch_oblivious import batch_oblivious_plan  # noqa: E402 -- leaf module, no cycle
from ..metrics.collector import MetricsCollector
from ..models import get_device, get_model, prefix_suffix_profiles
from ..models import profile as profile_on
from ..observability.events import TraceEvent
from ..simulation.simulator import Simulator
from ..workloads.arrivals import poisson_arrivals, uniform_arrivals
from .faults import FaultInjector, FaultPlan
from .frontend import Frontend
from .global_scheduler import HeartbeatMonitor

if TYPE_CHECKING:  # repro.serving imports this module
    from ..serving.runtime import ServingRuntime

__all__ = [
    "ClusterConfig", "AppSpec", "ClusterResult", "NexusCluster",
    "equivalence_report",
]

#: post-run drain window beyond the longest SLO: lets in-flight batches
#: and retry backoffs settle before the run is declared over.
_DRAIN_GRACE_MS = 1_000.0

#: rate-multiplier slack for the expand-to-cluster search: a 1-GPU plan
#: scaled by ``max_gpus`` already fills ``max_gpus`` GPUs, so a few x
#: covers batching-efficiency gains at any cluster size.  The cap must
#: scale with ``max_gpus`` -- a fixed literal silently stops the search
#: short on large clusters (the old ``hi < 64`` bug).
_EXPAND_SCALE_SLACK = 4.0

#: extra planning margin for non-root query stages: their arrivals come
#: in pulses (a whole upstream batch completes at once), so they need
#: more frequent, smaller batches than a smooth-arrival plan would pick.
#: Planning them against a tighter SLO buys exactly that.
_CHILD_SLO_MARGIN = 0.35

#: query splits feed the real scheduler, so each stage's budget covers
#: the section 4.1 worst case: twice its batch latency.
_QA_WORST_CASE_FACTOR = 2.0

#: ``(member model ids, device) -> PrefixGroup``: a fused family's
#: profiling (and its weight-free curve rows) is a pure function of its
#: membership, so epoch re-plans look it up instead of re-deriving it.
_FAMILY_PROFILES: dict[tuple[tuple[str, ...], str], PrefixGroup] = {}


@dataclass
class ClusterConfig:
    """Feature flags and sizing for one cluster deployment.

    The default configuration is full Nexus; each ablation in Figures 10
    and 11 flips one field.
    """

    device: str = "gtx1080ti"
    max_gpus: int | None = None
    #: heterogeneous mode: a named-class fleet (see
    #: :func:`repro.models.gpus.make_fleet`).  When set, the squishy
    #: packer runs per class with class-specific profiles and memory,
    #: and ``device`` only names the fallback class for sessions that
    #: cannot be re-profiled (prefix-fused pseudo-models).  ``None``
    #: keeps the homogeneous single-``device`` path, byte-identical to
    #: the fleetless planner.
    fleet: Fleet | None = None
    #: class-choice objective in fleet mode: "gpus" minimizes GPU count
    #: (the paper's homogeneous objective), "cost" minimizes
    #: price_per_hour per unit throughput (Table 1 generalized).
    objective: str = "gpus"
    scheduler: str = "squishy"          # "squishy" | "batch_oblivious"
    #: GPU execution discipline: "cycle" paces each session to its
    #: planned duty cycle (Nexus's GPU scheduler), "round_robin" cycles
    #: through the sessions unpaced (TF Serving), "greedy" serves the
    #: oldest queued request's session first (Clipper).
    pacing: str = "cycle"
    drop_policy: str = "early"          # "early" | "lazy"
    overlap: bool = True                # OL
    prefix_batching: bool = True        # PB
    query_analysis: bool = True         # QA
    interference_factor: float = 0.0    # Clipper-style container interference
    #: capacity cushion: plan for (1 + headroom) x the offered rate so the
    #: deployment is not balanced on a knife edge (real deployments do the
    #: same; the paper's 84%-of-optimal utilization reflects such slack).
    plan_headroom: float = 0.15
    #: plan sessions against (1 - slo_margin) x their latency budget so the
    #: runtime has jitter room; request deadlines still use the full budget.
    slo_margin: float = 0.1
    epoch_ms: float = 30_000.0
    dynamic: bool = False               # re-plan each epoch from observed load
    #: frontend replicas; the paper's frontend is distributed and a cluster
    #: load balancer spreads user requests across replicas (section 5).
    num_frontends: int = 1
    #: with a fixed cluster size, scale the plan out to use every GPU
    #: (the paper's fixed-cluster throughput experiments); dynamic
    #: deployments keep the minimal allocation so idle GPUs are released.
    expand_to_cluster: bool = True
    #: failure-detector cadence: backends renew their lease every
    #: heartbeat; the monitor sweeps at the same period.
    heartbeat_ms: float = 500.0
    #: lease duration: a backend silent for longer is declared dead
    #: (detection lands within ``lease_ms + 2 * heartbeat_ms`` of the
    #: crash).
    lease_ms: float = 2_000.0
    #: frontend retry budget for requests lost to backend failures.
    retry_max: int = 3
    retry_backoff_ms: float = 5.0
    seed: int = 0
    #: summary-mode metrics (every ServingRuntime reads it, so
    #: ``NexusCluster.run`` does too): fold every request outcome into
    #: counters and a log-spaced latency histogram at record time instead
    #: of retaining per-request records (megascale runs would hold
    #: millions).  Scalar metrics and
    #: approximate percentiles keep working; record-based timelines raise.
    #: The live :class:`~repro.serving.server.NexusServer` always sets it.
    summary_metrics: bool = False


@dataclass
class AppSpec:
    """One application: a query plus its offered load."""

    query: Query
    rate_rps: float
    arrival: str = "uniform"            # "uniform" | "poisson"
    #: optional time-varying rate, ms -> rps (drives Figure 13); when set,
    #: ``rate_rps`` is only the planning-time estimate.
    rate_fn: Callable[[float], float] | None = None


@dataclass(frozen=True)
class _AppSplits:
    """One app's candidate latency splits, everything but their price.

    ``even`` and ``dp`` are ``(budgets, session loads at unit root rate)``
    for the even split and the section-6.2 DP split (``dp`` is ``None``
    when query analysis is off, the query has one stage, or no split
    fits its SLO).  ``even_costs`` prices the even split at any rate
    through :func:`~repro.core.query.split_gpus`; ``dp_unit_gpus`` is the
    DP split's GPUs per root rps.  ``app`` and ``query`` are kept for the
    cache key's identities.
    """

    app: AppSpec
    query: Query
    even_costs: tuple[StageCost, ...]
    even: tuple[dict[str, float], tuple[SessionLoad, ...]]
    dp: tuple[dict[str, float], tuple[SessionLoad, ...]] | None
    dp_unit_gpus: float
    child_sessions: frozenset[str]


@dataclass
class ClusterResult:
    """Everything a run produced."""

    query_metrics: MetricsCollector
    invocation_metrics: MetricsCollector
    plan: SchedulePlan
    gpus_used: int
    duration_ms: float
    epochs: int = 0
    #: full structured event stream; populated by ``run(trace=True)``,
    #: ``None`` otherwise (tracing is off by default).
    trace: list[TraceEvent] | None = None
    #: ``(time_ms, kind, backend_idx)`` faults actually injected
    #: (``run(faults=...)`` only).
    fault_log: list[tuple[float, str, int]] | None = None
    #: ``(backend_idx, declared_at_ms)`` failure-detector declarations.
    detections: list[tuple[int, float]] | None = None
    #: simulator events processed during the run; 0 for pre-existing
    #: pickles.
    events_processed: int = 0

    @property
    def good_rate(self) -> float:
        return self.query_metrics.good_rate

    @property
    def bad_rate(self) -> float:
        return self.query_metrics.bad_rate

    def goodput_rps(self) -> float:
        return self.query_metrics.goodput_rps(self.duration_ms)


def equivalence_report(result: ClusterResult) -> str:
    """Canonical, execution-order-insensitive digest of a run.

    Two runs that served the same work compare equal byte for byte:
    per-session integer counters, per-session sorted latency lists (the
    latency histogram for a summary-mode collector, which keeps no
    records), the exactly-rounded total GPU busy time (``math.fsum`` is
    order-independent), and the fault/detection logs.  Deliberately
    excluded: request and node ids and per-slot busy keys, which number
    the run's bookkeeping rather than its outcome.
    """

    def per_session(collector: MetricsCollector) -> dict[str, object]:
        out: dict[str, object] = {}
        by_session: dict[str, list[float]] = {}
        for rec in collector.records:
            if rec.latency_ms is not None:
                by_session.setdefault(rec.session_id, []).append(
                    rec.latency_ms
                )
        stats = collector.per_session_stats()
        for sid in sorted(stats):
            entry = dict(stats[sid])
            entry["latencies"] = sorted(by_session.get(sid, []))
            out[sid] = entry
        return out

    def latency_histogram(collector: MetricsCollector) -> object:
        return None if collector.keep_records else collector.latency_histogram

    payload = {
        "queries": per_session(result.query_metrics),
        "invocations": per_session(result.invocation_metrics),
        "query_latency_histogram": latency_histogram(result.query_metrics),
        "invocation_latency_histogram": latency_histogram(
            result.invocation_metrics
        ),
        "gpu_busy_total_ms": math.fsum(
            result.invocation_metrics.gpu_busy_ms.values()
        ),
        "gpus_used": result.gpus_used,
        "epochs": result.epochs,
        "duration_ms": result.duration_ms,
        "fault_log": result.fault_log,
        "detections": result.detections,
    }
    return json.dumps(payload, sort_keys=True)


def _pack_scaled(
    loads: list[SessionLoad], memory: int, scale: float
) -> SchedulePlan:
    """Squishy-pack ``loads`` with every rate multiplied by ``scale``."""
    scaled = [l.with_rate(l.rate_rps * scale) for l in loads]
    return squishy_bin_packing(scaled, memory_capacity=memory)


def _bisect_scale(
    loads: list[SessionLoad], memory: int, max_gpus: int,
    lo: float, hi: float, best: SchedulePlan, steps: int,
) -> SchedulePlan:
    """Bisect the rate scale between ``lo`` (fits, packed as ``best``)
    and ``hi`` for ``steps`` midpoints; the last pack that fits
    ``max_gpus`` wins."""
    for _ in range(steps):
        mid = (lo + hi) / 2
        cand = _pack_scaled(loads, memory, mid)
        if cand.num_gpus <= max_gpus:
            lo = mid
            best = cand
        else:
            hi = mid
    return best


class NexusCluster:
    """Build, plan, and run one cluster deployment."""

    def __init__(self, config: ClusterConfig | None = None) -> None:
        self.config = config or ClusterConfig()
        self.apps: list[AppSpec] = []
        self._session_loads: list[SessionLoad] = []
        #: the last :meth:`plan`'s outputs besides the plan itself:
        #: prefix-fused session id -> fused pseudo-model id, and query
        #: name -> stage name -> latency budget (ms).
        self.aliases: dict[str, str] = {}
        self.splits: dict[str, dict[str, float]] = {}
        self._child_sessions: set[str] = set()
        self._app_memo: dict[tuple[object, ...], _AppSplits] = {}

    # ----------------------------------------------------------- declaring

    def add_app(self, app: AppSpec) -> None:
        """Register an application; its name must be new (names key
        splits, session ids and arrival counters)."""
        name = app.query.name
        if any(a.query.name == name for a in self.apps):
            raise ValueError(f"app {name!r} already registered")
        self.apps.append(app)

    def add_query(self, query: Query, rate_rps: float, arrival: str = "uniform",
                  rate_fn: Callable[[float], float] | None = None) -> None:
        self.add_app(AppSpec(query, rate_rps, arrival, rate_fn))

    # ------------------------------------------------------------ planning

    def build_session_loads(
        self, rates: dict[str, float] | None = None
    ) -> list[SessionLoad]:
        """Steps 1-2: latency splits + prefix fusion -> session loads.

        Everything about an app's splits but their price is rate-free
        and comes from :meth:`_app_splits`; each plan prices both
        candidate splits at the app's rate and keeps one.

        Args:
            rates: per-app rate overrides keyed by query name (used by the
                dynamic control plane); defaults to the declared rates.
        """
        cfg = self.config
        loads: list[SessionLoad] = []
        self.aliases = {}
        self.splits = {}
        self._child_sessions = set()
        for app in self.apps:
            rate = app.rate_rps if rates is None else rates.get(
                app.query.name, app.rate_rps
            )
            planned = rate * (1.0 + cfg.plan_headroom)
            split_rate = max(planned, 1e-6)
            splits = self._app_splits(app)
            even_gpus = split_gpus(split_rate, splits.even_costs)
            budgets, unit_loads = splits.even
            # Adopt the DP split only when it predicts a real saving:
            # uneven splits shave children's budgets, which costs the
            # runtime burst slack, so a sub-noise predicted gain is not
            # worth taking.  (Also covers SLOs the even split cannot
            # satisfy at all.)
            if splits.dp is not None and (
                math.isinf(even_gpus)
                or split_rate * splits.dp_unit_gpus <= 0.97 * even_gpus
            ):
                budgets, unit_loads = splits.dp
            self.splits[app.query.name] = dict(budgets)
            # raw profiles; wrapped below
            loads.extend(
                load.with_rate(planned * load.rate_rps) for load in unit_loads
            )
            self._child_sessions.update(splits.child_sessions)

        if cfg.prefix_batching:
            loads = self._fuse_prefixes(loads)
        loads = [self._effective(load) for load in loads]
        self._session_loads = loads
        return loads

    def _app_splits(self, app: AppSpec) -> _AppSplits:
        """``app``'s rate-free split inputs, computed on first use.

        The key holds the app's and its query's identities and every
        config field read here, so a replaced :class:`AppSpec` or query,
        or a flipped field, computes afresh; the entry keeps both objects
        alive, so their ids cannot be reused while it stands.
        """
        cfg = self.config
        key = (id(app), id(app.query), cfg.overlap, cfg.query_analysis)
        hit = self._app_memo.get(key)
        if hit is not None:
            return hit
        query = app.query
        # Plan splits against *effective* profiles (CPU occupancy folded
        # in, per the overlap setting) so the DP's view of each stage's
        # capacity matches what the packer and runtime see.  Both splits
        # are solved at unit root rate: their budgets and batches do not
        # depend on it, and a session's rate is ``rate * mult``.
        eff_query = self._effective_query(query)
        even = even_split(
            eff_query, 1.0, worst_case_factor=_QA_WORST_CASE_FACTOR,
        )
        dp = None
        if cfg.query_analysis and len(query.stages()) > 1:
            try:
                dp = plan_query(
                    eff_query, 1.0, worst_case_factor=_QA_WORST_CASE_FACTOR,
                )
            except ValueError:
                dp = None
        even_loads = tuple(even.sessions(query))
        root = query.root
        children: list[str] = []
        for load in even_loads:
            stage_name = load.session_id.rsplit("/", 1)[-1]
            if stage_name != root.name and not (
                root.is_source
                and any(c.name == stage_name for c in root.children)
            ):
                children.append(load.session_id)
        return remember(self._app_memo, key, _AppSplits(
            app=app,
            query=query,
            even_costs=tuple(stage_costs(eff_query, even.batches)),
            even=(even.budgets_ms, even_loads),
            dp=None if dp is None else (dp.budgets_ms, tuple(dp.sessions(query))),
            dp_unit_gpus=math.inf if dp is None else dp.total_gpus,
            child_sessions=frozenset(children),
        ))

    def _effective_query(self, query: Query) -> Query:
        """A copy of the query whose stage profiles are effective views."""
        cfg = self.config

        def clone(stage: QueryStage) -> QueryStage:
            prof = stage.profile
            if prof is not None and not isinstance(prof, EffectiveProfile):
                prof = EffectiveProfile(base=prof, overlap=cfg.overlap)
            out = QueryStage(
                name=stage.name, profile=prof, gamma=stage.gamma,
                model_id=stage.model_id,
            )
            for child in stage.children:
                out.add_child(clone(child))
            return out

        return Query(query.name, clone(query.root), query.slo_ms)

    def _effective(self, load: SessionLoad) -> SessionLoad:
        """Fold CPU occupancy into the profile and shave the planning SLO.

        The scheduler must see how long a batch ties up the GPU slot
        (``max(gpu, cpu)`` with overlap, ``gpu + cpu`` without), and plans
        against a slightly tightened SLO so worst-case bounds are not met
        with equality; the runtime keeps the full deadline.
        """
        cfg = self.config
        profile = load.profile
        if not isinstance(profile, EffectiveProfile):
            profile = EffectiveProfile(base=profile, overlap=cfg.overlap)
        slo = load.session.slo_ms
        margin = cfg.slo_margin
        if load.session_id in self._child_sessions:
            margin = max(margin, _CHILD_SLO_MARGIN)
        tightened = slo * (1.0 - margin)
        if 2.0 * profile.latency(1) > tightened:
            # Session can't afford the cushion: plan against the full SLO
            # and let admission control absorb the tail.
            tightened = slo
        session = Session(
            model_id=load.session.model_id,
            slo_ms=tightened,
            session_id=load.session.session_id,
        )
        return SessionLoad(session, load.rate_rps, profile)

    def _fuse_prefixes(self, loads: list[SessionLoad]) -> list[SessionLoad]:
        """Fuse sessions whose models share a prefix and latency SLO.

        Grouping key: (base model name, SLO rounded to 0.1 ms).  Only
        zoo-resolvable specialized models ("base@variant") participate;
        everything else passes through unchanged.
        """
        groups: dict[tuple[str, float], list[SessionLoad]] = {}
        passthrough: list[SessionLoad] = []
        for load in loads:
            model_id = load.session.model_id
            if "@" not in model_id:
                passthrough.append(load)
                continue
            base = model_id.split("@", 1)[0]
            key = (base, round(load.slo_ms, 1))
            groups.setdefault(key, []).append(load)

        fused: list[SessionLoad] = []
        for (base, slo), members in groups.items():
            if len(members) < 2:
                passthrough.extend(members)
                continue
            model_ids = [m.session.model_id for m in members]
            family = (tuple(model_ids), self.config.device)
            group = _FAMILY_PROFILES.get(family)
            if group is None:
                try:
                    graphs = [get_model(model_id) for model_id in model_ids]
                    device = get_device(self.config.device)
                    profiled = prefix_suffix_profiles(graphs, device)
                    group = remember(
                        _FAMILY_PROFILES, family,
                        PrefixGroup(model_ids, *profiled),
                    )
                except (KeyError, ValueError):
                    passthrough.extend(members)
                    continue
            rates = [m.rate_rps for m in members]
            total_rate = sum(rates)
            weights = (
                [r / total_rate for r in rates]
                if total_rate > 0
                else None
            )
            fused_id = f"pb:{base}@{slo:g}ms#{len(members)}"
            combined = group.combined_profile(weights, name=fused_id)
            # The key rounds the SLO; the fused session must not plan
            # against a looser one than any member's.
            fused_slo = min(slo, min(m.slo_ms for m in members))
            fused.append(
                SessionLoad(
                    Session(model_id=fused_id, slo_ms=fused_slo,
                            session_id=fused_id),
                    total_rate,
                    combined,
                )
            )
            for m in members:
                self.aliases[m.session_id] = fused_id
        return passthrough + fused

    def plan(self, rates: dict[str, float] | None = None) -> SchedulePlan:
        """Steps 1-3: produce the cluster plan (no deployment)."""
        loads = self.build_session_loads(rates)
        return self._pack(loads)

    def _pack(self, loads: list[SessionLoad]) -> SchedulePlan:
        cfg = self.config
        device = get_device(cfg.device)
        if cfg.scheduler == "squishy":
            if cfg.fleet is not None:
                return self._pack_onto_fleet(loads, cfg.fleet)
            memory = int(device.mem_capacity)
            plan = squishy_bin_packing(loads, memory_capacity=memory)
            if cfg.max_gpus is not None:
                if plan.num_gpus > cfg.max_gpus:
                    plan = self._shrink(loads, memory, cfg.max_gpus)
                elif cfg.expand_to_cluster and not cfg.dynamic:
                    plan = self._expand(loads, plan, memory, cfg.max_gpus)
            return plan
        if cfg.scheduler == "batch_oblivious":
            return batch_oblivious_plan(loads, num_gpus=cfg.max_gpus)
        raise ValueError(f"unknown scheduler {cfg.scheduler!r}")

    def _pack_onto_fleet(
        self, loads: list[SessionLoad], fleet: Fleet
    ) -> SchedulePlan:
        """Heterogeneous path: pick a class per session, pack per class.

        Each session is re-profiled on every fleet class (the analytic
        profiler models each device's flops/bandwidth), the cost- or
        GPU-minimizing class is chosen under the fleet's inventory
        bounds, and squishy bin packing runs once per class with that
        class's memory capacity.  The fleet's per-class ``count`` fields
        are the capacity bound, so ``max_gpus``/``expand_to_cluster`` do
        not apply here.
        """
        class_loads = {
            name: self._class_variants(loads, name) for name in fleet.names
        }
        assignment = assign_classes(
            class_loads, fleet, objective=self.config.objective
        )
        return pack_fleet(assignment.loads, fleet)

    def _class_variants(
        self, loads: list[SessionLoad], class_name: str
    ) -> list[SessionLoad]:
        """The given sessions carrying ``class_name``'s profiles.

        Sessions whose model cannot be re-profiled (prefix-fused
        pseudo-models) are pinned to the configured default class: they
        keep their existing profile and are offered on no other class.
        """
        cfg = self.config
        out: list[SessionLoad] = []
        for load in loads:
            try:
                base = profile_on(load.session.model_id, class_name)
            except (KeyError, ValueError):
                if class_name == cfg.device:
                    out.append(load.with_device(class_name))
                continue
            effective = EffectiveProfile(base=base, overlap=cfg.overlap)
            out.append(load.with_device(class_name, profile=effective))
        return out

    @staticmethod
    def _shrink(
        loads: list[SessionLoad],
        memory: int,
        max_gpus: int,
    ) -> SchedulePlan:
        """Demand exceeds the cluster: shed load *proportionally*.

        Scaling every session's rate down by a common factor until the
        plan fits keeps all sessions served (admission control absorbs the
        shed fraction uniformly); dropping whole GPU plans would zero out
        some sessions entirely.
        """
        best = _pack_scaled(loads, memory, 0.02)
        if best.num_gpus > max_gpus:
            return best  # even 2% does not fit; nothing better to do
        return _bisect_scale(loads, memory, max_gpus, 0.02, 1.0, best, 12)

    @staticmethod
    def _expand(
        loads: list[SessionLoad],
        plan: SchedulePlan,
        memory: int,
        max_gpus: int,
    ) -> SchedulePlan:
        """Scale rates up until the plan fills the fixed cluster.

        The fixed-cluster throughput experiments hand Nexus all 16 GPUs;
        extra capacity beyond demand absorbs bursts.  Binary search on a
        uniform rate multiplier keeps the allocation shape the packer
        chose.
        """
        if plan.num_gpus >= max_gpus:
            return plan
        lo, hi = 1.0, 2.0
        best = plan
        scale_cap = _EXPAND_SCALE_SLACK * max_gpus
        while ((cand := _pack_scaled(loads, memory, hi)).num_gpus <= max_gpus
               and hi < scale_cap):
            lo, hi, best = hi, hi * 2, cand
        return _bisect_scale(loads, memory, max_gpus, lo, hi, best, 10)

    # -------------------------------------------------------------- running

    def run(self, duration_ms: float, warmup_ms: float = 0.0,
            trace: bool = False,
            faults: FaultPlan | None = None) -> ClusterResult:
        """Plan, deploy, generate traffic, and serve for ``duration_ms``.

        The deployment is the live server's
        :class:`~repro.serving.runtime.ServingRuntime`, on a
        :class:`~repro.simulation.simulator.Simulator` clock.

        ``warmup_ms`` excludes an initial window from the metrics (queries
        *arriving* before it are not recorded).  ``trace=True`` records
        the full structured event stream into ``ClusterResult.trace``
        (see :mod:`repro.observability`); the ambient
        :func:`~repro.observability.capture_trace` buffer, when active,
        is attached as well.

        ``faults`` arms a :class:`~repro.cluster.faults.FaultPlan`
        against the deployment and installs the fault-tolerant control
        loop: a heartbeat/lease failure detector plus incremental
        epoch-driven recovery (dead backends' sessions are re-packed
        onto survivors, charging weight-reload costs).  Fault runs use
        the incremental :class:`~repro.core.epoch.EpochScheduler` in
        place of the scratch-replan ``dynamic`` loop.
        """
        # Imported here: repro.serving imports this module.
        from ..serving.runtime import ServingRuntime

        cfg = self.config
        sim = Simulator()
        # With faults the cluster is physically capped: a dead backend's
        # slot must not be replaced by drafting.
        runtime = ServingRuntime(
            sim, self, trace,
            max_backends=cfg.max_gpus if faults is not None else None,
        )
        core = runtime.core
        # Warm-up is a record-time filter, so it works in summary mode too.
        core.query_metrics.min_arrival_ms = warmup_ms
        plan = runtime.deploy()

        self._generate_traffic(sim, core.frontends, duration_ms)

        injector: FaultInjector | None = None
        monitor: HeartbeatMonitor | None = None
        if faults is not None:
            injector = FaultInjector(sim, core.pool.backends, faults)
            injector.arm()
            monitor = self._install_ft_loop(runtime, plan, duration_ms)
        elif cfg.dynamic:
            runtime.start_epoch_loop(until_ms=duration_ms)

        tail_ms = max((a.query.slo_ms for a in self.apps), default=0.0)
        sim.run_until(duration_ms + tail_ms + _DRAIN_GRACE_MS)

        return ClusterResult(
            query_metrics=core.query_metrics,
            invocation_metrics=core.invocation_metrics,
            plan=plan,
            gpus_used=max(core.pool.gpus_in_use, plan.num_gpus),
            duration_ms=duration_ms - warmup_ms,
            epochs=runtime.epochs,
            trace=(
                core.trace_buffer.events
                if core.trace_buffer is not None else None
            ),
            fault_log=injector.applied if injector is not None else None,
            detections=(
                monitor.declared_failures if monitor is not None else None
            ),
            events_processed=sim.events_processed,
        )

    def _generate_traffic(
        self, sim: Simulator, frontends: list[Frontend], duration_ms: float,
    ) -> None:
        """Feed every app's arrivals through one self-re-arming event.

        The apps' arrival lists merge lazily by ``(time, app index,
        arrival index)``, so the heap holds one pending arrival instead
        of all of them.  Priority -1 fires an arrival before runtime
        events at the same instant, and same-instant arrivals fire in
        app order -- the order pre-scheduling every arrival produced.
        """
        cfg = self.config
        stream = heapq.merge(*[
            zip(
                self._app_arrivals(app, duration_ms, cfg.seed + i * 7919),
                itertools.repeat(i), itertools.count(),
            )
            for i, app in enumerate(self.apps)
        ])
        targets = [
            (app.query, self.splits.get(app.query.name)) for app in self.apps
        ]
        n_frontends = len(frontends)
        head = next(stream, None)

        def arrive() -> None:
            nonlocal head
            assert head is not None
            _, i, j = head
            head = next(stream, None)
            if head is not None:
                sim.schedule_at(head[0], arrive, -1)
            query, budgets = targets[i]
            # The cluster load balancer spreads each app's queries
            # round-robin over the frontend replicas (section 5).
            frontends[j % n_frontends].submit_query(query, budgets)

        if head is not None:
            sim.schedule_at(head[0], arrive, -1)

    def _app_arrivals(
        self, app: AppSpec, duration_ms: float, seed: int
    ) -> list[float]:
        gen = poisson_arrivals if app.arrival == "poisson" else uniform_arrivals
        if app.rate_fn is None:
            return gen(app.rate_rps, duration_ms, seed=seed)
        # Time-varying rate: generate per 1-second slices.
        out: list[float] = []
        t = 0.0
        slice_ms = 1000.0
        k = 0
        while t < duration_ms:
            rate = float(app.rate_fn(t))
            span = min(slice_ms, duration_ms - t)
            chunk = gen(rate, span, seed=seed + k)
            out.extend(t + x for x in chunk)
            t += span
            k += 1
        return out

    def _install_ft_loop(
        self, runtime: ServingRuntime, plan: SchedulePlan, duration_ms: float,
    ) -> HeartbeatMonitor:
        """Fault-tolerant control loop: detect, re-pack, redeploy.

        The incremental :class:`EpochScheduler` adopts the deployed plan;
        a lease failure detector triggers an *emergency* recovery epoch
        the moment a backend is declared dead (the dead node's sessions
        are re-packed onto survivors under the shrunken GPU cap), and
        regular epoch ticks keep running on the nominal cadence.  The
        timers and detector are the
        :class:`~repro.runtime.core.RuntimeCore`'s and each new
        plan goes out through :meth:`ServingRuntime.redeploy`; only the
        re-pack policy lives here.
        """
        cfg = self.config
        core = runtime.core
        pool = core.pool
        loads = list(self._session_loads)
        scheduler = EpochScheduler(
            epoch_ms=cfg.epoch_ms,
            memory_capacity=int(get_device(cfg.device).mem_capacity),
            max_gpus=cfg.max_gpus,
            validate=cfg.scheduler == "squishy",
            fleet=cfg.fleet,
        )
        scheduler.adopt(plan, core.events.now, loads)
        self._ft_scheduler = scheduler

        def on_failure(backend_idx: int, now: float) -> None:
            dead_nodes = pool.nodes_on(backend_idx)
            # Unconditional: even with no configured cap the recovery
            # re-pack must not plan onto more GPUs than are alive, or
            # the redeploy silently drafts phantom backends for the dead
            # node's sessions.
            scheduler.max_gpus = pool.live_backends
            scheduler.handle_failure(now, dead_nodes, loads)
            runtime.redeploy(scheduler.plan, now)

        def on_recovery(backend_idx: int, now: float) -> None:
            scheduler.max_gpus = pool.live_backends
            scheduler.update(now, loads)
            runtime.redeploy(scheduler.plan, now)

        monitor = core.install_heartbeat(
            cfg.heartbeat_ms, cfg.lease_ms, on_failure, on_recovery
        )

        def on_tick(now: float) -> None:
            if scheduler.should_reschedule(now, loads):
                scheduler.update(now, loads)
                runtime.redeploy(scheduler.plan, now)

        core.install_epoch_loop(cfg.epoch_ms, on_tick, until_ms=duration_ms)
        return monitor

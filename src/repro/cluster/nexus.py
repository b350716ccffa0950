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

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable

from ..core.epoch import EpochScheduler
from ..core.fleet import Fleet, assign_classes
from ..core.prefix import PrefixGroup
from ..core.profile import EffectiveProfile, LinearProfile
from ..core.profile_tables import remember
from ..core.query import Query, QueryStage, even_split, plan_query
from ..core.session import Session, SessionLoad
from ..core.squishy import SchedulePlan, pack_fleet, squishy_bin_packing
from ..baselines.batch_oblivious import batch_oblivious_plan  # noqa: E402 -- leaf module, no cycle
from ..metrics.collector import MetricsCollector
from ..models import get_device, get_model, prefix_suffix_profiles
from ..models import profile as profile_on
from ..observability.events import TraceEvent
from ..runtime.core import RuntimeCore
from ..simulation.simulator import Simulator
from ..workloads.arrivals import poisson_arrivals, uniform_arrivals
from .faults import FaultInjector, FaultPlan
from .frontend import Frontend, RetryPolicy
from .global_scheduler import HeartbeatMonitor, PoolConfig

__all__ = [
    "ClusterConfig", "AppSpec", "ClusterResult", "NexusCluster",
    "equivalence_report", "pool_and_retry",
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

#: ``(member model ids, device) -> (prefix profile, suffix profiles,
#: prefix_len)``: a fused family's profiling is a pure function of its
#: membership, so epoch re-plans look it up instead of re-deriving it.
_FAMILY_PROFILES: dict[
    tuple[tuple[str, ...], str],
    tuple[LinearProfile, list[LinearProfile], int],
] = {}


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
    pacing: str = "cycle"               # "cycle" | "greedy"
    drop_policy: str = "early"          # "early" | "lazy"
    overlap: bool = True                # OL
    prefix_batching: bool = True        # PB
    query_analysis: bool = True         # QA
    interference_factor: float = 0.0    # Clipper-style container interference
    paced: bool = True                  # duty-cycle pacing (Nexus GPU scheduler)
    #: capacity cushion: plan for (1 + headroom) x the offered rate so the
    #: deployment is not balanced on a knife edge (real deployments do the
    #: same; the paper's 84%-of-optimal utilization reflects such slack).
    plan_headroom: float = 0.15
    #: plan sessions against (1 - slo_margin) x their latency budget so the
    #: runtime has jitter room; request deadlines still use the full budget.
    slo_margin: float = 0.1
    #: extra margin for non-root query stages: their arrivals come in
    #: pulses (a whole upstream batch completes at once), so they need
    #: more frequent, smaller batches than a smooth-arrival plan would
    #: pick.  Planning them against a tighter SLO buys exactly that.
    child_slo_margin: float = 0.35
    qa_epsilon_ms: float = 5.0
    qa_worst_case_factor: float = 2.0
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
    #: summary-mode metrics: fold every request outcome into counters and
    #: a log-spaced latency histogram at record time instead of retaining
    #: per-request records (megascale runs would hold millions).  Scalar
    #: metrics and approximate percentiles keep working; record-based
    #: timelines do not.
    summary_metrics: bool = False


def pool_and_retry(
    cfg: ClusterConfig, max_backends: int | None
) -> tuple[PoolConfig, RetryPolicy]:
    """The pool and retry knobs both drivers serve ``cfg`` with: the
    simulator (:meth:`NexusCluster.run`) and the live
    :class:`~repro.serving.runtime.ServingRuntime` differ only in
    ``max_backends``."""
    pool_config = PoolConfig(
        pacing=cfg.pacing,
        overlap=cfg.overlap,
        drop_policy=cfg.drop_policy,
        interference_factor=cfg.interference_factor,
        paced=cfg.paced,
        max_backends=max_backends,
        # Algorithm-1 invariant assertion layer: every deployed squishy
        # plan must be provably SLO- and memory-sound.  Baselines
        # (batch-oblivious) are infeasible by design.
        validate_plans=cfg.scheduler == "squishy",
        memory_capacity=int(get_device(cfg.device).mem_capacity),
        fleet=cfg.fleet,
    )
    retry_policy = RetryPolicy(
        max_retries=cfg.retry_max, backoff_ms=cfg.retry_backoff_ms,
    )
    return pool_config, retry_policy


@dataclass
class AppSpec:
    """One application: a query plus its offered load."""

    query: Query
    rate_rps: float
    arrival: str = "uniform"            # "uniform" | "poisson"
    #: optional time-varying rate, ms -> rps (drives Figure 13); when set,
    #: ``rate_rps`` is only the planning-time estimate.
    rate_fn: Callable[[float], float] | None = None


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
    per-session integer counters, per-session sorted latency lists, the
    exactly-rounded total GPU busy time (``math.fsum`` is
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

    payload = {
        "queries": per_session(result.query_metrics),
        "invocations": per_session(result.invocation_metrics),
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


class NexusCluster:
    """Build, plan, and run one cluster deployment."""

    def __init__(self, config: ClusterConfig | None = None) -> None:
        self.config = config or ClusterConfig()
        self.apps: list[AppSpec] = []
        self._session_loads: list[SessionLoad] = []
        self._aliases: dict[str, str] = {}
        self._splits: dict[str, dict[str, float]] = {}
        self._child_sessions: set[str] = set()

    # ----------------------------------------------------------- declaring

    def add_app(self, app: AppSpec) -> None:
        self.apps.append(app)

    def add_query(self, query: Query, rate_rps: float, arrival: str = "uniform",
                  rate_fn: Callable[[float], float] | None = None) -> None:
        self.add_app(AppSpec(query, rate_rps, arrival, rate_fn))

    # ------------------------------------------------------------ planning

    def build_session_loads(
        self, rates: dict[str, float] | None = None
    ) -> list[SessionLoad]:
        """Steps 1-2: latency splits + prefix fusion -> session loads.

        Args:
            rates: per-app rate overrides keyed by query name (used by the
                dynamic control plane); defaults to the declared rates.
        """
        cfg = self.config
        loads: list[SessionLoad] = []
        self._aliases = {}
        self._splits = {}
        self._child_sessions: set[str] = set()
        for app in self.apps:
            rate = app.rate_rps if rates is None else rates.get(
                app.query.name, app.rate_rps
            )
            planned = rate * (1.0 + cfg.plan_headroom)
            # Plan splits against *effective* profiles (CPU occupancy
            # folded in, per the overlap setting) so the DP's view of each
            # stage's capacity matches what the packer and runtime see.
            eff_query = self._effective_query(app.query)
            even = even_split(
                eff_query, max(planned, 1e-6),
                worst_case_factor=cfg.qa_worst_case_factor,
            )
            split = even
            if cfg.query_analysis and len(app.query.stages()) > 1:
                try:
                    dp = plan_query(
                        eff_query,
                        max(planned, 1e-6),
                        epsilon_ms=cfg.qa_epsilon_ms,
                        worst_case_factor=cfg.qa_worst_case_factor,
                    )
                except ValueError:
                    dp = None
                # Adopt the DP split only when it predicts a real saving:
                # uneven splits shave children's budgets, which costs the
                # runtime burst slack, so a sub-noise predicted gain is not
                # worth taking.  (Also covers SLOs the even split cannot
                # satisfy at all.)
                if dp is not None and (
                    math.isinf(even.total_gpus)
                    or dp.total_gpus <= 0.97 * even.total_gpus
                ):
                    split = dp
            split = replace(split, rate_rps=planned)
            self._splits[app.query.name] = dict(split.budgets_ms)
            app_loads = split.sessions(app.query)  # raw profiles; wrapped below
            root_name = app.query.root.name
            for load in app_loads:
                stage_name = load.session_id.rsplit("/", 1)[-1]
                is_child = stage_name != root_name and not (
                    app.query.root.is_source
                    and any(c.name == stage_name
                            for c in app.query.root.children)
                )
                self._child_sessions.add(load.session_id) if is_child else None
            loads.extend(app_loads)

        if cfg.prefix_batching:
            loads = self._fuse_prefixes(loads)
        loads = [self._effective(load) for load in loads]
        self._session_loads = loads
        return loads

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
        if load.session_id in getattr(self, "_child_sessions", set()):
            margin = max(margin, cfg.child_slo_margin)
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

        Grouping key: (base model name, SLO rounded to the ms).  Only
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
            profiled = _FAMILY_PROFILES.get(family)
            if profiled is None:
                try:
                    graphs = [get_model(model_id) for model_id in model_ids]
                    device = get_device(self.config.device)
                    profiled = remember(
                        _FAMILY_PROFILES, family,
                        prefix_suffix_profiles(graphs, device),
                    )
                except (KeyError, ValueError):
                    passthrough.extend(members)
                    continue
            prefix_prof, suffix_profs, plen = profiled
            group = PrefixGroup(
                model_ids=model_ids,
                prefix_profile=prefix_prof,
                suffix_profiles=suffix_profs,
                prefix_len=plen,
            )
            rates = [m.rate_rps for m in members]
            total_rate = sum(rates)
            weights = (
                [r / total_rate for r in rates]
                if total_rate > 0
                else None
            )
            fused_id = f"pb:{base}@{slo:g}ms#{len(members)}"
            combined = group.combined_profile(weights, name=fused_id)
            fused.append(
                SessionLoad(
                    Session(model_id=fused_id, slo_ms=slo, session_id=fused_id),
                    total_rate,
                    combined,
                )
            )
            for m in members:
                self._aliases[m.session_id] = fused_id
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
        def pack_at(scale: float) -> SchedulePlan:
            scaled = [l.with_rate(l.rate_rps * scale) for l in loads]
            return squishy_bin_packing(scaled, memory_capacity=memory)

        lo, hi = 0.02, 1.0
        best = pack_at(lo)
        if best.num_gpus > max_gpus:
            return best  # even 2% does not fit; nothing better to do
        for _ in range(12):
            mid = (lo + hi) / 2
            cand = pack_at(mid)
            if cand.num_gpus <= max_gpus:
                lo = mid
                best = cand
            else:
                hi = mid
        return best

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

        def pack_at(scale: float) -> SchedulePlan:
            scaled = [l.with_rate(l.rate_rps * scale) for l in loads]
            return squishy_bin_packing(scaled, memory_capacity=memory)

        lo, hi = 1.0, 2.0
        scale_cap = _EXPAND_SCALE_SLACK * max_gpus
        while pack_at(hi).num_gpus <= max_gpus and hi < scale_cap:
            lo, hi = hi, hi * 2
        best = plan
        for _ in range(10):
            mid = (lo + hi) / 2
            cand = pack_at(mid)
            if cand.num_gpus <= max_gpus:
                lo = mid
                best = cand
            else:
                hi = mid
        return best

    # -------------------------------------------------------------- running

    def run(self, duration_ms: float, warmup_ms: float = 0.0,
            trace: bool = False,
            faults: FaultPlan | None = None) -> ClusterResult:
        """Plan, deploy, generate traffic, and serve for ``duration_ms``.

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
        cfg = self.config
        sim = Simulator()
        # With faults the cluster is physically capped: a dead backend's
        # slot must not be replaced by drafting.
        pool_config, retry_policy = pool_and_retry(
            cfg, cfg.max_gpus if faults is not None else None
        )
        core = RuntimeCore(
            sim,
            pool_config=pool_config,
            num_frontends=cfg.num_frontends,
            seed=cfg.seed,
            retry_policy=retry_policy,
            trace=trace,
            summary_metrics=cfg.summary_metrics,
        )
        # Warm-up is a record-time filter, so it works in summary mode too.
        core.query_metrics.min_arrival_ms = warmup_ms
        pool = core.pool

        plan = self.plan()
        core.deploy(plan, self._aliases)

        self._generate_traffic(sim, core.frontends, duration_ms)

        injector: FaultInjector | None = None
        monitor: HeartbeatMonitor | None = None
        epoch_state = {"epochs": 0, "last": 0.0}
        if faults is not None:
            injector = FaultInjector(sim, pool.backends, faults)
            injector.arm()
            monitor = self._install_ft_loop(
                core, plan, duration_ms, epoch_state
            )
        elif cfg.dynamic:
            self._install_epoch_loop(core, duration_ms, epoch_state)

        tail_ms = max((a.query.slo_ms for a in self.apps), default=0.0)
        sim.run_until(duration_ms + tail_ms + _DRAIN_GRACE_MS)
        epochs = int(epoch_state["epochs"])

        return ClusterResult(
            query_metrics=core.query_metrics,
            invocation_metrics=core.invocation_metrics,
            plan=plan,
            gpus_used=max(pool.gpus_in_use, plan.num_gpus),
            duration_ms=duration_ms - warmup_ms,
            epochs=epochs,
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
        cfg = self.config
        for i, app in enumerate(self.apps):
            arrivals = self._app_arrivals(app, duration_ms, cfg.seed + i * 7919)
            budgets = self._splits.get(app.query.name)
            # The cluster load balancer spreads queries round-robin over
            # the frontend replicas (section 5).
            for j, t in enumerate(arrivals):
                fe = frontends[j % len(frontends)]
                sim.schedule_at(
                    t,
                    lambda q=app.query, b=budgets, f=fe: f.submit_query(q, b),
                )

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

    def _install_epoch_loop(
        self, core: RuntimeCore, duration_ms: float,
        state: dict[str, float],
    ) -> None:
        """Section 5's control loop: measure, re-plan, redeploy.

        The cadence timer lives in :meth:`RuntimeCore.install_epoch_loop`
        (shared with the live serving driver); this method supplies the
        simulator driver's policy -- scratch re-plan from observed
        whole-query rates.  ``state`` is the run's epoch counter and
        last-tick time.
        """
        cfg = self.config

        def on_tick(now: float) -> None:
            span_s = max((now - state["last"]) / 1000.0, 1e-9)
            _, counters = core.read_counters()
            # App-level observed rates (whole-query arrivals).
            rates: dict[str, float] = {}
            for app in self.apps:
                rates[app.query.name] = counters.get(app.query.name, 0) / span_s
            state["last"] = now
            plan = self.plan(rates)
            core.deploy(plan, self._aliases)
            state["epochs"] += 1
            core.tracer.epoch_planned(now, state["epochs"], plan.num_gpus,
                                      rates=rates)

        core.install_epoch_loop(cfg.epoch_ms, on_tick, until_ms=duration_ms)

    def _install_ft_loop(
        self, core: RuntimeCore, plan: SchedulePlan, duration_ms: float,
        state: dict[str, float],
    ) -> HeartbeatMonitor:
        """Fault-tolerant control loop: detect, re-pack, redeploy.

        The incremental :class:`EpochScheduler` adopts the deployed plan;
        a lease failure detector triggers an *emergency* recovery epoch
        the moment a backend is declared dead (the dead node's sessions
        are re-packed onto survivors under the shrunken GPU cap), and
        regular epoch ticks keep running on the nominal cadence.  The
        timers and detector are the :class:`RuntimeCore`'s; only the
        re-pack policy lives here.  ``state`` is the run's epoch counter.
        """
        cfg = self.config
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

        def redeploy(now: float) -> None:
            core.deploy(scheduler.plan, self._aliases)
            state["epochs"] += 1
            core.tracer.epoch_planned(now, state["epochs"],
                                      scheduler.plan.num_gpus)

        def on_failure(backend_idx: int, now: float) -> None:
            dead_nodes = pool.nodes_on(backend_idx)
            # Unconditional: even with no configured cap the recovery
            # re-pack must not plan onto more GPUs than are alive, or
            # the redeploy silently drafts phantom backends for the dead
            # node's sessions.
            scheduler.max_gpus = pool.live_backends
            scheduler.handle_failure(now, dead_nodes, loads)
            redeploy(now)

        def on_recovery(backend_idx: int, now: float) -> None:
            scheduler.max_gpus = pool.live_backends
            scheduler.update(now, loads)
            redeploy(now)

        monitor = core.install_heartbeat(
            cfg.heartbeat_ms, cfg.lease_ms, on_failure, on_recovery
        )

        def on_tick(now: float) -> None:
            if scheduler.should_reschedule(now, loads):
                scheduler.update(now, loads)
                redeploy(now)

        core.install_epoch_loop(cfg.epoch_ms, on_tick, until_ms=duration_ms)
        return monitor


def find_max_rate(
    make_cluster: Callable[[float], "NexusCluster"],
    base_rates: dict[str, float],
    target_good_rate: float = 0.99,
    duration_ms: float = 20_000.0,
    warmup_ms: float = 2_000.0,
    lo_scale: float = 0.05,
    hi_scale: float = 4.0,
    iterations: int = 8,
) -> tuple[float, ClusterResult | None]:
    """Binary-search the workload scale keeping query good rate >= target.

    The paper's throughput metric at cluster level.  ``make_cluster`` is a
    ``scale -> NexusCluster`` factory that declares apps with rates
    ``scale * base_rates[app]`` (and plans for them).

    Returns ``(max_total_rps, result_at_max)``.
    """
    total_base = sum(base_rates.values())

    def attempt(scale: float) -> tuple[bool, ClusterResult]:
        cluster = make_cluster(scale)
        result = cluster.run(duration_ms, warmup_ms)
        return result.good_rate >= target_good_rate, result

    ok_lo, res_lo = attempt(lo_scale)
    if not ok_lo:
        return 0.0, res_lo
    lo, hi = lo_scale, hi_scale
    best = res_lo
    for _ in range(iterations):
        mid = (lo + hi) / 2.0
        ok, res = attempt(mid)
        if ok:
            lo, best = mid, res
        else:
            hi = mid
    return lo * total_base, best

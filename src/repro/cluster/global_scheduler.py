"""Global scheduler: the control plane that turns plans into deployments.

Paper section 5: the global scheduler collects load statistics from the
runtime, invokes the epoch scheduler to decide which models execute where
and at what batch size, and pushes routing tables to frontends and
execution schedules to backends.

:class:`BackendPool` owns the physical backends and applies a
:class:`~repro.core.squishy.SchedulePlan` with minimal churn: plan nodes
that were already deployed stay on their backend (stable ``node_id``
stickiness); remaining plans are matched to the backends hosting the
most-overlapping session sets before new backends are drafted.

:class:`HeartbeatMonitor` is the failure detector: backends hold a lease
that live ones renew every heartbeat; a backend whose lease expires is
declared dead within ``lease_ms + heartbeat_ms`` of the actual crash and
handed to the recovery callback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..core.drop import DropPolicy, EarlyDropPolicy, LazyDropPolicy
from ..core.fleet import Fleet
from ..core.floatcmp import definitely_gt
from ..core.squishy import GpuPlan, SchedulePlan
from ..observability.tracer import NULL_TRACER, Tracer
from .backend import Backend, BackendSession
from .frontend import RoutingTable

if TYPE_CHECKING:
    from ..runtime.clock import EventSource

__all__ = ["BackendPool", "HeartbeatMonitor", "make_policy"]


def make_policy(kind: str, target_batch: int) -> DropPolicy:
    """Instantiate the configured drop policy for one session slot."""
    if kind == "early":
        return EarlyDropPolicy(target_batch)
    if kind == "lazy":
        return LazyDropPolicy(batch_cap=target_batch)
    raise ValueError(f"unknown drop policy {kind!r}")


#: ``PoolConfig.pacing`` -> the backends' execution discipline.
_BACKEND_PACING = {"cycle": "cycle", "round_robin": "cycle", "greedy": "greedy"}


@dataclass
class PoolConfig:
    """Runtime knobs applied to every backend in the pool."""

    #: "cycle" paces each session to its planned duty cycle (Nexus's GPU
    #: scheduler); "round_robin" and "greedy" run with zero duty cycles,
    #: executing as soon as the GPU frees up -- round robin across
    #: sessions (TF Serving) or oldest request first (Clipper).
    pacing: str = "cycle"
    overlap: bool = True
    drop_policy: str = "early"
    interference_factor: float = 0.0
    #: hard cap on backend slots (the physical cluster size); ``None`` =
    #: draft freely.  With a cap, a failed backend's slot stays dead --
    #: recovery must re-pack onto the survivors, not draft a replacement.
    max_backends: int | None = None
    #: check every applied plan against the Algorithm-1 invariants
    #: (:mod:`repro.analysis.plan_check`) before deployment; a violation
    #: raises :class:`~repro.analysis.plan_check.PlanCheckError`.  Off by
    #: default so baselines that are latency-infeasible by design (e.g.
    #: batch-oblivious) still deploy.
    validate_plans: bool = False
    #: per-GPU memory bound the validator enforces (``None`` = unchecked).
    memory_capacity: int | None = None
    #: heterogeneous fleet: class-tags backend slots, restricts matching
    #: to same-class slots, and switches plan validation to per-class
    #: memory/consistency invariants.  ``None`` = homogeneous cluster.
    fleet: Fleet | None = None

    def __post_init__(self) -> None:
        if self.pacing not in _BACKEND_PACING:
            raise ValueError(f"unknown pacing {self.pacing!r}")


class BackendPool:
    """Physical backends + the routing table, kept in sync with plans.

    ``tracer`` is shared with every backend the pool drafts; its
    invocation collector receives their outcomes and one GPU-count
    sample per applied plan.
    """

    def __init__(
        self,
        sim: EventSource,
        routing: RoutingTable,
        config: PoolConfig | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.sim = sim
        self.routing = routing
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.config = config or PoolConfig()
        self.backends: list[Backend] = []
        self._active: set[int] = set()
        #: session -> gpu placement from the last applied plan, for
        #: placement/relocation events across epochs.
        self._placement: dict[str, int] = {}
        #: backend indices declared dead by the failure detector; never
        #: assigned plans until marked recovered.
        self.failed: set[int] = set()
        #: plan node_id -> backend index from the last applied plan
        #: (stable identity across epochs; basis for sticky matching and
        #: for mapping a dead backend back to its plan nodes).
        self._node_backend: dict[int, int] = {}
        #: backend slot -> device class, fixed the first time a slot is
        #: drafted (a physical machine's class never changes; a drained
        #: t4 slot cannot host a 1080ti plan node later).
        self._slot_device: dict[int, str] = {}

    @property
    def gpus_in_use(self) -> int:
        return len(self._active)

    @property
    def live_backends(self) -> int:
        """Backend slots currently usable for placement."""
        cap = self.config.max_backends
        if cap is None:
            return max(0, len(self.backends) - len(self.failed))
        return max(0, cap - len(self.failed))

    def mark_failed(self, backend_idx: int) -> None:
        """The failure detector declared this backend dead."""
        self.failed.add(backend_idx)
        self._active.discard(backend_idx)

    def mark_recovered(self, backend_idx: int) -> None:
        """A declared-dead backend is serving heartbeats again."""
        self.failed.discard(backend_idx)

    def nodes_on(self, backend_idx: int) -> list[int]:
        """Plan node ids deployed on the given backend slot."""
        return sorted(
            nid for nid, b in self._node_backend.items() if b == backend_idx
        )

    def apply_plan(self, plan: SchedulePlan) -> None:
        """Deploy a plan: match GPU plans to backends, push schedules/routes."""
        if self.config.validate_plans:
            # Lazy import: repro.analysis depends on repro.core, and the
            # cluster package is imported from both directions.
            from ..analysis.plan_check import assert_valid_plan

            assert_valid_plan(
                plan, memory_capacity=self.config.memory_capacity,
                fleet=self.config.fleet,
            )
        assignments = self._match(plan.gpus)

        new_routes: dict[str, list[tuple[Backend, float]]] = {}
        self._active = set()
        for backend_idx, gpu_plan in assignments:
            backend = self._backend(backend_idx)
            if gpu_plan.device and not backend.device:
                backend.device = gpu_plan.device
            specs = []
            for alloc in gpu_plan.allocations:
                if self.config.pacing != "cycle":
                    duty = 0.0
                else:
                    duty = (
                        gpu_plan.duty_cycle_ms
                        if not gpu_plan.saturated
                        else alloc.exec_ms
                    )
                    # Never pace a session slower than its SLO permits:
                    # waiting longer than (SLO - batch latency) between
                    # executions guarantees misses regardless of load.
                    duty = min(duty, max(0.0, alloc.load.slo_ms - alloc.exec_ms))
                # PCIe model load for a newly placed session (section
                # 2.2): resident weight bytes at ~12 GB/s plus framework
                # init.
                load_ms = (
                    50.0
                    + alloc.load.profile.memory_model_bytes / 12e9 * 1000.0
                )
                specs.append(
                    BackendSession(
                        session_id=alloc.session_id,
                        profile=alloc.load.profile,
                        slo_ms=alloc.load.slo_ms,
                        target_batch=alloc.batch,
                        duty_cycle_ms=duty,
                        policy=make_policy(self.config.drop_policy, alloc.batch),
                        load_ms=load_ms,
                    )
                )
                capacity = alloc.batch / max(gpu_plan.duty_cycle_ms, 1e-9)
                new_routes.setdefault(alloc.session_id, []).append(
                    (backend, capacity)
                )
            backend.set_schedule(specs)
            self._active.add(backend_idx)

        # Drain backends not in the new plan.
        for i, backend in enumerate(self.backends):
            if i not in self._active and backend.num_sessions:
                backend.set_schedule([])

        for session_id in self.routing.sessions():
            if session_id not in new_routes:
                self.routing.set_routes(session_id, [])
        for session_id, targets in new_routes.items():
            self.routing.set_routes(session_id, targets)

        self._node_backend = {
            gpu_plan.node_id: b_idx for b_idx, gpu_plan in assignments
        }
        self._emit_placement_events(assignments)
        self.tracer.plan_applied(self.sim.now, len(self._active))

    def _emit_placement_events(
        self, assignments: list[tuple[int, GpuPlan]]
    ) -> None:
        """Diff the new placement against the previous plan's and emit
        session placed/removed/relocated lifecycle events."""
        now = self.sim.now
        new_placement: dict[str, int] = {}
        for backend_idx, gpu_plan in assignments:
            gpu_id = self._backend(backend_idx).gpu_id
            for sid in gpu_plan.session_ids():
                new_placement[sid] = gpu_id
        if self.tracer.recording:
            old = self._placement
            for sid, gpu in new_placement.items():
                if sid not in old:
                    self.tracer.session_placed(now, gpu, sid)
                elif old[sid] != gpu:
                    self.tracer.session_relocated(now, gpu, sid,
                                                  from_gpu=old[sid])
            for sid, gpu in old.items():
                if sid not in new_placement:
                    self.tracer.session_removed(now, gpu, sid)
        self._placement = new_placement

    def _backend(self, idx: int) -> Backend:
        while len(self.backends) <= idx:
            self.backends.append(
                Backend(
                    self.sim,
                    gpu_id=len(self.backends),
                    tracer=self.tracer,
                    pacing=_BACKEND_PACING[self.config.pacing],
                    overlap=self.config.overlap,
                    interference_factor=self.config.interference_factor,
                )
            )
        return self.backends[idx]

    def _match(self, gpu_plans: list[GpuPlan]) -> list[tuple[int, GpuPlan]]:
        """Assign plans to backend slots with minimal movement.

        Three passes: (0) a plan node already deployed keeps its backend
        (stable ``node_id`` stickiness -- immune to the occupancy re-sort
        the epoch scheduler applies every update); (1) remaining plans
        claim the backend whose current sessions overlap most; (2) the
        rest fill free or newly drafted slots.  Failed backend slots are
        never assigned.  Keeps models resident across epochs where
        possible (section 6.1: "minimizing the movement of models across
        nodes").

        A class-tagged plan node only lands on a slot of its class: a
        slot's class is fixed when first drafted, and every pass skips
        incompatible slots (an untagged, never-drafted slot accepts any
        class and adopts the node's).
        """
        current: dict[int, set[str]] = {
            i: set(backend._sessions)  # noqa: SLF001 -- pool owns backends
            for i, backend in enumerate(self.backends)
            if i not in self.failed
        }

        plan_taken: set[int] = set()
        backend_taken: set[int] = set(self.failed)
        out: list[tuple[int, GpuPlan]] = []

        def compatible(b_idx: int, plan: GpuPlan) -> bool:
            slot_class = self._slot_device.get(b_idx, "")
            return slot_class == plan.device or not slot_class

        def claim(b_idx: int, p_idx: int, plan: GpuPlan) -> None:
            plan_taken.add(p_idx)
            backend_taken.add(b_idx)
            if plan.device:
                self._slot_device.setdefault(b_idx, plan.device)
            out.append((b_idx, plan))

        # Pass 0: node_id stickiness.
        for p_idx, plan in enumerate(gpu_plans):
            b_idx = self._node_backend.get(plan.node_id)
            if b_idx is None or b_idx in backend_taken:
                continue
            if b_idx >= len(self.backends):
                continue
            if not compatible(b_idx, plan):
                continue
            claim(b_idx, p_idx, plan)

        # Pass 1: session overlap.
        scored: list[tuple[int, int, int]] = []  # (-overlap, plan_idx, backend_idx)
        for p_idx, plan in enumerate(gpu_plans):
            if p_idx in plan_taken:
                continue
            sessions = set(plan.session_ids())
            for b_idx, hosted in current.items():
                if b_idx in backend_taken or not compatible(b_idx, plan):
                    continue
                overlap = len(sessions & hosted)
                if overlap:
                    scored.append((-overlap, p_idx, b_idx))
        scored.sort()
        for neg, p_idx, b_idx in scored:
            if p_idx in plan_taken or b_idx in backend_taken:
                continue
            claim(b_idx, p_idx, gpu_plans[p_idx])

        # Pass 2: free / drafted slots (skipping dead and wrong-class ones).
        for p_idx, plan in enumerate(gpu_plans):
            if p_idx in plan_taken:
                continue
            next_free = 0
            while next_free in backend_taken or not compatible(next_free, plan):
                next_free += 1
            cap = self.config.max_backends
            if cap is not None and next_free >= cap:
                raise ValueError(
                    f"plan needs more than the {cap} backend slots the "
                    f"cluster has ({len(self.failed)} failed)"
                )
            claim(next_free, p_idx, plan)
        return out


class HeartbeatMonitor:
    """Lease-based failure detector over a :class:`BackendPool`.

    Every ``heartbeat_ms`` the monitor sweeps the pool: a live backend
    renews its lease (``last_beat = now``); a backend whose lease has
    been stale for more than ``lease_ms`` is declared dead -- the pool
    marks the slot failed and ``on_failure(backend_idx, now)`` fires so
    the control plane can run a recovery epoch.  A declared-dead backend
    that starts answering again is declared recovered symmetrically.

    Detection bound: a backend that crashes at time ``t`` renewed its
    lease at most ``heartbeat_ms`` before ``t``, and the declaring sweep
    runs at most ``heartbeat_ms`` after the lease goes stale, so the
    declaration lands within ``lease_ms + 2 * heartbeat_ms`` of the
    crash (and never before ``lease_ms`` has elapsed).
    """

    def __init__(
        self,
        sim: EventSource,
        pool: BackendPool,
        heartbeat_ms: float = 500.0,
        lease_ms: float = 2_000.0,
        on_failure: Callable[[int, float], None] | None = None,
        on_recovery: Callable[[int, float], None] | None = None,
    ) -> None:
        if heartbeat_ms <= 0 or lease_ms <= 0:
            raise ValueError("heartbeat_ms and lease_ms must be > 0")
        self.sim = sim
        self.pool = pool
        self.heartbeat_ms = heartbeat_ms
        self.lease_ms = lease_ms
        self.on_failure = on_failure
        self.on_recovery = on_recovery
        self._last_beat: dict[int, float] = {}
        self._declared: set[int] = set()
        self._running = False
        #: (backend_idx, declared_at_ms) log of every declaration.
        self.declared_failures: list[tuple[int, float]] = []

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._tick()

    def stop(self) -> None:
        self._running = False

    @property
    def suspected(self) -> set[int]:
        return set(self._declared)

    def _tick(self) -> None:
        if not self._running:
            return
        now = self.sim.now
        for idx, backend in enumerate(self.pool.backends):
            if backend.alive:
                self._last_beat[idx] = now
                if idx in self._declared:
                    self._declared.discard(idx)
                    self.pool.mark_recovered(idx)
                    self.pool.tracer.backend_recovered(
                        now, backend.gpu_id, cause="heartbeat_resumed"
                    )
                    if self.on_recovery is not None:
                        self.on_recovery(idx, now)
                continue
            if idx in self._declared:
                continue
            # A backend first observed already-dead leases from this
            # sweep, keeping the "never before lease_ms" lower bound.
            last = self._last_beat.setdefault(idx, now)
            # Tolerant comparison: a lease exactly at its deadline (or
            # within float jitter of it -- wall-clock timers land with
            # ~ns error) is still held; only a definitely stale lease
            # declares the backend dead.
            if definitely_gt(now - last, self.lease_ms):
                self._declared.add(idx)
                self.declared_failures.append((idx, now))
                self.pool.mark_failed(idx)
                self.pool.tracer.backend_failed(
                    now, backend.gpu_id, cause="lease_expired"
                )
                if self.on_failure is not None:
                    self.on_failure(idx, now)
        self.sim.schedule(self.heartbeat_ms, self._tick)

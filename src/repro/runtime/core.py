"""RuntimeCore: the serving core under every clock.

Extracted from ``NexusCluster.run()``'s inline wiring so the
discrete-event simulator became one clock among several.  The core owns
everything a deployment needs at serve time --
routing table, metrics collectors, the tracer that feeds them, backend pool,
frontend replicas -- plus the control-loop machinery (epoch cadence
timers and the heartbeat/lease failure detector) that used to live in
``tick()``/``on_failure()`` closures inside :mod:`repro.cluster.nexus`.

What stays *out* of the core is policy: planning (which plan to deploy)
and traffic (what to submit) belong to the one driver,
:class:`~repro.serving.runtime.ServingRuntime`, which builds the core
under the simulator (``NexusCluster.run``) and on wall-clock time
(:mod:`repro.serving`).  Every clock deploys through
:meth:`RuntimeCore.deploy` and observes through the same tracer/metrics
stream, which is what makes the driver-equivalence test
(``tests/test_serving.py::TestDriverEquivalence``) possible.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from .clock import EventSource, TimerHandle

if TYPE_CHECKING:  # break the runtime<->cluster import cycle (see below)
    from ..cluster.frontend import Frontend, QueryInstance, RetryPolicy, RoutingTable
    from ..cluster.global_scheduler import BackendPool, HeartbeatMonitor, PoolConfig
    from ..core.query import Query
    from ..core.squishy import SchedulePlan
    from ..metrics.collector import MetricsCollector
    from ..observability.tracer import TraceBuffer, Tracer
    from ..cluster.messages import Request

__all__ = ["RuntimeCore", "ControlLoopHandle"]


class ControlLoopHandle:
    """A recurring control-loop timer that can be stopped."""

    __slots__ = ("_timer", "stopped")

    def __init__(self) -> None:
        self._timer: TimerHandle | None = None
        self.stopped = False

    def stop(self) -> None:
        self.stopped = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None


class RuntimeCore:
    """Routing + pool + frontends + control loops over one event source.

    Args:
        events: the clock driver -- a
            :class:`~repro.simulation.simulator.Simulator` (virtual time)
            or an :class:`~repro.runtime.clock.AsyncioEventSource` /
            :class:`~repro.runtime.clock.ManualEventSource` (wall-clock
            semantics).  All cluster components downstream speak float
            milliseconds through it.
        pool_config: runtime knobs applied to every backend.
        num_frontends: frontend replicas (requests round-robin across
            them, mirroring the paper's cluster load balancer).
        seed: base RNG seed; replica ``i`` gets ``seed + 1009 * i`` (the
            same derivation ``NexusCluster.run`` always used, so sim
            results are bit-for-bit unchanged by the extraction).
        retry_policy: frontend behavior for requests lost to backend
            failures.
        trace: record the full structured event stream into
            :attr:`trace_buffer` (otherwise the tracer only records
            outcomes into the two collectors).
        summary_metrics: metrics collectors fold each outcome into
            counters, per-session stats and a latency histogram at record
            time instead of retaining per-request records.
            :class:`~repro.serving.runtime.ServingRuntime` takes it from
            ``ClusterConfig.summary_metrics``: on for megascale shards
            and the live server, off for simulations whose experiments
            read record timelines.
    """

    def __init__(
        self,
        events: EventSource,
        pool_config: "PoolConfig | None" = None,
        num_frontends: int = 1,
        seed: int = 0,
        retry_policy: "RetryPolicy | None" = None,
        trace: bool = False,
        summary_metrics: bool = False,
    ) -> None:
        # Imported lazily: repro.cluster.nexus imports this module at
        # module level, and the cluster package initializes nexus last --
        # a module-level import back into repro.cluster here would leave
        # whichever package imports first partially initialized.
        from ..cluster.frontend import Frontend, RetryPolicy, RoutingTable
        from ..cluster.global_scheduler import BackendPool, PoolConfig
        from ..metrics.collector import MetricsCollector
        from ..observability.tracer import TraceBuffer, Tracer, active_trace_buffer

        self.events = events
        self.routing: "RoutingTable" = RoutingTable()
        # Summary mode folds outcomes into counters/histograms at record
        # time instead of retaining per-request records -- megascale runs
        # and long-lived servers would otherwise hold millions of them
        # (see MetricsCollector).
        keep = not summary_metrics
        self.invocation_metrics: "MetricsCollector" = MetricsCollector(
            keep_records=keep
        )
        self.query_metrics: "MetricsCollector" = MetricsCollector(
            keep_records=keep
        )

        # One tracer serves the whole deployment: it records every outcome
        # into the two collectors, then hands the event to the sinks the
        # exporters read.
        sinks: list[object] = []
        self.trace_buffer: "TraceBuffer | None" = TraceBuffer() if trace else None
        if self.trace_buffer is not None:
            sinks.append(self.trace_buffer)
        ambient = active_trace_buffer()
        if ambient is not None:
            sinks.append(ambient)
        self.tracer: "Tracer" = Tracer(
            sinks, invocation=self.invocation_metrics, query=self.query_metrics
        )
        attach = getattr(events, "attach_tracer", None)
        if attach is not None:  # only the simulator records run windows
            attach(self.tracer)

        self.pool: "BackendPool" = BackendPool(
            events,
            self.routing,
            tracer=self.tracer,
            config=pool_config or PoolConfig(),
        )
        self.frontends: "list[Frontend]" = [
            Frontend(
                events,
                self.routing,
                seed=seed + 1009 * i,
                tracer=self.tracer,
                retry_policy=retry_policy or RetryPolicy(),
            )
            for i in range(max(1, num_frontends))
        ]
        self._rr = 0
        self._loops: list[ControlLoopHandle] = []
        self.monitor: "HeartbeatMonitor | None" = None

    # ------------------------------------------------------------- deploy

    def deploy(
        self, plan: "SchedulePlan", aliases: dict[str, str] | None = None
    ) -> None:
        """Push a plan to the pool (and session aliases to the routers)."""
        if aliases:
            for sid, target in aliases.items():
                self.routing.set_alias(sid, target)
        self.pool.apply_plan(plan)

    # ------------------------------------------------------------- submit

    def _next_frontend(self) -> "Frontend":
        """Round-robin replica choice (the cluster load balancer)."""
        frontends = self.frontends
        fe = frontends[self._rr % len(frontends)]
        self._rr += 1
        return fe

    def submit_query(
        self,
        query: "Query",
        budgets_ms: dict[str, float] | None = None,
        on_done: "Callable[[QueryInstance], None] | None" = None,
    ) -> "QueryInstance":
        return self._next_frontend().submit_query(query, budgets_ms, on_done)

    def submit_request(
        self,
        session_id: str,
        slo_ms: float,
        on_complete: "Callable[[Request, float, bool], None] | None" = None,
        on_drop: "Callable[[Request, float], None] | None" = None,
        context: object = None,
    ) -> bool:
        return self._next_frontend().submit_request(
            session_id, slo_ms, on_complete, on_drop, context=context
        )

    # ----------------------------------------------------------- workload

    def read_counters(self) -> dict[str, int]:
        """Drain the per-query arrival counters, summed across frontend
        replicas (the control plane calls this once per epoch to derive
        observed rates)."""
        queries: dict[str, int] = {}
        for fe in self.frontends:
            for name, n in fe.read_and_reset_query_counters().items():
                queries[name] = queries.get(name, 0) + n
        return queries

    # ------------------------------------------------------ control loops

    def install_epoch_loop(
        self,
        epoch_ms: float,
        on_tick: Callable[[float], None],
        until_ms: float | None = None,
    ) -> ControlLoopHandle:
        """Fire ``on_tick(now_ms)`` every ``epoch_ms``, starting one epoch
        from now; with ``until_ms`` the loop stops rescheduling once the
        next tick would land past it (a simulated run's horizon).
        """
        if epoch_ms <= 0:
            raise ValueError(f"epoch_ms must be > 0, got {epoch_ms}")
        handle = ControlLoopHandle()

        def tick() -> None:
            if handle.stopped:
                return
            now = self.events.now
            on_tick(now)
            if until_ms is None or now + epoch_ms <= until_ms:
                handle._timer = self.events.schedule(epoch_ms, tick)

        handle._timer = self.events.schedule(epoch_ms, tick)
        self._loops.append(handle)
        return handle

    def install_heartbeat(
        self,
        heartbeat_ms: float,
        lease_ms: float,
        on_failure: Callable[[int, float], None] | None = None,
        on_recovery: Callable[[int, float], None] | None = None,
    ) -> "HeartbeatMonitor":
        """Start the lease failure detector over this core's pool."""
        from ..cluster.global_scheduler import HeartbeatMonitor

        monitor = HeartbeatMonitor(
            self.events,
            self.pool,
            heartbeat_ms=heartbeat_ms,
            lease_ms=lease_ms,
            on_failure=on_failure,
            on_recovery=on_recovery,
        )
        monitor.start()
        self.monitor = monitor
        return monitor

    def stop(self) -> None:
        """Stop every control loop this core started (live-server
        shutdown; a simulation just stops pumping events)."""
        for loop in self._loops:
            loop.stop()
        self._loops.clear()
        if self.monitor is not None:
            self.monitor.stop()

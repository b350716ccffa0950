"""ServingRuntime: planner + runtime core over any event source.

This is the one serving driver, with the clock abstracted out: the same
object serves live traffic under
:class:`~repro.runtime.clock.AsyncioEventSource` (wall-clock ms) and
replays traces deterministically under the
:class:`~repro.simulation.simulator.Simulator` (``NexusCluster.run``) or
:class:`~repro.runtime.clock.ManualEventSource` (virtual ms) -- which is
exactly what the driver-equivalence tests do.

Planning policy is delegated to :class:`~repro.cluster.nexus.NexusCluster`
(SLO splits, prefix fusion, squishy packing, all ClusterConfig knobs);
serving goes through the :class:`~repro.runtime.core.RuntimeCore` built here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from ..cluster.frontend import RetryPolicy
from ..cluster.global_scheduler import PoolConfig
from ..cluster.nexus import NexusCluster
from ..core.query import Query, QueryStage
from ..models import get_device
from ..runtime.clock import MS_PER_S, EventSource
from ..runtime.core import ControlLoopHandle, RuntimeCore

if TYPE_CHECKING:
    from ..cluster.frontend import QueryInstance
    from ..core.squishy import SchedulePlan

__all__ = ["ServingRuntime", "single_model_query", "parse_app_spec"]

#: seconds per re-plan measurement span floor: guards the observed-rate
#: division on the first epoch after deploy.
_MIN_SPAN_S = 1e-9


def single_model_query(model_id: str, slo_ms: float, device: str,
                       name: str | None = None) -> Query:
    """A one-stage query around a zoo model (the REST ``model:slo`` form)."""
    from ..models.profiler import profile

    qname = name or model_id
    root = QueryStage(
        name=model_id, profile=profile(model_id, device), model_id=model_id,
    )
    return Query(name=qname, root=root, slo_ms=slo_ms)


def parse_app_spec(spec: str, device: str) -> tuple[Query, float, str]:
    """Parse one CLI/REST app spec into ``(query, rate_rps, arrival)``.

    Two forms:

    - ``app=NAME:RATE`` -- a paper application from
      :data:`repro.workloads.apps.APP_BUILDERS` (e.g. ``traffic:120``);
    - ``MODEL:SLO_MS:RATE`` -- a single-model session (e.g.
      ``lenet5:50:25000``).
    """
    if spec.startswith("app="):
        body = spec[len("app="):]
        try:
            app_name, rate_s = body.rsplit(":", 1)
            rate = float(rate_s)
        except ValueError as exc:
            raise ValueError(
                f"bad app spec {spec!r}; want app=NAME:RATE_RPS"
            ) from exc
        from ..workloads.apps import APP_BUILDERS

        builder = APP_BUILDERS.get(app_name)
        if builder is None:
            raise ValueError(
                f"unknown app {app_name!r}; known: "
                + ", ".join(sorted(APP_BUILDERS))
            )
        return builder(device), rate, "poisson"
    try:
        model, slo_s, rate_s = spec.rsplit(":", 2)
        slo, rate = float(slo_s), float(rate_s)
    except ValueError as exc:
        raise ValueError(
            f"bad model spec {spec!r}; want MODEL:SLO_MS:RATE_RPS "
            f"or app=NAME:RATE_RPS"
        ) from exc
    return single_model_query(model, slo, device), rate, "poisson"


class ServingRuntime:
    """One deployment: apps -> plan -> live dispatch, clock-agnostic.

    Args:
        events: the clock driver (simulator, manual, or asyncio source).
        planner: the :class:`NexusCluster` that plans every deploy and
            epoch; its config also sets the pool, retry and metrics knobs.
        trace: record the structured event stream (exporters read it).
        max_backends: cap on the backends the pool may draft (``None``:
            uncapped).
    """

    def __init__(
        self,
        events: EventSource,
        planner: NexusCluster,
        trace: bool = False,
        max_backends: int | None = None,
    ) -> None:
        cfg = planner.config
        self.config = cfg
        self.events = events
        self.planner = planner
        self.core = RuntimeCore(
            events,
            pool_config=PoolConfig(
                pacing=cfg.pacing,
                overlap=cfg.overlap,
                drop_policy=cfg.drop_policy,
                interference_factor=cfg.interference_factor,
                max_backends=max_backends,
                # Algorithm-1 invariant assertion layer: every deployed
                # squishy plan must be provably SLO- and memory-sound.
                # Baselines (batch-oblivious) are infeasible by design.
                validate_plans=cfg.scheduler == "squishy",
                memory_capacity=int(get_device(cfg.device).mem_capacity),
                fleet=cfg.fleet,
            ),
            num_frontends=cfg.num_frontends,
            seed=cfg.seed,
            retry_policy=RetryPolicy(
                max_retries=cfg.retry_max, backoff_ms=cfg.retry_backoff_ms,
            ),
            trace=trace,
            summary_metrics=cfg.summary_metrics,
        )
        self.plan: "SchedulePlan | None" = None
        #: app name -> (query, latency split); rebuilt on every deploy
        #: so submit() is one dict lookup on the hot path.
        self._app_index: dict[
            str, tuple[Query, dict[str, float] | None]
        ] = {}
        self.epochs = 0
        self._epoch_loop: ControlLoopHandle | None = None
        self._last_epoch_ms = 0.0
        self._started_ms = events.now

    # ------------------------------------------------------------ register

    def add_app(self, query: Query, rate_rps: float,
                arrival: str = "poisson") -> None:
        """Register an application (planned at the declared rate)."""
        self.planner.add_query(query, rate_rps, arrival)
        self._reindex()

    @property
    def app_names(self) -> list[str]:
        return [a.query.name for a in self.planner.apps]

    # -------------------------------------------------------------- deploy

    def _reindex(self) -> None:
        splits = self.planner.splits
        self._app_index = {
            a.query.name: (a.query, splits.get(a.query.name))
            for a in self.planner.apps
        }

    def deploy(self) -> "SchedulePlan":
        """(Re)plan from declared rates and push to the pool."""
        plan = self.planner.plan()
        self.core.deploy(plan, self.planner.aliases)
        self.plan = plan
        self._reindex()  # the latency splits are fresh after plan()
        return plan

    # -------------------------------------------------------------- submit

    def submit(
        self,
        app_name: str,
        on_done: "Callable[[QueryInstance], None] | None" = None,
    ) -> "QueryInstance":
        """Invoke one application query; ``on_done`` fires at completion."""
        entry = self._app_index.get(app_name)
        if entry is None:
            raise KeyError(f"unknown app {app_name!r}")
        query, budgets = entry
        return self.core.submit_query(query, budgets, on_done)

    # --------------------------------------------------------- epoch loop

    def start_epoch_loop(
        self, until_ms: float | None = None
    ) -> ControlLoopHandle:
        """Install the section-5 control loop on this runtime's clock.

        Every ``config.epoch_ms`` the loop reads the observed per-query
        arrival counters, re-plans at the observed rates, and redeploys
        -- on virtual time under the simulator (``NexusCluster.run``'s
        dynamic mode, up to ``until_ms``) and on wall-clock timers under
        an :class:`~repro.runtime.clock.AsyncioEventSource`.
        """
        if self._epoch_loop is not None:
            return self._epoch_loop
        self._last_epoch_ms = self.events.now

        def on_tick(now: float) -> None:
            span_s = max(
                (now - self._last_epoch_ms) / MS_PER_S, _MIN_SPAN_S
            )
            counters = self.core.read_counters()
            rates = {
                app.query.name: counters.get(app.query.name, 0) / span_s
                for app in self.planner.apps
            }
            self._last_epoch_ms = now
            self.redeploy(self.planner.plan(rates), now, rates)

        self._epoch_loop = self.core.install_epoch_loop(
            self.config.epoch_ms, on_tick, until_ms
        )
        return self._epoch_loop

    def redeploy(
        self, plan: "SchedulePlan", now: float,
        rates: dict[str, float] | None = None,
    ) -> None:
        """Push one epoch's plan (planned at ``rates``, if observed):
        deploy, re-index the latency splits, count and trace the epoch."""
        self.core.deploy(plan, self.planner.aliases)
        self.plan = plan
        self._reindex()
        self.epochs += 1
        self.core.tracer.epoch_planned(
            now, self.epochs, plan.num_gpus, rates=rates
        )

    def stop(self) -> None:
        self.core.stop()
        self._epoch_loop = None

    # -------------------------------------------------------------- status

    def stats(self) -> dict[str, object]:
        """Aggregate serving statistics (the ``/v1/metrics`` payload).

        O(sessions + histogram buckets): the collectors fold outcomes at
        record time, so the latency percentiles are histogram bucket upper
        edges, at most 5 % above the exact value.
        """
        import math

        qm = self.core.query_metrics
        span_ms = max(self.events.now - self._started_ms, 1e-6)

        def pct(p: float) -> float:
            # NaN before the first served query; JSON has no NaN.
            value = qm.latency_percentile(p)
            return 0.0 if math.isnan(value) else value

        return {
            "now_ms": self.events.now,
            "span_ms": span_ms,
            "queries": qm.total,
            "good_rate": qm.good_rate,
            "bad_rate": qm.bad_rate,
            "goodput_rps": qm.ok_count / (span_ms / MS_PER_S),
            "latency_p50_ms": pct(50.0),
            "latency_p99_ms": pct(99.0),
            "dropped": qm.dropped_count,
            "late": qm.late_count,
            "epochs": self.epochs,
            "gpus": self.plan.num_gpus if self.plan is not None else 0,
        }

    def plan_summary(self) -> dict[str, object]:
        """The deployed plan (the ``/v1/plan`` payload)."""
        if self.plan is None:
            return {"deployed": False, "gpus": 0, "sessions": []}
        gpus = []
        for i, gpu in enumerate(self.plan.gpus):
            gpus.append({
                "gpu": i,
                "duty_cycle_ms": gpu.duty_cycle_ms,
                "occupancy": gpu.occupancy,
                "saturated": gpu.saturated,
                "sessions": [
                    {
                        "session": a.session_id,
                        "batch": a.batch,
                        "exec_ms": a.exec_ms,
                    }
                    for a in gpu.allocations
                ],
            })
        return {
            "deployed": True,
            "gpus": self.plan.num_gpus,
            "apps": self.app_names,
            "plan": gpus,
            "infeasible": [l.session_id for l in self.plan.infeasible],
        }

"""Which entry points a traced run wraps, layer by layer.

A layer is a module of ``repro`` (``cluster.backend`` is
``repro.cluster.backend``).  Only the calls *into* a layer are wrapped --
its public methods, the callbacks it hands to a clock, the closures it
hands to another layer -- never its inner helpers, so a span's cost
stays small against the work it brackets.  Timer callbacks belong to the
module that defined them: the clock wrappers below look at the callback,
not at who armed the timer.

:func:`install` is called once per process, before the program under
test runs.  It changes nothing under ``src/``.
"""

from __future__ import annotations

from typing import Callable

from spans import Recorder, layer_of

__all__ = ["install", "LAYERS"]

#: every layer the per-layer table prints, in critical-path order.
LAYERS = (
    "serving.http", "serving.server", "serving.runtime",
    "runtime.clock", "runtime.core",
    "cluster.frontend", "cluster.backend", "cluster.global_scheduler",
    "cluster.nexus", "metrics.collector", "observability.tracer",
    "simulation.simulator", "simulation.sharded",
    "core.query", "core.squishy", "core.epoch", "core.fleet",
    "core.queueing", "core.profile_tables", "models.profiler",
    "analysis.plan_check",
)


def _callback(rec: Recorder, fn: Callable, durations: str | None = None) -> Callable:
    """A callback crossing into the layer that owns it."""
    func = getattr(fn, "__func__", fn)
    if hasattr(func, "__wrapped__"):
        return fn  # already a span: the class-level patch covers it
    return rec.wrap(fn, rec.timer_key(fn), durations)


def _count_calls(rec: Recorder, cls: type, name: str, counter: str) -> None:
    """Count calls of ``cls.name`` without opening a span."""
    orig = cls.__dict__[name]
    counters = rec.counters
    counters.setdefault(counter, 0)

    def counted(*args, **kwargs):
        counters[counter] += 1
        return orig(*args, **kwargs)

    counted.__wrapped__ = orig  # type: ignore[attr-defined]
    setattr(cls, name, counted)


def install(rec: Recorder) -> None:
    """Wrap every layer's entry points with ``rec``'s span timers."""
    _serving(rec)
    _runtime(rec)
    _cluster(rec)
    _collector_and_tracer(rec)
    _simulation(rec)
    _planner(rec)


# ---------------------------------------------------------------- serving


def _serving(rec: Recorder) -> None:
    from repro.serving import http, runtime, server

    conn = http._Connection
    rec.patch_method(conn, "data_received", "serving.http")
    rec.patch_method(conn, "_scheduled_flush", "serving.http")
    _count_calls(rec, conn, "_dispatch", "serving.http.requests")

    make_respond = conn._make_respond

    def traced_make_respond(self, cell):
        return rec.wrap(make_respond(self, cell), "serving.http:respond")

    conn._make_respond = traced_make_respond

    response = http._response
    counters = rec.counters
    counters.setdefault("serving.http.responses", 0)
    span_response = rec.wrap(response, "serving.http:_response")

    def counted_response(status: int, payload: bytes) -> bytes:
        counters["serving.http.responses"] += 1
        return span_response(status, payload)

    http._response = counted_response

    from asyncio import selector_events

    transport = selector_events._SelectorSocketTransport
    write = transport.write
    counters.setdefault("serving.http.writes", 0)

    def counted_write(self, data):
        counters["serving.http.writes"] += 1
        return write(self, data)

    transport.write = counted_write

    srv = server.NexusServer
    h_invoke = srv._h_invoke

    def traced_invoke(self, params, body):
        result = h_invoke(self, params, body)
        if callable(result):   # the deferred closure of the hot path
            return rec.wrap(result, "serving.server:invoke.deferred")
        return result

    srv._h_invoke = rec.wrap(traced_invoke, "serving.server:NexusServer._h_invoke")
    for name, series in (
        ("_h_metrics", "serving.server.metrics_ms"),
        ("_h_apps", "serving.server.apps_register_ms"),
        ("_h_plan", "serving.server.plan_ms"),
        ("_h_healthz", None),
    ):
        rec.patch_method(srv, name, "serving.server", series)

    rt = runtime.ServingRuntime
    submit = rt.submit

    def traced_submit(self, app_name, on_done=None):
        if on_done is not None:
            on_done = _callback(rec, on_done)
        return submit(self, app_name, on_done)

    rt.submit = rec.wrap(traced_submit, "serving.runtime:ServingRuntime.submit")
    for name in ("deploy", "stats", "plan_summary", "add_app"):
        rec.patch_method(rt, name, "serving.runtime")


# ---------------------------------------------------------------- runtime


def _runtime(rec: Recorder) -> None:
    from repro.runtime import clock, core

    src = clock.AsyncioEventSource
    lateness = rec.sample("runtime.clock.timer_lateness_ms")
    counters = rec.counters
    counters.setdefault("runtime.clock.timers_scheduled", 0)

    def fire_at(self, due_ms: float, fn: Callable) -> Callable:
        callback = _callback(rec, fn)

        def fire() -> None:
            lateness.append(self.now - due_ms)
            callback()

        return fire

    schedule = src.schedule
    schedule_at = src.schedule_at

    def traced_schedule(self, delay_ms, fn, priority=0):
        counters["runtime.clock.timers_scheduled"] += 1
        return schedule(
            self, delay_ms, fire_at(self, self.now + delay_ms, fn), priority
        )

    def traced_schedule_at(self, time_ms, fn, priority=0):
        counters["runtime.clock.timers_scheduled"] += 1
        return schedule_at(self, time_ms, fire_at(self, time_ms, fn), priority)

    src.schedule = rec.wrap(
        traced_schedule, "runtime.clock:AsyncioEventSource.schedule"
    )
    src.schedule_at = rec.wrap(
        traced_schedule_at, "runtime.clock:AsyncioEventSource.schedule_at"
    )

    rc = core.RuntimeCore
    for name, series in (
        ("submit_query", None), ("submit_request", None),
        ("deploy", "runtime.core.deploy_ms"), ("read_counters", None),
    ):
        rec.patch_method(rc, name, "runtime.core", series)

    install_epoch_loop = rc.install_epoch_loop

    def traced_epoch_loop(self, epoch_ms, on_tick, until_ms=None):
        owner = layer_of(getattr(on_tick, "__module__", "") or "unknown")
        return install_epoch_loop(
            self, epoch_ms,
            _callback(rec, on_tick, f"{owner}.epoch_tick_ms"), until_ms,
        )

    rc.install_epoch_loop = traced_epoch_loop


# ---------------------------------------------------------------- cluster


def _cluster(rec: Recorder) -> None:
    from repro.cluster import backend, frontend, global_scheduler, nexus

    fe = frontend.Frontend
    for name in (
        "submit_query", "submit_request", "_stage_complete", "_stage_drop",
        "_handle_backend_failure",
    ):
        rec.patch_method(fe, name, "cluster.frontend")
    _count_calls(rec, fe, "_dispatch_stage", "cluster.frontend.stage_reqs")
    rec.patch_method(frontend.RoutingTable, "pick_resolved", "cluster.frontend")

    be = backend.Backend
    for name in ("enqueue", "set_schedule", "fail", "recover"):
        rec.patch_method(be, name, "cluster.backend")

    rec.patch_method(
        global_scheduler.BackendPool, "apply_plan",
        "cluster.global_scheduler", "cluster.global_scheduler.apply_plan_ms",
    )

    nc = nexus.NexusCluster
    rec.patch_method(nc, "plan", "cluster.nexus", "cluster.nexus.plan_ms")
    rec.patch_method(
        nc, "build_session_loads", "cluster.nexus",
        "cluster.nexus.build_loads_ms",
    )
    rec.patch_method(nc, "run", "cluster.nexus")


# ------------------------------------------------- collector and tracer


def _collector_and_tracer(rec: Recorder) -> None:
    from repro.metrics import collector
    from repro.observability import tracer

    mc = collector.MetricsCollector
    rec.patch_method(mc, "record", "metrics.collector")
    for name in (
        "ok_count", "dropped_count", "late_count", "goodput_rps",
        "per_session_stats",
    ):
        rec.patch_method(mc, name, "metrics.collector")

    percentile = mc.latency_percentile
    counters = rec.counters
    counters.setdefault("metrics.collector.records_retained", 0)

    def traced_percentile(self, pct):
        kept = len(self.records)
        if kept > counters["metrics.collector.records_retained"]:
            counters["metrics.collector.records_retained"] = kept
        return percentile(self, pct)

    mc.latency_percentile = rec.wrap(
        traced_percentile, "metrics.collector:MetricsCollector.latency_percentile",
        "metrics.collector.percentile_ms",
    )

    tr = tracer.Tracer
    invocation_ms = rec.sample("cluster.backend.invocation_ms")
    batch_sizes = rec.sample("cluster.backend.batch_size")
    for name in ("cluster.backend.exec_ms", "cluster.backend.dropped",
                 "cluster.frontend.retries"):
        counters.setdefault(name, 0)
    completed = tr.request_completed
    dropped = tr.request_dropped
    executed = tr.batch_executed
    retried = tr.request_retried

    def traced_completed(self, ts_ms, session_id, request_id, arrival_ms,
                         deadline_ms, ok, gpu_id=None):
        invocation_ms.append(ts_ms - arrival_ms)
        return completed(self, ts_ms, session_id, request_id, arrival_ms,
                         deadline_ms, ok, gpu_id)

    def traced_dropped(self, *args, **kwargs):
        counters["cluster.backend.dropped"] += 1
        return dropped(self, *args, **kwargs)

    def traced_executed(self, start_ms, dur_ms, gpu_id, session_id, batch,
                        deferred=False):
        batch_sizes.append(batch)
        counters["cluster.backend.exec_ms"] += dur_ms
        return executed(self, start_ms, dur_ms, gpu_id, session_id, batch,
                        deferred)

    def traced_retried(self, *args, **kwargs):
        counters["cluster.frontend.retries"] += 1
        return retried(self, *args, **kwargs)

    layer = "observability.tracer"
    tr.request_completed = rec.wrap(traced_completed, f"{layer}:Tracer.request_completed")
    tr.request_dropped = rec.wrap(traced_dropped, f"{layer}:Tracer.request_dropped")
    tr.batch_executed = rec.wrap(traced_executed, f"{layer}:Tracer.batch_executed")
    tr.request_retried = rec.wrap(traced_retried, f"{layer}:Tracer.request_retried")
    for name in ("query_completed", "plan_applied", "epoch_planned", "emit"):
        rec.patch_method(tr, name, layer)


# ------------------------------------------------------------- simulation


def _simulation(rec: Recorder) -> None:
    from repro.simulation import sharded, simulator

    sim = simulator.Simulator
    rec.patch_method(sim, "run_until", "simulation.simulator")
    rec.patch_method(sim, "run", "simulation.simulator")
    schedule_at = sim.schedule_at
    counters = rec.counters
    counters.setdefault("simulation.simulator.scheduled", 0)

    def traced_schedule_at(self, time_ms, fn, priority=0):
        counters["simulation.simulator.scheduled"] += 1
        return schedule_at(self, time_ms, _callback(rec, fn), priority)

    sim.schedule_at = rec.wrap(
        traced_schedule_at, "simulation.simulator:Simulator.schedule_at"
    )
    _count_calls(
        rec, simulator.EventHandle, "cancel", "simulation.simulator.cancelled"
    )
    rec.patch_function(sharded, "shard_map", "simulation.sharded")


# ---------------------------------------------------------------- planner


def _planner(rec: Recorder) -> None:
    from repro.analysis import plan_check
    from repro.core import epoch, fleet, profile_tables, query, queueing, squishy
    from repro.models import profiler

    rec.patch_function(query, "plan_query", "core.query", "core.query.plan_query_ms")
    rec.patch_function(query, "even_split", "core.query")
    rec.patch_function(query, "plan_query_classes", "core.query")
    rec.patch_function(
        squishy, "squishy_bin_packing", "core.squishy", "core.squishy.pack_ms"
    )
    rec.patch_function(
        squishy, "pack_fleet", "core.squishy", "core.squishy.pack_fleet_ms"
    )
    es = epoch.EpochScheduler
    rec.patch_method(es, "update", "core.epoch", "core.epoch.update_ms")
    rec.patch_method(
        es, "handle_failure", "core.epoch", "core.epoch.handle_failure_ms"
    )
    rec.patch_method(es, "adopt", "core.epoch")
    rec.patch_function(fleet, "assign_classes", "core.fleet", "core.fleet.assign_ms")
    rec.patch_function(queueing, "capacity_answer", "core.queueing")
    rec.patch_function(
        queueing, "analytic_estimate", "core.queueing",
        "core.queueing.analytic_ms",
    )
    rec.patch_function(
        queueing, "simulate_estimate", "core.queueing",
        "core.queueing.simulate_ms",
    )
    rec.patch_function(queueing, "max_batch_under_p99", "core.queueing")
    rec.patch_method(
        profile_tables.ProfileTables, "__init__", "core.profile_tables",
        "core.profile_tables.build_ms",
    )
    rec.patch_function(profiler, "profile", "models.profiler", "models.profiler.profile_ms")
    rec.patch_function(profiler, "profile_model", "models.profiler")
    rec.patch_function(profiler, "prefix_suffix_profiles", "models.profiler")
    rec.patch_function(plan_check, "check_plan", "analysis.plan_check",
                       "analysis.plan_check.check_ms")
    rec.patch_function(plan_check, "assert_valid_plan", "analysis.plan_check")

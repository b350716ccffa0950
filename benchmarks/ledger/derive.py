"""From span tables to the per-layer rows and the named layer metrics.

A traced run leaves one span table per phase (see :mod:`spans`).  This
module folds a table into one row per layer (``calls``, ``busy_ms``,
``self_ms``), reconciles the rows with the CPU or wall time the phase
really took, and computes the named metrics of ``README.md`` --
``<layer>.<quantity>`` -- each from the phase that exercises it.
"""

from __future__ import annotations

import math
from typing import Any

from layers import LAYERS

__all__ = [
    "layer_rows", "reconcile", "named_metrics", "separation", "TABLE_LAYERS",
]

#: the layers of ``repro`` plus the two the harness adds around them.
TABLE_LAYERS = (*LAYERS, "asyncio.loop", "python.gc")
#: time blocked in select: wall the process did not use.
_IDLE = "asyncio.idle"


def layer_rows(snapshot: dict[str, Any]) -> dict[str, dict[str, float]]:
    """One ``calls / busy_ms / self_ms`` row per layer."""
    rows = {
        layer: {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0}
        for layer in TABLE_LAYERS
    }
    for key, fn in snapshot["fn"].items():
        layer = key.split(":", 1)[0]
        row = rows.setdefault(
            layer, {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0}
        )
        row["calls"] += fn["calls"]
        row["self_ms"] += fn["self_ms"]
    for layer, busy in snapshot["layer_busy_ms"].items():
        if layer in rows:
            rows[layer]["busy_ms"] = busy
    if "python.gc" in rows:  # gc spans are opened by a callback, not wrap()
        rows["python.gc"]["busy_ms"] = rows["python.gc"]["self_ms"]
    return rows


def reconcile(snapshot: dict[str, Any], live: bool) -> dict[str, float]:
    """Layer self times against what the phase cost.

    Live phases are compared with the server's process CPU over the same
    interval, in-process phases with the timed wall.  ``unattributed``
    is what no span claimed (negative when spans, which measure wall
    time, saw more than the CPU clock did).
    """
    rows = layer_rows(snapshot)
    attributed = sum(
        row["self_ms"] for layer, row in rows.items()
        if layer != _IDLE
    )
    total = snapshot["server_cpu_ms"] if live else snapshot["wall_ms"]
    return {
        "total_ms": total,
        "attributed_ms": attributed,
        "unattributed_ms": total - attributed,
        "unattributed_pct": 100.0 * (total - attributed) / max(total, 1e-9),
    }


def separation(workload: str, rows: dict[str, dict[str, float]],
               total_ms: float) -> list[tuple[str, bool, str]]:
    """Do the workloads separate the layers as the README claims?

    ``rows`` is the table of the workload's main phase.  The live lenet
    workload must spend its CPU in the serving layers and none in the
    planner; the planner workload the other way round.
    """
    def share(*prefixes: str) -> float:
        return sum(
            row["self_ms"] for layer, row in rows.items()
            if layer.startswith(prefixes)
        ) / max(total_ms, 1e-9)

    if workload == "live_lenet_open":
        serving = share("serving.", "runtime.", "cluster.frontend",
                        "cluster.backend", "metrics.collector")
        planner = share("core.")
        return [
            ("serving layers hold >= 80% of server CPU", serving >= 0.80,
             f"{serving:.1%}"),
            ("planner layers hold < 2% of server CPU", planner < 0.02,
             f"{planner:.1%}"),
        ]
    if workload == "plan_fleet_epochs":
        planner = share("core.", "cluster.nexus", "models.profiler")
        other = share("serving.", "simulation.")
        return [
            ("planner layers hold >= 80% of the phase", planner >= 0.80,
             f"{planner:.1%}"),
            ("serving and simulation layers hold nothing", other == 0.0,
             f"{other:.1%}"),
        ]
    return []


# ------------------------------------------------------- named metrics


# A span, counter or sample series this module asks for and the table
# does not hold was lost to a rename or a refactor of the program.  That
# must stop the run: read as 0 it would look like a perfect
# lower-is-better value.


def _fn(snap: dict, key: str) -> dict[str, float]:
    try:
        return snap["fn"][key]
    except KeyError:
        raise KeyError(f"no span {key!r} in the traced run") from None


def _self_us_per(snap: dict, keys: list[str], per: float) -> float:
    return 1e3 * sum(_fn(snap, k)["self_ms"] for k in keys) / max(per, 1)


def _prefix_self_ms(snap: dict, prefix: str) -> float:
    rows = [
        fn["self_ms"] for key, fn in snap["fn"].items()
        if key.startswith(prefix)
    ]
    if not rows:
        raise KeyError(f"no span under {prefix!r} in the traced run")
    return sum(rows)


def _sample(snap: dict, name: str, stat: str) -> float:
    """A statistic of a sample series; NaN for a series that exists but
    took no sample in this phase (:func:`named_metrics` leaves it out)."""
    try:
        series = snap["samples"][name]
    except KeyError:
        raise KeyError(f"no sample series {name!r} in the traced run") from None
    if stat != "n" and not series["n"]:
        return math.nan
    return series[stat]


def _count(snap: dict, name: str) -> float:
    try:
        return snap["counters"][name]
    except KeyError:
        raise KeyError(f"no counter {name!r} in the traced run") from None


def _serving_metrics(snap: dict, replans: bool,
                     out: dict[str, tuple[float, str]]) -> None:
    """Layers a live phase exercises, from that phase's table; a static
    deployment (``replans`` false) registers, deploys and re-plans nothing
    while it is measured."""
    requests = _count(snap, "serving.http.requests")
    responses = _count(snap, "serving.http.responses")
    writes = _count(snap, "serving.http.writes")
    invokes = _fn(snap, "serving.server:NexusServer._h_invoke")["calls"]
    out["serving.http.requests"] = (requests, "count")
    out["serving.http.parse_self_us_per_req"] = (_self_us_per(
        snap, ["serving.http:_Connection.data_received"], requests), "us")
    out["serving.http.writes"] = (writes, "count")
    out["serving.http.responses_per_write"] = (
        responses / max(writes, 1), "count")
    out["serving.server.invoke_self_us"] = (_self_us_per(snap, [
        "serving.server:NexusServer._h_invoke",
        "serving.server:invoke.deferred",
        "serving.server:timer.NexusServer._h_invoke.deferred.on_done",
    ], invokes), "us")
    out["serving.server.metrics_ms"] = (
        _sample(snap, "serving.server.metrics_ms", "p50"), "ms")
    out["serving.runtime.submit_self_us"] = (_self_us_per(
        snap, ["serving.runtime:ServingRuntime.submit"], invokes), "us")
    if replans:
        out["serving.server.apps_register_ms"] = (
            _sample(snap, "serving.server.apps_register_ms", "p50"), "ms")
        out["runtime.core.deploy_ms"] = (
            _sample(snap, "runtime.core.deploy_ms", "p50"), "ms")
        out["cluster.global_scheduler.apply_plan_ms"] = (
            _sample(snap, "cluster.global_scheduler.apply_plan_ms", "p50"), "ms")
        out["serving.runtime.replan_ms_p50"] = (
            _sample(snap, "serving.runtime.epoch_tick_ms", "p50"), "ms")
        out["serving.runtime.replan_ms_max"] = (
            _sample(snap, "serving.runtime.epoch_tick_ms", "max"), "ms")
        out["serving.runtime.epochs"] = (
            _sample(snap, "serving.runtime.epoch_tick_ms", "n"), "count")
    timers = _count(snap, "runtime.clock.timers_scheduled")
    out["runtime.clock.timers_scheduled"] = (timers, "count")
    out["runtime.clock.timers_per_req"] = (timers / max(invokes, 1), "count")
    out["runtime.clock.timer_lateness_p99_ms"] = (
        _sample(snap, "runtime.clock.timer_lateness_ms", "p99"), "ms")
    out["runtime.core.submit_self_us"] = (_self_us_per(
        snap, ["runtime.core:RuntimeCore.submit_query"], invokes), "us")
    out["cluster.global_scheduler.heartbeat_ticks"] = (_fn(
        snap, "cluster.global_scheduler:timer.HeartbeatMonitor._tick"
    )["calls"], "count")


def _cluster_metrics(snap: dict, gpus: float, span_ms: float,
                     plan: dict | None,
                     out: dict[str, tuple[float, str]]) -> None:
    """Frontend / backend / collector / tracer, live or simulated; the
    planned batch and occupancy are known where ``/v1/plan`` gave them."""
    queries = _fn(snap, "cluster.frontend:Frontend.submit_query")["calls"]
    stage_reqs = _count(snap, "cluster.frontend.stage_reqs")
    enqueues = _fn(snap, "cluster.backend:Backend.enqueue")["calls"]
    out["cluster.frontend.submit_self_us"] = (_self_us_per(
        snap, ["cluster.frontend:Frontend.submit_query"], queries), "us")
    out["cluster.frontend.stage_reqs_per_query"] = (
        stage_reqs / max(queries, 1), "count")
    out["cluster.frontend.retries"] = (
        _count(snap, "cluster.frontend.retries"), "count")
    out["cluster.frontend.route_self_us"] = (_self_us_per(
        snap, ["cluster.frontend:RoutingTable.pick_resolved"],
        _fn(snap, "cluster.frontend:RoutingTable.pick_resolved")["calls"],
    ), "us")
    out["cluster.backend.enqueue_self_us"] = (_self_us_per(
        snap, ["cluster.backend:Backend.enqueue"], enqueues), "us")
    out["cluster.backend.dispatch_self_us"] = (
        1e3 * _prefix_self_ms(snap, "cluster.backend:timer.")
        / max(enqueues, 1), "us")
    batches = _sample(snap, "cluster.backend.batch_size", "n")
    mean_batch = _sample(snap, "cluster.backend.batch_size", "mean")
    completed = _sample(snap, "cluster.backend.invocation_ms", "n")
    dropped = _count(snap, "cluster.backend.dropped")
    out["cluster.backend.batches"] = (batches, "count")
    out["cluster.backend.mean_batch"] = (mean_batch, "count")
    if plan is not None:
        out["cluster.backend.batch_fill"] = (
            mean_batch / _mean_planned_batch(plan), "fraction")
        out["cluster.backend.planned_occupancy"] = (
            plan["planned_occupancy"], "fraction")
    out["cluster.backend.dropped_share"] = (
        dropped / max(dropped + completed, 1), "fraction")
    out["cluster.backend.busy_share"] = (
        _count(snap, "cluster.backend.exec_ms") / max(gpus * span_ms, 1e-9),
        "fraction")
    out["cluster.backend.invocation_p50_ms"] = (
        _sample(snap, "cluster.backend.invocation_ms", "p50"), "ms")
    out["cluster.backend.invocation_p99_ms"] = (
        _sample(snap, "cluster.backend.invocation_ms", "p99"), "ms")
    records = _fn(snap, "metrics.collector:MetricsCollector.record")["calls"]
    out["metrics.collector.record_self_us"] = (_self_us_per(
        snap, ["metrics.collector:MetricsCollector.record"], records), "us")
    out["metrics.collector.percentile_ms"] = (
        _sample(snap, "metrics.collector.percentile_ms", "p50"), "ms")
    events = sum(
        fn["calls"] for key, fn in snap["fn"].items()
        if key.startswith("observability.tracer:")
    )
    out["observability.tracer.events"] = (events, "count")
    out["observability.tracer.emit_self_us"] = (
        1e3 * _prefix_self_ms(snap, "observability.tracer:") / max(events, 1),
        "us")


def _mean_planned_batch(plan: dict) -> float:
    batches = list(plan["planned_batch"].values())
    return sum(batches) / len(batches)


def _queueing_prediction(session_model: str, rate_rps: float, plan: dict,
                         measured_p99_ms: float,
                         out: dict[str, tuple[float, str]]) -> None:
    """Inoue's closed form next to the measured invocation tail."""
    from repro.core.profile import EffectiveProfile
    from repro.core.queueing import OracleInapplicable, analytic_estimate
    from repro.models.profiler import profile

    session = f"{session_model}/{session_model}"
    nodes = max(1, plan["nodes"].get(session, 1))
    batch = plan["planned_batch"].get(session)
    try:
        estimate = analytic_estimate(
            EffectiveProfile(base=profile(session_model), overlap=True),
            rate_rps / nodes, int(batch) if batch else None,
        )
        predicted = estimate.p99_ms
    except OracleInapplicable:  # outside the model's regime: recorded as 0
        predicted = 0.0
    out["core.queueing.pred_p99_ms"] = (predicted, "ms")
    out["core.queueing.pred_err_pct"] = (
        100.0 * (predicted - measured_p99_ms) / measured_p99_ms
        if measured_p99_ms and predicted else 0.0, "%")


def named_metrics(workload: str, traced: dict[str, Any]) -> dict[str, tuple[float, str]]:
    """Every named layer metric of one traced workload result."""
    out: dict[str, tuple[float, str]] = {}
    trace = traced["trace"]
    info = traced["info"]
    if workload in ("live_lenet_open", "live_apps_dynamic"):
        phase = trace["base" if workload == "live_lenet_open" else "measured"]
        plan = phase["plan"]
        replans = workload == "live_apps_dynamic"
        _serving_metrics(phase, replans, out)
        if replans:
            _planner_metrics(phase, out)
        _cluster_metrics(phase, plan["gpus"], phase["wall_ms"], plan, out)
        if workload == "live_lenet_open":
            # the metrics reads come after `base`, in the `sat` table
            out["serving.server.metrics_ms"] = (_sample(
                trace["sat"], "serving.server.metrics_ms", "p50"), "ms")
        _queueing_prediction(
            phase["session"], phase["session_rps"], plan,
            _sample(phase, "cluster.backend.invocation_ms", "p99"), out,
        )
        out["metrics.collector.records_retained"] = (
            info["server"]["queries"], "count")
        out["loadgen.send_lag_p99_ms"] = (
            info["loadgen"]["send_lag_p99_ms"], "ms")
        out["loadgen.cpu_util"] = (info["loadgen"]["cpu_util"], "fraction")
    elif workload == "sim_replay":
        mix, fleet = trace["mix"], trace["fleet"]
        reps = info["mix"]["reps"]
        _cluster_metrics(
            mix, info["mix"]["gpus"], info["mix"]["sim_ms"] * reps, None, out)
        events = info["mix"]["events"] * reps
        scheduled = _count(mix, "simulation.simulator.scheduled")
        run_until = _fn(mix, "simulation.simulator:Simulator.run_until")
        out["simulation.simulator.events"] = (events, "count")
        out["simulation.simulator.events_per_query"] = (
            info["mix"]["events"] / info["mix"]["queries"], "count")
        out["simulation.simulator.heap_self_us_per_event"] = (
            1e3 * run_until["self_ms"] / max(events, 1), "us")
        out["simulation.simulator.schedule_self_us"] = (_self_us_per(
            mix, ["simulation.simulator:Simulator.schedule_at"], scheduled),
            "us")
        out["simulation.simulator.cancelled_share"] = (
            _count(mix, "simulation.simulator.cancelled") / max(scheduled, 1),
            "fraction")
        out["simulation.sharded.parallel_efficiency"] = (
            info["fleet"]["parallel_efficiency"], "fraction")
        out["simulation.sharded.spawn_s"] = (info["fleet"]["spawn_s"], "s")
        out["cluster.nexus.mix_good_rate"] = (
            info["mix"]["good_rate"], "fraction")
        out["cluster.nexus.fleet_good_rate"] = (
            info["fleet"]["good_rate"], "fraction")
        out["cluster.nexus.fleet_p99_ms"] = (info["fleet"]["p99_ms"], "ms")
        out["cluster.global_scheduler.detect_ms_mean"] = (
            info["fleet"]["detect_ms_mean"], "ms")
        out["cluster.global_scheduler.heartbeat_ticks"] = (_fn(
            fleet, "cluster.global_scheduler:timer.HeartbeatMonitor._tick"
        )["calls"], "count")
        out["cluster.global_scheduler.apply_plan_ms"] = (_sample(
            fleet, "cluster.global_scheduler.apply_plan_ms", "p50"), "ms")
        out["core.epoch.update_ms_p50"] = (
            _sample(fleet, "core.epoch.update_ms", "p50"), "ms")
        out["core.epoch.handle_failure_ms"] = (
            _sample(fleet, "core.epoch.handle_failure_ms", "p50"), "ms")
        out["metrics.collector.records_retained"] = (
            info["mix"]["records"], "count")
        _planner_metrics(fleet, out, only_builds=True)
    elif workload == "plan_fleet_epochs":
        full, epochs = trace["full_plan"], trace["epochs"]
        mixed, capacity = trace["mixed_fleet"], trace["capacity"]
        _planner_metrics(full, out)
        out["core.epoch.update_ms_p50"] = (
            _sample(epochs, "core.epoch.update_ms", "p50"), "ms")
        out["core.epoch.handle_failure_ms"] = (
            _sample(epochs, "core.epoch.handle_failure_ms", "p50"), "ms")
        out["core.epoch.reuse_share"] = (
            info["epochs"]["reuse_share"], "fraction")
        out["core.epoch.full_repacks"] = (
            info["epochs"]["full_repacks"], "count")
        out["core.squishy.pack_fleet_ms"] = (
            _sample(mixed, "core.squishy.pack_fleet_ms", "p50"), "ms")
        out["core.fleet.assign_ms"] = (
            _sample(mixed, "core.fleet.assign_ms", "p50"), "ms")
        out["core.queueing.analytic_us_per_query"] = (
            1e3 * _sample(capacity, "core.queueing.analytic_ms", "p50"), "us")
        out["core.queueing.simulate_us_per_query"] = (
            1e3 * _sample(capacity, "core.queueing.simulate_ms", "p50"), "us")
        out["core.queueing.fallback_share"] = (
            info["capacity"]["fallback_share"], "fraction")
        out["analysis.plan_check.check_ms"] = (
            _sample(epochs, "analysis.plan_check.check_ms", "p50"), "ms")
        out["analysis.plan_check.violations"] = (info["violations"], "count")
    # a timing no call produced was not measured here: left out, not 0
    return {name: m for name, m in out.items() if not math.isnan(m[0])}


def _planner_metrics(snap: dict, out: dict[str, tuple[float, str]],
                     only_builds: bool = False) -> None:
    out["core.profile_tables.builds"] = (
        _sample(snap, "core.profile_tables.build_ms", "n"), "count")
    out["core.profile_tables.build_ms"] = (
        _sample(snap, "core.profile_tables.build_ms", "mean"), "ms")
    out["models.profiler.profile_calls"] = (
        _sample(snap, "models.profiler.profile_ms", "n"), "count")
    out["models.profiler.profile_ms"] = (
        _sample(snap, "models.profiler.profile_ms", "mean"), "ms")
    out["cluster.nexus.plan_ms"] = (
        _sample(snap, "cluster.nexus.plan_ms", "p50"), "ms")
    out["cluster.nexus.build_loads_ms"] = (
        _sample(snap, "cluster.nexus.build_loads_ms", "p50"), "ms")
    if only_builds:
        return
    out["core.query.plan_query_ms"] = (
        _sample(snap, "core.query.plan_query_ms", "p50"), "ms")
    out["core.query.dp_calls"] = (
        _sample(snap, "core.query.plan_query_ms", "n"), "count")
    out["core.squishy.pack_ms"] = (
        _sample(snap, "core.squishy.pack_ms", "p50"), "ms")

#!/usr/bin/env python3
"""Trace inspection: query the structured event stream programmatically.

Runs the squishy-packed multi-session backend from the gpu_timeline
example with a recording tracer attached, then answers questions the
Gantt strip can only hint at:

- how often each batch size actually executed (vs the planned target),
- where every lost request went (drop-reason taxonomy),
- the worst duty-cycle latency each session observed, checked against
  the squishy worst-case bound duty + l(b) from section 4.1.

Everything here also works on a full ``NexusCluster`` run — pass
``trace=True`` to ``run()`` and feed ``result.trace`` to the same
helpers (see docs/observability.md).

Run:  python examples/trace_inspection.py
"""

from repro.cluster.backend import Backend, BackendSession
from repro.cluster.messages import Request
from repro.core import Session, SessionLoad, squishy_bin_packing
from repro.metrics import MetricsCollector
from repro.models.profiler import profile
from repro.observability import (
    BATCH_EXECUTED,
    REQUEST_COMPLETED,
    TraceBuffer,
    Tracer,
    batch_size_histogram,
    drop_reasons,
    gpu_busy_ms,
    session_cycle_stats,
)
from repro.simulation.simulator import Simulator
from repro.workloads.arrivals import uniform_arrivals


def main() -> None:
    device = "gtx1080ti"
    loads = [
        SessionLoad(Session("googlenet", 200.0), 120.0,
                    profile("googlenet", device)),
        SessionLoad(Session("resnet50", 250.0), 60.0,
                    profile("resnet50", device)),
        SessionLoad(Session("mobilenet_v1", 150.0), 90.0,
                    profile("mobilenet_v1", device)),
    ]
    plan = squishy_bin_packing(loads)
    gpu0 = plan.gpus[0]
    print(f"squishy packed {len(loads)} sessions onto {plan.num_gpus} "
          f"GPU(s); inspecting gpu0 (duty {gpu0.duty_cycle_ms:.1f} ms)")

    # A tracer that records outcomes into a metrics collector (the
    # aggregates) and hands every structured event to a buffer (the raw
    # stream).
    sim = Simulator()
    collector = MetricsCollector()
    buffer = TraceBuffer()
    backend = Backend(sim, tracer=Tracer([buffer], invocation=collector))
    specs = {}
    for a in gpu0.allocations:
        specs[a.session_id] = BackendSession(
            session_id=a.session_id,
            profile=a.load.profile,
            slo_ms=a.load.slo_ms,
            target_batch=a.batch,
            duty_cycle_ms=gpu0.duty_cycle_ms,
        )
    backend.set_schedule(list(specs.values()))

    horizon = 4_000.0
    for a in gpu0.allocations:
        for t in uniform_arrivals(a.load.rate_rps, horizon, seed=1):
            sim.schedule_at(t, lambda t=t, sid=a.session_id, slo=a.load.slo_ms:
                            backend.enqueue(Request(
                                session_id=sid, arrival_ms=t,
                                deadline_ms=t + slo)))
    sim.run()

    print(f"\ncaptured {len(buffer.events)} events "
          f"({len(buffer.by_kind(REQUEST_COMPLETED))} completions, "
          f"{len(buffer.by_kind(BATCH_EXECUTED))} batches)")
    busy = gpu_busy_ms(buffer.events)
    print(f"GPU busy: {busy[0]:.0f} ms of {horizon:.0f} ms "
          f"({busy[0] / horizon:.0%} occupancy)")

    print("\nbatch-size histogram (executions per batch size):")
    for size, count in sorted(batch_size_histogram(buffer.events).items()):
        print(f"  b={size:<3} {'#' * count} {count}")

    reasons = drop_reasons(buffer.events)
    print(f"\ndrops by reason: {reasons or 'none'}")

    # Section 4.1's worst case: a request waits at most one duty cycle
    # and then executes in l(b), so squishy plans duty + l(b) <= SLO.
    # Check both views: the realized cycle stats (how tightly the
    # schedule ran) and the hard per-request guarantee (latency <= SLO).
    print("\nduty-cycle tightness (realized vs planned "
          f"duty {gpu0.duty_cycle_ms:.1f} ms) and the squishy bound:")
    worst_latency: dict[str, float] = {}
    for ev in buffer.by_kind(REQUEST_COMPLETED):
        if ev.ok:
            worst_latency[ev.session_id] = max(
                worst_latency.get(ev.session_id, 0.0),
                ev.ts_ms - ev.arrival_ms)
    stats = session_cycle_stats(buffer.events)
    for (gpu, sid), s in sorted(stats.items()):
        spec = specs[sid]
        bound = spec.duty_cycle_ms + spec.profile.latency(spec.target_batch)
        lat = worst_latency.get(sid, 0.0)
        verdict = "ok" if lat <= spec.slo_ms else "SLO MISS"
        print(f"  gpu{gpu} {sid:<20} realized cycle "
              f"{s['max_start_gap_ms']:6.1f} ms  "
              f"bound duty+l(b) {bound:6.1f} ms  "
              f"worst latency {lat:6.1f} ms / SLO {spec.slo_ms:.0f} ms "
              f"[{verdict}]")
    assert all(worst_latency.get(sid, 0.0) <= specs[sid].slo_ms
               for sid in specs), "a served request missed its SLO"
    print("\nevery served request finished within its SLO -- the "
          "duty-cycle schedule kept the squishy promise.")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""GPU timeline: watch the duty-cycle scheduler multiplex one GPU.

Builds a single backend hosting three sessions with different SLOs —
the section 4.1 situation — attaches a trace buffer, pushes traffic
through it, and renders the buffer's batch executions as a Gantt strip. You can see the
round-robin duty cycle, batch sizes holding to plan, and idle slack.

Run:  python examples/gpu_timeline.py
"""

from repro.cluster.backend import Backend, BackendSession
from repro.cluster.messages import Request
from repro.core import Session, SessionLoad, squishy_bin_packing
from repro.core.profile import LinearProfile
from repro.metrics import MetricsCollector, render_gantt
from repro.observability import BATCH_EXECUTED, TraceBuffer, Tracer
from repro.simulation.simulator import Simulator
from repro.workloads.arrivals import uniform_arrivals


def main() -> None:
    # Three sessions in the spirit of Table 2.
    profiles = {
        "modelA": LinearProfile(name="modelA", alpha=3.0, beta=26.0, max_batch=64),
        "modelB": LinearProfile(name="modelB", alpha=5.0, beta=30.0, max_batch=64),
        "modelC": LinearProfile(name="modelC", alpha=4.0, beta=44.0, max_batch=64),
    }
    loads = [
        SessionLoad(Session("modelA", 200.0), 64.0, profiles["modelA"]),
        SessionLoad(Session("modelB", 250.0), 32.0, profiles["modelB"]),
        SessionLoad(Session("modelC", 250.0), 32.0, profiles["modelC"]),
    ]
    plan = squishy_bin_packing(loads)
    print(f"squishy packing chose {plan.num_gpus} GPU(s):")
    for i, gpu in enumerate(plan.gpus):
        print(f"  gpu{i}: duty {gpu.duty_cycle_ms:.0f} ms, "
              f"occupancy {gpu.occupancy:.0%}: "
              + ", ".join(f"{a.session_id} b={a.batch}"
                          for a in gpu.allocations))

    # Deploy the first GPU's schedule on a traced backend and drive it.
    sim = Simulator()
    collector = MetricsCollector()
    buffer = TraceBuffer()
    backend = Backend(sim, tracer=Tracer([buffer], invocation=collector))
    gpu0 = plan.gpus[0]
    backend.set_schedule([
        BackendSession(
            session_id=a.session_id,
            profile=a.load.profile,
            slo_ms=a.load.slo_ms,
            target_batch=a.batch,
            duty_cycle_ms=gpu0.duty_cycle_ms,
        )
        for a in gpu0.allocations
    ])

    horizon = 1_500.0
    for alloc in gpu0.allocations:
        for t in uniform_arrivals(alloc.load.rate_rps, horizon, seed=1):
            sim.schedule_at(t, lambda t=t, sid=alloc.session_id:
                            backend.enqueue(Request(
                                session_id=sid, arrival_ms=t,
                                deadline_ms=t + alloc.load.slo_ms)))
    sim.run()

    print(f"\n{collector.total} requests, "
          f"{collector.good_rate:.1%} within SLO, "
          f"GPU busy {collector.utilization(1, horizon):.0%}\n")
    print(render_gantt(buffer.by_kind(BATCH_EXECUTED), start_ms=0.0,
                       end_ms=horizon, width=100))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Batch analytics: deferred execution instead of dropping.

Section 2 distinguishes "live" applications (tens to hundreds of
milliseconds) from "batch" applications (results due within hours), and
section 5 notes Nexus "could ... simply delay the execution of requests
that miss their deadlines to a later time and at a lower priority."

This example runs the same overloaded burst through one GPU twice:

- live mode: early-drop admission control sheds the excess;
- batch mode (``defer_missed=True``): the excess is parked on a deferred
  queue and served when the GPU would otherwise idle -- everything
  completes, some of it late, and fresh live traffic is never starved.

Run:  python examples/batch_analytics.py
"""

from repro.cluster.backend import Backend, BackendSession
from repro.cluster.messages import Request
from repro.core.profile import LinearProfile
from repro.metrics import MetricsCollector
from repro.observability import Tracer
from repro.simulation.simulator import Simulator
from repro.workloads.arrivals import poisson_arrivals


def run(defer: bool) -> MetricsCollector:
    sim = Simulator()
    collector = MetricsCollector()
    backend = Backend(sim, tracer=Tracer(invocation=collector),
                      defer_missed=defer)
    profile = LinearProfile(name="indexer", alpha=1.0, beta=20.0,
                            max_batch=32)
    backend.set_schedule([BackendSession(
        session_id="indexer", profile=profile, slo_ms=150.0,
        target_batch=24, duty_cycle_ms=0.0,
    )])

    # A 3x-overload burst for 5 s, then calm traffic for 15 s.
    burst = poisson_arrivals(2_000.0, 5_000.0, seed=7)
    calm = [5_000.0 + t for t in poisson_arrivals(300.0, 15_000.0, seed=8)]
    for t in burst + calm:
        sim.schedule_at(t, lambda t=t: backend.enqueue(Request(
            session_id="indexer", arrival_ms=t, deadline_ms=t + 150.0)))
    sim.run()
    return collector


def main() -> None:
    for label, defer in (("live (early drop)", False),
                         ("batch (deferred)", True)):
        c = run(defer)
        print(f"{label:18s}: {c.total} requests -> "
              f"{c.ok_count} on time, {c.late_count} late, "
              f"{c.dropped_count} dropped "
              f"(answered {100 * (1 - c.dropped_count / c.total):.1f}%)")

    print("\nbatch mode answers every request; live mode protects the SLO\n"
          "by shedding -- the same engine, one flag apart.")


if __name__ == "__main__":
    main()

"""Typed trace events: the vocabulary of the observability layer.

One flat record type (:class:`TraceEvent`) carries every kind of event the
cluster engine emits; the ``kind`` field selects which of the optional
fields are meaningful.  A flat record keeps the hot emission path to a
single allocation and makes the exporters (Chrome trace, Prometheus
snapshot, CSV) trivial table scans.

Event taxonomy (see docs/observability.md for the full reference):

========================  =====================================================
kind                      meaning
========================  =====================================================
``request.admitted``      a request entered a backend's session queue
``request.dropped``       admission control / routing shed a request
                          (``reason`` distinguishes why)
``request.completed``     a batched execution delivered a request
                          (``ok`` = within SLO)
``batch.executed``        one batched execution span on a GPU
                          (``ts_ms`` = start, ``dur_ms`` = occupancy)
``query.submitted``       a whole multi-stage query entered a frontend
``query.completed``       a query finished (``ok`` = every stage beat the SLO)
``route.failed``          a frontend found no backend for a session
``session.placed``        the control plane placed a session on a GPU
``session.removed``       the control plane removed a session from a GPU
``session.relocated``     a session moved between GPUs across plans
``plan.applied``          a schedule plan was deployed (``detail["gpus"]``)
``epoch.planned``         the epoch control loop re-planned from observed load
``backend.failed``        a backend crashed (``detail["cause"]="crash"``) or
                          its lease expired at the global scheduler
                          (``detail["cause"]="lease_expired"``)
``backend.recovered``     a failed backend came back / was detected healthy
``backend.slowdown``      a backend's execution speed changed
                          (``detail["factor"]``; 1.0 = restored)
``request.retried``       a frontend re-dispatched a request lost to a
                          backend failure (``detail["attempt"]``)
``sim.window``            one simulator ``run_until`` window (events processed)
``oracle.compared``       one queueing-oracle estimate checked against a
                          simulated ground truth (``detail`` carries the
                          p99s and relative error; validation runs emit
                          these so oracle drift is observable)
========================  =====================================================

The outcome kinds (``request.completed``, ``request.dropped``,
``batch.executed``, ``query.completed``, ``plan.applied``) are also what
:class:`~repro.metrics.collector.MetricsCollector` counts: the
:class:`~repro.observability.tracer.Tracer` method for each records into
the collectors itself and builds the event only when a sink is attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "TraceEvent",
    "REQUEST_ADMITTED",
    "REQUEST_DROPPED",
    "REQUEST_COMPLETED",
    "BATCH_EXECUTED",
    "QUERY_SUBMITTED",
    "QUERY_COMPLETED",
    "ROUTE_FAILED",
    "SESSION_PLACED",
    "SESSION_REMOVED",
    "SESSION_RELOCATED",
    "PLAN_APPLIED",
    "EPOCH_PLANNED",
    "BACKEND_FAILED",
    "BACKEND_RECOVERED",
    "BACKEND_SLOWDOWN",
    "REQUEST_RETRIED",
    "SIM_WINDOW",
    "ORACLE_COMPARED",
    "DROP_MISROUTED",
    "DROP_EARLY",
    "DROP_UNSCHEDULED",
    "DROP_UNROUTABLE",
    "DROP_BACKEND_FAILED",
]

# ------------------------------------------------------------- event kinds

REQUEST_ADMITTED = "request.admitted"
REQUEST_DROPPED = "request.dropped"
REQUEST_COMPLETED = "request.completed"
BATCH_EXECUTED = "batch.executed"
QUERY_SUBMITTED = "query.submitted"
QUERY_COMPLETED = "query.completed"
ROUTE_FAILED = "route.failed"
SESSION_PLACED = "session.placed"
SESSION_REMOVED = "session.removed"
SESSION_RELOCATED = "session.relocated"
PLAN_APPLIED = "plan.applied"
EPOCH_PLANNED = "epoch.planned"
BACKEND_FAILED = "backend.failed"
BACKEND_RECOVERED = "backend.recovered"
BACKEND_SLOWDOWN = "backend.slowdown"
REQUEST_RETRIED = "request.retried"
SIM_WINDOW = "sim.window"
ORACLE_COMPARED = "oracle.compared"

# ------------------------------------------------------------ drop reasons

#: the backend received a request for a session it does not serve (e.g.
#: the schedule changed while the request was in flight).
DROP_MISROUTED = "misrouted"
#: the drop policy shed the request at batch-formation time (early drop /
#: expired deadline).
DROP_EARLY = "early_drop"
#: the session was removed from the backend's schedule with requests
#: still queued.
DROP_UNSCHEDULED = "unscheduled"
#: the frontend found no route for the session.
DROP_UNROUTABLE = "unroutable"
#: the request was lost to a backend failure (crash while queued or
#: in flight, or every retry landed on a dead backend / ran out of
#: deadline budget).
DROP_BACKEND_FAILED = "backend_failed"


@dataclass(slots=True)
class TraceEvent:
    """One structured event on the cluster timeline.

    ``ts_ms`` is virtual time (the simulator clock).  Span kinds
    (``batch.executed``, ``sim.window``) set ``dur_ms``; point kinds leave
    it ``None``.  ``detail`` holds rare structured extras and stays
    ``None`` on the hot paths.
    """

    ts_ms: float
    kind: str
    gpu_id: int | None = None
    session_id: str | None = None
    request_id: int | None = None
    dur_ms: float | None = None
    arrival_ms: float | None = None
    deadline_ms: float | None = None
    batch: int | None = None
    ok: bool | None = None
    reason: str | None = None
    detail: dict | None = field(default=None)

    @property
    def end_ms(self) -> float:
        """Span end (== ``ts_ms`` for point events)."""
        return self.ts_ms + (self.dur_ms or 0.0)

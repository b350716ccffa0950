"""The tracer: one outcome path into the metrics collectors, plus sinks.

Design (mirrors how production tracing layers are shaped):

- A :class:`Tracer` holds the deployment's two
  :class:`~repro.metrics.collector.MetricsCollector` objects (``invocation``
  and ``query``) and a list of sinks, and exposes one typed method per
  event kind.  Call sites always talk to a tracer -- there is no
  ``if tracing:`` sprinkled through the runtime.
- *Outcome* methods (``request_completed``, ``request_dropped``,
  ``batch_executed``, ``query_completed``, ``plan_applied``) record into
  the collectors directly -- this is how the paper's numbers are fed --
  and build a :class:`TraceEvent` only when a sink is attached.
- *Lifecycle* methods (admissions, placements, route failures, ...)
  only exist for sinks and return before allocating anything without
  one.
- With **no sinks and no collectors** every method is a no-op: the
  shared :data:`NULL_TRACER` is the default for standalone components.
- Attaching a :class:`TraceBuffer` (``NexusCluster.run(trace=True)``, the
  CLI's ``--trace-out``, or :func:`capture_trace`) turns on the full
  stream.

Sink protocol: any object with ``emit(event: TraceEvent)``.  Sinks are
fixed at construction.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

from ..metrics.collector import MetricsCollector, RequestRecord
from .events import (
    BACKEND_FAILED,
    BACKEND_RECOVERED,
    BACKEND_SLOWDOWN,
    BATCH_EXECUTED,
    EPOCH_PLANNED,
    ORACLE_COMPARED,
    PLAN_APPLIED,
    QUERY_COMPLETED,
    QUERY_SUBMITTED,
    REQUEST_ADMITTED,
    REQUEST_COMPLETED,
    REQUEST_DROPPED,
    REQUEST_RETRIED,
    ROUTE_FAILED,
    SESSION_PLACED,
    SESSION_RELOCATED,
    SESSION_REMOVED,
    SIM_WINDOW,
    TraceEvent,
)

__all__ = [
    "Tracer",
    "TraceBuffer",
    "NULL_TRACER",
    "capture_trace",
    "active_trace_buffer",
    "set_active_trace_buffer",
]


class TraceBuffer:
    """A sink that records every event in emission order."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def by_kind(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]


class Tracer:
    """Records outcomes into collectors and dispatches events to sinks.

    Args:
        sinks: event consumers, each with ``emit(event)``.
        invocation: collector for per-invocation outcomes, GPU busy time
            and GPU-count samples.
        query: collector for whole-query outcomes.

    Every outcome reaches the collectors first, then the sinks in list
    order.  ``enabled`` ("is anything attached?") and ``recording`` ("is
    a sink attached?") are plain attributes fixed at construction: hot
    call sites in ``Backend``/``Frontend`` gate per-request calls on them
    so an idle tracer costs one attribute load + one branch.
    """

    __slots__ = ("_sinks", "invocation", "query", "enabled", "recording")

    def __init__(
        self, sinks: list[object] | tuple[object, ...] = (),
        invocation: MetricsCollector | None = None,
        query: MetricsCollector | None = None,
    ) -> None:
        self._sinks = list(sinks)
        self.invocation = invocation
        self.query = query
        self.recording = bool(self._sinks)
        self.enabled = (
            self.recording or invocation is not None or query is not None
        )

    def emit(self, event: TraceEvent) -> None:
        for sink in self._sinks:
            sink.emit(event)

    # ------------------------------------------------------ outcome events
    # Recorded into the collectors; an event is built only for sinks.
    # Positional RequestRecord construction: these run once per request.

    def request_completed(
        self, ts_ms: float, session_id: str, request_id: int,
        arrival_ms: float, deadline_ms: float, ok: bool,
        gpu_id: int | None = None,
    ) -> None:
        if self.invocation is not None:
            self.invocation.record(RequestRecord(
                request_id, session_id, arrival_ms, deadline_ms, ts_ms, False,
            ))
        if self.recording:
            self.emit(TraceEvent(
                ts_ms, REQUEST_COMPLETED, gpu_id=gpu_id,
                session_id=session_id, request_id=request_id,
                arrival_ms=arrival_ms, deadline_ms=deadline_ms, ok=ok,
            ))

    def request_dropped(
        self, ts_ms: float, session_id: str, request_id: int,
        arrival_ms: float, deadline_ms: float, reason: str,
        gpu_id: int | None = None,
    ) -> None:
        if self.invocation is not None:
            self.invocation.record(RequestRecord(
                request_id, session_id, arrival_ms, deadline_ms, None, True,
            ))
        if self.recording:
            self.emit(TraceEvent(
                ts_ms, REQUEST_DROPPED, gpu_id=gpu_id, session_id=session_id,
                request_id=request_id, arrival_ms=arrival_ms,
                deadline_ms=deadline_ms, ok=False, reason=reason,
            ))

    def batch_executed(
        self, start_ms: float, dur_ms: float, gpu_id: int, session_id: str,
        batch: int, deferred: bool = False,
    ) -> None:
        if self.invocation is not None:
            self.invocation.record_gpu_busy(gpu_id, dur_ms)
        if self.recording:
            self.emit(TraceEvent(
                start_ms, BATCH_EXECUTED, gpu_id=gpu_id,
                session_id=session_id, dur_ms=dur_ms, batch=batch,
                reason="deferred" if deferred else None,
            ))

    def query_completed(
        self, ts_ms: float, query_name: str, query_id: int,
        arrival_ms: float, deadline_ms: float, ok: bool,
    ) -> None:
        if self.query is not None:
            self.query.record(RequestRecord(
                query_id, query_name, arrival_ms, deadline_ms,
                ts_ms if ok else None, not ok,
            ))
        if self.recording:
            self.emit(TraceEvent(
                ts_ms, QUERY_COMPLETED, session_id=query_name,
                request_id=query_id, arrival_ms=arrival_ms,
                deadline_ms=deadline_ms, ok=ok,
            ))

    def plan_applied(self, ts_ms: float, gpus: int) -> None:
        if self.invocation is not None:
            self.invocation.sample_gpu_count(ts_ms, gpus)
        if self.recording:
            self.emit(TraceEvent(ts_ms, PLAN_APPLIED, detail={"gpus": gpus}))

    # ---------------------------------------------------- lifecycle events
    # Skipped without allocation unless a sink is attached.

    def request_admitted(
        self, ts_ms: float, session_id: str, request_id: int,
        deadline_ms: float, gpu_id: int | None = None,
    ) -> None:
        if not self.recording:
            return
        self.emit(TraceEvent(
            ts_ms, REQUEST_ADMITTED, gpu_id=gpu_id, session_id=session_id,
            request_id=request_id, arrival_ms=ts_ms, deadline_ms=deadline_ms,
        ))

    def query_submitted(
        self, ts_ms: float, query_name: str, query_id: int,
        deadline_ms: float,
    ) -> None:
        if not self.recording:
            return
        self.emit(TraceEvent(
            ts_ms, QUERY_SUBMITTED, session_id=query_name,
            request_id=query_id, arrival_ms=ts_ms, deadline_ms=deadline_ms,
        ))

    def route_failed(self, ts_ms: float, session_id: str) -> None:
        if not self.recording:
            return
        self.emit(TraceEvent(ts_ms, ROUTE_FAILED, session_id=session_id))

    def session_placed(self, ts_ms: float, gpu_id: int, session_id: str,
                       load_ms: float = 0.0) -> None:
        if not self.recording:
            return
        self.emit(TraceEvent(
            ts_ms, SESSION_PLACED, gpu_id=gpu_id, session_id=session_id,
            dur_ms=load_ms or None,
        ))

    def session_removed(self, ts_ms: float, gpu_id: int,
                        session_id: str) -> None:
        if not self.recording:
            return
        self.emit(TraceEvent(
            ts_ms, SESSION_REMOVED, gpu_id=gpu_id, session_id=session_id,
        ))

    def session_relocated(self, ts_ms: float, gpu_id: int, session_id: str,
                          from_gpu: int) -> None:
        if not self.recording:
            return
        self.emit(TraceEvent(
            ts_ms, SESSION_RELOCATED, gpu_id=gpu_id, session_id=session_id,
            detail={"from_gpu": from_gpu},
        ))

    def backend_failed(self, ts_ms: float, gpu_id: int,
                       cause: str = "crash") -> None:
        """A backend died (``cause="crash"``) or the global scheduler's
        lease on it expired (``cause="lease_expired"``)."""
        if not self.recording:
            return
        self.emit(TraceEvent(
            ts_ms, BACKEND_FAILED, gpu_id=gpu_id, detail={"cause": cause},
        ))

    def backend_recovered(self, ts_ms: float, gpu_id: int,
                          cause: str = "restart") -> None:
        if not self.recording:
            return
        self.emit(TraceEvent(
            ts_ms, BACKEND_RECOVERED, gpu_id=gpu_id, detail={"cause": cause},
        ))

    def backend_slowdown(self, ts_ms: float, gpu_id: int,
                         factor: float) -> None:
        if not self.recording:
            return
        self.emit(TraceEvent(
            ts_ms, BACKEND_SLOWDOWN, gpu_id=gpu_id,
            detail={"factor": factor},
        ))

    def request_retried(self, ts_ms: float, session_id: str, request_id: int,
                        attempt: int, backoff_ms: float = 0.0) -> None:
        if not self.recording:
            return
        self.emit(TraceEvent(
            ts_ms, REQUEST_RETRIED, session_id=session_id,
            request_id=request_id,
            detail={"attempt": attempt, "backoff_ms": backoff_ms},
        ))

    def epoch_planned(self, ts_ms: float, epoch: int, gpus: int,
                      rates: dict[str, float] | None = None) -> None:
        if not self.recording:
            return
        detail: dict[str, object] = {"epoch": epoch, "gpus": gpus}
        if rates:
            detail["rates"] = dict(rates)
        self.emit(TraceEvent(ts_ms, EPOCH_PLANNED, detail=detail))

    def sim_window(self, start_ms: float, end_ms: float,
                   events_processed: int) -> None:
        if not self.recording:
            return
        self.emit(TraceEvent(
            start_ms, SIM_WINDOW, dur_ms=max(0.0, end_ms - start_ms),
            detail={"events_processed": events_processed},
        ))

    def oracle_compared(
        self, ts_ms: float, session_id: str, batch_cap: int,
        oracle_p99_ms: float, sim_p99_ms: float,
        detail: dict[str, object] | None = None,
    ) -> None:
        """One queueing-oracle estimate checked against simulated ground
        truth (emitted by validation runs so oracle drift is observable)."""
        if not self.recording:
            return
        info: dict[str, object] = {
            "oracle_p99_ms": oracle_p99_ms,
            "sim_p99_ms": sim_p99_ms,
            "p99_err": (
                (oracle_p99_ms - sim_p99_ms) / sim_p99_ms
                if sim_p99_ms > 0 else 0.0
            ),
        }
        if detail:
            info.update(detail)
        self.emit(TraceEvent(
            ts_ms, ORACLE_COMPARED, session_id=session_id, batch=batch_cap,
            detail=info,
        ))


#: the shared do-nothing tracer: default for standalone components.
NULL_TRACER: Tracer = Tracer()


# ------------------------------------------------- ambient capture (CLI)

#: process-wide buffer that cluster runs attach to when set; lets the CLI
#: and report generator capture traces from experiment modules without
#: threading a tracer through every call signature.
_active_buffer: TraceBuffer | None = None


def active_trace_buffer() -> TraceBuffer | None:
    return _active_buffer


def set_active_trace_buffer(buffer: TraceBuffer | None) -> TraceBuffer | None:
    """Install (or clear) the ambient buffer; returns the previous one."""
    global _active_buffer
    prior = _active_buffer
    _active_buffer = buffer
    return prior


@contextlib.contextmanager
def capture_trace() -> Iterator[TraceBuffer]:
    """Capture every event emitted by cluster runs inside the block::

        with capture_trace() as buffer:
            module.run(...)
        write_chrome_trace(buffer.events, "out.json")
    """
    buffer = TraceBuffer()
    prior = set_active_trace_buffer(buffer)
    try:
        yield buffer
    finally:
        set_active_trace_buffer(prior)

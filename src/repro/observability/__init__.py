"""Observability: structured tracing, metrics export, trace analysis.

The cluster runtime reports through a :class:`Tracer` (a no-op by
default).  Each outcome -- a request completed or dropped, a batch
executed, a query finished, a plan applied -- is recorded straight into
the tracer's :class:`~repro.metrics.collector.MetricsCollector` pair, which
derive the paper's numbers.  When sinks are attached, every call also
becomes a typed :class:`TraceEvent` on the stream they consume:

- :class:`TraceBuffer` records the full stream for export
  (:func:`chrome_trace` for ``chrome://tracing`` / Perfetto,
  :func:`prometheus_snapshot` for counters/gauges, :func:`csv_dump` for
  figure scripts) and analysis (:mod:`repro.observability.analysis`).

Entry points: ``NexusCluster.run(trace=True)``, the CLI's
``--trace-out`` / ``--metrics-out`` / ``--trace-csv`` flags, or
:func:`capture_trace` around any experiment.  See docs/observability.md.
"""

from .analysis import (
    batch_size_histogram,
    busy_intervals,
    drop_reasons,
    filter_events,
    gpu_busy_ms,
    session_cycle_stats,
)
from .events import (
    BATCH_EXECUTED,
    EPOCH_PLANNED,
    PLAN_APPLIED,
    QUERY_COMPLETED,
    QUERY_SUBMITTED,
    REQUEST_ADMITTED,
    REQUEST_COMPLETED,
    REQUEST_DROPPED,
    ROUTE_FAILED,
    SESSION_PLACED,
    SESSION_RELOCATED,
    SESSION_REMOVED,
    SIM_WINDOW,
    TraceEvent,
)
from .exporters import (
    chrome_trace,
    csv_dump,
    prometheus_snapshot,
    write_chrome_trace,
    write_csv,
    write_prometheus_snapshot,
)
from .tracer import (
    NULL_TRACER,
    TraceBuffer,
    Tracer,
    active_trace_buffer,
    capture_trace,
    set_active_trace_buffer,
)

__all__ = [
    # events
    "TraceEvent",
    "BATCH_EXECUTED", "EPOCH_PLANNED", "PLAN_APPLIED", "QUERY_COMPLETED",
    "QUERY_SUBMITTED", "REQUEST_ADMITTED", "REQUEST_COMPLETED",
    "REQUEST_DROPPED", "ROUTE_FAILED", "SESSION_PLACED",
    "SESSION_RELOCATED", "SESSION_REMOVED", "SIM_WINDOW",
    # tracer
    "Tracer", "TraceBuffer", "NULL_TRACER", "capture_trace",
    "active_trace_buffer", "set_active_trace_buffer",
    # exporters
    "chrome_trace", "write_chrome_trace", "prometheus_snapshot",
    "write_prometheus_snapshot", "csv_dump", "write_csv",
    # analysis
    "filter_events", "busy_intervals", "gpu_busy_ms",
    "batch_size_histogram", "drop_reasons", "session_cycle_stats",
]

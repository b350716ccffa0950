"""Discrete-event simulator: the virtual cluster's clock and event loop.

The substitution for the paper's physical testbed (DESIGN.md section 2):
frontends, backends and the global scheduler are all driven by this loop.
Time is float milliseconds.  Events fire in (time, priority, insertion
order), so same-timestamp events are deterministic -- every experiment in
the repo is reproducible from its seed.

The simulator conforms structurally to the
:class:`~repro.runtime.clock.EventSource` protocol (``now`` /
``schedule`` / ``schedule_at`` returning cancellable handles), making it
the virtual-time driver of the shared
:class:`~repro.runtime.core.RuntimeCore`; the live serving plane
(:mod:`repro.serving`) drives the same core with wall-clock asyncio
timers instead.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from typing import Callable

__all__ = ["Simulator", "EventHandle"]


class _Event:
    """One scheduled callback.

    Slotted and kept *out* of the heap ordering: the heap holds
    ``(time_ms, priority, seq, event)`` tuples whose comparison never
    reaches the event (``seq`` is unique), so tie-breaking is plain tuple
    comparison instead of a generated dataclass ``__lt__`` with attribute
    loads -- the event loop is the hottest path in every experiment.
    ``fn`` is set to None once the event fires, which both frees the
    closure and tells a late :meth:`EventHandle.cancel` that the entry
    has already left the heap.
    """

    __slots__ = ("time_ms", "fn", "cancelled")

    def __init__(self, time_ms: float, fn: Callable[[], None] | None) -> None:
        self.time_ms = time_ms
        self.fn = fn
        self.cancelled = False


class EventHandle:
    """Returned by :meth:`Simulator.schedule`; supports cancellation."""

    __slots__ = ("_event", "_sim")

    def __init__(self, event: _Event, sim: "Simulator | None" = None):
        self._event = event
        self._sim = sim

    def cancel(self) -> None:
        event = self._event
        if not event.cancelled:
            event.cancelled = True
            sim = self._sim
            # A fired event (``fn`` released) is no longer in the heap:
            # counting it would inflate the dead-entry tally behind
            # compaction.
            if sim is not None and event.fn is not None:
                sim._note_cancelled()

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    @property
    def time_ms(self) -> float:
        return self._event.time_ms


class Simulator:
    """A minimal, deterministic event loop.

    Usage::

        sim = Simulator()
        sim.schedule(10.0, lambda: print("at t=10ms"))
        sim.run_until(1000.0)
    """

    #: never compact heaps smaller than this -- rebuilding tiny heaps
    #: costs more than carrying a handful of dead entries.
    _COMPACT_MIN = 64

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, int, _Event]] = []
        self._seq = itertools.count()
        self._events_processed = 0
        #: live count of cancelled-but-unpopped events; drives compaction.
        self._cancelled_pending = 0
        #: optional observability tracer (``repro.observability.Tracer``);
        #: when attached and recording, each run window emits one
        #: ``sim.window`` span.  Never consulted inside the hot loop.
        self._tracer = None

    def attach_tracer(self, tracer) -> None:
        """Attach a structured-event tracer (see ``repro.observability``)."""
        self._tracer = tracer

    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def schedule(
        self, delay_ms: float, fn: Callable[[], None], priority: int = 0
    ) -> EventHandle:
        """Run ``fn`` after ``delay_ms``; lower priority fires first at ties."""
        if delay_ms < 0:
            raise ValueError(f"delay must be >= 0, got {delay_ms}")
        return self.schedule_at(self._now + delay_ms, fn, priority)

    def schedule_at(
        self, time_ms: float, fn: Callable[[], None], priority: int = 0
    ) -> EventHandle:
        """Run ``fn`` at absolute virtual time ``time_ms``."""
        if time_ms < self._now:
            raise ValueError(
                f"cannot schedule in the past: {time_ms} < now {self._now}"
            )
        event = _Event(time_ms, fn)
        heappush(self._heap, (time_ms, priority, next(self._seq), event))
        return EventHandle(event, self)

    def _note_cancelled(self) -> None:
        """A handle cancelled its event; compact if the heap is mostly dead.

        Cancelled events stay in the heap until popped, so heavy timer
        churn (heartbeat leases, retry backoffs) would otherwise grow the
        heap without bound.  When more than half of a non-trivial heap is
        dead weight, rebuild it from the live entries: the surviving
        ``(time, priority, seq)`` tuples keep their original seq numbers,
        so event ordering is untouched.
        """
        self._cancelled_pending += 1
        heap = self._heap
        if len(heap) >= self._COMPACT_MIN and self._cancelled_pending * 2 > len(heap):
            # In place: the run loops hold a local alias to this list.
            heap[:] = [entry for entry in heap if not entry[3].cancelled]
            heapify(heap)
            self._cancelled_pending = 0

    def run_until(self, end_ms: float) -> None:
        """Process events up to and including ``end_ms``."""
        start_ms = self._now
        start_count = self._events_processed
        heap = self._heap
        processed = 0
        skipped = 0
        while heap and heap[0][0] <= end_ms:
            time_ms, _, _, event = heappop(heap)
            if event.cancelled:
                skipped += 1
                continue
            self._now = time_ms
            processed += 1
            fn = event.fn
            event.fn = None
            fn()
        self._events_processed += processed
        self._cancelled_pending -= skipped
        self._now = max(self._now, end_ms)
        self._trace_window(start_ms, start_count)

    def run(self) -> None:
        """Process every pending event (callers must ensure termination)."""
        start_ms = self._now
        start_count = self._events_processed
        heap = self._heap
        processed = 0
        skipped = 0
        while heap:
            time_ms, _, _, event = heappop(heap)
            if event.cancelled:
                skipped += 1
                continue
            self._now = time_ms
            processed += 1
            fn = event.fn
            event.fn = None
            fn()
        self._events_processed += processed
        self._cancelled_pending -= skipped
        self._trace_window(start_ms, start_count)

    def _trace_window(self, start_ms: float, start_count: int) -> None:
        tracer = self._tracer
        if tracer is not None and tracer.recording:
            tracer.sim_window(
                start_ms, self._now, self._events_processed - start_count
            )

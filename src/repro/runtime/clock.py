"""Clock / event-source abstraction: virtual and wall-clock drivers.

Everything time-related in the cluster runtime speaks **float
milliseconds** through this protocol.  The unit contract is load-bearing:
the same backend/frontend/scheduler code runs under the discrete-event
simulator (virtual ms) and under asyncio wall-clock timers (real ms), so
any path that mixed milliseconds with seconds -- harmless while only one
clock existed -- becomes a live bug here.  ``nexuslint``'s
``raw-time-literal`` rule guards the call sites.

Three implementations:

- :class:`repro.simulation.simulator.Simulator` -- the discrete-event
  driver (virtual time, deterministic ``(time, priority, seq)`` firing
  order).  It predates this protocol and conforms structurally.
- :class:`AsyncioEventSource` -- the live driver: ``now`` is wall time in
  ms since construction, timers are ``loop.call_later`` underneath
  (converted to seconds exactly once, here and nowhere else).
- :class:`ManualEventSource` -- a mocked instant clock for tests: the
  wall-clock driver's interface with deterministic, manually-advanced
  time.  Implemented independently of ``Simulator`` so driver-equivalence
  tests compare two codepaths, not one codepath with itself.
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

if TYPE_CHECKING:  # asyncio is imported where a wall clock is built
    import asyncio

__all__ = [
    "TimerHandle",
    "EventSource",
    "AsyncioEventSource",
    "ManualEventSource",
]

#: milliseconds per second -- the single sanctioned conversion constant
#: for driver code (see the module docstring's unit contract).
MS_PER_S: float = 1000.0


@runtime_checkable
class TimerHandle(Protocol):
    """A scheduled callback that can be cancelled."""

    def cancel(self) -> None: ...

    @property
    def cancelled(self) -> bool: ...

    @property
    def time_ms(self) -> float: ...


@runtime_checkable
class EventSource(Protocol):
    """The clock + timer surface the cluster runtime is written against.

    All times are float milliseconds.  ``priority`` breaks ties at equal
    timestamps for deterministic drivers (lower fires first); wall-clock
    drivers may ignore it (physical time has no ties).
    """

    @property
    def now(self) -> float: ...

    def schedule(
        self, delay_ms: float, fn: Callable[[], None], priority: int = 0
    ) -> TimerHandle: ...

    def schedule_at(
        self, time_ms: float, fn: Callable[[], None], priority: int = 0
    ) -> TimerHandle: ...


class _AsyncioTimer:
    """Wraps an asyncio timer into the :class:`TimerHandle` protocol."""

    __slots__ = ("_handle", "time_ms", "_cancelled")

    def __init__(self, handle: asyncio.TimerHandle, time_ms: float) -> None:
        self._handle = handle
        self.time_ms = time_ms
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True
        self._handle.cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled


class AsyncioEventSource:
    """Wall-clock driver: ms-denominated timers over an asyncio loop.

    ``now`` is the loop's monotonic clock, rebased so time starts at 0 ms
    when the source is constructed -- the same origin convention as the
    simulator, so control-loop state like "last epoch at t" transfers
    between drivers unchanged.  The ms <-> s conversion happens exactly
    here; callers never multiply by 1000 themselves.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop | None = None) -> None:
        if loop is None:
            import asyncio

            loop = asyncio.get_event_loop()
        self._loop = loop
        self._origin_s = self._loop.time()

    @property
    def now(self) -> float:
        """Wall-clock milliseconds since this source was created."""
        return (self._loop.time() - self._origin_s) * MS_PER_S

    def schedule(
        self, delay_ms: float, fn: Callable[[], None], priority: int = 0
    ) -> _AsyncioTimer:
        """Run ``fn`` after ``delay_ms`` wall milliseconds."""
        if delay_ms < 0:
            raise ValueError(f"delay must be >= 0, got {delay_ms}")
        fire_ms = self.now + delay_ms
        handle = self._loop.call_later(delay_ms / MS_PER_S, fn)
        return _AsyncioTimer(handle, fire_ms)

    def schedule_at(
        self, time_ms: float, fn: Callable[[], None], priority: int = 0
    ) -> _AsyncioTimer:
        """Run ``fn`` at absolute time ``time_ms`` (ms since origin).

        Unlike the simulator, a wall clock cannot refuse a timestamp that
        slipped into the past while the caller computed it; past times
        fire as soon as possible instead of raising.
        """
        delay_ms = max(0.0, time_ms - self.now)
        handle = self._loop.call_later(delay_ms / MS_PER_S, fn)
        return _AsyncioTimer(handle, time_ms)


class _ManualEvent:
    __slots__ = ("time_ms", "fn", "cancelled")

    def __init__(self, time_ms: float, fn: Callable[[], None]) -> None:
        self.time_ms = time_ms
        self.fn = fn
        self.cancelled = False


class _ManualTimer:
    __slots__ = ("_event",)

    def __init__(self, event: _ManualEvent) -> None:
        self._event = event

    def cancel(self) -> None:
        self._event.cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    @property
    def time_ms(self) -> float:
        return self._event.time_ms


class ManualEventSource:
    """Deterministic test double for the wall-clock driver.

    Semantically a discrete-event clock -- timers fire in ``(time,
    priority, insertion order)`` -- but implemented independently of
    :class:`~repro.simulation.simulator.Simulator` so that replaying one
    trace through both drivers genuinely exercises two codepaths.  Tests
    ``advance_to``/``run_until`` it explicitly ("mocked instant clock"):
    a whole wall-clock day of epochs runs in microseconds.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, int, _ManualEvent]] = []
        self._seq = itertools.count()
        self.fired = 0

    @property
    def now(self) -> float:
        return self._now

    def schedule(
        self, delay_ms: float, fn: Callable[[], None], priority: int = 0
    ) -> _ManualTimer:
        if delay_ms < 0:
            raise ValueError(f"delay must be >= 0, got {delay_ms}")
        return self.schedule_at(self._now + delay_ms, fn, priority)

    def schedule_at(
        self, time_ms: float, fn: Callable[[], None], priority: int = 0
    ) -> _ManualTimer:
        # Mirror the wall clock's forgiveness: a timestamp already in the
        # past fires at the current instant rather than raising.
        event = _ManualEvent(max(time_ms, self._now), fn)
        heappush(self._heap, (event.time_ms, priority, next(self._seq), event))
        return _ManualTimer(event)

    def advance_to(self, end_ms: float) -> int:
        """Fire every timer due up to and including ``end_ms``."""
        heap = self._heap
        fired = 0
        while heap and heap[0][0] <= end_ms:
            time_ms, _, _, event = heappop(heap)
            if event.cancelled:
                continue
            self._now = time_ms
            fired += 1
            event.fn()
        self._now = max(self._now, end_ms)
        self.fired += fired
        return fired

    # Alias matching the simulator's verb so tests can drive either.
    def run_until(self, end_ms: float) -> int:
        return self.advance_to(end_ms)

    def drain(self, limit_ms: float = math.inf) -> int:
        """Fire everything pending (bounded by ``limit_ms``)."""
        fired = 0
        while self._heap and self._heap[0][0] <= limit_ms:
            fired += self.advance_to(self._heap[0][0])
        return fired

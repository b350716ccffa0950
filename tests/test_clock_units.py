"""Clock-unit regression tests: the sim-vs-wall bugfix sweep.

The live serving plane runs the exact cluster modules that the simulator
drives, but on wall-clock timers -- which land with float jitter and can
fire late.  These tests pin the audit fixes; each one fails on the
pre-fix code:

- ``HeartbeatMonitor`` must not declare a backend dead when a lease is
  stale by exactly ``lease_ms`` plus float-accumulation jitter (the old
  raw ``>`` comparison did, one ulp over the boundary).
- ``Backend._on_batch_done`` must judge SLO verdicts and stamp
  completion times at the timer's *actual* fire time, not the completion
  instant the batch was scheduled for (identical under the simulator,
  different under a lagging wall clock).

The retry-budget companion fix (a backoff that would land past the
deadline drops immediately) is pinned in
``test_faults.py::TestRetryPolicy``.
"""

from __future__ import annotations

import math

from repro.cluster.backend import Backend, BackendSession
from repro.cluster.frontend import RoutingTable
from repro.cluster.global_scheduler import BackendPool, HeartbeatMonitor
from repro.cluster.messages import Request
from repro.core.profile import LinearProfile
from repro.simulation.simulator import Simulator


class TestHeartbeatLeaseBoundary:
    """Satellite fix: lease expiry uses floatcmp.definitely_gt."""

    HEARTBEAT_MS = 33.1  # not exactly representable in binary
    LEASE_MS = 99.3      # == 3 heartbeats, mathematically

    def _monitor(self, sim):
        routing = RoutingTable()
        pool = BackendPool(sim, routing)
        pool.backends.append(Backend(sim, gpu_id=0))
        declared = []
        monitor = HeartbeatMonitor(
            sim, pool,
            heartbeat_ms=self.HEARTBEAT_MS, lease_ms=self.LEASE_MS,
            on_failure=lambda idx, t: declared.append((idx, t)),
        )
        return pool, monitor, declared

    def test_float_jitter_at_the_boundary_keeps_the_lease(self):
        # Premise: three accumulated heartbeats land one ulp *past* the
        # lease, so the old raw ``now - last > lease_ms`` fired exactly
        # at the boundary sweep.
        t3 = self.HEARTBEAT_MS + self.HEARTBEAT_MS + self.HEARTBEAT_MS
        assert t3 > self.LEASE_MS and math.isclose(t3, self.LEASE_MS)

        sim = Simulator()
        pool, monitor, declared = self._monitor(sim)
        monitor.start()  # sweep at t=0 renews the lease
        sim.schedule_at(1.0, lambda: pool.backends[0].fail())
        sim.run_until(500.0)

        assert declared, "a definitely-stale lease must still declare"
        declared_at = declared[0][1]
        # The jitter sweep (lease + one ulp of staleness) must NOT have
        # declared; the next sweep (a full heartbeat past expiry) does.
        assert not math.isclose(declared_at, self.LEASE_MS), (
            f"declared at the float-jitter boundary sweep ({declared_at})"
        )
        assert declared_at >= self.LEASE_MS + self.HEARTBEAT_MS * 0.5
        assert monitor.suspected == {0}

    def test_clearly_stale_lease_still_declares_within_the_bound(self):
        sim = Simulator()
        pool, monitor, declared = self._monitor(sim)
        monitor.start()
        crash_ms = 1.0
        sim.schedule_at(crash_ms, lambda: pool.backends[0].fail())
        sim.run_until(500.0)
        # Class invariant from the docstring: declaration lands within
        # lease_ms + 2 * heartbeat_ms of the crash, never before the
        # lease has fully expired.
        latency = declared[0][1] - crash_ms
        assert self.LEASE_MS - self.HEARTBEAT_MS <= latency
        assert latency <= self.LEASE_MS + 2 * self.HEARTBEAT_MS


class _LateTimer:
    def __init__(self):
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class _LateClock:
    """EventSource stand-in whose timers the test fires by hand.

    A wall clock gives no guarantee that a timer armed for ``now +
    delay`` fires at that instant -- under load it lands late.  This
    stub lets a test reproduce that: schedule records the requested fire
    time, and the test invokes the callback at whatever (later) ``now``
    it chooses.
    """

    def __init__(self):
        self.now = 0.0
        self.pending = []  # (requested_ms, timer, fn)

    def schedule(self, delay_ms, fn, priority=0):
        timer = _LateTimer()
        self.pending.append((self.now + delay_ms, timer, fn))
        return timer

    def schedule_at(self, when_ms, fn, priority=0):
        timer = _LateTimer()
        self.pending.append((when_ms, timer, fn))
        return timer

    def fire_next(self, at_ms):
        """Fire the oldest pending timer at ``at_ms`` (possibly late)."""
        requested_ms, timer, fn = self.pending.pop(0)
        assert at_ms >= requested_ms, "cannot fire before the armed time"
        self.now = at_ms
        if not timer.cancelled:
            fn()
        return requested_ms


class TestBatchDoneUsesFireTime:
    """Satellite fix: SLO verdicts are judged when the timer fires."""

    def _backend(self, clock):
        backend = Backend(clock, gpu_id=0)
        profile = LinearProfile(name="m", alpha=1.0, beta=4.0, max_batch=8)
        backend.set_schedule([BackendSession(
            session_id="s", profile=profile, slo_ms=20.0,
            target_batch=1, duty_cycle_ms=5.0,
        )])
        return backend

    def test_late_firing_timer_marks_the_batch_late(self):
        clock = _LateClock()
        backend = self._backend(clock)
        outcomes = []
        backend.enqueue(Request(
            session_id="s", arrival_ms=0.0, deadline_ms=20.0,
            on_complete=lambda req, t, ok: outcomes.append((t, ok)),
        ))
        # The batch was scheduled to complete at exec_ms = 5.0 -- well
        # inside the deadline -- but the timer lands at 25.0, past it.
        requested = clock.fire_next(at_ms=25.0)
        assert requested == 5.0
        # Old code judged against the scheduled completion (5.0 <= 20.0
        # -> ok) and stamped t=5.0; the fix uses the fire time.
        assert outcomes == [(25.0, False)]

    def test_on_time_timer_completes_ok(self):
        clock = _LateClock()
        backend = self._backend(clock)
        outcomes = []
        backend.enqueue(Request(
            session_id="s", arrival_ms=0.0, deadline_ms=20.0,
            on_complete=lambda req, t, ok: outcomes.append((t, ok)),
        ))
        clock.fire_next(at_ms=5.0)
        assert outcomes == [(5.0, True)]

"""Backend node: per-GPU queues, duty-cycle round robin, batched execution.

Paper sections 5 and 6.3.  Each backend owns one GPU.  The Nexus GPU
scheduler executes the sessions assigned to it in a round-robin duty
cycle, forming each batch with the early-drop policy and overlapping CPU
pre-/post-processing with GPU execution.  The same class also emulates the
baselines' execution disciplines through three knobs:

- ``pacing="cycle"`` (Nexus, TF Serving): sessions execute round robin,
  each at most once per duty cycle, which lets batches fill to their
  planned size (a zero duty cycle is plain round robin);
  ``pacing="greedy"`` (Clipper): execute the oldest queued request's
  session whenever the GPU frees up.
- ``overlap``: section 6.3's OL -- without it the GPU idles through CPU
  pre/post-processing (the dominant effect in the game study, Figure 10).
- ``interference_factor``: Clipper runs co-located models in independent
  containers whose kernels interleave arbitrarily on the GPU (section
  6.3, "GPU multiplexing"), inflating everyone's latency; Nexus and TF
  Serving run models one at a time and take no penalty.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.drop import DropPolicy, EarlyDropPolicy, consume_selected
from ..core.profile import BatchingProfile
from ..observability.events import (
    DROP_BACKEND_FAILED,
    DROP_EARLY,
    DROP_MISROUTED,
    DROP_UNSCHEDULED,
)
from ..observability.tracer import NULL_TRACER, Tracer
from .messages import Request

if TYPE_CHECKING:
    from ..runtime.clock import EventSource, TimerHandle

__all__ = ["BackendSession", "Backend"]


@dataclass
class BackendSession:
    """One session's slot in a backend's execution schedule."""

    session_id: str
    profile: BatchingProfile
    slo_ms: float
    target_batch: int
    duty_cycle_ms: float
    policy: DropPolicy = None  # type: ignore[assignment]
    #: one-time latency to load the model's weights onto this GPU when the
    #: session is newly placed here (0 = already resident / not modeled).
    load_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.target_batch < 1:
            raise ValueError(f"target_batch must be >= 1, got {self.target_batch}")
        if self.policy is None:
            self.policy = EarlyDropPolicy(self.target_batch)


class _SessionState:
    """Backend-internal queue + pacing state for one scheduled session.

    The queues hold the :class:`Request` objects themselves: the drop
    policies read only ``request_id`` / ``arrival_ms`` / ``deadline_ms``,
    and every exit path (batch done, early drop, unscheduled drop, crash)
    takes a request off its queue exactly once.
    """

    __slots__ = ("spec", "queue", "last_start_ms", "ready_ms")

    def __init__(self, spec: BackendSession) -> None:
        self.spec = spec
        self.queue: deque[Request] = deque()
        self.last_start_ms = -math.inf
        #: absolute time the model finishes loading onto this GPU; no
        #: batch of this session may start earlier.
        self.ready_ms = -math.inf


class Backend:
    """A single-GPU backend module.

    Args:
        sim: the clock/timer driver (simulator or live event source).
        gpu_id: identifier for metrics.
        tracer: records per-request outcomes and GPU busy time into its
            invocation collector and emits events (one ``batch.executed``
            per batch) to its sinks; the default
            :data:`~repro.observability.tracer.NULL_TRACER` records
            nothing, leaving the request callbacks as the only outcome
            channel.
        pacing: ``"cycle"`` or ``"greedy"`` (see module docstring).
        overlap: CPU/GPU overlap (OL).
        interference_factor: per-extra-co-located-session latency
            inflation; 0 disables (Nexus, TF Serving).
        device: GPU class this backend belongs to in a heterogeneous
            fleet ("" on homogeneous clusters).  The pool only deploys
            plan nodes of the matching class onto it.
    """

    def __init__(
        self,
        sim: EventSource,
        gpu_id: int = 0,
        pacing: str = "cycle",
        overlap: bool = True,
        interference_factor: float = 0.0,
        tracer: Tracer | None = None,
        device: str = "",
    ) -> None:
        if pacing not in ("cycle", "greedy"):
            raise ValueError(f"unknown pacing {pacing!r}")
        self.sim = sim
        self.gpu_id = gpu_id
        self.device = device
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.pacing = pacing
        self.overlap = overlap
        self.interference_factor = interference_factor

        self._sessions: dict[str, _SessionState] = {}
        self._order: list[str] = []
        #: session_id -> position in ``_order`` (constant-time round-robin
        #: advance; rebuilt with the schedule).
        self._index: dict[str, int] = {}
        self._cycle_pos = 0
        self._busy = False
        self._wake: TimerHandle | None = None
        #: absolute time the armed wake fires (meaningful iff _wake set),
        #: and the unrounded instant it was armed for.
        self._wake_at = math.inf
        self._wake_due = math.inf
        #: False once :meth:`fail` fires; a dead backend executes nothing
        #: and fails every request handed to it until :meth:`recover`.
        self.alive = True
        #: multiplier on every batch's execution time (transient stragg-
        #: ler emulation); 1.0 = nominal speed.
        self.slowdown_factor = 1.0
        #: the in-flight batch, if any, with its completion timer --
        #: cancelled wholesale on a crash.
        self._inflight: tuple[TimerHandle, list[Request]] | None = None

    # ------------------------------------------------------------- schedule

    def set_schedule(self, specs: list[BackendSession]) -> None:
        """Install (or replace) the execution schedule.

        Queued requests of sessions that survive the update are kept;
        queues of removed sessions are dropped (the global scheduler is
        responsible for not stranding live sessions).
        """
        old = self._sessions
        self._sessions = {}
        self._order = []
        self._index = {}
        now = self.sim.now
        for spec in specs:
            state = _SessionState(spec)
            if spec.session_id in old:
                prev = old[spec.session_id]
                state.queue = prev.queue
                state.last_start_ms = prev.last_start_ms
                # A model still streaming over PCIe stays not-ready across
                # schedule updates; resetting to the default -inf would let
                # the next batch start before the weights have landed.
                state.ready_ms = prev.ready_ms
            elif spec.load_ms > 0:
                # Newly placed model: its weights stream over PCIe before
                # the first batch can run (section 2.2).
                state.ready_ms = now + spec.load_ms
            self._sessions[spec.session_id] = state
            self._index[spec.session_id] = len(self._order)
            self._order.append(spec.session_id)
        for sid, prev in old.items():
            if sid not in self._sessions:
                for request in prev.queue:
                    self._record_drop(request, now, DROP_UNSCHEDULED)
        self._cycle_pos = 0
        self._kick()

    def serves(self, session_id: str) -> bool:
        return session_id in self._sessions

    # --------------------------------------------------------------- faults

    def fail(self, cause: str = "crash") -> None:
        """Crash this backend: lose every queued and in-flight request.

        Lost requests take the ``on_fail`` path (retryable, no outcome
        event) rather than the drop path -- see
        :class:`~repro.cluster.messages.Request`.  The backend stays dead
        (rejecting all work) until :meth:`recover`.
        """
        if not self.alive:
            return
        self.alive = False
        now = self.sim.now
        self.tracer.backend_failed(now, self.gpu_id, cause=cause)
        if self._wake is not None:
            self._wake.cancel()
            self._wake = None
        if self._inflight is not None:
            handle, batch = self._inflight
            handle.cancel()
            self._inflight = None
            self._busy = False
            for request in batch:
                self._fail_request(request, now)
        for state in self._sessions.values():
            lost = state.queue
            state.queue = deque()
            for request in lost:
                self._fail_request(request, now)

    def recover(self) -> None:
        """Bring a failed backend back, empty, ready for a new schedule."""
        if self.alive:
            return
        self.alive = True
        self.slowdown_factor = 1.0
        self.tracer.backend_recovered(self.sim.now, self.gpu_id)
        self._kick()

    def set_slowdown(self, factor: float) -> None:
        """Scale execution time by ``factor`` (1.0 restores full speed)."""
        if factor <= 0:
            raise ValueError(f"slowdown factor must be > 0, got {factor}")
        self.slowdown_factor = factor
        self.tracer.backend_slowdown(self.sim.now, self.gpu_id, factor)

    def _fail_request(self, request: Request, now: float) -> None:
        if request.on_fail is not None:
            request.on_fail(request, now)
        else:
            self._record_drop(request, now, DROP_BACKEND_FAILED)

    @property
    def num_sessions(self) -> int:
        return len(self._sessions)

    # -------------------------------------------------------------- enqueue

    def enqueue(self, request: Request) -> None:
        if not self.alive:
            # Routed to a corpse (detection lag): retryable failure.
            if request.on_fail is not None:
                request.on_fail(request, self.sim.now)
            else:
                self._record_drop(request, self.sim.now, DROP_BACKEND_FAILED)
            return
        state = self._sessions.get(request.session_id)
        if state is None:
            # Misrouted (e.g. schedule changed mid-flight): drop.
            self._record_drop(request, self.sim.now, DROP_MISROUTED)
            return
        queue = state.queue
        queue.append(request)
        now = self.sim.now
        if self.tracer.recording:  # one-predicate gate on the hot path
            self.tracer.request_admitted(
                now, request.session_id, request.request_id,
                request.deadline_ms, gpu_id=self.gpu_id,
            )
        wake = self._wake
        if (wake is None or self._busy or self.pacing != "cycle"
                or now >= self._wake_at - 1e-6):
            self._kick()
            return
        # Idle with a wake armed: nothing was runnable when it was armed
        # and only this session's queue changed since, so this session
        # alone decides whether to run now or to wake earlier -- no
        # rescan of the others.  The runnable test is _pick_session's
        # (due, full batch, deadline rescue); keep the two in step.
        spec = state.spec
        if now >= state.ready_ms and (
            now - state.last_start_ms >= spec.duty_cycle_ms - 1e-9
            or len(queue) >= spec.target_batch
            or self._at_risk(state, queue[0], now)
        ):
            self._kick()
            return
        due = self._session_wake(state)
        # Re-arm on a tie too: the fresh timer's insertion order is the
        # one a full rescan would have produced.  A later session wake
        # keeps the armed instant, but a rescan would re-round it from
        # this ``now``; re-arm when that rounding moves it.
        if due > self._wake_due:
            due = self._wake_due
            if now + max(0.0, due - now) == self._wake_at:
                return
        wake.cancel()
        self._schedule_wake(due, now)

    # ------------------------------------------------------------ execution

    def _kick(self) -> None:
        if self._busy or not self.alive:
            return
        if self._wake is not None:
            self._wake.cancel()
            self._wake = None
        self._try_dispatch()

    def _on_wake(self) -> None:
        # The firing timer has left the event queue: forget it rather
        # than cancel it.
        self._wake = None
        self._kick()

    def _try_dispatch(self) -> None:
        if not self._order:
            return
        now = self.sim.now

        candidate = self._pick_session(now)
        if candidate is None:
            self._arm_wake(now)
            return

        state = self._sessions[candidate]
        batch, dropped = state.spec.policy.select(
            state.queue, now, state.spec.profile
        )
        state.queue = consume_selected(state.queue, batch, dropped)
        for request in dropped:
            self._record_drop(request, now, DROP_EARLY)
        if not batch:
            # Policy had nothing servable; try the next session right away.
            self._advance_cycle(candidate)
            self._try_dispatch()
            return

        exec_ms = state.spec.profile.occupancy_time(
            len(batch), overlap=self.overlap
        )
        if self.interference_factor > 0 and len(self._sessions) > 1:
            exec_ms *= 1.0 + self.interference_factor * (len(self._sessions) - 1)
        exec_ms *= self.slowdown_factor

        state.last_start_ms = now
        self._busy = True
        self.tracer.batch_executed(
            now, exec_ms, self.gpu_id, state.spec.session_id, len(batch)
        )
        self._advance_cycle(candidate)
        handle = self.sim.schedule(
            exec_ms, lambda: self._on_batch_done(state, batch)
        )
        self._inflight = (handle, batch)

    def _pick_session(self, now: float) -> str | None:
        """Choose the next session to execute, honoring pacing."""
        n = len(self._order)
        if self.pacing == "greedy":
            # Serve the session whose head request is oldest (FIFO across
            # sessions), mirroring a shared dispatch queue.
            best, best_arrival = None, math.inf
            for sid in self._order:
                state = self._sessions[sid]
                q = state.queue
                if not q or now < state.ready_ms:
                    # An unloaded model cannot execute, greedy or not
                    # (section 2.2); baselines wait for the load too.
                    continue
                if q[0].arrival_ms < best_arrival:
                    best, best_arrival = sid, q[0].arrival_ms
            return best
        # Cycle pacing: round robin, but a session only runs again once its
        # duty cycle has elapsed -- unless its queue already holds a full
        # batch (burst catch-up).
        order = self._order
        sessions = self._sessions
        pos = self._cycle_pos
        for i in range(n):
            sid = order[(pos + i) % n]
            state = sessions[sid]
            queue = state.queue
            if not queue or now < state.ready_ms:
                continue
            spec = state.spec
            if (now - state.last_start_ms >= spec.duty_cycle_ms - 1e-9
                    or len(queue) >= spec.target_batch):
                return sid
        # Deadline rescue: a head request that cannot survive waiting for
        # its session's next duty slot runs now (the GPU is idle anyway).
        # Batched upstream completions inject pulses into downstream
        # queues; without this, the second half of a pulse waits a full
        # extra cycle and expires.
        best, best_deadline = None, math.inf
        for sid in self._order:
            state = self._sessions[sid]
            if not state.queue or now < state.ready_ms:
                continue
            head = state.queue[0]
            if self._at_risk(state, head, now) and head.deadline_ms < best_deadline:
                best, best_deadline = sid, head.deadline_ms
        return best

    def _at_risk(
        self, state: _SessionState, head: Request, now: float
    ) -> bool:
        """Would waiting for the next duty slot make ``head`` miss?"""
        spec = state.spec
        due_time = state.last_start_ms + spec.duty_cycle_ms
        if due_time < now:
            due_time = now
        # Queue is non-empty and target_batch >= 1, so batch >= 1.
        batch = len(state.queue)
        if batch > spec.target_batch:
            batch = spec.target_batch
        return due_time + spec.profile.latency(batch) > head.deadline_ms - 1e-6

    def _advance_cycle(self, executed_sid: str) -> None:
        idx = self._index.get(executed_sid)
        if idx is None:
            return
        self._cycle_pos = (idx + 1) % len(self._order)

    def _arm_wake(self, now: float) -> None:
        """Nothing runnable now: wake at the next dueness or rescue point."""
        next_wake = math.inf
        for state in self._sessions.values():
            if state.queue:
                wake = self._session_wake(state)
                if wake < next_wake:
                    next_wake = wake
        if math.isfinite(next_wake):
            self._schedule_wake(next_wake, now)

    @staticmethod
    def _session_wake(state: _SessionState) -> float:
        """When a non-empty, not-runnable session next needs the GPU."""
        spec = state.spec
        queue = state.queue
        due_time = state.last_start_ms + spec.duty_cycle_ms
        # Queue is non-empty and target_batch >= 1, so batch >= 1.
        batch = len(queue)
        if batch > spec.target_batch:
            batch = spec.target_batch
        rescue_time = queue[0].deadline_ms - spec.profile.latency(batch)
        wake = due_time if due_time < rescue_time else rescue_time
        if wake < state.ready_ms:
            wake = state.ready_ms
        return wake

    def _schedule_wake(self, due_ms: float, now: float) -> None:
        delay = max(0.0, due_ms - now)
        self._wake = self.sim.schedule(delay, self._on_wake)
        self._wake_at = now + delay
        self._wake_due = due_ms

    def _on_batch_done(self, state: _SessionState, batch: list[Request]) -> None:
        # SLO verdicts and completion timestamps use the *actual* fire
        # time, not the instant the batch was scheduled to end: under
        # the simulator they are identical, but a wall-clock timer can
        # land late, and judging requests against the planned instant
        # would silently mark late work on-time.
        now = self.sim.now
        self._busy = False
        self._inflight = None
        tracer = self.tracer
        emit = tracer.enabled  # hoisted one-predicate gate
        session_id = state.spec.session_id
        gpu_id = self.gpu_id
        for request in batch:
            ok = now <= request.deadline_ms
            if emit:
                tracer.request_completed(
                    now, session_id, request.request_id,
                    request.arrival_ms, request.deadline_ms, ok,
                    gpu_id=gpu_id,
                )
            if request.on_complete is not None:
                request.on_complete(request, now, ok)
        self._kick()

    def _record_drop(self, request: Request, now: float,
                     reason: str = DROP_EARLY) -> None:
        if self.tracer.enabled:  # one-predicate gate on the hot path
            self.tracer.request_dropped(
                now, request.session_id, request.request_id,
                request.arrival_ms, request.deadline_ms, reason,
                gpu_id=self.gpu_id,
            )
        if request.on_drop is not None:
            request.on_drop(request, now)

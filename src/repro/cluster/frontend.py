"""Frontend: the Nexus library -- routing tables and query orchestration.

Paper section 5 (data plane): "When a user request comes into (a replica
of) an application container, the application invokes DNNs via the Nexus
library API.  The library consults the local routing table to find a
suitable backend for that model, dispatches the request to the backend,
and delivers responses back to the application."

This module provides:

- :class:`RoutingTable` -- session -> weighted backend list, with
  deterministic weighted round-robin dispatch;
- :class:`Frontend` -- dispatches individual session requests and
  orchestrates multi-stage queries: when a stage completes, its children
  are invoked ``gamma`` times each (sampled), and the query succeeds iff
  every spawned invocation finishes within the whole-query deadline.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, cast

import numpy as np

from ..core.query import Query, QueryStage
from ..observability.events import DROP_BACKEND_FAILED, DROP_UNROUTABLE
from ..observability.tracer import NULL_TRACER, Tracer
from .backend import Backend
from .messages import Request, new_request_id

if TYPE_CHECKING:
    from ..runtime.clock import EventSource

__all__ = ["RoutingTable", "Frontend", "QueryInstance", "RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Frontend behavior when a backend fails a dispatched request.

    A lost request is re-dispatched (to any live backend the routing
    table offers) after an exponential backoff, up to ``max_retries``
    times; past that -- or once the request's deadline has passed -- it
    becomes a terminal ``DROP_BACKEND_FAILED`` drop.
    """

    max_retries: int = 3
    backoff_ms: float = 5.0
    multiplier: float = 2.0

    def backoff_for(self, attempt: int) -> float:
        """Backoff before re-dispatch number ``attempt`` (1-based)."""
        return self.backoff_ms * self.multiplier ** max(0, attempt - 1)


@dataclass(slots=True)
class _Route:
    backend: Backend
    weight: float
    served: int = 0
    index: int = 0  # insertion order: the deterministic tie-breaker


class RoutingTable:
    """Session -> weighted backends, with smooth weighted round robin."""

    def __init__(self) -> None:
        self._routes: dict[str, list[_Route]] = {}
        self._alias: dict[str, str] = {}

    def set_routes(
        self, session_id: str, backends: list[tuple[Backend, float]]
    ) -> None:
        routes = [_Route(b, w, index=i)
                  for i, (b, w) in enumerate(backends) if w > 0]
        if routes:
            self._routes[session_id] = routes
        else:
            self._routes.pop(session_id, None)

    def set_alias(self, session_id: str, target_session_id: str) -> None:
        """Route one session's traffic into another (prefix-fused) session."""
        self._alias[session_id] = target_session_id

    def resolve(self, session_id: str) -> str:
        return self._alias.get(session_id, session_id)

    def pick(self, session_id: str) -> Backend | None:
        """Deterministic weighted round robin: least served/weight first.

        Backends known to be dead are skipped, so during the detection
        window only requests already routed (or racing the failure) land
        on the corpse and need the retry path.
        """
        return self.pick_resolved(session_id)[0]

    def pick_resolved(self, session_id: str) -> tuple[Backend | None, str]:
        """:meth:`pick` plus the resolved session id (one alias lookup)."""
        resolved = self._alias.get(session_id, session_id)
        routes = self._routes.get(resolved)
        if not routes:
            return None, resolved
        # Single pass, no intermediate list: routes are stored in index
        # order, so keeping the first strict minimum of served/weight
        # reproduces the (served/weight, index) tie-break exactly.
        best: _Route | None = None
        best_key = 0.0
        for route in routes:
            if not route.backend.alive:
                continue
            key = route.served / route.weight
            if best is None or key < best_key:
                best = route
                best_key = key
        if best is None:
            return None, resolved
        best.served += 1
        return best.backend, resolved

    def sessions(self) -> list[str]:
        return list(self._routes)

    def clear(self) -> None:
        self._routes.clear()


class QueryInstance:
    """Tracks one in-flight multi-stage query."""

    __slots__ = (
        "query", "query_id", "arrival_ms", "deadline_ms", "outstanding",
        "failed", "finished", "completion_ms", "frontend", "_budgets",
        "on_done",
    )

    def __init__(self, frontend: "Frontend", query: Query,
                 arrival_ms: float) -> None:
        self.frontend = frontend
        self.query = query
        self.query_id = new_request_id()
        self.arrival_ms = arrival_ms
        self.deadline_ms = arrival_ms + query.slo_ms
        self.outstanding = 0
        self.failed = False
        self.finished = False
        self.completion_ms = arrival_ms
        self._budgets: dict[str, float] | None = None
        #: optional completion hook (the live serving frontend resolves
        #: its per-request response future here).
        self.on_done: Callable[[QueryInstance], None] | None = None

    def spawn(self, stage: QueryStage, count: int) -> None:
        self.outstanding += count
        for _ in range(count):
            self.frontend._dispatch_stage(self, stage)

    def stage_done(self, stage: QueryStage, completion_ms: float, ok: bool) -> None:
        self.outstanding -= 1
        if completion_ms > self.completion_ms:
            self.completion_ms = completion_ms
        if not ok:
            self.failed = True
        else:
            for child in stage.children:
                n = self.frontend._sample_fanout(self.query.name, child.gamma)
                if n > 0:
                    # A child may fail synchronously (unroutable) and
                    # finish the query from inside spawn().
                    self.spawn(child, n)
        if self.outstanding == 0:
            self.frontend._finish_query(self)

    def stage_dropped(self, stage: QueryStage, time_ms: float) -> None:
        self.outstanding -= 1
        self.failed = True
        self.completion_ms = max(self.completion_ms, time_ms)
        if self.outstanding == 0:
            self.frontend._finish_query(self)


class Frontend:
    """One frontend replica: dispatch + query orchestration.

    Args:
        sim: the clock/timer driver (simulator or live event source).
        routing: the (shared) routing table pushed by the global scheduler.
        tracer: records whole-query outcomes into its query collector,
            terminal frontend drops into its invocation collector, and
            emits events to its sinks; the default
            :data:`~repro.observability.tracer.NULL_TRACER` records
            nothing.
        seed: RNG seed for fan-out sampling (deterministic experiments).
        session_prefix_fn: maps ``(query_name, stage_name)`` to the session
            id used in the routing table; default ``"<query>/<stage>"``.
    """

    def __init__(
        self,
        sim: EventSource,
        routing: RoutingTable,
        seed: int = 0,
        tracer: Tracer | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        self.sim = sim
        self.routing = routing
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._seed = seed
        #: per-query fan-out RNG substreams (lazily created).  Keying the
        #: stream by query name makes each query's draw sequence depend
        #: only on its own submission order -- not on how draws from
        #: *other* queries interleave -- so adding or removing one app
        #: leaves every other app's fan-out sequence unchanged.
        self._fanout_rngs: dict[str, np.random.Generator] = {}
        self.retry_policy = retry_policy or RetryPolicy()
        #: observed per-query arrival counters for workload statistics
        #: (whole queries, counted at submission -- robust to source-stage
        #: roots that never dispatch); the control plane reads and resets
        #: them each epoch.
        self.query_counters: dict[str, int] = {}
        #: interned "<query>/<stage>" ids, built once per (query, stage)
        #: instead of formatting a fresh string per dispatched request.
        self._session_ids: dict[tuple[str, str], str] = {}

    # ------------------------------------------------------ single requests

    def submit_request(
        self, session_id: str, slo_ms: float,
        on_complete: Callable[[Request, float, bool], None] | None = None,
        on_drop: Callable[[Request, float], None] | None = None,
        context: object = None,
    ) -> bool:
        """Dispatch a single-model request; returns False if unroutable.

        ``context`` rides along on the request untouched (the live
        serving frontend stores its per-request completion future there).
        """
        now = self.sim.now
        backend, resolved = self.routing.pick_resolved(session_id)
        request = Request(
            session_id=resolved,
            arrival_ms=now,
            deadline_ms=now + slo_ms,
            on_complete=on_complete,
            on_drop=on_drop,
            on_fail=self._handle_backend_failure,
            context=context,
        )
        if backend is None:
            self.tracer.route_failed(now, session_id)
            self.tracer.request_dropped(
                now, session_id, request.request_id, now, request.deadline_ms,
                DROP_UNROUTABLE,
            )
            if on_drop is not None:
                on_drop(request, now)
            return False
        backend.enqueue(request)
        return True

    # -------------------------------------------------------------- queries

    def submit_query(self, query: Query,
                     budgets_ms: dict[str, float] | None = None,
                     on_done: Callable[[QueryInstance], None] | None = None,
                     ) -> QueryInstance:
        """Start a query; per-stage SLOs come from ``budgets_ms`` (the
        latency split) or default to the whole remaining query budget.
        ``on_done`` fires exactly once when the query finishes (after the
        outcome event is emitted)."""
        instance = QueryInstance(self, query, self.sim.now)
        instance._budgets = budgets_ms
        instance.on_done = on_done
        self.query_counters[query.name] = (
            self.query_counters.get(query.name, 0) + 1
        )
        if self.tracer.recording:  # one-predicate gate on the hot path
            self.tracer.query_submitted(
                instance.arrival_ms, query.name, instance.query_id,
                instance.deadline_ms,
            )
        instance.spawn(
            query.root, max(1, self._sample_fanout(query.name, query.root.gamma))
        )
        return instance

    def _stage_session_id(self, instance: QueryInstance, stage: QueryStage) -> str:
        key = (instance.query.name, stage.name)
        sid = self._session_ids.get(key)
        if sid is None:
            sid = f"{instance.query.name}/{stage.name}"
            self._session_ids[key] = sid
        return sid

    def _stage_budget(self, instance: QueryInstance, stage: QueryStage) -> float:
        budgets = instance._budgets
        if budgets is not None:
            budget = budgets.get(stage.name)
            if budget is not None:
                return budget
        return instance.deadline_ms - self.sim.now

    def _dispatch_stage(self, instance: QueryInstance, stage: QueryStage) -> None:
        now = self.sim.now
        if stage.is_source:
            # Structural stage: completes instantly, fanning out children.
            instance.stage_done(stage, now, True)
            return
        session_id = self._stage_session_id(instance, stage)
        backend, resolved = self.routing.pick_resolved(session_id)
        budget = self._stage_budget(instance, stage)
        # The stage's own deadline: its latency split, but never beyond the
        # whole-query deadline.
        deadline = now + budget
        if deadline > instance.deadline_ms:
            deadline = instance.deadline_ms
        # Shared bound-method callbacks with the (instance, stage) pair in
        # ``context`` -- two closure allocations per request saved.
        # Positional construction (field order of Request); this runs once
        # per dispatched stage invocation.
        request = Request(
            resolved, now, deadline, new_request_id(),
            self._stage_complete, self._stage_drop,
            self._handle_backend_failure, 0, (instance, stage),
        )
        if backend is None:
            self.tracer.route_failed(now, session_id)
            self.tracer.request_dropped(
                now, session_id, request.request_id, now, deadline,
                DROP_UNROUTABLE,
            )
            instance.stage_dropped(stage, now)
            return
        backend.enqueue(request)

    def _stage_complete(self, request: Request, t: float, ok: bool) -> None:
        instance, stage = cast(
            "tuple[QueryInstance, QueryStage]", request.context
        )
        instance.stage_done(stage, t, ok)

    def _stage_drop(self, request: Request, t: float) -> None:
        instance, stage = cast(
            "tuple[QueryInstance, QueryStage]", request.context
        )
        instance.stage_dropped(stage, t)

    # ---------------------------------------------------- failure handling

    def _handle_backend_failure(self, request: Request, now: float) -> None:
        """A backend crashed with ``request`` queued or in flight.

        Retry on a surviving backend after exponential backoff; give up
        (terminal ``DROP_BACKEND_FAILED``) when retries or the deadline
        budget run out.  No outcome event was emitted for the loss
        itself, so exactly one outcome is recorded per logical request:
        either the eventual completion or the terminal drop here.

        The backoff respects the remaining SLO budget: a retry whose
        backoff would land at or past the deadline cannot possibly
        complete in time, so it drops *now* instead of burning a queue
        slot on a doomed re-dispatch (and charging the drop to a later,
        misleading timestamp).
        """
        policy = self.retry_policy
        if request.attempt >= policy.max_retries or now >= request.deadline_ms:
            self._final_fail_drop(request, now)
            return
        backoff = policy.backoff_for(request.attempt + 1)
        if now + backoff >= request.deadline_ms:
            self._final_fail_drop(request, now)
            return
        request.attempt += 1
        self.tracer.request_retried(
            now, request.session_id, request.request_id,
            attempt=request.attempt, backoff_ms=backoff,
        )
        self.sim.schedule(backoff, lambda: self._redispatch(request))

    def _redispatch(self, request: Request) -> None:
        now = self.sim.now
        if now >= request.deadline_ms:
            self._final_fail_drop(request, now)
            return
        backend = self.routing.pick(request.session_id)
        if backend is None:
            # No live replica serves this session (yet): the recovery
            # epoch has not landed.  Treat as a failure so the remaining
            # retry budget keeps probing.
            self._handle_backend_failure(request, now)
            return
        backend.enqueue(request)

    def _final_fail_drop(self, request: Request, now: float) -> None:
        self.tracer.request_dropped(
            now, request.session_id, request.request_id,
            request.arrival_ms, request.deadline_ms, DROP_BACKEND_FAILED,
        )
        if request.on_drop is not None:
            request.on_drop(request, now)

    def _sample_fanout(self, key: str, gamma: float) -> int:
        """Integer fan-out with mean gamma, drawn from ``key``'s substream.

        Deterministic part + Bernoulli remainder keeps the variance low
        (object counts in adjacent frames are correlated, not Poisson).
        """
        whole = int(gamma)
        frac = gamma - whole
        if frac > 0:
            rng = self._fanout_rngs.get(key)
            if rng is None:
                # Stable across processes: crc32, not the salted hash().
                rng = np.random.default_rng(
                    [self._seed, zlib.crc32(key.encode())]
                )
                self._fanout_rngs[key] = rng
            if rng.random() < frac:
                whole += 1
        return whole

    def _finish_query(self, instance: QueryInstance) -> None:
        if instance.finished:
            return
        instance.finished = True
        self.tracer.query_completed(
            instance.completion_ms, instance.query.name, instance.query_id,
            instance.arrival_ms, instance.deadline_ms,
            ok=not instance.failed,
        )
        if instance.on_done is not None:
            instance.on_done(instance)

    # ------------------------------------------------------------ workload

    def read_and_reset_query_counters(self) -> dict[str, int]:
        counters = self.query_counters
        self.query_counters = {}
        return counters

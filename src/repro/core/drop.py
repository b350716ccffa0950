"""Rate control and adaptive batching: lazy drop vs early drop.

Paper sections 4.3 and 6.3.  Under bursty arrivals a serving system must
drop some requests to keep the rest within their SLO.

- **Lazy drop** (Clipper): drop a request only once it has already missed
  its deadline, and size each batch by the time budget remaining for the
  *earliest* request in the queue.  When the fixed cost ``beta`` is high
  this forces small batches, the dispatcher falls behind, and the bad rate
  explodes (Figure 5).

- **Early drop** (Nexus): slide a window of length equal to the target
  batch size (set by the global scheduler) over the queue; stop at the
  first request with enough remaining budget for the *whole window's*
  batched execution latency, and drop everything earlier.  Sacrificing a
  few stale requests preserves large-batch efficiency (Figure 9: up to
  ~25% more goodput).

:func:`simulate_dispatch` runs a single-GPU dispatch loop over explicit
arrival times -- the simulation behind Figures 5 and 9.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Protocol, TypeVar

from .profile import BatchingProfile

__all__ = [
    "Queued",
    "QueuedRequest",
    "DispatchStats",
    "DropPolicy",
    "LazyDropPolicy",
    "EarlyDropPolicy",
    "consume_selected",
    "simulate_dispatch",
    "max_goodput",
]


class Queued(Protocol):
    """What a drop policy reads of a queued request."""

    @property
    def request_id(self) -> int: ...

    @property
    def arrival_ms(self) -> float: ...

    @property
    def deadline_ms(self) -> float: ...


#: the queued item type a policy hands back: the backend queues its
#: :class:`~repro.cluster.messages.Request` objects directly, the
#: dispatch oracle below uses :class:`QueuedRequest`.
Q = TypeVar("Q", bound=Queued)


@dataclass(slots=True)
class QueuedRequest:
    """A request waiting in :func:`simulate_dispatch`'s queue."""

    request_id: int
    arrival_ms: float
    deadline_ms: float


@dataclass
class DispatchStats:
    """Outcome counters from a dispatch simulation."""

    served_ok: int = 0
    served_late: int = 0
    dropped: int = 0
    batches: int = 0
    batch_size_sum: int = 0
    busy_ms: float = 0.0
    span_ms: float = 0.0

    @property
    def total(self) -> int:
        return self.served_ok + self.served_late + self.dropped

    @property
    def bad_rate(self) -> float:
        """Fraction of requests that missed the deadline or were dropped."""
        if self.total == 0:
            return 0.0
        return (self.served_late + self.dropped) / self.total

    @property
    def good_rate(self) -> float:
        return 1.0 - self.bad_rate

    @property
    def goodput_rps(self) -> float:
        if self.span_ms <= 0:
            return 0.0
        return self.served_ok / self.span_ms * 1000.0

    @property
    def mean_batch(self) -> float:
        if self.batches == 0:
            return 0.0
        return self.batch_size_sum / self.batches

    @property
    def utilization(self) -> float:
        if self.span_ms <= 0:
            return 0.0
        return min(1.0, self.busy_ms / self.span_ms)


class DropPolicy:
    """Selects which queued requests form the next batch and which drop."""

    def select(
        self,
        queue: Sequence[Q],
        now_ms: float,
        profile: BatchingProfile,
    ) -> tuple[list[Q], list[Q]]:
        """Return ``(batch, dropped)``; both disjoint sublists of ``queue``.

        An empty batch with an empty drop list means "wait for more work";
        an empty batch with a non-empty drop list means "I shed stale
        requests, ask me again" (the dispatcher re-invokes rather than
        treating the survivors as unservable).
        """
        raise NotImplementedError

    @staticmethod
    def _expire(
        queue: Sequence[Q], now_ms: float, min_service_ms: float
    ) -> tuple[list[Q], list[Q]]:
        """Split queue into (alive, already-hopeless) at time ``now``."""
        alive: list[Q] = []
        dead: list[Q] = []
        for req in queue:
            if now_ms + min_service_ms > req.deadline_ms:
                dead.append(req)
            else:
                alive.append(req)
        return alive, dead


class LazyDropPolicy(DropPolicy):
    """Clipper's policy: serve the oldest request, drop only the expired.

    ``batch_cap`` optionally bounds the batch size (TF Serving fixes "the
    maximum batch size for each model, so its SLO is not violated").
    """

    def __init__(self, batch_cap: int | None = None) -> None:
        if batch_cap is not None and batch_cap < 1:
            raise ValueError(f"batch_cap must be >= 1, got {batch_cap}")
        self.batch_cap = batch_cap

    def select(
        self,
        queue: Sequence[Q],
        now_ms: float,
        profile: BatchingProfile,
    ) -> tuple[list[Q], list[Q]]:
        min_service = profile.latency(1)
        alive, dead = self._expire(queue, now_ms, min_service)
        if not alive:
            return [], dead
        head = alive[0]
        budget = head.deadline_ms - now_ms
        batch_cap = profile.max_batch_with_latency(budget)
        if batch_cap == 0:
            # The head can no longer be served even alone; count it dead.
            return [], dead + [head]
        if self.batch_cap is not None:
            batch_cap = min(batch_cap, self.batch_cap)
        batch = alive[: min(batch_cap, len(alive))]
        return batch, dead


class EarlyDropPolicy(DropPolicy):
    """Nexus's policy: slide a target-size window, drop stale heads.

    ``target_batch`` is the batch size the global scheduler chose for the
    session; the dispatcher refuses to run (much) smaller batches when
    sacrificing a few old requests lets the window fit.
    """

    def __init__(self, target_batch: int) -> None:
        if target_batch < 1:
            raise ValueError(f"target_batch must be >= 1, got {target_batch}")
        self.target_batch = target_batch

    def select(
        self,
        queue: Sequence[Q],
        now_ms: float,
        profile: BatchingProfile,
    ) -> tuple[list[Q], list[Q]]:
        min_service = profile.latency(1)
        alive, dead = self._expire(queue, now_ms, min_service)
        if not alive:
            return [], dead
        window = min(self.target_batch, profile.max_batch)
        # Scan for the first request whose budget covers a full window.
        for start, req in enumerate(alive):
            size = min(window, len(alive) - start)
            exec_ms = profile.latency(size)
            if now_ms + exec_ms <= req.deadline_ms:
                return alive[start : start + size], dead + alive[:start]
        # Unreachable in practice: _expire guarantees the freshest alive
        # request can cover a single-item window, so the scan's final
        # (size-1) iteration always returns.  Kept as a defensive drain.
        return [alive[-1]], dead + alive[:-1]


def consume_selected(
    queue: deque[Q],
    batch: list[Q],
    dropped: list[Q],
) -> deque[Q]:
    """Remove a ``select()``'s batch and drops from ``queue`` in place.

    Both drop policies consume a *prefix* of the queue whenever deadlines
    are monotone in queue order (the steady-state: one session, one SLO,
    arrivals appended in time order), so the common case is ``popleft``
    per taken request instead of rebuilding the whole queue per batch.
    The rare non-prefix selection (a custom policy, or deadline inversion
    across a schedule change) falls back to a single filtered rebuild.

    Returns the queue holding the surviving requests (the same object in
    the fast path).
    """
    remaining = len(batch) + len(dropped)
    if not remaining:
        return queue
    taken = {q.request_id for q in batch}
    taken.update(q.request_id for q in dropped)
    while remaining and queue and queue[0].request_id in taken:
        queue.popleft()
        remaining -= 1
    if remaining:
        return deque(q for q in queue if q.request_id not in taken)
    return queue


def simulate_dispatch(
    arrivals_ms: list[float],
    profile: BatchingProfile,
    slo_ms: float,
    policy: DropPolicy,
    overlap: bool = True,
) -> DispatchStats:
    """Run a single-GPU dispatch loop over the given arrival times.

    The GPU serves batches back to back; whenever it frees up, ``policy``
    picks the next batch from whatever has arrived.  Requests finish when
    their batch finishes; they count as served-in-time iff that is within
    their deadline (arrival + SLO).

    Args:
        arrivals_ms: sorted request arrival times.
        profile: the model's batching profile.
        slo_ms: per-request latency SLO.
        policy: drop policy instance.
        overlap: whether CPU pre/post-processing overlaps GPU execution
            (section 6.3 OL); without it the GPU idles through CPU work.
    """
    if any(b < a for a, b in zip(arrivals_ms, arrivals_ms[1:])):
        raise ValueError("arrivals_ms must be sorted")
    stats = DispatchStats()
    if not arrivals_ms:
        return stats

    queue: deque[QueuedRequest] = deque()
    next_idx = 0
    n = len(arrivals_ms)
    now = arrivals_ms[0]
    last_completion = now

    while next_idx < n or queue:
        # Admit everything that has arrived by `now`.
        while next_idx < n and arrivals_ms[next_idx] <= now:
            t = arrivals_ms[next_idx]
            queue.append(QueuedRequest(next_idx, t, t + slo_ms))
            next_idx += 1

        if not queue:
            now = arrivals_ms[next_idx]
            continue

        batch, dropped = policy.select(queue, now, profile)
        stats.dropped += len(dropped)
        queue = consume_selected(queue, batch, dropped)

        if not batch:
            if dropped:
                # The policy made progress (expired heads dropped); the
                # surviving queue may be servable at this very instant, so
                # re-invoke the policy rather than waiting (or, at end of
                # trace, draining still-servable requests as dropped).
                continue
            if queue and next_idx < n:
                # Policy wants to wait for fresher work.
                now = max(now, arrivals_ms[next_idx])
            elif not queue and next_idx < n:
                now = arrivals_ms[next_idx]
            else:
                # No arrivals left and the policy refuses to either serve
                # or drop anything: drain defensively (unreachable for the
                # built-in policies, which always make progress).
                stats.dropped += len(queue)
                queue.clear()
            continue

        exec_ms = profile.occupancy_time(len(batch), overlap=overlap)
        completion = now + exec_ms
        stats.batches += 1
        stats.batch_size_sum += len(batch)
        stats.busy_ms += exec_ms
        for req in batch:
            if completion <= req.deadline_ms:
                stats.served_ok += 1
            else:
                stats.served_late += 1
        now = completion
        last_completion = completion

    stats.span_ms = max(last_completion, arrivals_ms[-1]) - arrivals_ms[0]
    return stats


def max_goodput(
    make_arrivals: Callable[[float], list[float]],
    profile: BatchingProfile,
    slo_ms: float,
    make_policy: Callable[[], DropPolicy],
    target_good_rate: float = 0.99,
    lo_rps: float = 1.0,
    hi_rps: float | None = None,
    iterations: int = 12,
    overlap: bool = True,
) -> float:
    """Binary-search the max offered rate keeping good rate >= target.

    This is the paper's throughput metric (section 7): "the maximum rate
    of queries ... such that 99% of them are served within their latency
    SLOs".

    Args:
        make_arrivals: ``rate_rps -> list[float]`` arrival generator
            (deterministic per rate; callers pass a seeded process).
        make_policy: ``() -> DropPolicy`` factory (fresh state per trial).
    """
    if hi_rps is None:
        hi_rps = profile.throughput(profile.max_batch) * 2.0

    def good(rate: float) -> bool:
        stats = simulate_dispatch(
            make_arrivals(rate), profile, slo_ms, make_policy(), overlap=overlap
        )
        return stats.good_rate >= target_good_rate

    if not good(lo_rps):
        return 0.0
    lo, hi = lo_rps, hi_rps
    # Validate the ceiling before bisecting: if the system is still good
    # at ``hi_rps`` the search would silently converge to it and
    # under-report.  Double the upper bound until it fails (capped).
    for _ in range(12):
        if not good(hi):
            break
        lo, hi = hi, hi * 2.0
    else:
        return hi  # good even at the expansion cap; report what we proved
    for _ in range(iterations):
        mid = (lo + hi) / 2.0
        if good(mid):
            lo = mid
        else:
            hi = mid
    return lo

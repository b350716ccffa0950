"""Closed-form queueing oracle: the planner's O(1) capacity answers.

Every capacity/what-if question the planner asks -- "what latency tail
does this session see at this rate?", "what rate can one GPU sustain?",
"what batch cap keeps p99 under the SLO?" -- was previously answerable
only by running a discrete-event simulation.  This module answers them
analytically from the memoized :class:`~repro.core.profile_tables.ProfileTables`,
in microseconds instead of milliseconds, following the spirit of Inoue's
closed-form analysis of dynamic-batching GPU queues (PAPERS.md:
"Queueing Analysis of GPU-Based Inference Servers with Dynamic
Batching").

**The model** (derivation and validation: docs/queueing.md).  One GPU
serves one session with *dynamic batching*: whenever the GPU frees up it
takes ``min(batch_cap, queued)`` requests as the next batch; an arrival
to an idle GPU starts a batch immediately.  Arrivals are Poisson at rate
``lambda`` (req/ms); a batch of ``b`` takes ``l(b)`` ms from the profile
tables.  The oracle characterizes the steady state by a *batch fixed
point* ``n*`` solving ``n = lambda * l(n)`` (the batch size that
reproduces itself: the requests that queue during one service ride the
next batch), clamped to ``[1, batch_cap]``:

- busy fraction ``u = min(1, lambda * l(1))``: when even batch-1 service
  outpaces arrivals the server idles between batches, otherwise dynamic
  batching keeps it continuously busy at batch ``n*`` (self-regulating:
  bigger batches absorb higher rates at bounded latency);
- a request arriving to an *idle* server (prob. ``1 - u``) departs after
  ``l(1)``;
- a request arriving to a *busy* server (prob. ``u``) waits the residual
  of the in-flight batch -- Uniform(0, ``l(n*)``) -- then rides a batch
  of ``min(batch_cap, 1 + M)`` where ``M ~ Poisson(lambda * l(n*))`` is
  the other arrivals sharing its wait.

The sojourn CDF of that mixture is piecewise linear and inverts by
bisection, giving p50/p90/p99 without any event loop.

**Applicability preconditions** -- when any fails, the oracle raises
:class:`OracleInapplicable` and :func:`capacity_answer` falls back to
the seeded queue simulation in this module:

- the profile's latency table is monotone (the profile contract);
- ``l(1) > 0`` (degenerate zero-latency profiles break the mixture);
- the arrival rate is positive;
- the batch-cap spillover mass ``P(1 + M > batch_cap)`` is below
  :data:`SPILLOVER_CEILING` -- near saturation, arrivals overflow the
  next batch and queue across *several* batches, which the one-batch
  model ignores; the simulation is the honest answer there.

An *unstable* rate (above the cap's sustainable throughput) is not a
precondition failure: the tables answer it exactly (``stable=False``,
infinite quantiles), no fallback needed.

The simulation fallback draws its own Poisson arrivals from a seeded
``random.Random`` -- core code must not depend on the numpy-based
workload generators -- and :func:`queue_latencies` accepts any explicit
arrival stream so the validation experiment can replay bursty (MMPP)
and deterministic processes through the same queue.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .floatcmp import approx_le
from .profile_tables import remember

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .profile import BatchingProfile
    from .profile_tables import ProfileTables

__all__ = [
    "QueueEstimate",
    "OracleInapplicable",
    "analytic_estimate",
    "queue_latencies",
    "empirical_estimate",
    "simulate_estimate",
    "capacity_answer",
    "max_batch_under_p99",
    "SPILLOVER_CEILING",
    "DEFAULT_SIM_ARRIVALS",
]

#: Max tolerated probability that a busy arrival's cohort overflows the
#: batch cap (``P(1 + M > cap)``).  Above it, requests queue across
#: several batches -- a regime the one-batch model ignores -- so
#: :func:`capacity_answer` falls back to simulation.
SPILLOVER_CEILING = 0.10

#: Arrivals per simulation fallback run: sized so the p99 estimate rests
#: on ~200 tail samples.
DEFAULT_SIM_ARRIVALS = 20_000

#: Bisection steps for the fixed point and the quantile inversions; 60
#: halvings resolve any ms-scale interval far below float noise.
_BISECT_STEPS = 60

#: Fraction of a fallback simulation discarded as warmup.
_SIM_WARMUP_FRACTION = 0.05


@dataclass(frozen=True)
class QueueEstimate:
    """One capacity answer: the latency distribution of a dedicated,
    dynamically-batched GPU queue at a given arrival rate.

    ``source`` records which engine produced it (``"analytic"`` or
    ``"simulator"``); when the oracle declined, ``reason`` carries the
    failed precondition (e.g. ``"batch-cap-spillover"``).  An unstable
    queue reports ``stable=False`` with infinite quantiles.
    """

    source: str
    stable: bool
    utilization: float
    mean_batch: float
    mean_latency_ms: float
    p50_ms: float
    p90_ms: float
    p99_ms: float
    sustainable_rps: float
    batch_cap: int
    reason: str | None = None


class OracleInapplicable(Exception):
    """The analytic model's preconditions do not hold for this query."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


# ----------------------------------------------------------- analytic model


def _resolve_cap(tables: ProfileTables, batch_cap: int | None) -> int:
    if batch_cap is None:
        return tables.max_batch
    return max(1, min(batch_cap, tables.max_batch))


def _sustainable_rps(tables: ProfileTables, cap: int) -> float:
    return max(tables.throughput_rps[:cap])


def _interp_latency(lat: tuple[float, ...], x: float) -> float:
    """Latency at a *continuous* batch size, linear between table points."""
    if x <= 1.0:
        return lat[0]
    if x >= len(lat):
        return lat[-1]
    lo = int(x)
    frac = x - lo
    if frac <= 0.0:
        return lat[lo - 1]
    return lat[lo - 1] + (lat[lo] - lat[lo - 1]) * frac


def _batch_fixed_point(lat: tuple[float, ...], cap: int, lam: float) -> float:
    """Solve ``n = lam * l(n)`` over ``[1, cap]`` (monotone bisection)."""
    if lam * _interp_latency(lat, 1.0) <= 1.0:
        return 1.0
    if lam * _interp_latency(lat, float(cap)) >= float(cap):
        return float(cap)
    lo, hi = 1.0, float(cap)
    for _ in range(_BISECT_STEPS):
        mid = (lo + hi) / 2.0
        if lam * _interp_latency(lat, mid) >= mid:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _poisson_pmf_with_tail(mu: float, size: int) -> tuple[list[float], float]:
    """``P(M = m)`` for ``m < size - 1`` with ``P(M >= size - 1)`` folded
    into the last slot, plus the overflow mass ``P(M >= size)``."""
    out = [0.0] * size
    p = math.exp(-mu)
    cum = 0.0
    for m in range(size - 1):
        out[m] = p
        cum += p
        p = p * mu / (m + 1)
    tail = max(0.0, 1.0 - cum)  # P(M >= size - 1)
    out[size - 1] = tail
    spill = max(0.0, tail - p)  # p == P(M = size - 1) exactly
    return out, spill


def analytic_estimate(
    profile: BatchingProfile,
    rate_rps: float,
    batch_cap: int | None = None,
) -> QueueEstimate:
    """The closed-form oracle: no event loop, O(batch_cap) arithmetic.

    Raises :class:`OracleInapplicable` when a model precondition fails;
    use :func:`capacity_answer` for the oracle-or-fallback policy.
    """
    tables = profile.tables()
    cap = _resolve_cap(tables, batch_cap)
    if not tables.monotone:
        raise OracleInapplicable("non-monotone-profile")
    lat = tables.latency_ms
    if lat[0] <= 0.0:
        raise OracleInapplicable("degenerate-latency")
    if rate_rps <= 0.0:
        raise OracleInapplicable("nonpositive-rate")

    sustainable = _sustainable_rps(tables, cap)
    if not approx_le(rate_rps, sustainable):
        inf = math.inf
        return QueueEstimate(
            source="analytic", stable=False, utilization=1.0,
            mean_batch=float(cap), mean_latency_ms=inf,
            p50_ms=inf, p90_ms=inf, p99_ms=inf,
            sustainable_rps=sustainable, batch_cap=cap,
        )

    lam = rate_rps / 1000.0  # arrivals per millisecond
    n_star = _batch_fixed_point(lat, cap, lam)
    service_ms = _interp_latency(lat, n_star)
    # Busy fraction from the drift boundary: below ``lam * l(1) = 1`` the
    # batch chain drifts to empty and the server idles between batches;
    # above it, dynamic batching keeps the server continuously busy at
    # the self-reproducing batch n* (where lam * l(n*) / n* == 1 by
    # construction -- n* itself carries no idle-time information).
    util = min(1.0, lam * lat[0])

    # Busy-arrival mixture: residual wait Uniform(0, service) plus the
    # batch it rides, min(cap, 1 + M) with M ~ Poisson(lam * service).
    pmf, spill = _poisson_pmf_with_tail(lam * service_ms, cap)
    if spill > SPILLOVER_CEILING:
        raise OracleInapplicable("batch-cap-spillover")
    starts = [lat[min(cap, m + 1) - 1] for m in range(cap)]
    weights = [util * p for p in pmf]
    # Prefix sums of the uniform components (all share width = service):
    # the CDF evaluates with two binary searches instead of an O(cap) sum.
    cum_w = [0.0] * (cap + 1)
    cum_ws = [0.0] * (cap + 1)
    for i in range(cap):
        cum_w[i + 1] = cum_w[i] + weights[i]
        cum_ws[i + 1] = cum_ws[i] + weights[i] * starts[i]
    idle_w = 1.0 - util
    first = lat[0]
    width = service_ms

    def cdf(t: float) -> float:
        total = idle_w if t >= first else 0.0
        i_full = bisect_right(starts, t - width)
        i_part = bisect_right(starts, t)
        total += cum_w[i_full]
        total += (
            (cum_w[i_part] - cum_w[i_full]) * t
            - (cum_ws[i_part] - cum_ws[i_full])
        ) / width
        return total

    def quantile(q: float) -> float:
        lo, hi = 0.0, lat[cap - 1] + width
        for _ in range(_BISECT_STEPS):
            mid = (lo + hi) / 2.0
            if cdf(mid) >= q:
                hi = mid
            else:
                lo = mid
        return hi

    mean = idle_w * first + sum(
        w * (s + width / 2.0) for w, s in zip(weights, starts)
    )
    return QueueEstimate(
        source="analytic", stable=True, utilization=util,
        mean_batch=n_star, mean_latency_ms=mean,
        p50_ms=quantile(0.50), p90_ms=quantile(0.90), p99_ms=quantile(0.99),
        sustainable_rps=sustainable, batch_cap=cap,
    )


# ------------------------------------------------------ simulation fallback


def _poisson_arrivals(
    rate_rps: float, duration_ms: float, seed: int
) -> list[float]:
    """Seeded stdlib Poisson stream (core must not import the numpy-based
    workload generators)."""
    if rate_rps <= 0.0 or duration_ms <= 0.0:
        return []
    rng = random.Random(seed)
    out: list[float] = []
    t = 0.0
    rate_per_ms = rate_rps / 1000.0
    while True:
        t += rng.expovariate(rate_per_ms)
        if t >= duration_ms:
            return out
        out.append(t)


def _run_queue(
    arrivals_ms: list[float], lat: tuple[float, ...], cap: int
) -> tuple[list[float], float, int]:
    """Replay a dynamic-batching queue over an explicit arrival stream.

    Returns ``(per-arrival sojourn latencies, total busy ms, batches)``.
    When the server frees up it takes the ``min(cap, queued)`` oldest
    requests as one batch; an arrival to an idle server starts a batch
    immediately.  Every request is served (admission drops are the
    runtime's job, not the capacity model's).
    """
    out: list[float] = []
    busy_ms = 0.0
    batches = 0
    free = 0.0
    i = 0
    n = len(arrivals_ms)
    while i < n:
        start = arrivals_ms[i] if arrivals_ms[i] > free else free
        limit = i + cap if i + cap < n else n
        j = i + 1
        while j < limit and arrivals_ms[j] <= start:
            j += 1
        exec_ms = lat[j - i - 1]
        done = start + exec_ms
        for k in range(i, j):
            out.append(done - arrivals_ms[k])
        busy_ms += exec_ms
        batches += 1
        free = done
        i = j
    return out, busy_ms, batches


def queue_latencies(
    arrivals_ms: list[float],
    profile: BatchingProfile,
    batch_cap: int | None = None,
) -> list[float]:
    """Per-request sojourn times of the dynamic-batching queue over any
    arrival stream (in arrival order)."""
    tables = profile.tables()
    cap = _resolve_cap(tables, batch_cap)
    latencies, _, _ = _run_queue(arrivals_ms, tables.latency_ms, cap)
    return latencies


def _quantile(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending-sorted sample."""
    if not sorted_vals:
        return math.nan
    idx = math.ceil(q * len(sorted_vals)) - 1
    return sorted_vals[max(0, min(idx, len(sorted_vals) - 1))]


def empirical_estimate(
    arrivals_ms: list[float],
    profile: BatchingProfile,
    batch_cap: int | None = None,
    warmup_ms: float = 0.0,
    reason: str | None = None,
) -> QueueEstimate:
    """Measure a :class:`QueueEstimate` by replaying an arrival stream."""
    tables = profile.tables()
    cap = _resolve_cap(tables, batch_cap)
    sustainable = _sustainable_rps(tables, cap)
    latencies, busy_ms, batches = _run_queue(
        arrivals_ms, tables.latency_ms, cap
    )
    kept = sorted(
        latency for latency, arrival in zip(latencies, arrivals_ms)
        if arrival >= warmup_ms
    )
    if not kept:
        # No (post-warmup) arrivals: an always-idle server answers a lone
        # probe request in l(1).
        solo = tables.latency_ms[0]
        return QueueEstimate(
            source="simulator", stable=True, utilization=0.0,
            mean_batch=1.0, mean_latency_ms=solo,
            p50_ms=solo, p90_ms=solo, p99_ms=solo,
            sustainable_rps=sustainable, batch_cap=cap, reason=reason,
        )
    span_ms = arrivals_ms[-1] + latencies[-1] if arrivals_ms else 0.0
    # Offered load is measured over the arrival window alone -- including
    # the drain tail would deflate an overloaded stream's rate to exactly
    # the service capacity and mask the instability.
    arrival_span_ms = arrivals_ms[-1] - arrivals_ms[0] if arrivals_ms else 0.0
    offered_rps = (
        len(arrivals_ms) / arrival_span_ms * 1000.0
        if arrival_span_ms > 0 else 0.0
    )
    return QueueEstimate(
        source="simulator",
        stable=approx_le(offered_rps, sustainable),
        utilization=min(1.0, busy_ms / span_ms) if span_ms > 0 else 0.0,
        mean_batch=len(arrivals_ms) / batches if batches else 1.0,
        mean_latency_ms=sum(kept) / len(kept),
        p50_ms=_quantile(kept, 0.50),
        p90_ms=_quantile(kept, 0.90),
        p99_ms=_quantile(kept, 0.99),
        sustainable_rps=sustainable, batch_cap=cap, reason=reason,
    )


def simulate_estimate(
    profile: BatchingProfile,
    rate_rps: float,
    batch_cap: int | None = None,
    seed: int = 0,
    num_arrivals: int = DEFAULT_SIM_ARRIVALS,
    reason: str | None = None,
) -> QueueEstimate:
    """The fallback engine: a seeded Poisson replay of the same queue."""
    tables = profile.tables()
    cap = _resolve_cap(tables, batch_cap)
    if rate_rps <= 0.0:
        return empirical_estimate([], profile, cap, reason=reason)
    duration_ms = num_arrivals / rate_rps * 1000.0
    arrivals = _poisson_arrivals(rate_rps, duration_ms, seed)
    return empirical_estimate(
        arrivals, profile, cap,
        warmup_ms=duration_ms * _SIM_WARMUP_FRACTION, reason=reason,
    )


# ------------------------------------------------------- oracle-or-fallback


def capacity_answer(
    profile: BatchingProfile,
    rate_rps: float,
    batch_cap: int | None = None,
    mode: str = "analytic",
    seed: int = 0,
    num_arrivals: int = DEFAULT_SIM_ARRIVALS,
) -> QueueEstimate:
    """The planner's capacity-query entry point.

    ``mode="analytic"`` consults the closed-form oracle and falls back to
    the seeded simulation when a precondition fails (the returned
    estimate's ``source``/``reason`` record the decision);
    ``mode="simulate"`` always simulates.  Planning code must route every
    capacity question through here rather than invoking a simulator
    directly (nexuslint rule ``sim-in-planner-inner-loop``).
    """
    if mode == "analytic":
        try:
            return analytic_estimate(profile, rate_rps, batch_cap)
        except OracleInapplicable as exc:
            return simulate_estimate(
                profile, rate_rps, batch_cap, seed=seed,
                num_arrivals=num_arrivals, reason=exc.reason,
            )
    if mode == "simulate":
        return simulate_estimate(
            profile, rate_rps, batch_cap, seed=seed, num_arrivals=num_arrivals
        )
    raise ValueError(f"unknown capacity mode {mode!r}")


def max_batch_under_p99(
    profile: BatchingProfile,
    rate_rps: float,
    slo_ms: float,
    mode: str = "analytic",
    seed: int = 0,
    num_arrivals: int = DEFAULT_SIM_ARRIVALS,
    device: str = "",
) -> int:
    """Largest batch cap whose p99 sojourn meets the SLO at this rate
    (0 if none): the p99 analogue of Equation 2's worst-case batch.

    Scans caps downward from the profile maximum -- p99 is not monotone
    in the cap, so bisection is unsound -- and stops early once the rate
    is unstable (smaller caps only have less capacity).  Memoized on the
    profile's tables (shared by every equal-valued profile, bounded by
    :func:`~repro.core.profile_tables.remember`) under everything the
    answer depends on: ``(rate, slo, mode, seed, num_arrivals, device)``
    -- the seed and stream length steer the simulation (``"simulate"``,
    and ``"analytic"`` whenever the oracle falls back to it), and the
    device class keeps a profile shared across fleet classes from
    aliasing another class's answer.
    """
    tables = profile.tables()
    if rate_rps <= 0.0 or tables.latency_ms[0] > slo_ms:
        return 0
    key = (rate_rps, slo_ms, mode, seed, num_arrivals, device)
    memo = tables.p99_memo
    hit = memo.get(key)
    if hit is not None:
        return hit
    best = 0
    for cap in range(tables.max_batch, 0, -1):
        est = capacity_answer(
            profile, rate_rps, batch_cap=cap, mode=mode, seed=seed,
            num_arrivals=num_arrivals,
        )
        if not est.stable:
            break
        if approx_le(est.p99_ms, slo_ms):
            best = cap
            break
    return remember(memo, key, best)

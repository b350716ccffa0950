"""Batching profiles: the latency/throughput curves that drive scheduling.

Paper section 2.2, Equation 1: batched execution latency is well fit by
``batch_lat(b) = alpha*b + beta`` where ``beta`` is the fixed cost to
invoke a model and ``alpha`` the marginal cost per input.  Every scheduling
decision in Nexus -- squishy bin packing, query-latency splits, drop
policies -- consumes one of these profiles rather than the model itself.

Two concrete profile kinds:

- :class:`LinearProfile`: the Equation-1 analytic form (what the profiler
  emits and what the micro-benchmarks sweep);
- :class:`TabulatedProfile`: explicit (batch -> latency) tables, e.g. the
  paper's Table 2 and Figure 3 examples, linearly interpolated between
  listed batch sizes.

The algorithms only assume latency is non-decreasing in ``b`` and that
per-input latency ``l(b)/b`` is non-increasing (section 6.1: "The
algorithm only assumes that the latency per input l(b)/b is non-decreasing
with batch size b" -- the text has a typo; throughput ``b/l(b)`` is
non-decreasing).
"""

from __future__ import annotations

import math
from collections.abc import Hashable
from dataclasses import dataclass, field

import numpy as np

from .profile_tables import ProfileTables, interned_tables, remember

__all__ = ["BatchingProfile", "LinearProfile", "TabulatedProfile",
           "EffectiveProfile", "ProfileTables"]

#: Default ceiling on batch size: profiles refuse batches above this even
#: when memory permits (real frameworks cap batch dimensions too).
DEFAULT_MAX_BATCH = 256


class BatchingProfile:
    """Interface shared by all profile kinds.

    Times are milliseconds; batch sizes are positive integers.
    Subclasses implement :meth:`latency`; everything else derives from it.
    A profile is a constant once the scheduler has consumed it: its
    lookup tables are built once and, for the plain profile kinds, shared
    with every equal-valued profile (:meth:`tables_key`).

    Attributes:
        name: identifies the (model, device) pair that was profiled.
        max_batch: largest admissible batch (memory / framework bound).
        pre_ms: RAW single-core CPU pre-processing cost per input; the
            worker pool (``cpu_workers``) divides it when pipelined.
        post_ms: RAW single-core CPU post-processing cost per input.
        cpu_workers: worker-pool size per GPU (section 6.3: 4-5 cores
            saturate one GPU).
        memory_model_bytes: resident bytes for weights.
        memory_per_input_bytes: activation bytes per input in a batch.
    """

    name: str = "?"
    max_batch: int = DEFAULT_MAX_BATCH
    #: RAW single-core CPU cost per input (ms); the worker pool divides it
    #: only when pre/post-processing runs pipelined (OL on).
    pre_ms: float = 0.0
    post_ms: float = 0.0
    #: CPU worker pool size per GPU (section 6.3: 4-5 cores saturate one).
    cpu_workers: int = 1
    memory_model_bytes: int = 0
    memory_per_input_bytes: int = 0
    #: Handle on the lookup tables (:meth:`tables`), resolved on first
    #: use; deliberately *not* a dataclass field in the subclasses.
    _cached_tables: ProfileTables | None = None

    # ------------------------------------------------------------ primitives

    def latency(self, batch: int) -> float:
        """GPU execution latency (ms) of one batch of the given size."""
        raise NotImplementedError

    def latency_curve(self) -> tuple[float, ...]:
        """``(latency(1), ..., latency(max_batch))``, computed without
        consulting this profile's own lookup tables.

        The :class:`ProfileTables` builder calls this.  Subclasses
        override it when ``latency`` reads the tables
        (:class:`EffectiveProfile`, so the build cannot recurse) or when
        the whole curve is cheaper to build in one pass than point by
        point (prefix-fused profiles).
        """
        return tuple(self.latency(b) for b in range(1, self.max_batch + 1))

    def tables_key(self) -> Hashable | None:
        """The value this profile's curves are a pure function of, or
        ``None`` when its tables must not be shared.

        Only the exact plain kinds answer (a subclass may redefine
        ``latency``); ``name`` is never part of the key.
        """
        return None

    def _cost_key(self) -> tuple[int, float, float, int, int, int]:
        return (self.max_batch, self.pre_ms, self.post_ms, self.cpu_workers,
                self.memory_model_bytes, self.memory_per_input_bytes)

    def tables(self) -> ProfileTables:
        """Precomputed monotone lookup tables for this profile.

        Resolved on first use through the value-keyed intern table
        (:func:`~repro.core.profile_tables.interned_tables`) and kept on
        the instance; profiles are treated as immutable once the
        scheduler has consumed them, so mutating one afterwards leaves
        it (and, for an interned kind, its equal-valued peers) on the
        old curves.
        """
        tab = self._cached_tables
        if tab is None:
            tab = self._cached_tables = interned_tables(self)
        return tab

    def cpu_time(self, batch: int, pooled: bool = True) -> float:
        """CPU time (ms) to pre+post-process one batch.

        ``pooled`` divides the work across the backend's worker pool; the
        serialized (-OL) path runs it on the dispatch thread instead.
        """
        total = (self.pre_ms + self.post_ms) * batch
        if pooled:
            return total / max(1, self.cpu_workers)
        return total

    def occupancy_time(self, batch: int, overlap: bool = True) -> float:
        """Time the GPU is tied up by one batch.

        With CPU/GPU overlap (OL, section 6.3) the thread pool pipelines
        pre/post-processing under the GPU work, so the slot costs
        ``max(gpu, pooled cpu)``.  Without OL the dispatch thread
        serializes raw CPU work with the GPU launch ("Serializing
        preprocessing with GPU execution ... results in roughly half the
        cycles of the GPU remaining idle").
        """
        gpu = self.latency(batch)
        if overlap:
            return max(gpu, self.cpu_time(batch, pooled=True))
        return gpu + self.cpu_time(batch, pooled=False)

    # ------------------------------------------------------------ deriveds

    def throughput(self, batch: int) -> float:
        """Requests/second sustained when executing back-to-back batches."""
        lat = self.latency(batch)
        if lat <= 0:
            raise ValueError(f"non-positive latency for batch={batch}")
        return batch / lat * 1000.0

    def max_batch_with_latency(self, budget_ms: float) -> int:
        """Largest batch whose *execution latency* fits the budget (0 if none).

        Bisects the precomputed latency table with the same probe sequence
        a direct binary search over ``latency()`` would take.
        """
        return self.tables().max_batch_with_latency(budget_ms)

    def max_batch_under_slo(self, slo_ms: float) -> int:
        """Largest batch B with ``2 * latency(B) <= slo``.

        Section 4.1: a request that just misses a batch waits for the whole
        next batch, so worst-case latency is twice the batch execution
        cost; this bounds the batch usable by a GPU saturated with one
        session.  Memoized per SLO: ``schedule_saturate`` asks the same
        question for the same session every epoch.
        """
        memo = self.tables().slo_memo
        hit = memo.get(slo_ms)
        if hit is None:
            # Route through the (possibly overridden) budget search so
            # e.g. LinearProfile's closed form keeps answering.
            hit = remember(
                memo, slo_ms, self.max_batch_with_latency(slo_ms / 2.0)
            )
        return hit

    def peak_throughput_under_slo(self, slo_ms: float) -> float:
        """Best requests/second a dedicated GPU can serve within the SLO."""
        b = self.max_batch_under_slo(slo_ms)
        if b == 0:
            return 0.0
        return self.throughput(b)

    def max_batch_residual(self, rate_rps: float, slo_ms: float) -> int:
        """Largest batch b with ``(b-1)/rate + latency(b) <= slo``.

        Section 6.1's residual-load constraint (Equation 2) uses the full
        duty cycle ``b/rate``; we use the *gather time* ``(b-1)/rate``
        actually experienced by the first request of a batch (a batch of
        one executes on arrival and needs no gathering).  This keeps
        low-rate sessions with tight SLOs feasible, matching a runtime
        that dispatches as soon as the target batch fills.

        Gather time is strictly increasing and latency non-decreasing, so
        the feasibility predicate bisects over the precomputed curve;
        results are memoized per ``(rate, slo)`` for epoch replanning.
        """
        return self.tables().max_batch_residual(rate_rps, slo_ms)

    def memory_bytes(self, batch: int) -> int:
        """Resident GPU memory with the model loaded at this batch size."""
        return self.memory_model_bytes + batch * self.memory_per_input_bytes

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.name!r}, "
            f"l(1)={self.latency(1):.2f}ms, l(32)={self.latency(min(32, self.max_batch)):.2f}ms)"
        )


@dataclass
class LinearProfile(BatchingProfile):
    """Equation-1 profile: ``latency(b) = alpha*b + beta``."""

    name: str = "?"
    alpha: float = 1.0
    beta: float = 0.0
    max_batch: int = DEFAULT_MAX_BATCH
    pre_ms: float = 0.0
    post_ms: float = 0.0
    cpu_workers: int = 1
    memory_model_bytes: int = 0
    memory_per_input_bytes: int = 0

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.beta < 0:
            raise ValueError(f"beta must be non-negative, got {self.beta}")
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")

    def latency(self, batch: int) -> float:
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        if batch > self.max_batch:
            raise ValueError(
                f"batch {batch} exceeds max_batch {self.max_batch} for {self.name}"
            )
        return self.alpha * batch + self.beta

    def tables_key(self) -> Hashable | None:
        if type(self) is not LinearProfile:
            return None
        return ("lin", self.alpha, self.beta, self._cost_key())

    def max_batch_with_latency(self, budget_ms: float) -> int:
        # Closed form beats binary search for the linear case.
        if budget_ms < self.alpha + self.beta:
            return 0
        b = min(self.max_batch, int((budget_ms - self.beta) / self.alpha))
        # Guard the floating-point edge where alpha*b rounds just above
        # the budget.
        while b > 1 and self.latency(b) > budget_ms:
            b -= 1
        return b

    def scaled(self, factor: float, name: str | None = None) -> "LinearProfile":
        """A copy with both alpha and beta scaled (device speed ratio)."""
        return LinearProfile(
            name=name or self.name,
            alpha=self.alpha * factor,
            beta=self.beta * factor,
            max_batch=self.max_batch,
            pre_ms=self.pre_ms,
            post_ms=self.post_ms,
            cpu_workers=self.cpu_workers,
            memory_model_bytes=self.memory_model_bytes,
            memory_per_input_bytes=self.memory_per_input_bytes,
        )


@dataclass
class TabulatedProfile(BatchingProfile):
    """Profile given as explicit (batch, latency_ms) points.

    Latency between listed batch sizes is linearly interpolated; beyond the
    largest point it extrapolates with the last segment's slope.  Points
    must have strictly increasing batch and non-decreasing latency.
    """

    name: str = "?"
    points: tuple[tuple[int, float], ...] = ()
    pre_ms: float = 0.0
    post_ms: float = 0.0
    cpu_workers: int = 1
    memory_model_bytes: int = 0
    memory_per_input_bytes: int = 0
    max_batch: int = field(default=0)  # 0 -> largest tabulated batch

    def __post_init__(self) -> None:
        if len(self.points) < 1:
            raise ValueError("need at least one (batch, latency) point")
        batches = [b for b, _ in self.points]
        lats = [l for _, l in self.points]
        if batches != sorted(set(batches)):
            raise ValueError(f"batch sizes must be strictly increasing: {batches}")
        if any(l2 < l1 for l1, l2 in zip(lats, lats[1:])):
            raise ValueError(f"latency must be non-decreasing: {lats}")
        if self.max_batch == 0:
            self.max_batch = batches[-1]

    def tables_key(self) -> Hashable | None:
        if type(self) is not TabulatedProfile:
            return None
        points = tuple((b, lat) for b, lat in self.points)
        return ("tab", points, self._cost_key())

    def latency(self, batch: int) -> float:
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        if batch > self.max_batch:
            raise ValueError(
                f"batch {batch} exceeds max_batch {self.max_batch} for {self.name}"
            )
        pts = self.points
        if batch <= pts[0][0]:
            # Below the first point, scale latency linearly down toward a
            # zero intercept floor at half the first latency -- conservative
            # for small batches the table never measured.
            b0, l0 = pts[0]
            if batch == b0:
                return l0
            return l0 * (0.5 + 0.5 * batch / b0)
        for (b1, l1), (b2, l2) in zip(pts, pts[1:]):
            if b1 <= batch <= b2:
                frac = (batch - b1) / (b2 - b1)
                return l1 + frac * (l2 - l1)
        # Extrapolate past the last point with the final slope (or the
        # average per-input latency when only one point exists).
        if len(pts) == 1:
            b2, l2 = pts[0]
            slope = l2 / b2
        else:
            (b1, l1), (b2, l2) = pts[-2], pts[-1]
            slope = (l2 - l1) / (b2 - b1) if b2 > b1 else 0.0
        return l2 + slope * (batch - b2)


@dataclass
class EffectiveProfile(BatchingProfile):
    """A profile whose latency is the *occupancy* of the underlying model.

    The scheduler must reason about how long a batch ties up the GPU slot,
    not just its kernel time: with CPU/GPU overlap (OL, section 6.3) that
    is ``max(gpu, cpu)`` per batch; without OL the stages serialize to
    ``gpu + cpu``.  Wrapping a raw profile in this class folds the CPU
    side in, so planner and runtime agree on timing -- and disabling
    ``overlap`` automatically shrinks feasible batches and throughput,
    which is exactly the -OL ablation.
    """

    name: str = "?"
    base: BatchingProfile = None  # type: ignore[assignment]
    overlap: bool = True

    def __post_init__(self) -> None:
        if self.base is None:
            raise ValueError("need a base profile")
        if self.name == "?":
            suffix = "+ol" if self.overlap else "-ol"
            self.name = f"{self.base.name}{suffix}"
        self.max_batch = self.base.max_batch
        self.pre_ms = 0.0   # folded into latency
        self.post_ms = 0.0  # folded into latency
        self.cpu_workers = 1
        self.memory_model_bytes = self.base.memory_model_bytes
        self.memory_per_input_bytes = self.base.memory_per_input_bytes
        # Direct handle on the latency array: latency() sits on the
        # dispatch hot path and base occupancy (esp. prefix-batched
        # bases) is expensive to recompute per call.
        self._latency_table: tuple[float, ...] | None = None

    def latency_curve(self) -> tuple[float, ...]:
        # Raw computation for the table builder (no reads of *this*
        # profile's tables): the base curve, taken whole so a fused base
        # builds it in one pass, with ``occupancy_time``'s CPU fold done
        # on arrays in ``cpu_time``'s float operations
        # (``where(cpu > gpu, cpu, gpu)`` is ``max(gpu, cpu)`` exactly).
        base = self.base
        gpu = np.array(base.latency_curve(), dtype=np.float64)
        cpu = (base.pre_ms + base.post_ms) * np.arange(
            1, len(gpu) + 1, dtype=np.float64
        )
        if self.overlap:
            cpu = cpu / max(1, base.cpu_workers)
            return tuple(np.where(cpu > gpu, cpu, gpu).tolist())
        return tuple((gpu + cpu).tolist())

    def tables_key(self) -> Hashable | None:
        if type(self) is not EffectiveProfile:
            return None
        base_key = self.base.tables_key()
        if base_key is None:
            return None
        return ("eff", base_key, self.overlap)

    def latency(self, batch: int) -> float:
        table = self._latency_table
        if table is None:
            table = self.tables().latency_ms
            self._latency_table = table
        if 1 <= batch <= len(table):
            return table[batch - 1]
        # Out-of-range batches keep the base profile's exact error.
        return self.base.occupancy_time(batch, overlap=self.overlap)

    def occupancy_time(self, batch: int, overlap: bool = True) -> float:
        # pre_ms/post_ms are folded into latency (both zero here), so the
        # slot time equals latency whichever way the flag points.
        return self.latency(batch)

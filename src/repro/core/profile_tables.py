"""Precomputed lookup tables for batching profiles.

Every Algorithm-1 pass (``squishy_bin_packing``, ``_try_merge``) and every
hot dispatch decision asks a profile the same handful of questions --
``latency(b)``, "largest batch under this budget", "largest residual batch
at this rate/SLO" -- thousands of times per epoch.  The profile contract
(section 6.1) guarantees latency is non-decreasing in ``b`` and throughput
``b/l(b)`` non-increasing per input, so all of those questions are
prefix-property searches over a monotone curve: they bisect.

:class:`ProfileTables` materializes the per-batch latency, throughput and
memory curves once per distinct curve (resolved lazily by
:meth:`~repro.core.profile.BatchingProfile.tables`, which keeps the
handle on the instance), then answers:

- ``max_batch_with_latency``: binary search over the latency array, with
  the *same probe sequence* as the pre-table search directly over
  ``latency()`` -- results are bit-identical even if a profile violates
  monotonicity;
- ``max_batch_residual``: bisect over the monotone ``gather + latency``
  curve of Equation 2 (``(b-1)/rate + l(b) <= slo``), memoized per
  ``(rate, slo)`` so repeated epochs with unchanged loads hit a dict;
  profiles whose measured latency array is *not* non-decreasing fall back
  to the exact linear scan, preserving legacy results;
- a per-SLO memo used by ``max_batch_under_slo``.

A profile is a constant of the deployment (the paper profiles a model once
per GPU type and keeps the curve in its model database), so the tables of
plain profiles are *interned by value*: :func:`interned_tables` keeps one
:class:`ProfileTables` per distinct
:meth:`~repro.core.profile.BatchingProfile.tables_key`, however many
equal-valued profile objects a plan creates.  Tables therefore outlive any
one plan, and every memo that rides on them -- and the intern table itself
-- is bounded by :data:`_MEMO_LIMIT` through :func:`remember`.

Profiles are treated as immutable once the scheduler has consumed them;
mutating a profile after its tables are built leaves the tables stale.
"""

from __future__ import annotations

from collections.abc import Hashable
from typing import TYPE_CHECKING, TypeVar

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .profile import BatchingProfile

__all__ = ["ProfileTables", "interned_tables", "remember"]

_K = TypeVar("_K")
_V = TypeVar("_V")

#: Entries any planner memo (and the intern table) keeps before it resets;
#: tables outlive a plan, and long dynamic runs with drifting per-epoch
#: rates would otherwise grow the dicts without bound.
_MEMO_LIMIT = 4096


def remember(memo: dict[_K, _V], key: _K, value: _V) -> _V:
    """Store ``value`` in a bounded memo: clear at the limit, then insert."""
    if len(memo) >= _MEMO_LIMIT:
        memo.clear()
    memo[key] = value
    return value


class ProfileTables:
    """Monotone per-batch lookup tables for one profile.

    Attributes:
        max_batch: the profile's batch ceiling; all arrays have this length.
        latency_ms: ``latency_ms[b - 1] == profile.latency(b)``.
        throughput_rps: ``b / latency(b) * 1000`` per batch (0.0 where the
            profile reports non-positive latency).
        memory_bytes: ``profile.memory_bytes(b)`` per batch.
        monotone: whether ``latency_ms`` is non-decreasing -- the profile
            contract; bisection short-cuts are only taken when it holds.
        residual_memo: ``(rate_rps, slo_ms) -> max_batch_residual`` cache.
        slo_memo: ``slo_ms -> max_batch_under_slo`` cache (filled by
            :meth:`BatchingProfile.max_batch_under_slo`, which routes
            through the subclass's ``max_batch_with_latency`` override).
        p99_memo: ``(rate_rps, slo_ms, mode, seed, num_arrivals, device)
            -> max_batch_under_p99`` cache (filled by
            :func:`repro.core.queueing.max_batch_under_p99`, the queueing
            oracle's p99 analogue of Equation 2); the device-class
            component keeps one profile's memo from answering for another
            fleet class.
    """

    __slots__ = ("max_batch", "latency_ms", "throughput_rps", "memory_bytes",
                 "monotone", "residual_memo", "slo_memo", "p99_memo")

    def __init__(self, profile: BatchingProfile) -> None:
        max_batch = profile.max_batch
        latency_ms = profile.latency_curve()
        lat = np.array(latency_ms, dtype=np.float64)
        batch = np.arange(1, len(lat) + 1, dtype=np.float64)
        self.max_batch = max_batch
        self.latency_ms = latency_ms
        # b / lat * 1000 where lat > 0, else 0.0 (0.0 * 1000.0 stays 0.0)
        self.throughput_rps = tuple((np.divide(
            batch, lat, out=np.zeros_like(lat), where=lat > 0
        ) * 1000.0).tolist())
        self.memory_bytes = tuple(
            map(profile.memory_bytes, range(1, max_batch + 1))
        )
        self.monotone = bool(np.all(lat[:-1] <= lat[1:]))
        self.residual_memo: dict[tuple[float, float], int] = {}
        self.slo_memo: dict[float, int] = {}
        self.p99_memo: dict[tuple[float, float, str, int, int, str], int] = {}

    def max_batch_with_latency(self, budget_ms: float) -> int:
        """Largest batch whose execution latency fits the budget (0 if none).

        Identical probe decisions to a binary search over ``latency()``
        itself, just reading the precomputed array.
        """
        lat = self.latency_ms
        if lat[0] > budget_ms:
            return 0
        lo, hi = 1, self.max_batch
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if lat[mid - 1] <= budget_ms:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def max_batch_residual(self, rate_rps: float, slo_ms: float) -> int:
        """Largest batch b with ``(b - 1)/rate + latency(b) <= slo``.

        ``gather(b) = (b - 1)/rate`` is strictly increasing and latency is
        non-decreasing, so the Equation-2 feasibility predicate is a prefix
        property and bisects; the gather term keeps the exact expression of
        the legacy scan so boundary floating-point behaviour is unchanged.
        Non-monotone latency arrays (a contract violation some ad-hoc test
        profiles commit) fall back to the legacy linear scan.
        """
        if rate_rps <= 0:
            return 0
        key = (rate_rps, slo_ms)
        memo = self.residual_memo
        hit = memo.get(key)
        if hit is not None:
            return hit
        lat = self.latency_ms
        if self.monotone:
            lo, hi = 0, self.max_batch
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if (mid - 1) / rate_rps * 1000.0 + lat[mid - 1] <= slo_ms:
                    lo = mid
                else:
                    hi = mid - 1
            best = lo
        else:
            best = 0
            for b in range(1, self.max_batch + 1):
                gather_ms = (b - 1) / rate_rps * 1000.0
                if gather_ms + lat[b - 1] <= slo_ms:
                    best = b
                elif lat[b - 1] > slo_ms:
                    break
        return remember(memo, key, best)


#: ``tables_key() -> ProfileTables``: one table set per distinct curve.
_INTERNED: dict[Hashable, ProfileTables] = {}


def interned_tables(profile: BatchingProfile) -> ProfileTables:
    """The tables for ``profile``: shared by value where it has a key.

    Profiles whose :meth:`~repro.core.profile.BatchingProfile.tables_key`
    is ``None`` (subclasses, fused profiles, ad-hoc test profiles) get a
    private build.  Keys are values, not identities: a 206-app plan
    creates hundreds of profile objects but about a dozen distinct
    curves, and identity-keyed tables would each stay alive with their
    own growing memos.
    """
    key = profile.tables_key()
    if key is None:
        return ProfileTables(profile)
    tables = _INTERNED.get(key)
    if tables is None:
        tables = remember(_INTERNED, key, ProfileTables(profile))
    return tables

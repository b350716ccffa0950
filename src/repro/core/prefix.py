"""Prefix batching: batch specialized models through their shared trunk.

Paper section 6.3: transfer learning re-trains only the last layer(s) of a
model, so "several models may differ only by their output layer.  Batching
the execution of all but the output layer can yield substantial batching
gains."  Nexus hashes every sub-tree of an uploaded model's schema against
the model database; at runtime, models with known common sub-trees are
loaded partially and batched at prefix granularity, with the different
suffixes executed sequentially.

This module provides:

- :func:`find_prefix_groups` -- the ingest-time clustering of models into
  prefix-sharing families;
- :class:`PrefixGroup` / :class:`PrefixBatchedProfile` -- a family fused
  into one schedulable pseudo-model whose "batch" is the combined input
  count across all variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..models.graph import ModelGraph
from .profile import BatchingProfile, LinearProfile

__all__ = ["PrefixGroup", "PrefixBatchedProfile", "find_prefix_groups",
           "group_memory_bytes", "unbatched_memory_bytes"]

#: Batches per block of :meth:`PrefixBatchedProfile.latency_curve`: a
#: block holds a few ``batches x suffixes`` float64 arrays, so small
#: blocks keep a 200-suffix curve's working set small.
_CURVE_BLOCK = 32


def find_prefix_groups(
    models: list[ModelGraph], min_shared_frac: float = 0.5
) -> list[list[int]]:
    """Cluster models into prefix-sharing families.

    Two models join the same group when their common prefix carries at
    least ``min_shared_frac`` of *both* models' FLOPs -- prefix batching a
    trivially-shared stem would not pay for the bookkeeping.

    Returns index lists into ``models``; singletons are included, so the
    result is a partition.
    """
    if not 0.0 < min_shared_frac <= 1.0:
        raise ValueError(f"min_shared_frac must be in (0, 1], got {min_shared_frac}")
    groups: list[list[int]] = []
    for i, model in enumerate(models):
        placed = False
        for group in groups:
            rep = models[group[0]]
            shared = rep.common_prefix_len(model)
            shared_flops = rep.prefix_flops(shared)
            if (
                shared_flops >= min_shared_frac * rep.total_flops()
                and shared_flops >= min_shared_frac * model.total_flops()
            ):
                group.append(i)
                placed = True
                break
        if not placed:
            groups.append([i])
    return groups


@dataclass
class PrefixGroup:
    """A family of specialized models fused for prefix-batched execution.

    Attributes:
        model_ids: names of the member models, in suffix order.
        prefix_profile: profile of the shared trunk.
        suffix_profiles: one profile per member's private suffix.
        prefix_len: number of shared leading graph nodes (for reporting).
    """

    model_ids: list[str]
    prefix_profile: BatchingProfile
    suffix_profiles: list[BatchingProfile]
    prefix_len: int = 0

    def __post_init__(self) -> None:
        if len(self.model_ids) != len(self.suffix_profiles):
            raise ValueError(
                f"{len(self.model_ids)} models but "
                f"{len(self.suffix_profiles)} suffix profiles"
            )
        if len(self.model_ids) < 2:
            raise ValueError("a prefix group needs at least two members")

    @property
    def size(self) -> int:
        return len(self.model_ids)

    def combined_profile(
        self, weights: list[float] | None = None, name: str = ""
    ) -> "PrefixBatchedProfile":
        """Fuse into a single schedulable profile.

        ``weights`` gives each member's share of the combined batch
        (normalized internally); default is an even split.
        """
        if weights is None:
            weights = [1.0] * self.size
        if len(weights) != self.size or any(w < 0 for w in weights):
            raise ValueError(f"bad weights {weights} for group of {self.size}")
        total = sum(weights)
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        return PrefixBatchedProfile(
            name=name or "+".join(self.model_ids),
            prefix=self.prefix_profile,
            suffixes=list(self.suffix_profiles),
            weights=[w / total for w in weights],
        )


@dataclass
class PrefixBatchedProfile(BatchingProfile):
    """Latency model of a prefix-batched family.

    A combined batch of ``b`` inputs runs the prefix once at batch ``b``,
    then each suffix ``i`` sequentially on its own sub-batch
    ``ceil(weights[i] * b)`` (section 6.3: "the different suffix parts are
    then executed sequentially").
    """

    name: str = "?"
    prefix: BatchingProfile = None  # type: ignore[assignment]
    suffixes: list[BatchingProfile] = field(default_factory=list)
    weights: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.prefix is None or not self.suffixes:
            raise ValueError("need a prefix profile and at least one suffix")
        if len(self.weights) != len(self.suffixes):
            raise ValueError("weights/suffixes length mismatch")
        self.max_batch = self.prefix.max_batch
        self.pre_ms = self.prefix.pre_ms
        self.post_ms = sum(
            w * s.post_ms for w, s in zip(self.weights, self.suffixes)
        )
        self.cpu_workers = self.prefix.cpu_workers
        self.memory_model_bytes = self.prefix.memory_model_bytes + sum(
            s.memory_model_bytes for s in self.suffixes
        )
        self.memory_per_input_bytes = self.prefix.memory_per_input_bytes

    def split_batch(self, batch: int) -> list[int]:
        """Partition ``batch`` inputs across the suffixes by weight.

        Largest-remainder (Hamilton) apportionment: floors first, then the
        leftover inputs go to the largest fractional remainders (ties
        broken by suffix order, so the split is deterministic).  The
        sub-batches always sum to exactly ``batch`` — a per-suffix
        ``ceil`` would over-count by up to ``len(suffixes) - 1`` inputs.
        """
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        return self._apportion(batch, self._total_weight())

    def _total_weight(self) -> float:
        total_w = sum(self.weights)
        if total_w <= 0:
            raise ValueError("weights must sum to a positive value")
        return total_w

    def _apportion(self, batch: int, total_w: float) -> list[int]:
        shares = [w * batch / total_w for w in self.weights]
        subs = [math.floor(s) for s in shares]
        leftover = batch - sum(subs)
        if leftover:
            # The sort is stable, so equal remainders keep suffix order.
            remainders = [sub - share for sub, share in zip(subs, shares)]
            by_remainder = sorted(
                range(len(subs)), key=remainders.__getitem__
            )
            for i in by_remainder[:leftover]:
                subs[i] += 1
        return subs

    def latency(self, batch: int) -> float:
        total = self.prefix.latency(batch)
        for sub, suffix in zip(self.split_batch(batch), self.suffixes):
            if sub >= 1:
                total += suffix.latency(min(sub, suffix.max_batch))
        return total

    def latency_curve(self) -> tuple[float, ...]:
        """The whole curve, ``==`` to ``latency(b)`` per batch.

        The weights follow the offered rates, so a fused curve is built
        afresh for every plan's rates and cannot be interned; its parts
        can.  The suffix latencies are read from one row per distinct
        suffix tables object (a family's equal-valued suffixes share one
        interned :class:`~repro.core.profile_tables.ProfileTables`),
        gathered through per-suffix row offsets.  The curve is computed
        in blocks of :data:`_CURVE_BLOCK` batches, as float64 arrays: the
        apportionment of every batch in a block at once (floors, then the
        leftover inputs go to the largest remainders, ties in suffix
        order), one gather, and a left-to-right running sum from the
        prefix latency -- the same float operations, in the same order,
        as :meth:`latency`.
        """
        total_w = self._total_weight()
        max_batch = self.max_batch
        k = len(self.suffixes)
        weights = np.array(self.weights, dtype=np.float64)
        prefix_ms = np.array(self.prefix.tables().latency_ms)
        tables = [suffix.tables() for suffix in self.suffixes]
        distinct = {id(t): t for t in tables}     # first-seen order
        row_of = {key: row for row, key in enumerate(distinct)}
        # suffix_ms[row_start[i] + sub] is suffix i's latency at sub-batch
        # ``sub``: one row of ``max_batch + 1`` entries per distinct
        # tables object.  A sub-batch above a suffix's own ceiling runs at
        # that ceiling, and column 0 (the suffix gets no input) adds
        # nothing.
        width = max_batch + 1
        row_start = width * np.array(
            [row_of[id(t)] for t in tables], dtype=np.intp
        )
        suffix_ms = np.zeros((len(distinct), width))
        for row, t in enumerate(distinct.values()):
            lat = t.latency_ms[:max_batch]
            suffix_ms[row, 1:len(lat) + 1] = lat
            suffix_ms[row, len(lat) + 1:] = lat[-1]
        suffix_ms = suffix_ms.ravel()
        curve: list[float] = []
        for first in range(1, max_batch + 1, _CURVE_BLOCK):
            batch = np.arange(
                first, min(first + _CURVE_BLOCK, max_batch + 1),
                dtype=np.float64,
            )
            shares = weights * batch[:, None] / total_w
            subs = np.floor(shares)
            # Batch r hands one more input to each of its ``take[r]``
            # first suffixes in (remainder descending, suffix order):
            # those whose -remainder is below the take-th smallest, then
            # the ones tied at it, in suffix order, until ``take`` is met.
            neg = subs - shares
            take = np.clip(batch - subs.sum(axis=1), 0, k).astype(np.intp)
            cut = np.sort(neg, axis=1)[
                np.arange(len(batch)), np.maximum(take - 1, 0)
            ][:, None]
            below = neg < cut
            tied = neg == cut
            room = take - below.sum(axis=1)
            tied &= np.cumsum(tied, axis=1) <= room[:, None]
            subs += below | tied
            terms = np.empty((len(batch), k + 1))
            terms[:, 0] = prefix_ms[first - 1:first - 1 + len(batch)]
            terms[:, 1:] = suffix_ms.take(row_start + subs.astype(np.intp))
            curve.extend(np.add.accumulate(terms, axis=1)[:, -1].tolist())
        return tuple(curve)


def group_memory_bytes(group: PrefixGroup) -> int:
    """GPU memory for the fused family: one trunk + all suffixes."""
    return group.prefix_profile.memory_model_bytes + sum(
        s.memory_model_bytes for s in group.suffix_profiles
    )


def unbatched_memory_bytes(full_profiles: list[BatchingProfile]) -> int:
    """GPU memory when each variant is loaded whole (no prefix sharing)."""
    return sum(p.memory_model_bytes for p in full_profiles)

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
from typing import TYPE_CHECKING

import numpy as np

from ..models.graph import ModelGraph
from .profile import BatchingProfile

if TYPE_CHECKING:  # annotations only: numpy.typing costs RSS at import
    import numpy.typing as npt

__all__ = ["PrefixGroup", "PrefixBatchedProfile", "find_prefix_groups",
           "group_memory_bytes", "unbatched_memory_bytes"]

#: Cells (batches x suffixes) per block of
#: :meth:`PrefixBatchedProfile.latency_curve`: a narrow family's whole
#: curve is one block, and a wide family's blocks keep their few
#: ``suffixes x batches`` working arrays cache-sized (a 200-suffix curve
#: built in one pass over all 256 batches is slower).
_CURVE_CELLS = 8192


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


@dataclass(frozen=True)
class _CurveRows:
    """The weight-free parts of a fused family's latency curve.

    Attributes:
        table: a flat float64 lookup table of rows of ``max_batch + 1``
            entries: row 0 holds the prefix latency at batch ``b`` in
            column ``b``, then one row per distinct suffix tables object
            (a family's equal-valued suffixes share one interned
            :class:`~repro.core.profile_tables.ProfileTables`) holds that
            suffix's latency at sub-batch ``s`` in column ``s``, clamped
            to its own ceiling.  Column 0 is 0.0 in every row: a suffix
            given no input adds nothing.
        row_start: ``(suffixes, 1)`` offsets of each suffix's row in
            ``table``.
        suffix_memory_bytes: the suffixes' summed model memory.
    """

    table: npt.NDArray[np.float64]
    row_start: npt.NDArray[np.intp]
    suffix_memory_bytes: int


def _curve_rows(
    prefix: BatchingProfile, suffixes: list[BatchingProfile]
) -> _CurveRows:
    max_batch = prefix.max_batch
    tables = [suffix.tables() for suffix in suffixes]
    distinct = {id(t): t for t in tables}     # first-seen order
    row_of = {key: row for row, key in enumerate(distinct, 1)}
    width = max_batch + 1
    table = np.zeros((len(distinct) + 1, width))
    table[0, 1:] = prefix.tables().latency_ms
    for row, t in enumerate(distinct.values(), 1):
        lat = t.latency_ms[:max_batch]
        table[row, 1:len(lat) + 1] = lat
        table[row, len(lat) + 1:] = lat[-1]
    row_start = width * np.array(
        [row_of[id(t)] for t in tables], dtype=np.intp
    )
    return _CurveRows(
        table=table.ravel(),
        row_start=row_start[:, None],
        suffix_memory_bytes=sum(s.memory_model_bytes for s in suffixes),
    )


@dataclass
class PrefixGroup:
    """A family of specialized models fused for prefix-batched execution.

    Attributes:
        model_ids: names of the member models, in suffix order.
        prefix_profile: profile of the shared trunk.
        suffix_profiles: one profile per member's private suffix.
        prefix_len: number of shared leading graph nodes (for reporting).
        rows: the weight-free parts of the fused curve, built once per
            group and shared by every :meth:`combined_profile`.
    """

    model_ids: list[str]
    prefix_profile: BatchingProfile
    suffix_profiles: list[BatchingProfile]
    prefix_len: int = 0
    rows: _CurveRows = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.model_ids) != len(self.suffix_profiles):
            raise ValueError(
                f"{len(self.model_ids)} models but "
                f"{len(self.suffix_profiles)} suffix profiles"
            )
        if len(self.model_ids) < 2:
            raise ValueError("a prefix group needs at least two members")
        self.rows = _curve_rows(self.prefix_profile, self.suffix_profiles)

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
            rows=self.rows,
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
    #: the family's weight-free curve parts; a profile made by
    #: :meth:`PrefixGroup.combined_profile` shares its group's, one
    #: constructed directly builds its own.
    rows: _CurveRows = field(  # type: ignore[assignment]
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.prefix is None or not self.suffixes:
            raise ValueError("need a prefix profile and at least one suffix")
        if len(self.weights) != len(self.suffixes):
            raise ValueError("weights/suffixes length mismatch")
        if self.rows is None:
            self.rows = _curve_rows(self.prefix, self.suffixes)
        self.max_batch = self.prefix.max_batch
        self.pre_ms = self.prefix.pre_ms
        self.post_ms = sum(
            w * s.post_ms for w, s in zip(self.weights, self.suffixes)
        )
        self.cpu_workers = self.prefix.cpu_workers
        self.memory_model_bytes = (
            self.prefix.memory_model_bytes + self.rows.suffix_memory_bytes
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
        afresh for every plan's rates and cannot be interned; its
        weight-free parts (:class:`_CurveRows`) are built once per
        family.  The curve is computed in blocks of batches holding at
        most :data:`_CURVE_CELLS` ``suffixes x batches`` cells, as float64
        arrays: the apportionment of every batch in a block at once
        (floors, then the leftover inputs go to the largest remainders,
        ties in suffix order), one gather of the prefix and suffix
        latencies into a suffix-major ``(suffixes + 1, batches)`` array,
        and a reduce down its rows -- the same float additions, in the
        same order, as :meth:`latency`.
        """
        total_w = self._total_weight()
        rows = self.rows
        max_batch = self.max_batch
        k = len(self.suffixes)
        weights = np.array(self.weights, dtype=np.float64)[:, None]
        height = max(1, _CURVE_CELLS // k)
        curve: list[float] = []
        for first in range(1, max_batch + 1, height):
            n = min(height, max_batch + 1 - first)
            cols = np.arange(n)
            batch = np.arange(first, first + n, dtype=np.float64)
            shares = weights * batch
            shares /= total_w
            subs = np.floor(shares)
            neg = np.subtract(subs, shares, out=shares)  # shares: unread
            # the leftover inputs: the floors never sum past the batch,
            # and at most one goes to each suffix
            take = (batch - subs.sum(axis=0)).astype(np.intp)
            np.minimum(take, k, out=take)
            # Batch b hands one more input to each of its take[b] first
            # suffixes in (remainder descending, suffix order): those
            # whose -remainder is at most the take-th smallest (cut) ...
            ranked = np.sort(neg, axis=0).ravel()
            cut = np.where(
                take > 0, ranked.take((take - 1) * n + cols), -np.inf
            )
            inc = neg <= cut
            # ... unless more than take[b] tie at or below it: then only
            # the first of the tied, in suffix order, until take is met.
            over = np.flatnonzero(
                (take < k)
                & (ranked.take(np.minimum(take, k - 1) * n + cols) == cut)
            )
            if len(over):
                part = slice(over[0], over[-1] + 1)
                tied = neg[:, part] == cut[part]
                rank = np.cumsum(tied, axis=0)
                room = take[part] - (inc[:, part].sum(axis=0) - rank[-1])
                inc[:, part] ^= tied & (rank > room)
            # idx[0] indexes the prefix row at the batch, idx[1 + i] suffix
            # i's row at its sub-batch.  A one-column reduce would run
            # along contiguous memory, where numpy sums pairwise, so a
            # one-batch block gets a second column (index 0: all 0.0).
            idx = np.zeros((k + 1, max(n, 2)), dtype=np.intp)
            idx[0, :n] = batch
            body = idx[1:, :n]
            body[...] = subs
            body += rows.row_start
            body += inc
            lat = np.add.reduce(rows.table.take(idx), axis=0)
            curve.extend(lat[:n].tolist())
        return tuple(curve)


def group_memory_bytes(group: PrefixGroup) -> int:
    """GPU memory for the fused family: one trunk + all suffixes."""
    return (group.prefix_profile.memory_model_bytes
            + group.rows.suffix_memory_bytes)


def unbatched_memory_bytes(full_profiles: list[BatchingProfile]) -> int:
    """GPU memory when each variant is loaded whole (no prefix sharing)."""
    return sum(p.memory_model_bytes for p in full_profiles)

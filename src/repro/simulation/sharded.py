"""Federated sharded simulation: independent shard timelines, fanned out.

A monolithic :class:`~repro.simulation.simulator.Simulator` serializes
every event in one heap, capping whole-cluster experiments at one core's
event rate.  Fleet-scale runs (``experiments/megascale.py``) are instead
partitioned *by construction*: each shard's sessions are served only by
that shard's GPUs, so every shard is a self-contained cluster timeline
that a worker process can run end to end.  Shards share nothing while
they run; their summary-mode metrics are merged afterwards.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

__all__ = ["shard_map"]


def shard_map(
    fn: Callable[[Any], Any], shard_specs: Sequence[Any], workers: int
) -> list[Any]:
    """Fan independent shard timelines across worker processes.

    Each spec describes one self-contained shard -- model names, rates,
    picklable rate functions, fault plans -- and the worker rebuilds the
    shard's cluster from the spec, runs its whole timeline, and returns
    a reduced summary.  Live simulator state never crosses the process
    boundary (event heaps hold closures and are not picklable).
    """
    from ..experiments.common import parallel_map  # lazy: avoid cycle

    return parallel_map(fn, list(shard_specs), workers=workers)

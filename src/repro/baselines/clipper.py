"""Clipper-like baseline configuration (section 7.2).

Clipper [6] batches requests adaptively under a latency SLO but:

- assumes an *external* scheduler (we supply the batch-oblivious one);
- deploys each model in its own container; co-located containers issue
  kernels independently and the GPU interleaves them arbitrarily,
  inflating and destabilizing everyone's latency (section 6.3, "GPU
  multiplexing");
- uses *lazy dropping*: a request is dropped only once it has already
  missed its deadline, and batch size follows the oldest request's
  remaining budget (section 4.3);
- does not overlap CPU pre/post-processing with GPU execution at the
  granularity Nexus does.

All of that is expressed as a :class:`~repro.cluster.nexus.ClusterConfig`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # deferred: cluster.nexus imports this package
    from ..cluster.nexus import ClusterConfig

__all__ = ["clipper_config", "CLIPPER_INTERFERENCE"]

#: Latency inflation per extra co-located container.  Section 7.5 /
#: Figure 14 shows Clipper losing 1.9-9.8x to Nexus as co-located model
#: count grows; interleaved kernel execution roughly serializes the
#: co-residents while adding scheduling overhead.
CLIPPER_INTERFERENCE = 0.35


def clipper_config(device: str = "gtx1080ti",
                   max_gpus: int | None = None,
                   seed: int = 0) -> "ClusterConfig":
    """ClusterConfig reproducing Clipper's serving behaviour."""
    from ..cluster.nexus import ClusterConfig

    return ClusterConfig(
        device=device,
        max_gpus=max_gpus,
        scheduler="batch_oblivious",
        pacing="greedy",
        drop_policy="lazy",
        overlap=False,
        prefix_batching=False,
        query_analysis=False,
        interference_factor=CLIPPER_INTERFERENCE,
        seed=seed,
    )

"""TF-Serving-like baseline configuration (section 7.2).

TF Serving [25] "can be viewed as a variant of Clipper that does not
provide approximation and caching" -- and per section 7.5 it "runs models
in a round-robin fashion" on a shared GPU, so unlike Clipper it does not
suffer container interference.  It has no frontend load balancer and no
per-request latency SLO; the paper supplies a dispatcher and picks "the
maximum batch size for each model, so its SLO is not violated".

Expressed here: batch-oblivious external scheduler, unpaced round-robin
execution without interference, no CPU/GPU overlap, lazy dropping (there
is no early admission control), no prefix batching or query analysis.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # deferred: cluster.nexus imports this package
    from ..cluster.nexus import ClusterConfig

__all__ = ["tf_serving_config"]


def tf_serving_config(device: str = "gtx1080ti",
                      max_gpus: int | None = None,
                      seed: int = 0) -> "ClusterConfig":
    """ClusterConfig reproducing TF Serving's serving behaviour."""
    from ..cluster.nexus import ClusterConfig

    return ClusterConfig(
        device=device,
        max_gpus=max_gpus,
        scheduler="batch_oblivious",
        pacing="round_robin",
        drop_policy="lazy",
        overlap=False,
        prefix_batching=False,
        query_analysis=False,
        interference_factor=0.0,
        seed=seed,
    )

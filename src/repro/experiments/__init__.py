"""Experiment modules: one per table/figure of the paper's evaluation.

Each module exposes ``run(...)`` returning an
:class:`~repro.experiments.common.ExperimentResult`; the paper-shape
suite (``benchmarks/test_*.py``) wraps these in pytest-benchmark
targets, and ``python -m repro.experiments.<name>`` prints the
reproduced rows.  Wall-clock performance is not measured here: the perf
ledger (``python3 benchmarks/ledger/run.py``, docs/performance.md) is
the repo's one benchmark.

==================  ====================================================
module              reproduces
==================  ====================================================
``table1``          Table 1: device latencies and $ per 1000 invocations
``fig2``            Table 2 / Figure 2: squishy packing worked example
``fig4``            Figures 3-4: latency-split plans vs gamma
``fig5``            Figure 5: lazy-drop bad rate vs alpha
``fig9``            Figure 9: lazy vs early drop max goodput
``fig10``           Figure 10: game-analysis ablation (16 GPUs)
``fig11``           Figure 11: traffic-analysis ablation (16 GPUs)
``fig12``           Figure 12: rush vs non-rush hour throughput
``fig13``           Figure 13: 1000 s large-scale deployment window
``fig14``           Figure 14: GPU multiplexing
``fig15``           Figure 15: prefix batching throughput + memory
``fig16``           Figure 16: squishy vs batch-oblivious mixes
``fig17``           Figure 17: query analysis vs even splits
``utilization``     Section 7.4: 84%-of-lower-bound utilization
``ilp_gap``         Appendix A companion: greedy vs exact gap
``mixed_fleet``     Table 1 generalized: cost-optimal mixed-class
                    placement on a heterogeneous fleet
``report``          run the fast subset and emit one markdown report
==================  ====================================================
"""

from . import (
    common,
    fig2,
    fig4,
    fig5,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    fig17,
    ilp_gap,
    mixed_fleet,
    table1,
    utilization,
)
from .common import ExperimentResult, max_rate_search

__all__ = [
    "common",
    "table1",
    "fig2",
    "fig4",
    "fig5",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "utilization",
    "ilp_gap",
    "mixed_fleet",
    "ExperimentResult",
    "max_rate_search",
]

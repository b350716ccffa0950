"""Bench: Figures 3-4 -- latency-split average throughput vs gamma."""

import pytest
from paper_shape_report import report

from repro.experiments import fig4


def test_fig4_latency_split(benchmark):
    result = benchmark(fig4.run)
    report(result)

    # Closed-form rows must match the paper's Figure 4 cells exactly.
    for row in result.rows:
        bx, by, gamma, avg, paper = row
        if paper == "DP-chosen":
            continue
        assert avg == pytest.approx(paper, rel=0.005), (bx, by, gamma)

    # The DP must pick the winning plan for each gamma: the X-heavy split
    # at gamma=0.1, the Y-heavy split at gamma=10 (no universal best).
    dp = {row[2]: (row[0], row[1]) for row in result.rows
          if row[4] == "DP-chosen"}
    assert dp[0.1] == (60, 40)
    assert dp[10.0] == (40, 60)

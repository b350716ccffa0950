"""Bench: Figure 14 -- GPU multiplexing on one GPU (scaled down)."""

from paper_shape_report import report

from repro.experiments import fig14


def test_fig14_multiplexing(benchmark):
    result = benchmark.pedantic(
        lambda: fig14.run(duration_ms=8_000.0, iterations=7,
                          model_counts=(2, 4), slos=(50.0, 200.0)),
        rounds=1, iterations=1,
    )
    report(result)

    cell = {(r[0], r[1], r[2]): r[3] for r in result.rows}
    for n in (2, 4):
        nexus = cell[("a:models", n, "nexus")]
        # Paper: Nexus 1.4-2.1x TF Serving, 1.9-9.8x Clipper per GPU.
        assert nexus >= cell[("a:models", n, "tf_serving")]
        assert nexus > 1.2 * cell[("a:models", n, "clipper")]
        # Nexus-parallel sits at or below full Nexus (it still interferes).
        assert nexus >= cell[("a:models", n, "nexus_parallel")] * 0.95
    # Looser SLOs help everyone; Nexus-parallel narrows the gap with slack
    # (paper: "greater scheduling slack gives Nexus-parallel higher
    # throughput").
    for system in ("nexus", "nexus_parallel", "tf_serving"):
        assert cell[("b:slo_ms", 200.0, system)] >= cell[("b:slo_ms", 50.0, system)]

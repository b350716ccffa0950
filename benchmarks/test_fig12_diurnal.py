"""Bench: Figure 12 -- rush vs non-rush hour traffic throughput."""

from paper_shape_report import report

from repro.experiments import fig12


def test_fig12_diurnal(benchmark):
    result = benchmark.pedantic(
        lambda: fig12.run(duration_ms=8_000.0, iterations=7,
                          systems=["tf_serving", "nexus-QA", "nexus"]),
        rounds=1, iterations=1,
    )
    report(result)

    cell = {(r[0], r[1]): r[2] for r in result.rows}
    # Rush hour (higher fan-out) cuts everyone's throughput...
    for system in ("tf_serving", "nexus-QA", "nexus"):
        assert cell[(system, "rush")] < cell[(system, "non-rush")]
    # ...but Nexus keeps a significant lead in both periods.
    for period in ("non-rush", "rush"):
        assert cell[("nexus", period)] > 1.2 * cell[("tf_serving", period)]
    # QA's relative benefit shrinks at rush hour (oversubscription).
    qa_gain_calm = cell[("nexus", "non-rush")] / cell[("nexus-QA", "non-rush")]
    qa_gain_rush = cell[("nexus", "rush")] / cell[("nexus-QA", "rush")]
    assert qa_gain_calm >= qa_gain_rush * 0.9

"""Bench: Figure 17 -- query analysis vs even split (scaled down)."""

from paper_shape_report import report

from repro.experiments import fig17


def test_fig17_query_analysis(benchmark):
    result = benchmark.pedantic(
        lambda: fig17.run(duration_ms=8_000.0, iterations=9,
                          slos=(300.0, 500.0), gammas=(0.1, 10.0)),
        rounds=1, iterations=1,
    )
    report(result)

    # Paper: QA gives 13-55% higher throughput.  Our profiles give QA a
    # smaller (but real) edge -- see EXPERIMENTS.md; cells within search
    # resolution can tie or flip slightly.
    gains = {(r[0], r[1]): r[4] for r in result.rows}
    for key, gain in gains.items():
        assert gain >= 0.88, key  # never meaningfully worse
    mean_gain = sum(gains.values()) / len(gains)
    assert mean_gain >= 0.99
    assert max(gains.values()) > 1.02  # better somewhere

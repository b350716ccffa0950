"""Bench: Figure 9 -- max goodput, lazy vs early drop."""

from paper_shape_report import report

from repro.experiments import fig9


def test_fig9_early_drop(benchmark):
    result = benchmark(lambda: fig9.run(duration_ms=20_000.0, iterations=8))
    report(result)

    for alpha, lazy, early, optimal, gain in result.rows:
        # Early drop never loses to lazy, and neither exceeds optimal.
        assert early >= lazy
        assert early <= optimal * 1.02
    # Paper: the early-drop advantage is largest at small alpha (high
    # fixed cost), up to ~25%.
    gains = {r[0]: r[4] for r in result.rows}
    assert gains[1.0] > 1.10
    assert gains[1.0] > gains[1.8]

"""Bench: greedy squishy packing vs the exact optimum (Appendix A)."""

from paper_shape_report import report

from repro.experiments import ilp_gap


def test_ilp_gap(benchmark):
    result = benchmark(lambda: ilp_gap.run(sizes=(4, 6, 8), trials=8))
    report(result)

    for n, trials, mean_exact, mean_greedy, mean_gap, worst_gap in result.rows:
        # Greedy never beats exact, and stays within 1.5x on average
        # (empirically it is nearly always optimal on these instances).
        assert mean_gap >= 1.0
        assert mean_gap <= 1.5
        assert worst_gap <= 2.0

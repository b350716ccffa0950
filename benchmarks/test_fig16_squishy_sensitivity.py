"""Bench: Figure 16 -- squishy vs batch-oblivious scheduling (scaled)."""

from paper_shape_report import report

from repro.experiments import fig16


def test_fig16_squishy_sensitivity(benchmark):
    scenarios = ("mix_slos_inception", "mix_rates_inception",
                 "mix_models_slos")
    result = benchmark.pedantic(
        lambda: fig16.run(duration_ms=6_000.0, iterations=7,
                          scenarios=scenarios),
        rounds=1, iterations=1,
    )
    report(result)

    rel = {r[0]: r[3] for r in result.rows}
    # Paper: squishy scheduling beats the baseline on every mix.  At the
    # bench's scaled-down search resolution individual mixes can dip a
    # probe below parity; the headline runs (EXPERIMENTS.md) win all five.
    for scenario in scenarios:
        assert rel[scenario] >= 0.93, scenario
    mean_rel = sum(rel.values()) / len(rel)
    assert mean_rel >= 1.0
    # The win exists somewhere with meaningful margin (paper: 11-64%).
    assert max(rel.values()) > 1.05

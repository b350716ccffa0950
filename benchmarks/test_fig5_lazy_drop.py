"""Bench: Figure 5 -- lazy dropping bad rate vs alpha."""

from paper_shape_report import report

from repro.experiments import fig5


def test_fig5_lazy_drop(benchmark):
    result = benchmark(lambda: fig5.run(duration_ms=30_000.0))
    report(result)

    poisson = {r[0]: r[3] for r in result.rows if r[2] == "poisson"}
    uniform = {r[0]: r[3] for r in result.rows if r[2] == "uniform"}
    # Paper's shape: Poisson bad rate is tens of percent at alpha=1.0 and
    # near zero at 1.8; uniform stays near zero throughout.
    assert poisson[1.0] > 0.10
    assert poisson[1.8] < 0.05
    assert poisson[1.0] > 5 * poisson[1.8]
    assert all(v < 0.02 for v in uniform.values())

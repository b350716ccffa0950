"""Bench: section 7.4 -- utilization vs the theoretical lower bound."""

from paper_shape_report import report

from repro.experiments import utilization


def test_utilization_bound(benchmark):
    result = benchmark(lambda: utilization.run(duration_ms=20_000.0))
    report(result)

    rows = {r[0]: r[1] for r in result.rows}
    # Paper: 84% of the aggressive theoretical lower bound, bad rate < 1%.
    assert rows["efficiency"] > 0.6
    assert rows["efficiency"] <= 1.0
    assert rows["request_bad_rate"] < 0.02
    assert rows["gpus_used"] >= rows["lower_bound_gpus"]

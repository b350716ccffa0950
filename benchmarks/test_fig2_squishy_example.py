"""Bench: Table 2 / Figure 2 -- the squishy-packing worked example."""

from paper_shape_report import report

from repro.experiments import fig2


def test_fig2_squishy_example(benchmark):
    result = benchmark(fig2.run)
    report(result)

    saturate = {r[1]: r for r in result.rows if r[0] == "saturate"}
    # Paper: peak throughputs 160 / 128 / 128 req/s at batch 16.
    assert saturate["A"][6] == 160.0
    assert saturate["B"][6] == 128.0
    assert saturate["C"][6] == 128.0
    assert all(saturate[m][3] == 16 for m in "ABC")

    residual = [r for r in result.rows if r[0] == "residual"]
    # Two GPUs; A+B co-located in a 125 ms duty cycle, C alone.
    assert len(residual) == 2
    shared = next(r for r in residual if "+" in r[2])
    assert shared[2] == "A+B"
    assert shared[3] == "8+4"
    assert shared[4] == 125.0
    solo = next(r for r in residual if "+" not in r[2])
    assert solo[2] == "C"

"""Bench: Table 1 -- device latencies and $ per 1000 invocations."""

from paper_shape_report import report

from repro.experiments import table1


def test_table1_device_costs(benchmark):
    result = benchmark(table1.run)
    report(result)

    rows = {r[0]: r for r in result.rows}
    # CPU latencies are orders of magnitude above GPU, and ordered by size.
    cpu = [rows[m][1] for m in table1.MODELS]
    gpu = [rows[m][2] for m in table1.MODELS]
    assert cpu == sorted(cpu)
    assert all(c > 10 * g for c, g in zip(cpu[2:], gpu[2:]))
    # Accelerator cost advantage: CPU >> TPU >= GPU per invocation.
    for m in ("resnet50", "inception_v4", "darknet53"):
        _, _, _, cpu_cost, tpu_cost, gpu_cost = rows[m]
        assert cpu_cost > 5 * tpu_cost > 0
        assert tpu_cost >= gpu_cost

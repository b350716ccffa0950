"""Bench: Figure 15 -- prefix batching throughput and memory."""

from paper_shape_report import report

from repro.experiments import fig15


def test_fig15_prefix_batching(benchmark):
    result = benchmark(fig15.run)
    report(result)

    by_k = {r[0]: r for r in result.rows}
    # Throughput: prefix batching's advantage grows with variant count,
    # reaching ~2x at 10 variants (paper: "up to 110% higher").
    assert by_k[10][3] > 1.8
    assert by_k[10][3] > by_k[4][3]
    # Without PB, aggregate throughput decays as variants multiply.
    assert by_k[10][1] < by_k[2][1]
    # With PB it holds steady.
    assert by_k[10][2] >= by_k[2][2] * 0.95

    # Memory: full variants grow linearly; 1-FC suffixes stay near-flat;
    # deeper suffixes grow faster than 1-FC but far below full copies.
    assert by_k[10][4] > 4.5 * by_k[2][4]
    assert by_k[10][5] < by_k[2][5] * 2.0
    assert by_k[10][7] > by_k[10][5]
    assert by_k[10][7] < by_k[10][4] / 2

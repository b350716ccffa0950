"""Bench: Figure 10 -- game analysis case study (scaled down)."""

from paper_shape_report import report

from repro.experiments import fig10


def test_fig10_game_ablation(benchmark):
    result = benchmark.pedantic(
        lambda: fig10.run(duration_ms=6_000.0, iterations=7),
        rounds=1, iterations=1,
    )
    report(result)

    rps = {r[0]: r[1] for r in result.rows}
    # Paper: Nexus 9.4x Clipper / 12.7x TF (ours ~3.4x/6x -- our icon-only
    # baselines are stronger); OL dominates the ablation (tight SLO +
    # small models); -PB costs ~1.7x; -SS and -ED are small.
    assert rps["nexus"] > 1.8 * rps["tf_serving"]
    assert rps["nexus"] > 3 * rps["clipper"]
    assert rps["nexus"] > 3 * rps["-OL"]
    assert rps["nexus"] > 1.15 * rps["-PB"]
    assert rps["-OL"] < min(rps["-PB"], rps["-SS"], rps["-ED"])
    # -ED's hit varies with measurement-window length (lazy drop's spiral
    # bites harder in short windows): accept anywhere in the paper-to-ours
    # band below full Nexus.
    assert 0.45 * rps["nexus"] <= rps["-ED"] <= 1.05 * rps["nexus"]
    assert rps["-SS"] > 0.7 * rps["nexus"]

"""Tests for the baseline schedulers and system configurations."""

import hashlib

import pytest

from repro.baselines import (
    CLIPPER_INTERFERENCE,
    batch_oblivious_plan,
    clipper_config,
    tf_serving_config,
)
from repro.cluster.nexus import ClusterConfig, equivalence_report
from repro.core.profile import LinearProfile
from repro.core.session import Session, SessionLoad
from repro.core.squishy import squishy_bin_packing
from repro.experiments.fig14 import (
    _nexus_parallel_config,
    make_multiplex_cluster,
)


def load(name, slo, rate, alpha=1.0, beta=10.0):
    return SessionLoad(
        Session(name, slo), rate,
        LinearProfile(name=name, alpha=alpha, beta=beta, max_batch=64),
    )


class TestBatchObliviousPlan:
    def test_capacity_covers_demand(self):
        loads = [load("a", 200.0, 300.0), load("b", 150.0, 100.0)]
        plan = batch_oblivious_plan(loads)
        for l in loads:
            assert plan.capacity_rps(l.session_id) >= l.rate_rps * 0.95

    def test_spreads_over_given_cluster(self):
        loads = [load("a", 200.0, 50.0), load("b", 150.0, 50.0)]
        plan = batch_oblivious_plan(loads, num_gpus=8)
        assert plan.num_gpus == 8

    def test_share_proportional_to_demand(self):
        heavy = load("heavy", 200.0, 800.0)
        light = load("light", 200.0, 100.0)
        plan = batch_oblivious_plan([heavy, light], num_gpus=9)
        heavy_gpus = sum(
            1 for g in plan.gpus if "heavy@200ms" in g.session_ids()
        )
        light_gpus = sum(
            1 for g in plan.gpus if "light@200ms" in g.session_ids()
        )
        assert heavy_gpus > 3 * light_gpus

    def test_can_be_latency_infeasible(self):
        """The point of the baseline: co-location ignores latency
        interactions, so some plans violate SLOs that squishy would not."""
        loads = [load(f"s{i}", 120.0, 30.0, alpha=1.0, beta=25.0)
                 for i in range(6)]
        oblivious = batch_oblivious_plan(loads, num_gpus=2)
        squishy = squishy_bin_packing(loads)
        assert not squishy.validate()
        # Oblivious packs 6 solo-batch sessions into 2 GPUs: worst-case
        # latency (sum of co-resident batches + own) breaks the SLO.
        assert oblivious.validate()

    def test_infeasible_sessions_reported(self):
        bad = load("bad", 10.0, 5.0, alpha=10.0, beta=50.0)
        plan = batch_oblivious_plan([bad])
        assert [l.session_id for l in plan.infeasible] == ["bad@10ms"]

    def test_empty(self):
        assert batch_oblivious_plan([]).num_gpus == 0

    def test_zero_rate_ignored(self):
        plan = batch_oblivious_plan([load("a", 200.0, 0.0)])
        assert plan.num_gpus == 0


class TestBaselineConfigs:
    def test_clipper_profile(self):
        cfg = clipper_config(max_gpus=4)
        assert cfg.scheduler == "batch_oblivious"
        assert cfg.pacing == "greedy"
        assert cfg.drop_policy == "lazy"
        assert not cfg.overlap
        assert not cfg.prefix_batching
        assert not cfg.query_analysis
        assert cfg.interference_factor == CLIPPER_INTERFERENCE
        assert cfg.max_gpus == 4

    def test_tf_serving_profile(self):
        cfg = tf_serving_config(max_gpus=4)
        assert cfg.scheduler == "batch_oblivious"
        assert cfg.pacing == "round_robin"
        assert cfg.drop_policy == "lazy"
        assert not cfg.overlap
        assert cfg.interference_factor == 0.0

    def test_configs_differ_in_interference(self):
        assert clipper_config().interference_factor > \
            tf_serving_config().interference_factor


#: sha256 of ``equivalence_report`` for three Inception copies sharing
#: one GPU at 150 r/s with a 100 ms SLO for 2 s (fig14's workload), one
#: per execution discipline: greedy + interference (Clipper), unpaced
#: round robin (TF Serving), greedy without the container penalty
#: (Nexus-parallel) and duty-cycle pacing (Nexus).
_PACING_RUNS = {
    "clipper": (
        lambda: clipper_config(max_gpus=1),
        "becdb39f3e8527f1cd0463bce4de41825b43e9a16219d914a84de48a6b1d8fa9",
    ),
    "tf_serving": (
        lambda: tf_serving_config(max_gpus=1),
        "54bebfdfe346e3b97308c07facee8737bda1106288d8fd536a162097305f9b36",
    ),
    "nexus_parallel": (
        lambda: _nexus_parallel_config("gtx1080ti"),
        "2f25135c44e636ea5afaebfc5f844a89886e79b6787273dd35843186eb32c925",
    ),
    "nexus": (
        lambda: ClusterConfig(max_gpus=1),
        "f4a931f12b554ee04f23269487885c747fc8be949245ae7711716a6f418f5830",
    ),
}


@pytest.mark.parametrize("system", sorted(_PACING_RUNS))
def test_pacing_runs_are_pinned(system):
    make_config, digest = _PACING_RUNS[system]
    cluster = make_multiplex_cluster(make_config(), 150.0, 3, 100.0)
    report = equivalence_report(cluster.run(2_000.0))
    assert hashlib.sha256(report.encode()).hexdigest() == digest

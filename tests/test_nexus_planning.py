"""Focused tests for NexusCluster's planning internals."""

import math

import pytest

from repro.cluster.nexus import ClusterConfig, ClusterResult, NexusCluster
from repro.core.profile import EffectiveProfile, LinearProfile
from repro.core.query import Query, QueryStage
from repro.metrics.collector import MetricsCollector
from repro.core.squishy import SchedulePlan
from repro.workloads.apps import traffic_query


def cluster_with(rate=100.0, **kw):
    cfg = ClusterConfig(device="gtx1080ti", max_gpus=8, **kw)
    c = NexusCluster(cfg)
    c.add_query(traffic_query(cfg.device), rate_rps=rate)
    return c


class TestEffectiveWrapping:
    def test_loads_are_effective_profiles(self):
        c = cluster_with()
        loads = c.build_session_loads()
        assert all(isinstance(l.profile, EffectiveProfile) for l in loads)

    def test_overlap_flag_propagates(self):
        on = cluster_with(overlap=True).build_session_loads()
        off = cluster_with(overlap=False).build_session_loads()
        by_id_on = {l.session_id: l for l in on}
        for l in off:
            assert l.profile.latency(4) >= \
                by_id_on[l.session_id].profile.latency(4) - 1e-9

    def test_effective_query_clones_structure(self):
        c = cluster_with()
        q = traffic_query("gtx1080ti")
        eff = c._effective_query(q)
        assert eff.stage_names() == q.stage_names()
        assert eff is not q
        # Original untouched; clone wrapped.
        assert not isinstance(q.root.profile, EffectiveProfile)
        assert isinstance(eff.root.profile, EffectiveProfile)

    def test_margin_fallback_for_tight_sessions(self):
        """Sessions that cannot afford the planning margin keep the full
        SLO instead of being declared infeasible."""
        cfg = ClusterConfig(device="gtx1080ti", max_gpus=4, slo_margin=0.1)
        c = NexusCluster(cfg)
        slow = LinearProfile(name="slow", alpha=5.0, beta=41.0, max_batch=32)
        # 2*l(1) = 92 > 100*(1-0.1) = 90 -> margin unaffordable.
        stage = QueryStage("s", slow, model_id="slow")
        c.add_query(Query("tight", stage, slo_ms=100.0), rate_rps=10.0)
        loads = c.build_session_loads()
        assert loads[0].slo_ms == pytest.approx(100.0)


class TestShrinkAndExpand:
    def test_shrink_keeps_all_sessions_served(self):
        """Over-capped demand sheds proportionally: every session retains
        a nonzero capacity share instead of losing whole nodes."""
        c = cluster_with(rate=5_000.0, expand_to_cluster=False)
        plan = c.plan()
        assert plan.num_gpus <= 8
        for load in c._session_loads:
            assert plan.capacity_rps(load.session_id) > 0

    def test_expand_scales_capacity_not_sessions(self):
        small = cluster_with(rate=30.0, expand_to_cluster=False)
        small_plan = small.plan()
        big = cluster_with(rate=30.0)
        big_plan = big.plan()
        assert big_plan.num_gpus == 8
        for load in big._session_loads:
            assert (big_plan.capacity_rps(load.session_id)
                    >= small_plan.capacity_rps(load.session_id) * 0.99)

    def test_dynamic_mode_never_expands(self):
        c = cluster_with(rate=30.0, dynamic=True)
        assert c.plan().num_gpus < 8


class TestQaGuard:
    def test_qa_adopted_only_with_predicted_savings(self):
        """With flat cost surfaces the even split is kept (same budgets)."""
        cfg = ClusterConfig(device="gtx1080ti", max_gpus=8)
        c = NexusCluster(cfg)
        # Two identical cheap stages: DP cannot beat even split by >=3%.
        p = LinearProfile(name="p", alpha=0.05, beta=0.5, max_batch=256)
        root = QueryStage("a", p, model_id="p1")
        root.add_child(QueryStage("b", p, gamma=1.0, model_id="p2"))
        c.add_query(Query("flat", root, slo_ms=200.0), rate_rps=50.0)
        c.build_session_loads()
        budgets = c._splits["flat"]
        assert budgets["a"] == pytest.approx(100.0)
        assert budgets["b"] == pytest.approx(100.0)


class TestPrefixFusion:
    def test_fused_slo_is_never_looser_than_a_members(self):
        """The fusion key rounds the SLO to 0.1 ms; a budget of 500/3 ms
        rounds *up* to 166.7, which the fused session used to plan at."""
        from repro.models.profiler import profile

        cfg = ClusterConfig(device="gtx1080ti", query_analysis=False,
                            expand_to_cluster=False)
        c = NexusCluster(cfg)

        def stage(name, model_id):
            return QueryStage(name, profile(model_id, cfg.device),
                              model_id=model_id)

        for i in range(2):
            root = stage("det", "ssd_vgg")
            mid = root.add_child(stage("mid", f"mobilenet_v1@q{i}:2"))
            mid.add_child(stage("leaf", f"lenet5@q{i}:11"))
            c.add_query(Query(f"q{i}", root, slo_ms=500.0), rate_rps=20.0)
        loads = {load.session_id: load for load in c.build_session_loads()}
        budget = c._splits["q0"]["mid"]
        assert budget == 500.0 / 3 and round(budget, 1) > budget
        fused = [sid for sid in loads if sid.startswith("pb:")]
        assert sorted(fused) == ["pb:lenet5@166.7ms#2",
                                 "pb:mobilenet_v1@166.7ms#2"]
        for sid in fused:
            members = [m for m, f in c._aliases.items() if f == sid]
            tightest = min(c._splits[m.split("/")[0]][m.split("/")[1]]
                           for m in members)
            assert loads[sid].slo_ms <= (1.0 - cfg.slo_margin) * tightest


class TestClusterResult:
    def test_goodput_and_rates(self):
        qm = MetricsCollector()
        from repro.metrics.collector import RequestRecord

        qm.record(RequestRecord(1, "q", 0.0, 100.0, 50.0))
        qm.record(RequestRecord(2, "q", 10.0, 110.0, None, dropped=True))
        res = ClusterResult(
            query_metrics=qm,
            invocation_metrics=MetricsCollector(),
            plan=SchedulePlan(gpus=[]),
            gpus_used=2,
            duration_ms=1_000.0,
        )
        assert res.good_rate == 0.5
        assert res.bad_rate == 0.5
        assert res.goodput_rps() == pytest.approx(1.0)

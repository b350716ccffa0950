"""Focused tests for NexusCluster's planning internals."""

import math
from dataclasses import replace

import pytest

from repro.cluster.nexus import AppSpec, ClusterConfig, ClusterResult, NexusCluster
from repro.core import squishy
from repro.core.profile import EffectiveProfile, LinearProfile
from repro.core.query import Query, QueryStage
from repro.metrics.collector import MetricsCollector
from repro.core.squishy import SchedulePlan
from repro.serving.runtime import single_model_query
from repro.workloads.apps import all_apps, traffic_query


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

    def test_expand_keeps_the_last_doubling_that_fits(self):
        """Two saturated GPUs in a 4-GPU cluster: scale 2 fills it exactly
        and every bisection midpoint above it overflows, so the scale-2
        plan is the answer, not the unscaled one."""
        from repro.core import Session, SessionLoad

        prof = LinearProfile(name="p", alpha=1.0, beta=10.0, max_batch=64)
        load = SessionLoad(Session("p", 100.0), 1_600.0, prof)
        plan = squishy.squishy_bin_packing([load])
        assert plan.num_gpus == 2
        expanded = NexusCluster._expand([load], plan, None, 4)
        assert expanded.num_gpus == 4
        assert expanded.capacity_rps(load.session_id) > plan.capacity_rps(
            load.session_id)

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
        budgets = c.splits["flat"]
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
        budget = c.splits["q0"]["mid"]
        assert budget == 500.0 / 3 and round(budget, 1) > budget
        fused = [sid for sid in loads if sid.startswith("pb:")]
        assert sorted(fused) == ["pb:lenet5@166.7ms#2",
                                 "pb:mobilenet_v1@166.7ms#2"]
        for sid in fused:
            members = [m for m, f in c.aliases.items() if f == sid]
            tightest = min(c.splits[m.split("/")[0]][m.split("/")[1]]
                           for m in members)
            assert loads[sid].slo_ms <= (1.0 - cfg.slo_margin) * tightest


def _small_fleet(**kw):
    cfg = ClusterConfig(device="gtx1080ti", expand_to_cluster=False, **kw)
    cluster = NexusCluster(cfg)
    for i, query in enumerate(all_apps("gtx1080ti", num_games=3)):
        cluster.add_query(query, 20.0 + 5.0 * (i % 4), "poisson")
    return cluster


_RATES = {"traffic0": 31.0, "bb": 12.5, "game1": 44.0, "logo": 9.0}


def _planned(cluster):
    """Splits and node-for-node plan, node ids relative to the plan's
    first (the counter is process-wide)."""
    first = squishy._next_node_id()
    plan = cluster.plan(_RATES)
    return (
        {name: dict(budgets) for name, budgets in cluster.splits.items()},
        sorted(cluster._child_sessions),
        [(gpu.node_id - first, gpu.duty_cycle_ms,
          [(a.session_id, a.batch, a.load.rate_rps, a.load.slo_ms, a.exec_ms)
           for a in gpu.allocations])
         for gpu in plan.gpus],
    )


def _fresh_plan(cluster):
    """The plan a cluster that never planned before emits for the same
    apps and config."""
    fresh = NexusCluster(replace(cluster.config))
    for app in cluster.apps:
        fresh.add_app(AppSpec(app.query, app.rate_rps, app.arrival))
    return _planned(fresh)


class TestPerAppSplitsAreRecomputedWhenTheirInputsChange:
    """Each app's rate-free split inputs are computed once; a replaced
    app or query, a new app or a flipped config field must never plan
    from a stale entry."""

    def test_a_replaced_app_rereads_its_query(self):
        cluster = _small_fleet()
        before = _planned(cluster)
        old = cluster.apps[1]
        old.query.slo_ms *= 0.6    # in place: only the AppSpec is new
        cluster.apps[1] = AppSpec(old.query, old.rate_rps, old.arrival)
        after = _planned(cluster)
        assert after != before
        assert after == _fresh_plan(cluster)

    def test_a_query_replaced_on_the_same_app(self):
        cluster = _small_fleet()
        before = _planned(cluster)
        app = cluster.apps[0]
        app.query = Query(app.query.name, app.query.root,
                          app.query.slo_ms * 0.6)
        after = _planned(cluster)
        assert after != before
        assert after == _fresh_plan(cluster)

    def test_an_app_added_after_a_plan(self):
        cluster = _small_fleet()
        before = _planned(cluster)
        cluster.add_query(traffic_query(slo_ms=300.0, stream_id=7), 18.0)
        after = _planned(cluster)
        assert after != before and "traffic7" in after[0]
        assert after == _fresh_plan(cluster)

    @pytest.mark.parametrize("field, value", [
        ("overlap", False),
        ("query_analysis", False),
        ("slo_margin", 0.2),
    ])
    def test_a_config_field_flipped_between_plans(self, field, value):
        cluster = _small_fleet()
        before = _planned(cluster)
        default = getattr(cluster.config, field)
        setattr(cluster.config, field, value)
        flipped = _planned(cluster)
        assert flipped != before
        assert flipped == _fresh_plan(cluster)
        setattr(cluster.config, field, default)
        assert _planned(cluster) == before


class TestAppNames:
    """An app's name keys its latency split, its session ids and its
    arrival counter, so the planner holds each name once."""

    def test_a_taken_name_is_refused(self):
        cfg = ClusterConfig(device="gtx1080ti", max_gpus=4)
        cluster = NexusCluster(cfg)
        cluster.add_query(
            single_model_query("lenet5", 50.0, cfg.device), 100.0,
        )
        with pytest.raises(ValueError, match="already registered"):
            cluster.add_app(AppSpec(
                single_model_query("lenet5", 20.0, cfg.device), 5_000.0,
            ))
        assert [a.rate_rps for a in cluster.apps] == [100.0]
        loads = cluster.build_session_loads()
        assert [l.session_id for l in loads] == ["lenet5/lenet5"]


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

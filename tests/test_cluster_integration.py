"""Integration tests: the full NexusCluster pipeline end to end."""

import functools

import pytest

from repro.baselines import clipper_config, tf_serving_config
from repro.cluster.faults import FaultPlan
from repro.cluster.nexus import (
    AppSpec,
    ClusterConfig,
    ClusterResult,
    NexusCluster,
    equivalence_report,
)
from repro.cluster import nexus
from repro.cluster.frontend import Frontend
from repro.simulation.simulator import Simulator
from repro.workloads.apps import (
    all_apps,
    bb_query,
    dance_query,
    game_queries,
    traffic_query,
)
from repro.workloads.arrivals import uniform_arrivals, zipf_rates


def simple_cluster(rate=100.0, **config_kw) -> NexusCluster:
    cfg = ClusterConfig(device="gtx1080ti", max_gpus=8, **config_kw)
    cluster = NexusCluster(cfg)
    cluster.add_query(traffic_query(cfg.device), rate_rps=rate)
    return cluster


def game_cluster(dynamic: bool = False) -> NexusCluster:
    """Four game apps whose specialized models fuse into prefix groups."""
    cfg = ClusterConfig(
        device="gtx1080ti", max_gpus=16, dynamic=dynamic, epoch_ms=2_000.0
    )
    cluster = NexusCluster(cfg)
    for q, r in zip(game_queries(cfg.device, 4), zipf_rates(120, 4)):
        cluster.add_query(q, rate_rps=r)
    return cluster


def three_app_cluster(summary_metrics: bool = False) -> NexusCluster:
    cfg = ClusterConfig(device="gtx1080ti", max_gpus=48, epoch_ms=3_000.0,
                        summary_metrics=summary_metrics)
    cluster = NexusCluster(cfg)
    cluster.add_query(traffic_query(cfg.device), rate_rps=300.0)
    cluster.add_query(dance_query(cfg.device), rate_rps=250.0)
    cluster.add_query(bb_query(cfg.device), rate_rps=200.0)
    return cluster


# The scenario runners pass ``run_kw`` (e.g. ``trace=True``) through to
# NexusCluster.run.
def run_static_warmup(**run_kw):
    return simple_cluster(rate=80.0).run(8_000.0, warmup_ms=1_000.0, **run_kw)


def run_prefix_fused(**run_kw):
    return game_cluster().run(6_000.0, **run_kw)


def run_dynamic_replanning(**run_kw):
    return game_cluster(dynamic=True).run(8_000.0, **run_kw)


def run_crash_and_recovery(summary_metrics=False, **run_kw):
    faults = FaultPlan()
    faults.crash(2_500.0, 1)
    faults.crash(4_000.0, 0, recover_after_ms=3_000.0)
    return three_app_cluster(summary_metrics).run(
        10_000.0, faults=faults, **run_kw
    )


class TestPlanning:
    def test_plan_covers_demand(self):
        cluster = simple_cluster(rate=100.0)
        plan = cluster.plan()
        assert plan.num_gpus >= 1
        assert not plan.validate()
        for load in cluster._session_loads:
            assert plan.capacity_rps(load.session_id) >= load.rate_rps * 0.999

    def test_expand_fills_fixed_cluster(self):
        cluster = simple_cluster(rate=50.0)
        plan = cluster.plan()
        assert plan.num_gpus == 8  # expand_to_cluster default

    def test_no_expansion_when_disabled(self):
        cluster = simple_cluster(rate=50.0, expand_to_cluster=False)
        assert cluster.plan().num_gpus < 8

    def test_qa_vs_even_split_budgets(self):
        qa = simple_cluster(rate=100.0)
        qa.plan()
        even = simple_cluster(rate=100.0, query_analysis=False)
        even.plan()
        # Even split gives every stage SLO/depth; QA adapts.
        assert even.splits["traffic0"]["ssd"] == pytest.approx(200.0)
        assert qa.splits["traffic0"]["ssd"] != pytest.approx(200.0)

    def test_prefix_fusion_creates_aliases(self):
        cfg = ClusterConfig(device="gtx1080ti", max_gpus=8)
        cluster = NexusCluster(cfg)
        for q, r in zip(game_queries(cfg.device, 4), zipf_rates(100, 4)):
            cluster.add_query(q, rate_rps=r)
        cluster.plan()
        assert len(cluster.aliases) == 8  # 4 icons + 4 digit sessions
        fused_ids = set(cluster.aliases.values())
        assert len(fused_ids) == 2  # one resnet group, one lenet group

    def test_prefix_fusion_disabled(self):
        cfg = ClusterConfig(device="gtx1080ti", max_gpus=8,
                            prefix_batching=False)
        cluster = NexusCluster(cfg)
        for q, r in zip(game_queries(cfg.device, 4), zipf_rates(100, 4)):
            cluster.add_query(q, rate_rps=r)
        cluster.plan()
        assert cluster.aliases == {}

    def test_unknown_scheduler_rejected(self):
        cluster = simple_cluster(scheduler="magic")
        with pytest.raises(ValueError):
            cluster.plan()


class TestServing:
    def test_underload_serves_everything(self):
        res = simple_cluster(rate=80.0).run(8_000.0, 1_000.0)
        assert res.good_rate > 0.99
        assert res.query_metrics.total > 400

    def test_massive_overload_fails_gracefully(self):
        cluster = simple_cluster(rate=50.0, expand_to_cluster=False)
        # Offer 40x the planned rate: drops, not crashes.
        cluster.apps[0] = AppSpec(cluster.apps[0].query, 50.0)
        cluster.apps[0].rate_rps = 50.0
        res = cluster.run(5_000.0)
        assert res.query_metrics.total > 0

    def test_determinism(self):
        a = simple_cluster(rate=150.0, seed=3).run(6_000.0, 1_000.0)
        b = simple_cluster(rate=150.0, seed=3).run(6_000.0, 1_000.0)
        assert a.good_rate == b.good_rate
        assert a.query_metrics.total == b.query_metrics.total
        assert equivalence_report(a) == equivalence_report(b)

    @pytest.mark.parametrize("scenario, did_work", [
        pytest.param(run_static_warmup,
                     lambda r: r.query_metrics.total > 400,
                     id="static-warmup"),
        pytest.param(run_prefix_fused,
                     lambda r: r.query_metrics.total > 400,
                     id="prefix-fused"),
        pytest.param(run_dynamic_replanning,
                     lambda r: r.epochs >= 2,
                     id="dynamic-replanning"),
        pytest.param(run_crash_and_recovery,
                     # crash, crash, recover; both crashes declared
                     lambda r: len(r.fault_log) == 3 and len(r.detections) == 2,
                     id="crash-recovery"),
    ])
    def test_determinism_scenario(self, scenario, did_work):
        a, b = scenario(), scenario()
        assert did_work(a)
        assert equivalence_report(a) == equivalence_report(b)

    def test_equivalence_report_sees_summary_latencies(self):
        """Summary-mode collectors retain no records; the digest still
        tells apart two runs whose counters match but latencies differ."""
        from repro.core.squishy import SchedulePlan
        from repro.metrics.collector import MetricsCollector, RequestRecord

        def result(latency_ms):
            folded = MetricsCollector(keep_records=False)
            folded.record(RequestRecord(1, "s", 0.0, 100.0, latency_ms))
            return ClusterResult(
                query_metrics=folded,
                invocation_metrics=MetricsCollector(keep_records=False),
                plan=SchedulePlan(gpus=[]), gpus_used=0, duration_ms=100.0,
            )

        fast, slow = result(10.0), result(50.0)
        assert (fast.query_metrics.per_session_stats()
                == slow.query_metrics.per_session_stats())
        assert equivalence_report(fast) != equivalence_report(slow)
        assert equivalence_report(fast) == equivalence_report(result(10.0))

    def test_epoch_count_resets_between_runs(self):
        cluster = simple_cluster(rate=80.0, dynamic=True, epoch_ms=1_000.0)
        assert cluster.run(4_000.0).epochs >= 2
        cluster.config.dynamic = False
        assert cluster.run(2_000.0).epochs == 0

    def test_seed_changes_fanout_sampling(self):
        a = simple_cluster(rate=150.0, seed=3).run(6_000.0, 1_000.0)
        b = simple_cluster(rate=150.0, seed=4).run(6_000.0, 1_000.0)
        assert (a.invocation_metrics.total != b.invocation_metrics.total
                or a.good_rate != b.good_rate)

    def test_warmup_excluded(self):
        res = simple_cluster(rate=100.0).run(8_000.0, warmup_ms=4_000.0)
        assert all(r.arrival_ms >= 4_000.0
                   for r in res.query_metrics.records)

    def test_summary_metrics_honor_warmup(self):
        """Warm-up is a record-time filter, so summary mode counts exactly
        the queries a records-kept run of the same seed keeps."""
        kept = simple_cluster(rate=120.0, seed=5).run(6_000.0, warmup_ms=2_000.0)
        folded = simple_cluster(
            rate=120.0, seed=5, summary_metrics=True
        ).run(6_000.0, warmup_ms=2_000.0)
        k, f = kept.query_metrics, folded.query_metrics
        assert not f.keep_records and f.records == []
        assert k.total > 400
        assert min(r.arrival_ms for r in k.records) >= 2_000.0
        assert (f.total, f.ok_count, f.dropped_count, f.late_count) == (
            k.total, k.ok_count, k.dropped_count, k.late_count
        )
        assert f.per_session_stats() == k.per_session_stats()
        assert folded.duration_ms == kept.duration_ms == 4_000.0

    def test_poisson_arrivals_supported(self):
        cfg = ClusterConfig(device="gtx1080ti", max_gpus=8)
        cluster = NexusCluster(cfg)
        cluster.add_query(traffic_query(cfg.device), rate_rps=100.0,
                          arrival="poisson")
        res = cluster.run(8_000.0, 1_000.0)
        assert res.good_rate > 0.9

    def test_empty_cluster_runs(self):
        cluster = NexusCluster(ClusterConfig(max_gpus=2))
        res = cluster.run(1_000.0)
        assert res.query_metrics.total == 0

    def test_traced_busy_time_matches_collector(self):
        """The trace's GPU busy intervals and the collector's utilization
        accounting are two views of the same event stream: per-GPU busy
        milliseconds must agree to within 1%."""
        from repro.observability import gpu_busy_ms

        res = simple_cluster(rate=120.0).run(6_000.0, trace=True)
        traced = gpu_busy_ms(res.trace)
        recorded = res.invocation_metrics.gpu_busy_ms
        assert set(traced) == {g for g, ms in recorded.items() if ms > 0}
        for gpu, ms in traced.items():
            assert ms == pytest.approx(recorded[gpu], rel=0.01)


class TestArrivalStream:
    """Every app's arrivals flow through one self-re-arming event."""

    def test_heap_depth_tracks_backends_not_arrivals(self, monkeypatch):
        peak = [0]
        schedule_at = Simulator.schedule_at

        def tracked(self, time_ms, fn, priority=0):
            handle = schedule_at(self, time_ms, fn, priority)
            peak[0] = max(peak[0], len(self._heap))
            return handle

        monkeypatch.setattr(Simulator, "schedule_at", tracked)
        queries = all_apps("gtx1080ti", num_games=4)
        cluster = NexusCluster(ClusterConfig(expand_to_cluster=False))
        for query in queries:
            cluster.add_query(query, 800.0 / len(queries), "poisson")
        res = cluster.run(8_000.0)
        # Pre-scheduling every arrival held ~6.3k entries here.
        assert res.query_metrics.total > 5_000
        assert peak[0] < 4 * res.gpus_used + len(queries)

    @pytest.mark.parametrize("first", [traffic_query, dance_query])
    def test_same_instant_arrivals_fire_in_app_order(self, monkeypatch, first):
        # Unjittered uniform streams at one rate give both apps exactly
        # the same arrival instants.
        monkeypatch.setattr(
            nexus, "uniform_arrivals",
            functools.partial(uniform_arrivals, jitter=0.0),
        )
        submitted = []
        submit_query = Frontend.submit_query

        def logged(self, query, *args, **kwargs):
            submitted.append((self.sim.now, query.name))
            return submit_query(self, query, *args, **kwargs)

        monkeypatch.setattr(Frontend, "submit_query", logged)
        second = dance_query if first is traffic_query else traffic_query
        cluster = NexusCluster(ClusterConfig(device="gtx1080ti", max_gpus=8))
        cluster.add_query(first("gtx1080ti"), rate_rps=40.0)
        cluster.add_query(second("gtx1080ti"), rate_rps=40.0)
        cluster.run(2_000.0)
        names = [app.query.name for app in cluster.apps]
        assert len(submitted) == 2 * 80
        for k in range(0, len(submitted), 2):
            (t0, a), (t1, b) = submitted[k], submitted[k + 1]
            assert t0 == t1 and [a, b] == names


class TestBaselineIntegration:
    def test_nexus_beats_baselines_on_game(self):
        """The headline ordering at a fixed rate (cheap spot check)."""
        def good_rate(cfg):
            cluster = NexusCluster(cfg)
            for q, r in zip(game_queries(cfg.device, 6),
                            zipf_rates(600.0, 6)):
                cluster.add_query(q, rate_rps=r)
            return cluster.run(6_000.0, 1_000.0).good_rate

        nexus = good_rate(ClusterConfig(device="gtx1080ti", max_gpus=8))
        clipper = good_rate(clipper_config(max_gpus=8))
        assert nexus > clipper

    def test_tf_serving_runs_clean_at_low_rate(self):
        cfg = tf_serving_config(max_gpus=8)
        cluster = NexusCluster(cfg)
        cluster.add_query(traffic_query(cfg.device), rate_rps=30.0)
        res = cluster.run(8_000.0, 1_000.0)
        assert res.good_rate > 0.95


class TestDynamicMode:
    def test_epochs_fire_and_adapt(self):
        cfg = ClusterConfig(
            device="gtx1080ti", max_gpus=16, dynamic=True,
            expand_to_cluster=False, epoch_ms=5_000.0,
        )
        cluster = NexusCluster(cfg)
        cluster.add_query(
            traffic_query(cfg.device), rate_rps=60.0,
            rate_fn=lambda t: 60.0 if t < 15_000.0 else 240.0,
        )
        res = cluster.run(30_000.0)
        assert res.epochs >= 4
        series = res.invocation_metrics.gpu_count_series(5_000.0, 30_000.0)
        assert max(series.values) > min(v for v in series.values if v > 0)


class TestDistributedFrontend:
    def test_multiple_frontends_serve_cleanly(self):
        res = simple_cluster(rate=120.0, num_frontends=4).run(8_000.0, 1_000.0)
        assert res.good_rate > 0.99
        assert res.query_metrics.total > 500

    def test_frontend_count_does_not_change_totals(self):
        one = simple_cluster(rate=100.0, num_frontends=1).run(6_000.0, 1_000.0)
        four = simple_cluster(rate=100.0, num_frontends=4).run(6_000.0, 1_000.0)
        assert one.query_metrics.total == four.query_metrics.total

    def test_dynamic_mode_aggregates_all_frontends(self):
        cfg = ClusterConfig(
            device="gtx1080ti", max_gpus=16, dynamic=True,
            expand_to_cluster=False, epoch_ms=5_000.0, num_frontends=3,
        )
        cluster = NexusCluster(cfg)
        cluster.add_query(traffic_query(cfg.device), rate_rps=100.0)
        res = cluster.run(20_000.0)
        # The control plane saw the full rate (not 1/3 of it), so the
        # deployment keeps serving well after the first re-plan.
        late = [r for r in res.query_metrics.records
                if r.arrival_ms > 10_000.0]
        good = sum(1 for r in late if r.ok) / max(len(late), 1)
        assert good > 0.95


class TestMaxRateSearch:
    def test_finds_a_sustainable_rate(self):
        from repro.experiments.common import max_rate_search

        def factory(rate):
            cfg = ClusterConfig(device="gtx1080ti", max_gpus=8)
            cluster = NexusCluster(cfg)
            cluster.add_query(traffic_query(cfg.device), rate_rps=rate)
            return cluster

        rate = max_rate_search(
            factory, lo_rps=10.0, hi_rps=400.0, iterations=3,
            duration_ms=3_000.0, warmup_ms=500.0,
        )
        assert 10.0 < rate < 400.0

    def test_returns_zero_when_even_floor_fails(self):
        from repro.experiments.common import max_rate_search

        def factory(rate):
            cfg = ClusterConfig(device="gtx1080ti", max_gpus=1,
                                expand_to_cluster=False)
            cluster = NexusCluster(cfg)
            cluster.add_query(traffic_query(cfg.device), rate_rps=5_000.0)
            return cluster

        rate = max_rate_search(factory, lo_rps=5_000.0, iterations=2,
                               duration_ms=2_000.0, warmup_ms=500.0)
        assert rate == 0.0


class TestModelLoadsAtClusterLevel:
    def test_static_deployment_absorbs_initial_loads(self):
        """Model loading delays the first batches, but a static plan's
        warmup absorbs it: steady-state goodput is unaffected."""
        res = simple_cluster(rate=100.0).run(8_000.0, warmup_ms=3_000.0)
        assert res.good_rate > 0.99

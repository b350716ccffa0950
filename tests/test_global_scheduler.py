"""Tests for the BackendPool: plan deployment with minimal churn."""

import pytest

from repro.cluster.frontend import RoutingTable
from repro.cluster.global_scheduler import BackendPool, PoolConfig, make_policy
from repro.core.drop import EarlyDropPolicy, LazyDropPolicy
from repro.core.profile import LinearProfile
from repro.core.session import Session, SessionLoad
from repro.core.squishy import Allocation, GpuPlan, SchedulePlan
from repro.metrics.collector import MetricsCollector
from repro.observability import Tracer
from repro.simulation.simulator import Simulator


def make_plan(session_specs):
    """session_specs: list of lists of (name, slo, rate, batch)."""
    gpus = []
    for gpu_specs in session_specs:
        allocs = []
        duty = 0.0
        for name, slo, rate, batch in gpu_specs:
            profile = LinearProfile(name=name, alpha=1.0, beta=5.0,
                                    max_batch=64)
            load = SessionLoad(Session(name, slo), rate, profile)
            allocs.append(Allocation(load, batch))
            duty += profile.latency(batch)
        gpus.append(GpuPlan(allocs, duty))
    return SchedulePlan(gpus=gpus)


def make_pool():
    sim = Simulator()
    routing = RoutingTable()
    pool = BackendPool(sim, routing, tracer=Tracer(invocation=MetricsCollector()))
    return sim, routing, pool


class TestMakePolicy:
    def test_early(self):
        p = make_policy("early", 8)
        assert isinstance(p, EarlyDropPolicy)
        assert p.target_batch == 8

    def test_lazy_capped(self):
        p = make_policy("lazy", 8)
        assert isinstance(p, LazyDropPolicy)
        assert p.batch_cap == 8

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_policy("yolo", 8)


class TestApplyPlan:
    def test_deploys_backends_and_routes(self):
        sim, routing, pool = make_pool()
        plan = make_plan([[("a", 200.0, 50.0, 8)], [("b", 300.0, 20.0, 4)]])
        pool.apply_plan(plan)
        assert pool.gpus_in_use == 2
        assert routing.pick("a@200ms") is not None
        assert routing.pick("b@300ms") is not None

    def test_routing_weights_follow_capacity(self):
        sim, routing, pool = make_pool()
        # a on two GPUs with different batch/duty -> different capacity.
        plan = make_plan([[("a", 200.0, 100.0, 16)],
                          [("a", 200.0, 25.0, 4)]])
        pool.apply_plan(plan)
        picks = [routing.pick("a@200ms") for _ in range(100)]
        counts = {b.gpu_id: picks.count(b) for b in set(picks)}
        # capacity ratio: 16/21 vs 4/9 per ms -> roughly 1.7:1
        ratio = max(counts.values()) / min(counts.values())
        assert 1.2 < ratio < 2.5

    def test_shrinking_plan_releases_backends(self):
        sim, routing, pool = make_pool()
        pool.apply_plan(make_plan([[("a", 200.0, 50.0, 8)],
                                   [("b", 300.0, 20.0, 4)]]))
        pool.apply_plan(make_plan([[("a", 200.0, 50.0, 8)]]))
        assert pool.gpus_in_use == 1
        assert routing.pick("b@300ms") is None

    def test_backend_reuse_by_session_overlap(self):
        sim, routing, pool = make_pool()
        pool.apply_plan(make_plan([[("a", 200.0, 50.0, 8)],
                                   [("b", 300.0, 20.0, 4)]]))
        a_backend = routing.pick("a@200ms")
        # Redeploy with sessions swapped in list order: 'a' should stay on
        # the backend that already hosts it.
        pool.apply_plan(make_plan([[("b", 300.0, 20.0, 4)],
                                   [("a", 200.0, 50.0, 8)]]))
        assert routing.pick("a@200ms") is a_backend

    def test_pool_config_propagates(self):
        sim = Simulator()
        routing = RoutingTable()
        pool = BackendPool(
            sim, routing,
            config=PoolConfig(pacing="greedy", overlap=False,
                              drop_policy="lazy", interference_factor=0.4),
        )
        pool.apply_plan(make_plan([[("a", 200.0, 50.0, 8)]]))
        backend = pool.backends[0]
        assert backend.pacing == "greedy"
        assert not backend.overlap
        assert backend.interference_factor == 0.4

    def test_unpaced_sessions_have_zero_duty(self):
        # TF Serving's round robin and Clipper's greedy dispatch both run
        # unpaced; only the backend's session order differs.
        for pacing, backend_pacing in (("round_robin", "cycle"),
                                       ("greedy", "greedy")):
            sim = Simulator()
            routing = RoutingTable()
            pool = BackendPool(sim, routing, config=PoolConfig(pacing=pacing))
            pool.apply_plan(make_plan([[("a", 200.0, 50.0, 8)]]))
            backend = pool.backends[0]
            assert backend.pacing == backend_pacing
            assert backend._sessions["a@200ms"].spec.duty_cycle_ms == 0.0

    def test_unknown_pacing_rejected(self):
        with pytest.raises(ValueError, match="pacing"):
            PoolConfig(pacing="chaotic")

    def test_paced_duty_capped_by_slo(self):
        sim, routing, pool = make_pool()
        # Plan with a duty cycle so long that duty + exec > slo; the pool
        # must cap the pacing interval at slo - exec.
        profile = LinearProfile(name="a", alpha=1.0, beta=5.0, max_batch=64)
        load = SessionLoad(Session("a", 100.0), 10.0, profile)
        plan = SchedulePlan(gpus=[GpuPlan([Allocation(load, 8)], 500.0)])
        pool.apply_plan(plan)
        state = pool.backends[0]._sessions["a@100ms"]
        assert state.spec.duty_cycle_ms == pytest.approx(100.0 - 13.0)

    def test_gpu_count_sampled(self):
        sim, routing, pool = make_pool()
        pool.apply_plan(make_plan([[("a", 200.0, 50.0, 8)]]))
        assert pool.tracer.invocation._gpu_count_samples[-1] == (0.0, 1)

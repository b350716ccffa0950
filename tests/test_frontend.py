"""Tests for the frontend: routing table and query orchestration."""

import pytest

from repro.cluster.backend import Backend, BackendSession
from repro.cluster.frontend import Frontend, RoutingTable
from repro.core.profile import LinearProfile
from repro.core.query import Query, QueryStage
from repro.metrics.collector import MetricsCollector
from repro.observability import TraceBuffer, Tracer, drop_reasons
from repro.observability.events import REQUEST_ADMITTED, ROUTE_FAILED
from repro.simulation.simulator import Simulator


def make_backend(sim, session_ids, alpha=1.0, beta=2.0, slo=200.0,
                 tracer=None):
    backend = Backend(sim, tracer=tracer)
    backend.set_schedule([
        BackendSession(
            session_id=sid,
            profile=LinearProfile(name=sid, alpha=alpha, beta=beta,
                                  max_batch=32),
            slo_ms=slo, target_batch=4, duty_cycle_ms=20.0,
        )
        for sid in session_ids
    ])
    return backend


def admitted(buffer):
    """Requests the frontend dispatched that a backend admitted."""
    return len(buffer.by_kind(REQUEST_ADMITTED))


class TestRoutingTable:
    def test_weighted_round_robin_shares(self):
        sim = Simulator()
        a = make_backend(sim, ["s"])
        b = make_backend(sim, ["s"])
        table = RoutingTable()
        table.set_routes("s", [(a, 3.0), (b, 1.0)])
        picks = [table.pick("s") for _ in range(400)]
        assert picks.count(a) == 300
        assert picks.count(b) == 100

    def test_unroutable_returns_none(self):
        table = RoutingTable()
        assert table.pick("nope") is None

    def test_zero_weight_routes_removed(self):
        sim = Simulator()
        a = make_backend(sim, ["s"])
        table = RoutingTable()
        table.set_routes("s", [(a, 1.0)])
        table.set_routes("s", [])
        assert table.pick("s") is None

    def test_alias_resolution(self):
        sim = Simulator()
        fused = make_backend(sim, ["pb:group"])
        table = RoutingTable()
        table.set_routes("pb:group", [(fused, 1.0)])
        table.set_alias("app/stage", "pb:group")
        assert table.pick("app/stage") is fused
        assert table.resolve("app/stage") == "pb:group"


class TestSingleRequests:
    def test_request_served_through_routing(self):
        sim = Simulator()
        backend = make_backend(sim, ["m"])
        table = RoutingTable()
        table.set_routes("m", [(backend, 1.0)])
        frontend = Frontend(sim, table)
        done = []
        sim.schedule(1.0, lambda: frontend.submit_request(
            "m", 100.0, on_complete=lambda r, t, ok: done.append(ok)))
        sim.run()
        assert done == [True]

    def test_unroutable_request_dropped(self):
        sim = Simulator()
        buffer = TraceBuffer()
        frontend = Frontend(sim, RoutingTable(), tracer=Tracer([buffer]))
        dropped = []
        ok = frontend.submit_request("ghost", 100.0,
                                     on_drop=lambda r, t: dropped.append(t))
        assert not ok
        assert dropped == [0.0]
        assert len(buffer.by_kind(ROUTE_FAILED)) == 1

    def test_unroutable_drops_reach_collector_and_stream(self):
        """Both unroutable paths -- a single request and a query stage --
        record an ``unroutable`` drop, not just a ``route.failed``."""
        sim = Simulator()
        collector = MetricsCollector()
        buffer = TraceBuffer()
        frontend = Frontend(sim, RoutingTable(),
                            tracer=Tracer([buffer], invocation=collector))
        assert not frontend.submit_request("ghost", 100.0)
        assert drop_reasons(buffer.events) == {"unroutable": 1}
        assert collector.dropped_count == 1

        frontend.submit_query(two_stage_query())
        assert drop_reasons(buffer.events) == {"unroutable": 2}
        assert collector.dropped_count == 2
        assert len(buffer.by_kind(ROUTE_FAILED)) == 2

    def test_counters_accumulate_and_reset(self):
        sim = Simulator()
        buffer = TraceBuffer()
        backend = make_backend(sim, ["app/det", "app/rec"],
                               tracer=Tracer([buffer]))
        table = RoutingTable()
        table.set_routes("app/det", [(backend, 1.0)])
        table.set_routes("app/rec", [(backend, 1.0)])
        frontend = Frontend(sim, table)
        for _ in range(5):
            frontend.submit_query(two_stage_query())
        sim.run()
        # Whole queries, not stage requests: two stages, five arrivals.
        assert admitted(buffer) == 10
        assert frontend.read_and_reset_query_counters() == {"app": 5}
        assert frontend.read_and_reset_query_counters() == {}


def two_stage_query(gamma=1.0, slo=300.0):
    a = LinearProfile(name="a", alpha=1.0, beta=2.0, max_batch=32)
    b = LinearProfile(name="b", alpha=0.5, beta=1.0, max_batch=32)
    root = QueryStage("det", a)
    root.add_child(QueryStage("rec", b, gamma=gamma))
    return Query("app", root, slo)


class TestQueryOrchestration:
    def _setup(self, gamma=1.0, slo=300.0):
        sim = Simulator()
        self.buffer = TraceBuffer()
        backend = make_backend(sim, ["app/det", "app/rec"],
                               tracer=Tracer([self.buffer]))
        table = RoutingTable()
        table.set_routes("app/det", [(backend, 1.0)])
        table.set_routes("app/rec", [(backend, 1.0)])
        collector = MetricsCollector()
        frontend = Frontend(sim, table, tracer=Tracer(query=collector), seed=1)
        return sim, frontend, collector

    def test_query_completes_with_children(self):
        sim, frontend, collector = self._setup(gamma=1.0)
        sim.schedule(0.0, lambda: frontend.submit_query(two_stage_query(1.0)))
        sim.run()
        assert collector.total == 1
        assert collector.ok_count == 1

    def test_integer_fanout_spawns_children(self):
        sim, frontend, collector = self._setup()
        q = two_stage_query(gamma=3.0)
        sim.schedule(0.0, lambda: frontend.submit_query(q))
        sim.run()
        assert admitted(self.buffer) == 1 + 3  # det + 3 rec

    def test_zero_fanout_completes_without_children(self):
        sim, frontend, collector = self._setup()
        q = two_stage_query(gamma=0.0)
        sim.schedule(0.0, lambda: frontend.submit_query(q))
        sim.run()
        assert admitted(self.buffer) == 1
        assert collector.ok_count == 1

    def test_fractional_fanout_mean(self):
        sim, frontend, collector = self._setup()
        q = two_stage_query(gamma=0.5)
        for i in range(200):
            sim.schedule(i * 10.0, lambda: frontend.submit_query(q))
        sim.run()
        rec_count = admitted(self.buffer) - 200
        assert 60 <= rec_count <= 140  # mean 100, Bernoulli(0.5)

    def test_unroutable_stage_fails_query(self):
        sim = Simulator()
        backend = make_backend(sim, ["app/det"])  # no rec session
        table = RoutingTable()
        table.set_routes("app/det", [(backend, 1.0)])
        collector = MetricsCollector()
        frontend = Frontend(sim, table, tracer=Tracer(query=collector))
        sim.schedule(0.0, lambda: frontend.submit_query(two_stage_query(1.0)))
        sim.run()
        assert collector.total == 1
        assert collector.dropped_count == 1

    def test_stage_budgets_bound_deadlines(self):
        sim, frontend, collector = self._setup()
        q = two_stage_query(gamma=1.0, slo=300.0)
        budgets = {"det": 100.0, "rec": 200.0}
        captured = []

        real_enqueue = Backend.enqueue

        def spy(self, request):
            captured.append((request.session_id,
                             request.deadline_ms - request.arrival_ms))
            real_enqueue(self, request)

        Backend.enqueue = spy
        try:
            sim.schedule(0.0, lambda: frontend.submit_query(q, budgets))
            sim.run()
        finally:
            Backend.enqueue = real_enqueue
        by_sid = dict(captured)
        assert by_sid["app/det"] == pytest.approx(100.0)
        assert by_sid["app/rec"] <= 200.0 + 1e-9

    def test_source_root_fans_out_in_parallel(self):
        sim = Simulator()
        buffer = TraceBuffer()
        backend = make_backend(sim, ["g/x", "g/y"], tracer=Tracer([buffer]))
        table = RoutingTable()
        table.set_routes("g/x", [(backend, 1.0)])
        table.set_routes("g/y", [(backend, 1.0)])
        collector = MetricsCollector()
        frontend = Frontend(sim, table, tracer=Tracer(query=collector))

        p = LinearProfile(name="p", alpha=0.5, beta=1.0, max_batch=32)
        root = QueryStage("src", None)
        root.add_child(QueryStage("x", p, gamma=2.0))
        root.add_child(QueryStage("y", p, gamma=1.0))
        q = Query("g", root, 200.0)
        sim.schedule(0.0, lambda: frontend.submit_query(q))
        sim.run()
        assert admitted(buffer) == 3  # 2x + 1y, source free
        assert collector.ok_count == 1

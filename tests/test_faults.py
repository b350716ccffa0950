"""Fault injection, detection, and recovery across the cluster runtime.

Covers the whole failure story end to end: the injector's deterministic
schedules (cluster/faults.py), backend crash semantics (lost work goes
through the retry path, not the outcome stream), frontend retry/backoff
accounting, the heartbeat failure detector's window bounds, the epoch
scheduler's re-pack after node death, the fault counters in the
observability exporters, and the kill-k-of-N recovery experiment.
"""

import pytest

from repro.cluster.backend import Backend, BackendSession
from repro.cluster.faults import (
    FaultEvent,
    FaultInjector,
    FaultPlan,
    seeded_plan,
)
from repro.cluster.frontend import Frontend, RetryPolicy, RoutingTable
from repro.cluster.global_scheduler import BackendPool, HeartbeatMonitor
from repro.cluster.messages import Request
from repro.core.profile import LinearProfile
from repro.metrics.collector import MetricsCollector
from repro.observability import (
    TraceBuffer,
    Tracer,
    capture_trace,
    chrome_trace,
    drop_reasons,
    prometheus_snapshot,
)
from repro.observability.events import (
    BACKEND_FAILED,
    DROP_BACKEND_FAILED,
    REQUEST_DROPPED,
    REQUEST_RETRIED,
)
from repro.simulation.simulator import Simulator


def spec(session_id="s", alpha=1.0, beta=5.0, slo=100.0, batch=8,
         duty=50.0, policy=None):
    profile = LinearProfile(name=session_id, alpha=alpha, beta=beta,
                            max_batch=64, cpu_workers=5)
    return BackendSession(
        session_id=session_id, profile=profile, slo_ms=slo,
        target_batch=batch, duty_cycle_ms=duty, policy=policy,
    )


def make_backend(sim=None, **kw):
    sim = sim or Simulator()
    collector = MetricsCollector()
    return sim, collector, Backend(
        sim, tracer=Tracer(invocation=collector), **kw
    )


def submit(sim, backend, session_id, at_ms, slo=100.0,
           results=None, on_fail=None):
    def on_complete(req, t, ok):
        if results is not None:
            results.append(("done", req.request_id, t, ok))

    def on_drop(req, t):
        if results is not None:
            results.append(("drop", req.request_id, t))

    sim.schedule_at(at_ms, lambda: backend.enqueue(
        Request(session_id=session_id, arrival_ms=at_ms,
                deadline_ms=at_ms + slo, on_complete=on_complete,
                on_drop=on_drop, on_fail=on_fail)
    ))


class TestFaultPlan:
    def test_crash_with_recovery_schedules_both_events(self):
        plan = FaultPlan().crash(10_000.0, 2, recover_after_ms=5_000.0)
        kinds = [(e.time_ms, e.kind, e.backend_idx) for e in plan.sorted_events()]
        assert kinds == [(10_000.0, "crash", 2), (15_000.0, "recover", 2)]

    def test_slowdown_with_duration_restores_speed(self):
        plan = FaultPlan().slowdown(1_000.0, 0, 3.0, duration_ms=2_000.0)
        events = plan.sorted_events()
        assert events[0].factor == 3.0
        assert events[1] == FaultEvent(3_000.0, "slowdown", 0, 1.0)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(0.0, "meltdown", 0)
        with pytest.raises(ValueError):
            FaultEvent(-1.0, "crash", 0)

    def test_seeded_plan_is_deterministic(self):
        a = seeded_plan(7, num_backends=8, duration_ms=600_000.0)
        b = seeded_plan(7, num_backends=8, duration_ms=600_000.0)
        assert a.events == b.events
        assert a.events  # ~10 expected crashes over 10 min at 1/min

    def test_seeded_plan_varies_with_seed(self):
        a = seeded_plan(7, num_backends=8, duration_ms=600_000.0)
        b = seeded_plan(8, num_backends=8, duration_ms=600_000.0)
        assert a.events != b.events


class TestBackendCrash:
    def test_crash_drops_queued_requests_without_on_fail(self):
        sim, coll, backend = make_backend()
        backend.set_schedule([spec()])
        results = []
        submit(sim, backend, "s", 10.0, results=results)
        sim.schedule_at(5.0, lambda: backend.fail())
        sim.run()
        # Enqueued on a dead backend, no retry handler: terminal drop.
        assert results == [("drop", results[0][1], 10.0)]
        assert not backend.alive

    def test_crash_routes_lost_work_through_on_fail(self):
        sim, coll, backend = make_backend()
        backend.set_schedule([spec()])
        results, failed = [], []
        on_fail = lambda req, t: failed.append((req.request_id, t))
        submit(sim, backend, "s", 0.0, results=results, on_fail=on_fail)
        submit(sim, backend, "s", 1.0, results=results, on_fail=on_fail)
        sim.schedule_at(3.0, lambda: backend.fail())
        sim.run()
        # Both the in-flight batch and the queued request are handed to
        # on_fail; neither reaches the outcome callbacks (no double
        # counting -- the frontend owns the single terminal outcome).
        assert results == []
        assert [t for _, t in failed] == [3.0, 3.0]

    def test_recover_resumes_service(self):
        sim, coll, backend = make_backend()
        backend.set_schedule([spec()])
        results = []
        sim.schedule_at(3.0, lambda: backend.fail())
        sim.schedule_at(10.0, lambda: backend.recover())
        submit(sim, backend, "s", 12.0, results=results)
        sim.run()
        assert backend.alive
        assert results[0][0] == "done" and results[0][3]

    def test_slowdown_scales_execution_time(self):
        sim, coll, backend = make_backend()
        backend.set_schedule([spec()])
        backend.set_slowdown(2.0)
        results = []
        submit(sim, backend, "s", 10.0, results=results)
        sim.run()
        kind, _, t, ok = results[0]
        assert kind == "done" and ok
        assert t == pytest.approx(10.0 + 2.0 * 6.0)  # l(1)=6, doubled

    def test_slowdown_rejects_nonpositive_factor(self):
        sim, coll, backend = make_backend()
        with pytest.raises(ValueError):
            backend.set_slowdown(0.0)

    def test_injector_applies_plan_and_logs(self):
        sim, coll, backend = make_backend()
        backend.set_schedule([spec()])
        plan = FaultPlan().crash(5.0, 0, recover_after_ms=10.0)
        injector = FaultInjector(sim, [backend], plan)
        injector.arm()
        sim.run()
        assert injector.applied == [(5.0, "crash", 0), (15.0, "recover", 0)]
        assert backend.alive

    def test_injector_skips_undrafted_slots(self):
        sim, coll, backend = make_backend()
        plan = FaultPlan().crash(5.0, 3)  # only backend 0 exists
        injector = FaultInjector(sim, [backend], plan)
        injector.arm()
        sim.run()
        assert injector.applied == []
        assert [e.backend_idx for e in injector.skipped] == [3]
        assert backend.alive


class TestFrontendRetry:
    def _cluster(self, sim, n_backends=2, policy=None, tracer=None):
        backends = [Backend(sim, gpu_id=i) for i in range(n_backends)]
        for b in backends:
            b.set_schedule([spec()])
        routing = RoutingTable()
        routing.set_routes("s", [(b, 1.0) for b in backends])
        frontend = Frontend(sim, routing, retry_policy=policy, tracer=tracer)
        return backends, routing, frontend

    def test_routing_skips_dead_backends(self):
        sim = Simulator()
        backends, routing, _ = self._cluster(sim)
        backends[0].fail()
        for _ in range(4):
            assert routing.pick("s") is backends[1]
        backends[1].fail()
        assert routing.pick("s") is None

    def test_lost_request_retries_on_survivor(self):
        sim = Simulator()
        buffer = TraceBuffer()
        backends, routing, frontend = self._cluster(
            sim, tracer=Tracer([buffer]),
        )
        results = []
        sim.schedule_at(0.0, lambda: frontend.submit_request(
            "s", 100.0,
            on_complete=lambda r, t, ok: results.append(("done", t, ok)),
            on_drop=lambda r, t: results.append(("drop", t)),
        ))
        sim.schedule_at(1.0, lambda: backends[0].fail())
        sim.run()
        assert len(buffer.by_kind(REQUEST_RETRIED)) == 1
        assert buffer.by_kind(REQUEST_DROPPED) == []
        assert results == [("done", results[0][1], True)]

    def test_retries_exhaust_to_single_terminal_drop(self):
        sim = Simulator()
        policy = RetryPolicy(max_retries=3, backoff_ms=5.0)
        buffer = TraceBuffer()
        backends, routing, frontend = self._cluster(
            sim, policy=policy, tracer=Tracer([buffer]),
        )
        results = []
        sim.schedule_at(0.0, lambda: frontend.submit_request(
            "s", 1_000.0,
            on_complete=lambda r, t, ok: results.append(("done", t, ok)),
            on_drop=lambda r, t: results.append(("drop", t)),
        ))
        sim.schedule_at(1.0, lambda: backends[0].fail())
        sim.schedule_at(1.0, lambda: backends[1].fail())
        sim.run()
        # Exactly one terminal outcome for the logical request.
        assert [r[0] for r in results] == ["drop"]
        retried = [e for e in buffer.events if e.kind == REQUEST_RETRIED]
        assert len(retried) == 3
        assert [e.detail["attempt"] for e in retried] == [1, 2, 3]
        drops = [e for e in buffer.events if e.kind == REQUEST_DROPPED]
        assert [e.reason for e in drops] == [DROP_BACKEND_FAILED]

    def test_deadline_caps_the_retry_budget(self):
        sim = Simulator()
        policy = RetryPolicy(max_retries=10, backoff_ms=50.0)
        buffer = TraceBuffer()
        backends, routing, frontend = self._cluster(
            sim, policy=policy, tracer=Tracer([buffer]),
        )
        results = []
        sim.schedule_at(0.0, lambda: frontend.submit_request(
            "s", 80.0,
            on_drop=lambda r, t: results.append(("drop", t)),
        ))
        sim.schedule_at(1.0, lambda: backends[0].fail())
        sim.schedule_at(1.0, lambda: backends[1].fail())
        sim.run()
        # Backoff outlives the 80 ms deadline long before 10 attempts:
        # the moment a backoff would land past the deadline, the request
        # drops immediately instead of arming a doomed redispatch timer.
        assert drop_reasons(buffer.events) == {DROP_BACKEND_FAILED: 1}
        assert len(buffer.by_kind(REQUEST_RETRIED)) < 10
        assert results[0][0] == "drop"
        # The drop is charged to the failure instant, not to a timer
        # firing after the deadline had already passed.
        assert results[0][1] < 80.0


class TestHeartbeatMonitor:
    def _pool(self, sim, n=2):
        routing = RoutingTable()
        pool = BackendPool(sim, routing)
        pool.backends.extend(Backend(sim, gpu_id=i) for i in range(n))
        return pool

    def test_detection_within_window_bounds(self):
        sim = Simulator()
        pool = self._pool(sim)
        declared = []
        monitor = HeartbeatMonitor(
            sim, pool, heartbeat_ms=500.0, lease_ms=2_000.0,
            on_failure=lambda idx, t: declared.append((idx, t)),
        )
        monitor.start()
        crash_ms = 5_250.0  # between sweeps
        sim.schedule_at(crash_ms, lambda: pool.backends[0].fail())
        sim.run_until(20_000.0)
        assert declared and declared[0][0] == 0
        latency = declared[0][1] - crash_ms
        # Class invariant: the lease must fully expire (never declared
        # before lease_ms of silence) and the declaring sweep lands
        # within two heartbeats of the expiry.
        assert 2_000.0 - 500.0 <= latency <= 2_000.0 + 2 * 500.0
        assert monitor.suspected == {0}
        assert pool.failed == {0}
        assert pool.live_backends == 1

    def test_no_declaration_while_everyone_beats(self):
        sim = Simulator()
        pool = self._pool(sim)
        monitor = HeartbeatMonitor(sim, pool)
        monitor.start()
        sim.run_until(30_000.0)
        assert monitor.declared_failures == []
        assert not pool.failed

    def test_returning_backend_is_declared_recovered(self):
        sim = Simulator()
        pool = self._pool(sim)
        recovered = []
        monitor = HeartbeatMonitor(
            sim, pool, heartbeat_ms=500.0, lease_ms=2_000.0,
            on_recovery=lambda idx, t: recovered.append((idx, t)),
        )
        monitor.start()
        sim.schedule_at(5_250.0, lambda: pool.backends[0].fail())
        sim.schedule_at(12_000.0, lambda: pool.backends[0].recover())
        sim.run_until(20_000.0)
        assert recovered and recovered[0][0] == 0
        assert monitor.suspected == set()
        assert not pool.failed

    def test_rejects_nonpositive_periods(self):
        sim = Simulator()
        pool = self._pool(sim)
        with pytest.raises(ValueError):
            HeartbeatMonitor(sim, pool, heartbeat_ms=0.0)
        with pytest.raises(ValueError):
            HeartbeatMonitor(sim, pool, lease_ms=-1.0)


class TestRecoveryRepack:
    """EpochScheduler.handle_failure: dead nodes' demand lands elsewhere."""

    def _load(self, name, slo, rate):
        from repro.core.session import Session, SessionLoad

        return SessionLoad(
            Session(name, slo), rate,
            LinearProfile(name=name, alpha=1.0, beta=10.0, max_batch=64),
        )

    def test_repack_keeps_slos_and_capacity(self):
        from repro.core.epoch import EpochScheduler

        s = EpochScheduler()
        loads = [self._load("a", 200.0, 900.0), self._load("b", 300.0, 600.0)]
        s.update(0.0, loads)
        assert s.num_gpus >= 2
        dead = s.plan.gpus[0].node_id
        up = s.handle_failure(15_000.0, [dead], loads)
        # The dead node is gone, every node is SLO/memory feasible, and
        # the demand it hosted is fully re-covered on survivors/new nodes.
        assert all(n.node_id != dead for n in s.plan.gpus)
        assert all(not n.validate() for n in s.plan.gpus)
        assert s.capacity_rps("a@200ms") >= 900.0 - 1e-6
        assert s.capacity_rps("b@300ms") >= 600.0 - 1e-6
        assert up.triggered

    def test_repack_under_cap_sheds_proportionally(self):
        from repro.core.epoch import EpochScheduler

        s = EpochScheduler()
        loads = [self._load("a", 200.0, 900.0), self._load("b", 300.0, 600.0)]
        s.update(0.0, loads)
        before = s.num_gpus
        assert before >= 2
        dead = s.plan.gpus[0].node_id
        s.max_gpus = before - 1  # the crashed backend shrank the cluster
        s.handle_failure(15_000.0, [dead], loads)
        assert s.num_gpus <= before - 1
        # Proportional shedding keeps every session served (admission
        # control absorbs the shortfall), rather than zeroing one out.
        assert s.capacity_rps("a@200ms") > 0.0
        assert s.capacity_rps("b@300ms") > 0.0


class TestFaultObservability:
    """Fault events flow through the exporters end to end."""

    @pytest.fixture(scope="class")
    def crashed_run(self):
        from repro.experiments.fault_recovery import make_fault_cluster

        cluster = make_fault_cluster(gpus=8)
        faults = FaultPlan().crash(8_000.0, 0)
        with capture_trace() as buffer:
            result = cluster.run(20_000.0, faults=faults)
        return result, buffer.events

    def test_fault_log_and_detections_reported(self, crashed_run):
        result, _ = crashed_run
        assert result.fault_log == [(8_000.0, "crash", 0)]
        assert result.detections and result.detections[0][0] == 0
        detect_ms = result.detections[0][1]
        assert 8_000.0 + 2_000.0 - 500.0 <= detect_ms <= 8_000.0 + 3_000.0

    def test_prometheus_snapshot_has_fault_counters(self, crashed_run):
        _, events = crashed_run
        text = prometheus_snapshot(events)
        assert 'nexus_backend_failures_total{cause="crash"} 1' in text
        assert 'nexus_backend_failures_total{cause="lease_expired"} 1' in text
        retries = [
            line for line in text.splitlines()
            if line.startswith("nexus_request_retries_total")
        ]
        assert retries and int(retries[0].split()[-1]) > 0

    def test_terminal_drops_labeled_backend_failed(self, crashed_run):
        _, events = crashed_run
        drops = [e for e in events if e.kind == REQUEST_DROPPED
                 and e.reason == DROP_BACKEND_FAILED]
        assert drops
        text = prometheus_snapshot(events)
        assert 'nexus_drops_total{reason="backend_failed"}' in text

    def test_chrome_trace_marks_fault_instants(self, crashed_run):
        _, events = crashed_run
        trace = chrome_trace(events)["traceEvents"]
        faults = [e for e in trace if e.get("cat") == "fault"]
        assert any(e["name"] == BACKEND_FAILED for e in faults)
        assert all(e["ph"] == "i" for e in faults)


class TestFaultRecoveryExperiment:
    def test_kill_one_of_eight_recovers_and_is_deterministic(self):
        from repro.experiments.fault_recovery import run

        kwargs = dict(duration_ms=60_000.0, kill_at_ms=20_000.0,
                      warmup_ms=5_000.0)
        table1, out1 = run(**kwargs)
        table2, out2 = run(**kwargs)
        # Acceptance: goodput back to >= 95% of pre-fault after recovery.
        assert out1.pre_fault_goodput_rps > 0
        assert out1.recovered_fraction >= 0.95
        assert out1.time_to_recover_ms is not None
        assert out1.detection_ms is not None
        assert 2_000.0 - 500.0 <= out1.detection_ms <= 3_000.0
        # Determinism: same arguments, bit-identical report.
        assert str(table1) == str(table2)
        assert out1.goodput_series == out2.goodput_series

    def test_kill_must_be_within_cluster(self):
        from repro.experiments.fault_recovery import run

        with pytest.raises(ValueError):
            run(kill=0)
        with pytest.raises(ValueError):
            run(kill=9, gpus=8)

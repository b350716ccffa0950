"""Tests for the observability layer: tracer, event stream, exporters."""

import csv
import io
import json

import pytest

import repro.observability.tracer as tracer_module
from repro.cluster.backend import Backend, BackendSession
from repro.cluster.frontend import Frontend, RoutingTable
from repro.cluster.global_scheduler import BackendPool
from repro.cluster.messages import Request
from repro.cluster.nexus import ClusterConfig, NexusCluster, equivalence_report
from repro.core import Session, SessionLoad, squishy_bin_packing
from repro.core.profile import LinearProfile
from repro.metrics.collector import MetricsCollector
from repro.observability import (
    BATCH_EXECUTED,
    NULL_TRACER,
    PLAN_APPLIED,
    QUERY_COMPLETED,
    QUERY_SUBMITTED,
    REQUEST_ADMITTED,
    REQUEST_COMPLETED,
    REQUEST_DROPPED,
    SESSION_PLACED,
    SESSION_RELOCATED,
    SESSION_REMOVED,
    TraceBuffer,
    Tracer,
    batch_size_histogram,
    busy_intervals,
    capture_trace,
    chrome_trace,
    csv_dump,
    drop_reasons,
    gpu_busy_ms,
    prometheus_snapshot,
    session_cycle_stats,
    write_chrome_trace,
)
from repro.simulation.simulator import Simulator
from repro.workloads.apps import traffic_query
from tests.test_cluster_integration import (
    run_crash_and_recovery,
    run_dynamic_replanning,
    run_prefix_fused,
    run_static_warmup,
)


def spec(session_id="s", alpha=1.0, beta=5.0, slo=100.0, batch=8,
         duty=50.0):
    profile = LinearProfile(name=session_id, alpha=alpha, beta=beta,
                            max_batch=64)
    return BackendSession(session_id=session_id, profile=profile,
                          slo_ms=slo, target_batch=batch, duty_cycle_ms=duty)


def traced_backend(**kw):
    sim = Simulator()
    collector = MetricsCollector()
    buffer = TraceBuffer()
    tracer = Tracer([buffer], invocation=collector)
    backend = Backend(sim, tracer=tracer, **kw)
    return sim, collector, buffer, backend


def submit(sim, backend, session_id, at_ms, slo=100.0):
    sim.schedule_at(at_ms, lambda: backend.enqueue(
        Request(session_id=session_id, arrival_ms=at_ms,
                deadline_ms=at_ms + slo)
    ))


class TestEventEmission:
    def test_request_lifecycle_order(self):
        sim, _coll, buffer, backend = traced_backend()
        backend.set_schedule([spec()])
        submit(sim, backend, "s", 10.0)
        sim.run()
        kinds = [e.kind for e in buffer.events]
        admitted = kinds.index(REQUEST_ADMITTED)
        executed = kinds.index(BATCH_EXECUTED)
        completed = kinds.index(REQUEST_COMPLETED)
        assert admitted < executed < completed
        events = buffer.events
        assert events[admitted].ts_ms <= events[executed].ts_ms
        assert (events[executed].end_ms
                == pytest.approx(events[completed].ts_ms))

    def test_timestamps_monotonic(self):
        sim, _coll, buffer, backend = traced_backend()
        backend.set_schedule([spec("a"), spec("b", duty=30.0)])
        for t in range(0, 200, 7):
            submit(sim, backend, "a" if t % 2 else "b", float(t))
        sim.run()
        ts = [e.ts_ms for e in buffer.events]
        assert ts == sorted(ts)

    def test_early_drop_reason(self):
        sim, coll, buffer, backend = traced_backend()
        backend.set_schedule([spec(slo=20.0, batch=4, duty=0.0)])
        # A burst far beyond what a 20 ms SLO admits: some must drop.
        for t in range(0, 30):
            submit(sim, backend, "s", float(t) * 0.1, slo=20.0)
        sim.run()
        reasons = drop_reasons(buffer.events)
        assert reasons.get("early_drop", 0) >= 1
        assert sum(reasons.values()) == coll.dropped_count

    def test_misrouted_drop_reason(self):
        sim, _coll, buffer, backend = traced_backend()
        backend.set_schedule([spec("served")])
        submit(sim, backend, "ghost", 1.0)
        sim.run()
        assert drop_reasons(buffer.events) == {"misrouted": 1}

    def test_unscheduled_drop_reason(self):
        sim, _coll, buffer, backend = traced_backend()
        backend.set_schedule([spec("a"), spec("s")])
        # Keep the GPU busy on "a" so "s" sits queued...
        submit(sim, backend, "a", 0.0)
        submit(sim, backend, "s", 1.0)
        # ...then drop "s" from the schedule while its request waits.
        sim.schedule_at(2.0, lambda: backend.set_schedule([spec("a")]))
        sim.run()
        assert drop_reasons(buffer.events) == {"unscheduled": 1}

    def test_collector_fed_through_event_stream(self):
        """The collector records exactly the outcomes the buffer sees:
        one tracer call feeds both."""
        sim, coll, buffer, backend = traced_backend()
        backend.set_schedule([spec()])
        for t in range(0, 100, 5):
            submit(sim, backend, "s", float(t))
        sim.run()
        assert coll.total == len(buffer.by_kind(REQUEST_COMPLETED)) + len(
            buffer.by_kind(REQUEST_DROPPED)
        )
        assert sum(coll.gpu_busy_ms.values()) == pytest.approx(
            sum(e.dur_ms for e in buffer.by_kind(BATCH_EXECUTED))
        )

    def test_frontend_query_events(self):
        sim = Simulator()
        routing = RoutingTable()
        qcoll = MetricsCollector()
        buffer = TraceBuffer()
        tracer = Tracer([buffer], query=qcoll)
        frontend = Frontend(sim, routing, tracer=tracer)
        # No routes installed: the query fails immediately via route.failed.
        query = traffic_query("gtx1080ti", slo_ms=400.0)
        frontend.submit_query(query)
        sim.run()
        assert len(buffer.by_kind(QUERY_SUBMITTED)) == 1
        completed = buffer.by_kind(QUERY_COMPLETED)
        assert len(completed) == 1 and completed[0].ok is False
        assert qcoll.total == 1 and qcoll.dropped_count == 1


class TestTracerStates:
    def test_null_tracer_is_default_without_collector(self):
        backend = Backend(Simulator())
        assert backend.tracer is NULL_TRACER
        assert not backend.tracer.enabled
        assert not backend.tracer.recording

    def test_null_tracer_run_matches_traced_run(self):
        """Tracing must be observation only: the same workload under the
        NULL_TRACER and under a full recording tracer produces identical
        per-request outcomes, while the NULL_TRACER run materializes zero
        TraceEvents and records nothing."""
        import random

        def drive(tracer):
            sim = Simulator()
            backend = Backend(sim, tracer=tracer)
            backend.set_schedule([spec("a", batch=4, duty=40.0),
                                  spec("b", beta=12.0, batch=4, duty=60.0)])
            outcomes = []

            def on_complete(req, t, ok):
                outcomes.append(("done", req.session_id, req.arrival_ms,
                                 t, ok))

            def on_drop(req, t):
                outcomes.append(("drop", req.session_id, req.arrival_ms, t))

            rng = random.Random(42)
            now = 0.0
            # Overloaded arrivals so both completion and drop paths fire.
            for _ in range(400):
                now += rng.expovariate(1.0)
                sid = "a" if rng.random() < 0.6 else "b"
                at = now
                sim.schedule_at(at, lambda sid=sid, at=at: backend.enqueue(
                    Request(session_id=sid, arrival_ms=at,
                            deadline_ms=at + 100.0,
                            on_complete=on_complete, on_drop=on_drop)
                ))
            sim.run()
            return outcomes, sim.events_processed

        buffer = TraceBuffer()
        traced_coll = MetricsCollector()
        traced = Tracer([buffer], invocation=traced_coll)
        traced_outcomes, traced_events = drive(traced)

        null_outcomes, null_events = drive(NULL_TRACER)

        assert null_outcomes == traced_outcomes
        assert null_events == traced_events
        assert any(o[0] == "done" for o in traced_outcomes)
        assert any(o[0] == "drop" for o in traced_outcomes)
        # The traced run captured the stream; the NULL_TRACER run has no
        # collector and no sink to feed.
        assert buffer.by_kind(REQUEST_COMPLETED)
        assert len(traced_coll.records) == len(traced_outcomes)
        assert NULL_TRACER.invocation is None and NULL_TRACER.query is None

    def test_lifecycle_skipped_without_recording_sink(self, monkeypatch):
        """A collectors-only tracer never materializes an event: the
        collector is fed, no TraceEvent is built."""
        built = []
        monkeypatch.setattr(tracer_module, "TraceEvent",
                            lambda *args, **kw: built.append(args))
        coll = MetricsCollector()
        tracer = Tracer(invocation=coll)
        assert tracer.enabled and not tracer.recording
        sim = Simulator()
        backend = Backend(sim, tracer=tracer)
        backend.set_schedule([spec()])
        submit(sim, backend, "s", 1.0)
        sim.run()
        assert coll.total == 1 and coll.gpu_busy_ms
        assert built == []


class TestPoolPlacementEvents:
    def _pool(self):
        sim = Simulator()
        routing = RoutingTable()
        coll = MetricsCollector()
        buffer = TraceBuffer()
        tracer = Tracer([buffer], invocation=coll)
        pool = BackendPool(sim, routing, tracer=tracer)
        return sim, pool, buffer

    @staticmethod
    def _plan(names, rate=40.0):
        loads = [
            SessionLoad(
                Session(n, 200.0),
                rate,
                LinearProfile(name=n, alpha=1.0, beta=10.0, max_batch=32),
            )
            for n in names
        ]
        return squishy_bin_packing(loads)

    def test_place_remove_relocate(self):
        sim, pool, buffer = self._pool()
        pool.apply_plan(self._plan(["a", "b"]))
        placed = {e.session_id for e in buffer.by_kind(SESSION_PLACED)}
        assert placed == {"a@200ms", "b@200ms"}
        assert len(buffer.by_kind(PLAN_APPLIED)) == 1

        # Drop b: a removal event, no new placements.
        pool.apply_plan(self._plan(["a"]))
        removed = {e.session_id for e in buffer.by_kind(SESSION_REMOVED)}
        assert removed == {"b@200ms"}

        # Sessions that stay put across identical plans emit nothing new.
        n_events = len(buffer.events)
        pool.apply_plan(self._plan(["a"]))
        new = buffer.events[n_events:]
        assert [e.kind for e in new] == [PLAN_APPLIED]

    def test_relocation_detected(self):
        sim, pool, buffer = self._pool()
        # Two heavy sessions on separate GPUs...
        pool.apply_plan(self._plan(["a", "b"], rate=900.0))
        # ...then shrink to a plan where packing reshuffles: force by
        # moving to a single combined light plan.
        pool.apply_plan(self._plan(["b"], rate=40.0))
        kinds = {e.kind for e in buffer.events}
        assert SESSION_REMOVED in kinds
        relocated = buffer.by_kind(SESSION_RELOCATED)
        for ev in relocated:
            assert ev.detail and "from_gpu" in ev.detail


class TestExporters:
    def _run_traced(self):
        cfg = ClusterConfig(device="gtx1080ti", max_gpus=4)
        cluster = NexusCluster(cfg)
        cluster.add_query(traffic_query(cfg.device, slo_ms=400.0),
                          rate_rps=60.0)
        return cluster.run(4_000.0, trace=True)

    def test_chrome_trace_round_trip(self, tmp_path):
        res = self._run_traced()
        path = tmp_path / "trace.json"
        write_chrome_trace(res.trace, str(path))
        doc = json.loads(path.read_text())
        assert "traceEvents" in doc and doc["traceEvents"]
        # Busy time reconstructed from the X (complete) events matches the
        # analysis helper on the original stream.
        busy_us: dict[int, float] = {}
        for te in doc["traceEvents"]:
            if te.get("ph") == "X":
                busy_us[te["pid"]] = busy_us.get(te["pid"], 0.0) + te["dur"]
        original = gpu_busy_ms(res.trace)
        assert len(busy_us) == len(original)
        for gpu, ms in original.items():
            assert busy_us[gpu + 1] == pytest.approx(ms * 1000.0)

    def test_chrome_trace_has_process_metadata(self):
        res = self._run_traced()
        doc = chrome_trace(res.trace)
        names = {
            te["args"]["name"]
            for te in doc["traceEvents"]
            if te.get("ph") == "M" and te["name"] == "process_name"
        }
        assert "cluster" in names
        assert any(n.startswith("gpu") for n in names)

    def test_prometheus_snapshot_counts(self):
        res = self._run_traced()
        text = prometheus_snapshot(res.trace)
        completed = len([e for e in res.trace
                         if e.kind == REQUEST_COMPLETED and e.ok])
        assert f'nexus_requests_total{{outcome="ok"}} {completed}' in text
        assert "nexus_batch_size_bucket{le=\"+Inf\"}" in text
        assert "nexus_gpu_occupancy" in text
        # Every non-comment line is "name{labels} value" parseable.
        for line in text.splitlines():
            if line.startswith("#") or not line:
                continue
            name, value = line.rsplit(" ", 1)
            float(value)
            assert name.startswith("nexus_")

    def test_csv_round_trip(self):
        res = self._run_traced()
        text = csv_dump(res.trace)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == len(res.trace)
        busy: dict[int, float] = {}
        for row in rows:
            if row["kind"] == BATCH_EXECUTED:
                gpu = int(row["gpu_id"])
                busy[gpu] = busy.get(gpu, 0.0) + float(row["dur_ms"])
        original = gpu_busy_ms(res.trace)
        for gpu, ms in original.items():
            assert busy[gpu] == pytest.approx(ms)

    def test_exporters_handle_empty_stream(self):
        assert chrome_trace([])["traceEvents"]
        assert "nexus_requests_total" in prometheus_snapshot([])
        assert csv_dump([]).splitlines()[0].startswith("ts_ms,")


class TestAnalysis:
    def test_busy_intervals_disjoint_per_gpu(self):
        cfg = ClusterConfig(device="gtx1080ti", max_gpus=4)
        cluster = NexusCluster(cfg)
        cluster.add_query(traffic_query(cfg.device, slo_ms=400.0),
                          rate_rps=60.0)
        res = cluster.run(4_000.0, trace=True)
        for intervals in busy_intervals(res.trace).values():
            for (s1, e1), (s2, _e2) in zip(intervals, intervals[1:]):
                assert e1 <= s2 + 1e-6

    def test_batch_histogram_counts_executions(self):
        """Every request a batch carried completed: the histogram's
        batch-size sum equals the completions the requests' own
        callbacks saw (no crashes, so nothing is lost in flight)."""
        sim, _coll, buffer, backend = traced_backend()
        backend.set_schedule([spec()])
        completed = []
        for t in range(0, 50, 2):
            sim.schedule_at(t, lambda t=t: backend.enqueue(Request(
                session_id="s", arrival_ms=t, deadline_ms=t + 100.0,
                on_complete=lambda r, at, ok: completed.append(r),
            )))
        sim.run()
        hist = batch_size_histogram(buffer.events)
        assert sum(size * n for size, n in hist.items()) == len(completed)
        assert len(completed) == len(buffer.by_kind(REQUEST_COMPLETED)) > 0
        assert sum(hist.values()) < len(completed)   # batching happened

    def test_session_cycle_stats_bound(self):
        """Worst observed duty-cycle latency stays near the squishy
        worst-case bound duty + l(b) for a paced, uncongested session."""
        sim, _coll, buffer, backend = traced_backend()
        s = spec(batch=8, duty=50.0)
        backend.set_schedule([s])
        for t in range(0, 1000, 10):
            submit(sim, backend, "s", float(t))
        sim.run()
        stats = session_cycle_stats(buffer.events)[(0, "s")]
        bound = s.duty_cycle_ms + s.profile.latency(s.target_batch)
        assert stats["worst_case_ms"] <= bound + 1e-6


class TestAmbientCapture:
    def test_capture_trace_wraps_cluster_runs(self):
        cfg = ClusterConfig(device="gtx1080ti", max_gpus=2)
        cluster = NexusCluster(cfg)
        cluster.add_query(traffic_query(cfg.device, slo_ms=400.0),
                          rate_rps=30.0)
        with capture_trace() as buffer:
            cluster.run(2_000.0)
        assert len(buffer.by_kind(BATCH_EXECUTED)) > 0
        # The buffer detaches cleanly: a later run emits nothing into it.
        n = len(buffer.events)
        cluster.run(1_000.0)
        assert len(buffer.events) == n

    def test_trace_off_by_default(self):
        cfg = ClusterConfig(device="gtx1080ti", max_gpus=2)
        cluster = NexusCluster(cfg)
        cluster.add_query(traffic_query(cfg.device, slo_ms=400.0),
                          rate_rps=30.0)
        res = cluster.run(1_000.0)
        assert res.trace is None


def _summary_crash_and_recovery(**run_kw):
    return run_crash_and_recovery(summary_metrics=True, **run_kw)


class TestDeterminismWithTracing:
    @pytest.mark.parametrize("scenario", [
        pytest.param(run_static_warmup, id="static-warmup"),
        pytest.param(run_prefix_fused, id="prefix-fused"),
        pytest.param(run_dynamic_replanning, id="dynamic-replanning"),
        pytest.param(run_crash_and_recovery, id="crash-recovery"),
        pytest.param(_summary_crash_and_recovery,
                     id="crash-recovery-summary"),
    ])
    def test_tracing_does_not_change_results(self, scenario):
        """Tracing is observation only: with it off, with a run's own
        buffer, and under an ambient capture, the whole run digests the
        same and the GPU-count timeline is identical."""

        def digest(result):
            series = result.invocation_metrics.gpu_count_series(
                500.0, result.duration_ms
            )
            return equivalence_report(result), series.points()

        plain = scenario()
        traced = scenario(trace=True)
        with capture_trace() as buffer:
            captured = scenario()
        assert traced.trace and buffer.events
        assert plain.trace is None and captured.trace is None
        assert digest(plain) == digest(traced) == digest(captured)

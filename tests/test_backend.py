"""Tests for the backend node (cluster/backend.py): GPU scheduler behavior."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.backend import Backend, BackendSession
from repro.cluster.messages import Request
from repro.core.profile import LinearProfile
from repro.metrics.collector import MetricsCollector
from repro.observability import BATCH_EXECUTED, TraceBuffer, Tracer
from repro.simulation.simulator import Simulator


def spec(session_id="s", alpha=1.0, beta=5.0, slo=100.0, batch=8,
         duty=50.0, policy=None, pre_ms=0.0):
    profile = LinearProfile(name=session_id, alpha=alpha, beta=beta,
                            max_batch=64, pre_ms=pre_ms, cpu_workers=5)
    return BackendSession(
        session_id=session_id, profile=profile, slo_ms=slo,
        target_batch=batch, duty_cycle_ms=duty, policy=policy,
    )


def make_backend(sim=None, buffer=None, **kw):
    sim = sim or Simulator()
    collector = MetricsCollector()
    sinks = [buffer] if buffer is not None else []
    return sim, collector, Backend(
        sim, tracer=Tracer(sinks, invocation=collector), **kw
    )


def batches(buffer):
    return buffer.by_kind(BATCH_EXECUTED)


def submit(sim, backend, session_id, at_ms, slo=100.0, results=None):
    def on_complete(req, t, ok):
        if results is not None:
            results.append(("done", req.request_id, t, ok))

    def on_drop(req, t):
        if results is not None:
            results.append(("drop", req.request_id, t))

    sim.schedule_at(at_ms, lambda: backend.enqueue(
        Request(session_id=session_id, arrival_ms=at_ms,
                deadline_ms=at_ms + slo,
                on_complete=on_complete, on_drop=on_drop)
    ))


class TestBasicExecution:
    def test_single_request_served(self):
        sim, coll, backend = make_backend()
        backend.set_schedule([spec()])
        results = []
        submit(sim, backend, "s", 10.0, results=results)
        sim.run()
        assert len(results) == 1
        kind, rid, t, ok = results[0]
        assert kind == "done" and ok
        assert t == pytest.approx(10.0 + 6.0)  # l(1) = 6

    def test_batch_forms_while_busy(self):
        buffer = TraceBuffer()
        sim, coll, backend = make_backend(buffer=buffer)
        backend.set_schedule([spec(beta=20.0)])
        results = []
        for t in (0.0, 1.0, 2.0, 3.0):
            submit(sim, backend, "s", t, results=results)
        sim.run()
        # First request executes alone (l(1)=21); the rest batch together.
        assert [e.batch for e in batches(buffer)] == [1, 3]
        assert all(r[0] == "done" for r in results)

    def test_misrouted_request_dropped(self):
        sim, coll, backend = make_backend()
        backend.set_schedule([spec("a")])
        results = []
        submit(sim, backend, "unknown", 5.0, results=results)
        sim.run()
        assert results == [("drop", results[0][1], 5.0)]

    def test_metrics_recorded(self):
        sim, coll, backend = make_backend()
        backend.set_schedule([spec()])
        submit(sim, backend, "s", 0.0)
        sim.run()
        assert coll.total == 1
        assert coll.ok_count == 1
        assert coll.gpu_busy_ms[0] > 0

    def test_utilization_accounting(self):
        sim, coll, backend = make_backend()
        backend.set_schedule([spec()])
        submit(sim, backend, "s", 0.0)
        sim.run()
        assert coll.gpu_busy_ms == {0: pytest.approx(6.0)}
        assert coll.utilization(1, 60.0) == pytest.approx(0.1)


class TestCyclePacing:
    def test_round_robin_between_sessions(self):
        sim, coll, backend = make_backend(pacing="cycle")
        backend.set_schedule([
            spec("a", duty=20.0, batch=4),
            spec("b", duty=20.0, batch=4),
        ])
        results = []
        for t in range(0, 40, 5):
            submit(sim, backend, "a" if (t // 5) % 2 == 0 else "b",
                   float(t), results=results)
        sim.run()
        assert all(r[0] == "done" and r[3] for r in results)

    def test_duty_cycle_paces_execution(self):
        """A session with a long duty cycle does not re-run immediately."""
        buffer = TraceBuffer()
        sim, coll, backend = make_backend(buffer=buffer, pacing="cycle")
        backend.set_schedule([spec("a", duty=40.0, batch=4)])
        submit(sim, backend, "a", 0.0)
        submit(sim, backend, "a", 8.0)   # arrives after first batch started
        sim.run()
        # Two executions: at t=0 and not before duty 40 (queue not full).
        assert [e.ts_ms for e in batches(buffer)] == [0.0, 40.0]
        recs = sorted(coll.records, key=lambda r: r.arrival_ms)
        assert recs[1].completion_ms >= 40.0

    def test_full_queue_overrides_pacing(self):
        buffer = TraceBuffer()
        sim, coll, backend = make_backend(buffer=buffer, pacing="cycle")
        backend.set_schedule([spec("a", duty=1000.0, batch=2, slo=3000.0)])
        for t in (0.0, 1.0, 2.0, 3.0):
            submit(sim, backend, "a", t, slo=3000.0)
        sim.run()
        # First arrival runs immediately (batch 1); the next two fill the
        # target and run without waiting out the 1000 ms duty cycle; the
        # last request alone must wait for the next cycle.
        assert [e.batch for e in batches(buffer)] == [1, 2, 1]
        done = sorted(r.completion_ms for r in coll.records)
        assert done[2] < 500.0
        assert done[3] >= 1000.0


class TestGreedyPacing:
    def test_oldest_head_served_first(self):
        sim, coll, backend = make_backend(pacing="greedy")
        backend.set_schedule([
            spec("a", duty=0.0),
            spec("b", duty=0.0),
        ])
        order = []
        submit(sim, backend, "b", 0.0, results=order)
        submit(sim, backend, "a", 1.0, results=order)
        sim.run()
        assert order[0][0] == "done"
        # b arrived first -> served first.
        b_done = [r for r in order if r[0] == "done"]
        assert len(b_done) == 2


class TestInterference:
    def test_colocated_sessions_inflated(self):
        def run(interference):
            sim, coll, backend = make_backend(
                pacing="greedy", interference_factor=interference
            )
            backend.set_schedule([spec("a", duty=0.0), spec("b", duty=0.0)])
            submit(sim, backend, "a", 0.0)
            sim.run()
            return coll.gpu_busy_ms[0]

        assert run(0.5) == pytest.approx(run(0.0) * 1.5)

    def test_single_session_unaffected(self):
        sim, coll, backend = make_backend(interference_factor=0.5)
        backend.set_schedule([spec("a")])
        submit(sim, backend, "a", 0.0)
        sim.run()
        assert coll.gpu_busy_ms[0] == pytest.approx(6.0)


class TestOverlap:
    def test_overlap_off_occupies_longer(self):
        def run(overlap):
            sim, coll, backend = make_backend(overlap=overlap)
            backend.set_schedule([spec("a", pre_ms=10.0)])
            submit(sim, backend, "a", 0.0)
            sim.run()
            return coll.gpu_busy_ms[0]

        assert run(False) > run(True)


class TestScheduleUpdates:
    def test_surviving_session_keeps_queue(self):
        sim, coll, backend = make_backend()
        backend.set_schedule([spec("a", duty=50.0)])
        results = []
        submit(sim, backend, "a", 0.0, results=results)
        # Replace schedule at t=1 while potentially in flight.
        sim.schedule_at(1.0, lambda: backend.set_schedule(
            [spec("a", duty=30.0), spec("b")]
        ))
        sim.run()
        assert any(r[0] == "done" for r in results)

    def test_removed_session_queue_dropped(self):
        sim, coll, backend = make_backend()
        backend.set_schedule([spec("a", beta=50.0), spec("b")])
        results = []
        # Two requests: one executes immediately, one queued.
        submit(sim, backend, "a", 0.0, results=results)
        submit(sim, backend, "a", 1.0, results=results)
        sim.schedule_at(2.0, lambda: backend.set_schedule([spec("b")]))
        sim.run()
        assert any(r[0] == "drop" for r in results)

    def test_empty_schedule_idles(self):
        buffer = TraceBuffer()
        sim, coll, backend = make_backend(buffer=buffer)
        backend.set_schedule([])
        submit(sim, backend, "a", 0.0)
        sim.run()
        assert batches(buffer) == []
        assert coll.gpu_busy_ms == {}

    def test_pacing_validation(self):
        with pytest.raises(ValueError):
            Backend(Simulator(), pacing="chaotic")

    def test_target_batch_validation(self):
        with pytest.raises(ValueError):
            spec(batch=0)


class TestDeferredExecution:
    """Section 5's delay-at-lower-priority mode is not modelled: a
    request that cannot meet its deadline is shed, never served late."""

    def test_drop_mode_sheds(self):
        sim, coll, backend = make_backend()
        # beta large so a burst cannot all meet the tight SLO.
        backend.set_schedule([spec("a", alpha=1.0, beta=30.0, slo=40.0,
                                   batch=2, duty=0.0)])
        for t in (0.0, 1.0, 2.0, 3.0, 4.0, 5.0):
            submit(sim, backend, "a", t, slo=40.0)
        sim.run()
        assert coll.total == 6
        assert coll.dropped_count > 0
        assert coll.late_count == 0


class TestExecutionTrace:
    """Each batch reaches the tracer's sinks as one ``batch.executed``."""

    def test_trace_records_spans(self):
        buffer = TraceBuffer()
        sim, coll, backend = make_backend(buffer=buffer)
        backend.set_schedule([spec("a")])
        submit(sim, backend, "a", 0.0)
        submit(sim, backend, "a", 100.0)
        sim.run()
        spans = batches(buffer)
        assert len(spans) == 2
        span = spans[0]
        assert (span.gpu_id, span.session_id, span.batch) == (0, "a", 1)
        assert span.dur_ms == pytest.approx(6.0)
        assert span.reason is None

    def test_spans_never_overlap(self):
        buffer = TraceBuffer()
        sim, coll, backend = make_backend(buffer=buffer)
        backend.set_schedule([spec("a", beta=20.0), spec("b", beta=20.0)])
        for t in range(0, 100, 7):
            submit(sim, backend, "a" if t % 2 else "b", float(t), slo=500.0)
        sim.run()
        spans = batches(buffer)
        for s1, s2 in zip(spans, spans[1:]):
            assert s2.ts_ms >= s1.end_ms - 1e-9


class TestModelLoading:
    """Section 2.2: newly placed models pay a PCIe load latency."""

    def test_first_batch_waits_for_load(self):
        sim, coll, backend = make_backend()
        s = spec("a", duty=0.0)
        s.load_ms = 200.0
        backend.set_schedule([s])
        submit(sim, backend, "a", 0.0, slo=500.0)
        sim.run()
        rec = coll.records[0]
        assert rec.completion_ms >= 200.0

    def test_resident_session_keeps_serving(self):
        sim, coll, backend = make_backend()
        backend.set_schedule([spec("a", duty=0.0)])
        submit(sim, backend, "a", 0.0)
        # Re-deploy with load_ms set: session already resident -> no delay.
        def redeploy():
            s = spec("a", duty=0.0)
            s.load_ms = 500.0
            backend.set_schedule([s])
        sim.schedule_at(50.0, redeploy)
        submit(sim, backend, "a", 60.0)
        sim.run()
        recs = sorted(coll.records, key=lambda r: r.arrival_ms)
        assert recs[1].completion_ms < 100.0

    def test_full_queue_does_not_bypass_load(self):
        sim, coll, backend = make_backend()
        s = spec("a", duty=0.0, batch=2)
        s.load_ms = 300.0
        backend.set_schedule([s])
        for t in (0.0, 1.0, 2.0, 3.0):
            submit(sim, backend, "a", t, slo=1000.0)
        sim.run()
        assert min(r.completion_ms for r in coll.records) >= 300.0

    def test_schedule_update_preserves_pending_load(self):
        """Regression: a schedule update must not reset a still-loading
        session's ready time -- the carried-over state used to keep the
        default -inf, letting batches run mid-PCIe-transfer."""
        sim, coll, backend = make_backend()
        s = spec("a", duty=0.0)
        s.load_ms = 200.0
        backend.set_schedule([s])
        submit(sim, backend, "a", 0.0, slo=500.0)
        # Re-install the same schedule while the model is still streaming.
        sim.schedule_at(50.0, lambda: backend.set_schedule([spec("a", duty=0.0)]))
        sim.run()
        assert coll.records[0].completion_ms >= 200.0

    def test_greedy_pacing_waits_for_load(self):
        """Regression: greedy (Clipper/TF-Serving) pacing must also wait
        for the model load; it used to execute on unloaded models."""
        sim, coll, backend = make_backend(pacing="greedy")
        s = spec("a", duty=0.0)
        s.load_ms = 200.0
        backend.set_schedule([s])
        submit(sim, backend, "a", 0.0, slo=500.0)
        sim.run()
        assert len(coll.records) == 1
        assert coll.records[0].completion_ms >= 200.0


class _RescanOnEveryEnqueue(Backend):
    """The reference path: every admitted request runs the full rescan."""

    def enqueue(self, request):
        state = self._sessions.get(request.session_id)
        if not self.alive or state is None:
            super().enqueue(request)
            return
        state.queue.append(request)
        self._kick()


_session_specs = st.tuples(
    st.floats(0.2, 3.0), st.floats(1.0, 30.0), st.floats(20.0, 300.0),
    st.integers(1, 16),
    st.one_of(st.integers(5, 200).map(float), st.floats(5.0, 200.0)),
    st.one_of(st.just(0.0), st.floats(1.0, 500.0)),
)


@st.composite
def _arrival_streams(draw):
    """Seeded random arrivals: ``(time_ms, session index)`` pairs, on an
    integer grid half the time so arrivals tie with dueness instants."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    horizon_ms = draw(st.floats(50.0, 3000.0))
    integral = draw(st.booleans())
    out = []
    for _ in range(draw(st.integers(1, 150))):
        t = rng.uniform(0.0, horizon_ms)
        out.append((float(round(t)) if integral else t, rng.randrange(6)))
    return out


class TestIdleEnqueueFastPath:
    """Enqueue on an idle backend with an armed wake checks only the
    enqueued session; the outcome must equal a full rescan's."""

    @staticmethod
    def _replay(cls, sessions, arrivals):
        sim = Simulator()
        buffer = TraceBuffer()
        backend = cls(sim, tracer=Tracer([buffer]))
        specs = []
        for i, (alpha, beta, slo, batch, duty, load) in enumerate(sessions):
            s = spec(f"s{i}", alpha=alpha, beta=beta, slo=slo, batch=batch,
                     duty=duty)
            s.load_ms = load
            specs.append(s)
        backend.set_schedule(specs)
        outcomes = []

        def done(req, t, ok):
            outcomes.append(("done", req.request_id, t, ok))

        def dropped(req, t):
            outcomes.append(("drop", req.request_id, t))

        for rid, (at_ms, which) in enumerate(arrivals):
            slo = sessions[which % len(sessions)][2]
            request = Request(f"s{which % len(sessions)}", at_ms, at_ms + slo,
                              request_id=rid, on_complete=done,
                              on_drop=dropped)
            sim.schedule_at(at_ms, lambda r=request: backend.enqueue(r))
        sim.run()
        trace = [(x.session_id, x.ts_ms, x.end_ms, x.batch)
                 for x in batches(buffer)]
        return trace, outcomes, sim.events_processed

    @given(st.lists(_session_specs, min_size=1, max_size=6),
           _arrival_streams())
    @settings(max_examples=400, deadline=None)
    def test_matches_full_rescan(self, sessions, arrivals):
        fast = self._replay(Backend, sessions, arrivals)
        reference = self._replay(_RescanOnEveryEnqueue, sessions, arrivals)
        assert fast == reference
        assert len(fast[1]) == len(arrivals)

    def test_kept_wake_fires_at_the_rescan_instant(self):
        # s0 finishes loading at 63.386536; the wake armed at 24.949
        # rounds to 63.38653599999999, the rescan at 31.497 (for s1,
        # which loads later) to 63.386536.  Keeping the first timer would
        # fire an extra wake one ulp before s0 is ready.
        sessions = [(1.0, 5.0, 500.0, 8, 50.0, 63.386536),
                    (1.0, 5.0, 500.0, 8, 50.0, 100.0)]
        arrivals = [(24.949, 0), (31.497, 1)]
        fast = self._replay(Backend, sessions, arrivals)
        assert fast == self._replay(_RescanOnEveryEnqueue, sessions, arrivals)
        assert fast[0][0][1] == 63.386536

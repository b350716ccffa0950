"""Tests for the text renderers (metrics/render.py)."""

import pytest

from repro.metrics.collector import MetricsCollector, TimeSeries
from repro.metrics.render import render_figure13, render_gantt, render_series
from repro.observability import BATCH_EXECUTED, TraceEvent


def span(gpu_id, session_id, start_ms, end_ms, batch):
    return TraceEvent(start_ms, BATCH_EXECUTED, gpu_id=gpu_id,
                      session_id=session_id, dur_ms=end_ms - start_ms,
                      batch=batch)


def series(values, window=1000.0):
    s = TimeSeries(window)
    for i, v in enumerate(values):
        s.times_ms.append(i * window)
        s.values.append(v)
    return s


class TestRenderSeries:
    def test_range_annotated(self):
        out = render_series(series([1.0, 5.0, 10.0]), title="load")
        assert out.startswith("load [1.0..10.0]")

    def test_monotone_values_monotone_chars(self):
        out = render_series(series([0.0, 5.0, 10.0]))
        strip = out.split("] ")[1]
        assert strip[0] == " " and strip[-1] == "@"

    def test_flat_series(self):
        out = render_series(series([3.0, 3.0, 3.0]))
        assert "[3.0..3.0]" in out

    def test_empty(self):
        assert "(empty)" in render_series(series([]), title="x")

    def test_downsampling(self):
        out = render_series(series(list(range(100))), width=10)
        strip = out.split("] ")[1]
        assert len(strip) == 10

    def test_figure13_panels(self):
        out = render_figure13(series([1, 2]), series([4, 8]),
                              series([0.0, 0.5]))
        assert out.count("\n") == 2
        assert "workload" in out and "GPUs" in out and "bad rate" in out


class TestRenderGantt:
    def test_basic_strip(self):
        spans = [
            span(0, "a", 0.0, 50.0, 4),
            span(0, "b", 50.0, 100.0, 2),
            span(1, "a", 10.0, 60.0, 4),
        ]
        out = render_gantt(spans, width=20)
        assert "gpu0" in out and "gpu1" in out
        assert "A=a" in out and "B=b" in out

    def test_idle_shown_as_dots(self):
        spans = [span(0, "a", 0.0, 10.0, 1),
                 span(0, "a", 90.0, 100.0, 1)]
        out = render_gantt(spans, width=20)
        row = out.splitlines()[0]
        assert "." in row

    def test_overlap_rejected(self):
        spans = [span(0, "a", 0.0, 60.0, 1),
                 span(0, "b", 50.0, 100.0, 1)]
        with pytest.raises(ValueError):
            render_gantt(spans)

    def test_empty(self):
        assert render_gantt([]) == "(no spans)"

    def test_window_clipping(self):
        spans = [span(0, "a", 0.0, 10.0, 1),
                 span(0, "b", 500.0, 510.0, 1)]
        out = render_gantt(spans, start_ms=0.0, end_ms=20.0, width=10)
        assert "B=b" not in out

    def test_from_real_backend_trace(self):
        """A two-GPU simulation's ``batch.executed`` events render as one
        strip per GPU, never overlap on a GPU, and add up to the busy
        time the invocation collector recorded."""
        from repro.cluster.backend import Backend, BackendSession
        from repro.cluster.messages import Request
        from repro.core.profile import LinearProfile
        from repro.observability import TraceBuffer, Tracer
        from repro.simulation.simulator import Simulator

        sim = Simulator()
        collector = MetricsCollector()
        buffer = TraceBuffer()
        tracer = Tracer([buffer], invocation=collector)
        backends = [Backend(sim, gpu_id=i, tracer=tracer) for i in range(2)]
        for backend in backends:
            backend.set_schedule([
                BackendSession(
                    session_id=sid,
                    profile=LinearProfile(name=sid, alpha=1.0, beta=5.0,
                                          max_batch=8),
                    slo_ms=100.0, target_batch=4, duty_cycle_ms=20.0,
                )
                for sid in ("m", "n")
            ])
        for i in range(40):
            t = i * 3.0
            backend, sid = backends[i % 2], "mn"[i // 2 % 2]
            sim.schedule_at(t, lambda t=t, b=backend, sid=sid: b.enqueue(
                Request(session_id=sid, arrival_ms=t, deadline_ms=t + 100.0)))
        sim.run()

        spans = buffer.by_kind(BATCH_EXECUTED)
        out = render_gantt(spans, width=40)   # raises on an overlap
        assert "gpu0" in out and "gpu1" in out
        assert "A=m" in out and "B=n" in out
        busy = {}
        for gpu_id in (0, 1):
            mine = sorted((s for s in spans if s.gpu_id == gpu_id),
                          key=lambda s: s.ts_ms)
            assert mine
            for s1, s2 in zip(mine, mine[1:]):
                assert s2.ts_ms >= s1.end_ms - 1e-9
            busy[gpu_id] = sum(s.dur_ms for s in mine)
        assert busy == collector.gpu_busy_ms

"""Tests for the metrics collector."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.metrics.collector import MetricsCollector, RequestRecord


def rec(i, arrival, slo, completion, dropped=False, session="s"):
    return RequestRecord(
        request_id=i, session_id=session, arrival_ms=arrival,
        deadline_ms=arrival + slo,
        completion_ms=None if dropped else completion, dropped=dropped,
    )


class TestRequestRecord:
    def test_ok_within_deadline(self):
        assert rec(1, 0.0, 100.0, 80.0).ok

    def test_late_not_ok(self):
        assert not rec(1, 0.0, 100.0, 130.0).ok

    def test_dropped_not_ok(self):
        r = rec(1, 0.0, 100.0, None, dropped=True)
        assert not r.ok
        assert r.latency_ms is None

    def test_latency(self):
        assert rec(1, 10.0, 100.0, 60.0).latency_ms == 50.0


class TestCollectorSummary:
    def _collector(self):
        c = MetricsCollector()
        c.record(rec(1, 0.0, 100.0, 50.0))            # ok
        c.record(rec(2, 10.0, 100.0, 200.0))          # late
        c.record(rec(3, 20.0, 100.0, None, True))     # dropped
        c.record(rec(4, 30.0, 100.0, 90.0))           # ok
        return c

    def test_counts(self):
        c = self._collector()
        assert c.total == 4
        assert c.ok_count == 2
        assert c.late_count == 1
        assert c.dropped_count == 1

    def test_rates(self):
        c = self._collector()
        assert c.good_rate == 0.5
        assert c.bad_rate == 0.5

    def test_empty_collector(self):
        c = MetricsCollector()
        assert c.good_rate == 1.0
        assert c.goodput_rps() == 0.0
        assert math.isnan(c.latency_percentile(50))

    def test_goodput(self):
        c = self._collector()
        assert c.goodput_rps(span_ms=1000.0) == pytest.approx(2.0)

    def test_latency_percentiles(self):
        c = MetricsCollector()
        for i in range(100):
            c.record(rec(i, 0.0, 1000.0, float(i + 1)))
        assert c.latency_percentile(50) == pytest.approx(50.0)
        assert c.latency_percentile(99) == pytest.approx(99.0)
        assert c.latency_percentile(100) == pytest.approx(100.0)

    def test_percentile_validation(self):
        c = self._collector()
        with pytest.raises(ValueError):
            c.latency_percentile(150)

    def test_utilization(self):
        c = MetricsCollector()
        c.record_gpu_busy(0, 500.0)
        c.record_gpu_busy(1, 250.0)
        assert c.utilization(2, 1000.0) == pytest.approx(0.375)
        assert c.utilization(0, 1000.0) == 0.0

    def test_per_session_stats(self):
        c = MetricsCollector()
        c.record(rec(1, 0.0, 100.0, 50.0, session="a"))
        c.record(rec(2, 0.0, 100.0, None, True, session="a"))
        c.record(rec(3, 0.0, 100.0, 60.0, session="b"))
        stats = c.per_session_stats()
        assert stats["a"]["bad_rate"] == 0.5
        assert stats["b"]["bad_rate"] == 0.0


class TestTimeSeries:
    def test_workload_series(self):
        c = MetricsCollector()
        # 10 arrivals in [0, 1000), 20 in [1000, 2000).
        for i in range(10):
            c.record(rec(i, i * 100.0, 100.0, i * 100.0 + 10))
        for i in range(20):
            c.record(rec(100 + i, 1000.0 + i * 50.0, 100.0, 1100.0))
        series = c.workload_series(1000.0, 2000.0)
        assert series.values == [10.0, 20.0]

    def test_bad_rate_series(self):
        c = MetricsCollector()
        for i in range(10):
            ok = i % 2 == 0
            c.record(rec(i, i * 10.0, 100.0,
                         i * 10.0 + (10 if ok else 200)))
        series = c.bad_rate_series(100.0, 100.0)
        assert series.values == [0.5]

    def test_bad_rate_empty_window(self):
        c = MetricsCollector()
        series = c.bad_rate_series(100.0, 300.0)
        assert series.values == [0.0, 0.0, 0.0]

    def test_gpu_count_series_steps(self):
        c = MetricsCollector()
        c.sample_gpu_count(0.0, 4)
        c.sample_gpu_count(150.0, 8)
        series = c.gpu_count_series(100.0, 400.0)
        # Each window reports the count at its start time.
        assert series.values == [4.0, 4.0, 8.0, 8.0]


#: (session, arrival_ms, slo_ms, latency_ms or None = dropped); latencies
#: start above the histogram's 0.1 ms floor, where the bucket bound holds.
_STREAMS = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c"]),
        st.floats(0.0, 1_000.0),
        st.floats(1.0, 500.0),
        st.one_of(st.none(), st.floats(0.2, 50_000.0)),
    ),
    max_size=60,
)


class TestSummaryMode:
    """``keep_records=False`` folds a stream into the answers retaining it
    gives: counts, per-session stats and goodput exactly, percentiles to
    within the documented bucket bound."""

    @given(stream=_STREAMS, min_arrival_ms=st.floats(0.0, 800.0))
    def test_matches_retained_records(self, stream, min_arrival_ms):
        kept = MetricsCollector(min_arrival_ms=min_arrival_ms)
        folded = MetricsCollector(keep_records=False,
                                  min_arrival_ms=min_arrival_ms)
        for i, (sid, arrival, slo, latency) in enumerate(stream):
            r = rec(i, arrival, slo,
                    None if latency is None else arrival + latency,
                    dropped=latency is None, session=sid)
            kept.record(r)
            folded.record(r)

        assert folded.records == []
        assert all(r.arrival_ms >= min_arrival_ms for r in kept.records)
        assert (folded.total, folded.ok_count, folded.dropped_count,
                folded.late_count) == (kept.total, kept.ok_count,
                                       kept.dropped_count, kept.late_count)
        assert folded.per_session_stats() == kept.per_session_stats()
        assert folded.goodput_rps() == kept.goodput_rps()
        assert folded.goodput_rps(1_000.0) == kept.goodput_rps(1_000.0)
        for pct in (0.0, 1.0, 50.0, 90.0, 99.0, 100.0):
            exact = kept.latency_percentile(pct)
            approx = folded.latency_percentile(pct)
            if math.isnan(exact):
                assert math.isnan(approx)
                continue
            # The upper edge of the exact value's bucket: never below it,
            # at most 5 % above (float slack at the bucket edges).
            assert exact * (1 - 1e-9) <= approx <= exact * 1.05 * (1 + 1e-9)

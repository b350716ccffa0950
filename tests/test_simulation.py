"""Tests for the discrete-event simulator and arrival processes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.simulator import Simulator
from repro.workloads.arrivals import (
    merge_arrivals,
    mmpp_arrivals,
    poisson_arrivals,
    uniform_arrivals,
    zipf_rates,
)


class TestSimulator:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(30.0, lambda: order.append("c"))
        sim.schedule(10.0, lambda: order.append("a"))
        sim.schedule(20.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_broken_by_priority_then_fifo(self):
        sim = Simulator()
        order = []
        sim.schedule(10.0, lambda: order.append("late"), priority=1)
        sim.schedule(10.0, lambda: order.append("early"), priority=0)
        sim.schedule(10.0, lambda: order.append("early2"), priority=0)
        sim.run()
        assert order == ["early", "early2", "late"]

    def test_now_advances(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]
        assert sim.now == 5.0

    def test_run_until_stops(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, lambda: fired.append(1))
        sim.schedule(100.0, lambda: fired.append(2))
        sim.run_until(50.0)
        assert fired == [1]
        assert sim.now == 50.0
        sim.run_until(200.0)
        assert fired == [1, 2]

    def test_events_can_schedule_events(self):
        sim = Simulator()
        hits = []

        def ping():
            hits.append(sim.now)
            if len(hits) < 5:
                sim.schedule(10.0, ping)

        sim.schedule(0.0, ping)
        sim.run()
        assert hits == [0.0, 10.0, 20.0, 30.0, 40.0]

    def test_cancellation(self):
        sim = Simulator()
        fired = []
        h = sim.schedule(10.0, lambda: fired.append(1))
        h.cancel()
        sim.run()
        assert fired == []
        assert h.cancelled

    def test_cancel_after_fire_is_not_pending(self):
        # A handle cancelled from inside (or after) its own callback no
        # longer has a heap entry; counting it would trigger spurious
        # compactions.
        sim = Simulator()
        handles = []
        handles.append(sim.schedule(10.0, lambda: handles[0].cancel()))
        late = sim.schedule(20.0, lambda: None)
        sim.run()
        late.cancel()
        assert sim._cancelled_pending == 0
        assert sim._heap == []

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_past_scheduling_rejected(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(5.0, lambda: None)


class TestArrivals:
    def test_uniform_rate_accuracy(self):
        arr = uniform_arrivals(100.0, 10_000.0, seed=1)
        assert len(arr) == pytest.approx(1000, abs=2)

    def test_uniform_sorted_and_bounded(self):
        arr = uniform_arrivals(50.0, 5_000.0, seed=2)
        assert arr == sorted(arr)
        assert all(0 <= t < 5_000.0 + 20.0 for t in arr)

    def test_uniform_no_jitter_is_periodic(self):
        arr = uniform_arrivals(10.0, 1_000.0, jitter=0.0)
        gaps = {round(b - a, 6) for a, b in zip(arr, arr[1:])}
        assert gaps == {100.0}

    def test_poisson_rate_accuracy(self):
        arr = poisson_arrivals(200.0, 60_000.0, seed=3)
        assert len(arr) == pytest.approx(12_000, rel=0.05)

    def test_poisson_deterministic_per_seed(self):
        a = poisson_arrivals(100.0, 5_000.0, seed=9)
        b = poisson_arrivals(100.0, 5_000.0, seed=9)
        c = poisson_arrivals(100.0, 5_000.0, seed=10)
        assert a == b
        assert a != c

    def test_poisson_more_bursty_than_uniform(self):
        import numpy as np

        u = uniform_arrivals(100.0, 30_000.0, seed=4)
        p = poisson_arrivals(100.0, 30_000.0, seed=4)
        cv = lambda xs: float(np.std(np.diff(xs)) / np.mean(np.diff(xs)))
        assert cv(p) > 3 * cv(u)

    def test_zero_rate(self):
        assert uniform_arrivals(0.0, 1_000.0) == []
        assert poisson_arrivals(0.0, 1_000.0) == []

    def test_mmpp_phases(self):
        arr = mmpp_arrivals([1000.0, 10.0], phase_ms=1_000.0,
                            duration_ms=2_000.0, seed=5)
        first = sum(1 for t in arr if t < 1_000.0)
        second = len(arr) - first
        assert first > 20 * max(second, 1) or second == 0

    def test_mmpp_requires_rates(self):
        with pytest.raises(ValueError):
            mmpp_arrivals([], 100.0, 1000.0)

    def test_merge(self):
        a = [1.0, 3.0]
        b = [2.0, 4.0]
        assert merge_arrivals(a, b) == [1.0, 2.0, 3.0, 4.0]

    def test_zipf_rates_sum_and_shape(self):
        rates = zipf_rates(1000.0, 20, exponent=0.9)
        assert sum(rates) == pytest.approx(1000.0)
        assert rates == sorted(rates, reverse=True)
        assert rates[0] / rates[-1] == pytest.approx(20 ** 0.9, rel=0.01)

    def test_zipf_requires_positive_n(self):
        with pytest.raises(ValueError):
            zipf_rates(10.0, 0)

    @given(st.floats(1.0, 500.0), st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_poisson_sorted_property(self, rate, seed):
        arr = poisson_arrivals(rate, 2_000.0, seed=seed)
        assert arr == sorted(arr)
        assert all(t < 2_000.0 for t in arr)


class TestSimulatorStress:
    def test_many_same_timestamp_events_fifo(self):
        sim = Simulator()
        order = []
        for i in range(500):
            sim.schedule(10.0, lambda i=i: order.append(i))
        sim.run()
        assert order == list(range(500))

    def test_cancel_inside_handler(self):
        sim = Simulator()
        fired = []
        h2 = sim.schedule(20.0, lambda: fired.append("b"))
        sim.schedule(10.0, lambda: (fired.append("a"), h2.cancel()))
        sim.run()
        assert fired == ["a"]

    def test_interleaved_run_until_and_schedule(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, lambda: fired.append(1))
        sim.run_until(15.0)
        sim.schedule(10.0, lambda: fired.append(2))  # at t=25
        sim.run_until(30.0)
        assert fired == [1, 2]
        assert sim.now == 30.0

    def test_event_count_accounting(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(float(i), lambda: None)
        h = sim.schedule(99.0, lambda: None)
        h.cancel()
        sim.run()
        assert sim.events_processed == 10


class TestHeapCompaction:
    """Cancelled events must not grow the heap unboundedly (timer churn)."""

    def test_heap_stays_bounded_under_schedule_cancel_churn(self):
        sim = Simulator()
        # Heavy timer churn: schedule a far-out timer, cancel it, repeat --
        # the pattern of heartbeat leases and retry backoffs.  Without
        # compaction the heap would hold all 50k dead entries.
        for _ in range(50_000):
            h = sim.schedule(1_000.0, lambda: None)
            h.cancel()
        assert len(sim._heap) < Simulator._COMPACT_MIN + 2

    def test_compaction_preserves_live_event_order(self):
        sim = Simulator()
        fired = []
        # Interleave live events with churned timers so compaction runs
        # while live entries are in the heap.
        for i in range(200):
            sim.schedule(float(i), lambda i=i: fired.append(i))
            for _ in range(10):
                h = sim.schedule(500.0 + i, lambda: None)
                h.cancel()
        assert len(sim._heap) < 2_200  # compaction actually ran
        sim.run()
        assert fired == list(range(200))

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        hs = [sim.schedule(10.0, lambda: None) for _ in range(100)]
        for h in hs:
            h.cancel()
            h.cancel()
        sim.run()
        assert sim._cancelled_pending == 0
        assert sim.events_processed == 0

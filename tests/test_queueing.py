"""Tests for the closed-form queueing oracle (core/queueing.py).

The contract under test (docs/queueing.md): the analytic estimate tracks
the seeded queue simulation within stated tolerances on Poisson arrivals,
declines (and falls back) exactly when its preconditions fail, and
``max_batch_under_p99`` finds the largest cap whose tail meets the SLO.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.profile import LinearProfile
from repro.core.profile_tables import ProfileTables
from repro.core.queueing import (
    DEFAULT_SIM_ARRIVALS,
    OracleInapplicable,
    SPILLOVER_CEILING,
    analytic_estimate,
    capacity_answer,
    max_batch_under_p99,
    queue_latencies,
    simulate_estimate,
)

#: documented validation tolerances for Poisson arrivals at <= 0.85 of
#: the cap-limited sustainable rate (docs/queueing.md).
P50_TOLERANCE = 0.10
P99_TOLERANCE = 0.20


def make_profile(alpha=1.0, beta=25.0, name="m", max_batch=64):
    return LinearProfile(name=name, alpha=alpha, beta=beta,
                         max_batch=max_batch)


class _TablesOnlyProfile:
    """Minimal profile surface the oracle consumes: ``tables()`` built
    from an explicit latency array (lets tests commit contract
    violations a real profile cannot)."""

    def __init__(self, lats):
        self.lats = tuple(lats)
        self.max_batch = len(self.lats)
        self._cached = None

    def latency_curve(self):
        return self.lats

    def latency(self, batch):
        return self.lats[batch - 1]

    def memory_bytes(self, batch):
        return 0

    def tables(self):
        if self._cached is None:
            self._cached = ProfileTables(self)
        return self._cached


class TestAnalyticVsSimulator:
    @settings(max_examples=12, deadline=None)
    @given(
        alpha=st.floats(min_value=0.2, max_value=3.0),
        # Batching-friendly profiles (fixed overhead dominating per-item
        # cost), the regime DNN profiles live in and the one the oracle's
        # error bounds are documented for (docs/queueing.md); at large
        # alpha/beta the p99 underestimate grows past them.
        beta_over_alpha=st.floats(min_value=8.0, max_value=40.0),
        frac=st.floats(min_value=0.3, max_value=0.7),
    )
    def test_poisson_agreement_within_tolerance(
            self, alpha, beta_over_alpha, frac):
        profile = make_profile(alpha, alpha * beta_over_alpha)
        cap = 32
        sustainable = max(profile.tables().throughput_rps[:cap])
        rate = sustainable * frac
        oracle = analytic_estimate(profile, rate, cap)
        truth = simulate_estimate(profile, rate, cap, seed=1)
        assert oracle.stable and truth.stable
        assert oracle.p50_ms == pytest.approx(
            truth.p50_ms, rel=P50_TOLERANCE)
        assert oracle.p99_ms == pytest.approx(
            truth.p99_ms, rel=P99_TOLERANCE)

    def test_quantiles_are_ordered(self):
        est = analytic_estimate(make_profile(), 300.0, 32)
        assert est.p50_ms <= est.p90_ms <= est.p99_ms
        assert est.mean_latency_ms > 0

    def test_unstable_rate_answered_not_fallback(self):
        profile = make_profile()
        cap = 32
        sustainable = max(profile.tables().throughput_rps[:cap])
        est = analytic_estimate(profile, sustainable * 1.5, cap)
        assert est.source == "analytic"
        assert not est.stable
        assert math.isinf(est.p99_ms)

    def test_simulator_detects_unstable_rate(self):
        profile = make_profile()
        sustainable = max(profile.tables().throughput_rps[:32])
        est = simulate_estimate(profile, sustainable * 1.5, 32, seed=0,
                                num_arrivals=4000)
        assert not est.stable


class TestPreconditionsAndFallback:
    def test_non_monotone_profile_falls_back(self):
        profile = _TablesOnlyProfile([30.0, 20.0, 40.0, 50.0])
        with pytest.raises(OracleInapplicable) as exc:
            analytic_estimate(profile, 20.0)
        assert exc.value.reason == "non-monotone-profile"
        answered = capacity_answer(profile, 20.0, mode="analytic", seed=5)
        assert answered.source == "simulator"
        assert answered.reason == "non-monotone-profile"
        # The fallback is exactly the simulate-mode answer at that seed.
        direct = simulate_estimate(profile, 20.0, seed=5)
        assert answered.p99_ms == direct.p99_ms
        assert answered.utilization == direct.utilization

    def test_degenerate_latency_declined(self):
        profile = _TablesOnlyProfile([0.0, 0.0, 0.0])
        with pytest.raises(OracleInapplicable) as exc:
            analytic_estimate(profile, 10.0)
        assert exc.value.reason == "degenerate-latency"

    def test_nonpositive_rate_declined(self):
        with pytest.raises(OracleInapplicable) as exc:
            analytic_estimate(make_profile(), 0.0)
        assert exc.value.reason == "nonpositive-rate"
        est = capacity_answer(make_profile(), 0.0)
        assert est.source == "simulator"
        assert est.reason == "nonpositive-rate"

    def test_near_saturation_spillover_falls_back(self):
        # cap 8 at 97% of the cap-limited sustainable rate: the next-batch
        # cohort overflows the cap far more often than SPILLOVER_CEILING.
        profile = make_profile()
        cap = 8
        sustainable = max(profile.tables().throughput_rps[:cap])
        with pytest.raises(OracleInapplicable) as exc:
            analytic_estimate(profile, sustainable * 0.97, cap)
        assert exc.value.reason == "batch-cap-spillover"
        est = capacity_answer(profile, sustainable * 0.97, cap,
                              num_arrivals=4000)
        assert est.source == "simulator"
        assert est.reason == "batch-cap-spillover"
        assert 0.0 < SPILLOVER_CEILING < 1.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            capacity_answer(make_profile(), 100.0, mode="guess")


class TestQueueReplay:
    def test_hand_checked_batching(self):
        # l(b) = 10b; arrivals at 0, 1, 2 with cap 2: a solo batch (latency
        # 10), then arrivals 1 and 2 ride one batch of 2 finishing at 30.
        profile = make_profile(alpha=10.0, beta=0.0)
        lats = queue_latencies([0.0, 1.0, 2.0], profile, batch_cap=2)
        assert lats == [10.0, 29.0, 28.0]

    def test_empty_stream(self):
        assert queue_latencies([], make_profile()) == []

    def test_cap_respected(self):
        # 10 simultaneous arrivals, cap 4: batches of at most 4.
        profile = make_profile(alpha=1.0, beta=1.0)
        lats = queue_latencies([0.0] * 10, profile, batch_cap=4)
        assert len(lats) == 10
        assert max(lats) > min(lats)  # several sequential batches


class TestMaxBatchUnderP99:
    def test_zero_when_infeasible(self):
        profile = make_profile()
        assert max_batch_under_p99(profile, 100.0, 10.0) == 0  # l(1) > slo
        assert max_batch_under_p99(profile, 0.0, 100.0) == 0

    def test_memoized_on_tables(self):
        profile = make_profile()
        first = max_batch_under_p99(profile, 200.0, 150.0)
        key = (200.0, 150.0, "analytic", 0, DEFAULT_SIM_ARRIVALS, "")
        assert profile.tables().p99_memo[key] == first
        assert max_batch_under_p99(profile, 200.0, 150.0) == first

    def test_simulation_seeds_do_not_alias(self):
        """Regression: the memo key left out ``seed`` and ``num_arrivals``,
        so the first simulated answer was served for every later stream."""
        profile = make_profile()

        def cap(seed, num_arrivals=300):
            return max_batch_under_p99(
                profile, 400.0, 90.0, mode="simulate", seed=seed,
                num_arrivals=num_arrivals,
            )

        # Near the feasibility edge a 300-arrival replay's p99 straddles
        # the SLO, so these two seeds genuinely disagree.
        assert cap(seed=0) != cap(seed=4)
        cap(seed=0, num_arrivals=600)
        keys = set(profile.tables().p99_memo)
        assert {(400.0, 90.0, "simulate", seed, n, "")
                for seed, n in ((0, 300), (4, 300), (0, 600))} <= keys

    def test_result_meets_slo_analytically(self):
        profile = make_profile()
        cap = max_batch_under_p99(profile, 200.0, 150.0)
        assert 1 <= cap <= profile.max_batch
        est = capacity_answer(profile, 200.0, batch_cap=cap)
        assert est.stable and est.p99_ms <= 150.0 * 1.0001

    def test_modes_agree_on_easy_case(self):
        rate, slo = 200.0, 200.0
        analytic = max_batch_under_p99(make_profile(name="a"), rate, slo,
                                       mode="analytic")
        simulated = max_batch_under_p99(make_profile(name="s"), rate, slo,
                                        mode="simulate")
        assert analytic == simulated

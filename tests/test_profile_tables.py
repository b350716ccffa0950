"""Property tests pinning the precomputed profile lookup tables
(core/profile_tables.py) to the brute-force scans they replace."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.profile import (
    EffectiveProfile,
    LinearProfile,
    TabulatedProfile,
)
from repro.core.profile_tables import ProfileTables


# ------------------------------------------------------- brute-force oracles

def brute_max_batch_with_latency(profile, budget_ms):
    """Largest batch whose latency fits the budget (0 if none)."""
    best = 0
    for b in range(1, profile.max_batch + 1):
        if profile.latency(b) <= budget_ms:
            best = b
    return best


def brute_max_batch_residual(profile, rate_rps, slo_ms):
    """Equation 2 by exhaustive scan: largest b with
    ``(b - 1)/rate + latency(b) <= slo`` (0 if none)."""
    if rate_rps <= 0:
        return 0
    best = 0
    for b in range(1, profile.max_batch + 1):
        if (b - 1) / rate_rps * 1000.0 + profile.latency(b) <= slo_ms:
            best = b
    return best


# -------------------------------------------------------- profile strategies

linear_profiles = st.builds(
    lambda a, b, mb: LinearProfile(name="m", alpha=a, beta=b, max_batch=mb),
    st.floats(0.05, 5.0), st.floats(0.0, 50.0), st.integers(1, 128),
)


@st.composite
def tabulated_profiles(draw):
    n = draw(st.integers(1, 6))
    batches = sorted(draw(st.lists(
        st.integers(1, 64), min_size=n, max_size=n, unique=True,
    )))
    lats = sorted(draw(st.lists(
        st.floats(0.5, 200.0), min_size=n, max_size=n,
    )))
    return TabulatedProfile(name="t", points=tuple(zip(batches, lats)))


effective_profiles = st.builds(
    lambda a, b, pre, workers: EffectiveProfile(
        base=LinearProfile(name="m", alpha=a, beta=b, pre_ms=pre,
                           cpu_workers=workers, max_batch=64),
        overlap=True,
    ),
    st.floats(0.1, 5.0), st.floats(0.0, 20.0), st.floats(0.0, 10.0),
    st.integers(1, 8),
)


class _NonMonotoneProfile:
    """Deliberate contract violation: latency dips with batch size.

    Only the surface :class:`ProfileTables` consumes: ``max_batch``,
    ``latency_curve`` and ``memory_bytes``.
    """

    def __init__(self, lats):
        self.lats = tuple(lats)
        self.max_batch = len(self.lats)

    def latency_curve(self):
        return self.lats

    def memory_bytes(self, batch):
        return 0


def legacy_residual_scan(lats, rate_rps, slo_ms):
    """The pre-table linear scan, early ``break`` included: the exact
    semantics the non-monotone fallback must preserve."""
    best = 0
    for b, lat in enumerate(lats, start=1):
        gather_ms = (b - 1) / rate_rps * 1000.0
        if gather_ms + lat <= slo_ms:
            best = b
        elif lat > slo_ms:
            break
    return best


# -------------------------------------------------------------- the pinning

class TestBisectMatchesBruteForce:
    @given(linear_profiles, st.floats(0.0, 400.0))
    @settings(max_examples=80)
    def test_linear_max_batch_with_latency(self, profile, budget):
        tables = ProfileTables(profile)
        assert tables.max_batch_with_latency(budget) == \
            brute_max_batch_with_latency(profile, budget)

    @given(linear_profiles, st.floats(0.01, 2000.0), st.floats(1.0, 500.0))
    @settings(max_examples=80)
    def test_linear_max_batch_residual(self, profile, rate, slo):
        assert profile.max_batch_residual(rate, slo) == \
            brute_max_batch_residual(profile, rate, slo)

    @given(tabulated_profiles(), st.floats(0.0, 400.0))
    @settings(max_examples=60)
    def test_tabulated_max_batch_with_latency(self, profile, budget):
        assert profile.max_batch_with_latency(budget) == \
            brute_max_batch_with_latency(profile, budget)

    @given(tabulated_profiles(), st.floats(0.01, 2000.0),
           st.floats(1.0, 500.0))
    @settings(max_examples=60)
    def test_tabulated_max_batch_residual(self, profile, rate, slo):
        assert profile.max_batch_residual(rate, slo) == \
            brute_max_batch_residual(profile, rate, slo)

    @given(effective_profiles, st.floats(0.01, 2000.0),
           st.floats(1.0, 500.0))
    @settings(max_examples=60)
    def test_effective_max_batch_residual(self, profile, rate, slo):
        assert profile.max_batch_residual(rate, slo) == \
            brute_max_batch_residual(profile, rate, slo)

    @given(linear_profiles, st.floats(1.0, 500.0))
    @settings(max_examples=60)
    def test_max_batch_under_slo_is_half_budget_search(self, profile, slo):
        assert profile.max_batch_under_slo(slo) == \
            profile.max_batch_with_latency(slo / 2.0)


class TestNonMonotoneFallback:
    @given(st.lists(st.floats(0.5, 100.0), min_size=1, max_size=32),
           st.floats(0.01, 500.0), st.floats(1.0, 300.0))
    @settings(max_examples=80)
    def test_fallback_preserves_legacy_scan(self, lats, rate, slo):
        tables = ProfileTables(_NonMonotoneProfile(lats))
        assert tables.max_batch_residual(rate, slo) == \
            legacy_residual_scan(lats, rate, slo)


class TestTablesMatchTheScalarFormulas:
    @given(st.lists(
        st.one_of(st.floats(-5.0, 300.0), st.sampled_from([0.0, -0.0])),
        min_size=1, max_size=64,
    ))
    @settings(max_examples=80)
    def test_throughput_and_monotone_per_batch(self, lats):
        """The array build equals the per-batch expressions, non-positive
        latencies (throughput 0.0) and dips included."""
        tables = ProfileTables(_NonMonotoneProfile(lats))
        assert tables.latency_ms == tuple(lats)
        assert tables.throughput_rps == tuple(
            (b / lat * 1000.0) if lat > 0 else 0.0
            for b, lat in enumerate(lats, start=1)
        )
        assert all(type(t) is float for t in tables.throughput_rps)
        assert tables.monotone == all(a <= b for a, b in zip(lats, lats[1:]))
        assert tables.memory_bytes == (0,) * len(lats)


class TestMemoization:
    def test_residual_memo_is_stable(self):
        profile = LinearProfile(name="m", alpha=1.0, beta=10.0, max_batch=64)
        first = profile.max_batch_residual(120.0, 100.0)
        assert profile.tables().residual_memo[(120.0, 100.0)] == first
        assert profile.max_batch_residual(120.0, 100.0) == first

    def test_tables_cached_on_instance(self):
        profile = LinearProfile(name="m", alpha=1.0, beta=10.0, max_batch=64)
        assert profile.tables() is profile.tables()

    def test_memo_reset_past_limit_keeps_answers(self):
        from repro.core import profile_tables as pt

        profile = LinearProfile(name="m", alpha=1.0, beta=5.0, max_batch=32)
        tables = profile.tables()
        expected = profile.max_batch_residual(75.0, 90.0)
        for i in range(pt._MEMO_LIMIT + 8):
            profile.max_batch_residual(10.0 + i, 90.0)
        assert len(tables.residual_memo) <= pt._MEMO_LIMIT
        assert profile.max_batch_residual(75.0, 90.0) == expected

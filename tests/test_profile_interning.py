"""Value-interned ProfileTables, memoised splits and the blocked fused curve.

A profile is a constant of the deployment, so ``tables()`` resolves
through a bounded value-keyed intern table, query splits are memoised by
value, and a prefix-fused profile builds its whole latency curve in
blocks of at most ``_CURVE_CELLS`` batches x suffixes.  None of it may
change a single emitted number: these tests pin the interned tables to a
fresh build field by field, the blocked curve to the per-batch reference
with ``==`` (summation order included), and whole cluster plans to the
plans a non-interning build emits.
"""

import contextlib
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import nexus
from repro.cluster.nexus import ClusterConfig, NexusCluster
from repro.core import profile as profile_mod
from repro.core import profile_tables as pt
from repro.core import query as query_mod
from repro.core import squishy
from repro.core.prefix import _CURVE_CELLS, PrefixBatchedProfile
from repro.core.profile import (
    EffectiveProfile,
    LinearProfile,
    TabulatedProfile,
)
from repro.core.profile_tables import ProfileTables
from repro.core.query import Query, QueryStage, plan_query
from repro.core.queueing import max_batch_under_p99
from repro.workloads.apps import all_apps

linear_profiles = st.builds(
    lambda a, b, pre, post, workers, mb: LinearProfile(
        name="m", alpha=a, beta=b, pre_ms=pre, post_ms=post,
        cpu_workers=workers, max_batch=mb,
        memory_model_bytes=1 << 20, memory_per_input_bytes=4096,
    ),
    st.floats(0.05, 5.0), st.floats(0.0, 30.0), st.floats(0.0, 10.0),
    st.floats(0.0, 2.0), st.integers(1, 8), st.integers(1, 96),
)


@st.composite
def tabulated_profiles(draw):
    n = draw(st.integers(1, 5))
    batches = sorted(draw(st.sets(st.integers(1, 64), min_size=n, max_size=n)))
    lats = sorted(draw(st.lists(st.floats(1.0, 300.0), min_size=n, max_size=n)))
    return TabulatedProfile(
        name="t", points=tuple(zip(batches, lats)),
        pre_ms=draw(st.floats(0.0, 5.0)), cpu_workers=draw(st.integers(1, 4)),
    )


plain_profiles = st.one_of(linear_profiles, tabulated_profiles())
internable_profiles = st.one_of(
    plain_profiles,
    st.builds(lambda base, ol: EffectiveProfile(base=base, overlap=ol),
              plain_profiles, st.booleans()),
)


def renamed(profile, name):
    """An equal-valued copy of ``profile`` under another name."""
    if isinstance(profile, EffectiveProfile):
        return EffectiveProfile(
            name=name, base=renamed(profile.base, name + "-base"),
            overlap=profile.overlap,
        )
    fields = {k: v for k, v in vars(profile).items() if not k.startswith("_")}
    return type(profile)(**{**fields, "name": name})


class TestInternedTablesEqualAFreshBuild:
    @given(internable_profiles)
    @settings(max_examples=120, deadline=None)
    def test_field_by_field(self, profile):
        interned = profile.tables()
        fresh = ProfileTables(profile)
        for field in ("max_batch", "latency_ms", "throughput_rps",
                      "memory_bytes", "monotone"):
            assert getattr(interned, field) == getattr(fresh, field), field
        assert fresh.latency_ms == tuple(
            profile.base.occupancy_time(b, overlap=profile.overlap)
            if isinstance(profile, EffectiveProfile) else profile.latency(b)
            for b in range(1, profile.max_batch + 1)
        )

    @given(internable_profiles)
    @settings(max_examples=60, deadline=None)
    def test_equal_values_share_one_tables_object(self, profile):
        twin = renamed(profile, "another-name")
        assert twin is not profile and twin.name != profile.name
        assert twin.tables() is profile.tables()
        assert profile.tables() is profile.tables()  # per-instance handle

    def test_a_differing_cost_field_gets_its_own_tables(self):
        base = LinearProfile(name="m", alpha=1.0, beta=10.0, max_batch=32)
        for change in ({"alpha": 1.5}, {"beta": 11.0}, {"max_batch": 33},
                       {"pre_ms": 1.0}, {"post_ms": 1.0}, {"cpu_workers": 2},
                       {"memory_model_bytes": 1},
                       {"memory_per_input_bytes": 1}):
            fields = {**vars(base), **change}
            fields.pop("_cached_tables", None)
            assert LinearProfile(**fields).tables() is not base.tables()
        on = EffectiveProfile(base=base, overlap=True)
        off = EffectiveProfile(base=base, overlap=False)
        assert on.tables() is not off.tables()
        assert on.tables() is not base.tables()


class _Doubled(LinearProfile):
    """Same fields as its parent, another curve: must never share."""

    def latency(self, batch):
        return 2.0 * super().latency(batch)


def _fused(prefix, suffixes, weights):
    return PrefixBatchedProfile(
        name="pb", prefix=prefix, suffixes=list(suffixes),
        weights=list(weights),
    )


class TestWhatNeverInterns:
    def test_linear_subclass_builds_privately(self):
        plain = LinearProfile(name="m", alpha=1.0, beta=10.0, max_batch=16)
        sub = _Doubled(name="m", alpha=1.0, beta=10.0, max_batch=16)
        assert sub.tables_key() is None
        assert sub.tables() is not plain.tables()
        assert sub.tables().latency_ms[0] == 2.0 * plain.tables().latency_ms[0]
        other = _Doubled(name="m", alpha=1.0, beta=10.0, max_batch=16)
        assert other.tables() is not sub.tables()
        # ... nor does an effective view over it
        assert EffectiveProfile(base=sub).tables_key() is None

    def test_fused_profile_builds_privately(self):
        trunk = LinearProfile(name="trunk", alpha=1.0, beta=5.0, max_batch=32)
        head = LinearProfile(name="head", alpha=0.1, beta=0.5, max_batch=32)
        a = _fused(trunk, [head, head], [0.5, 0.5])
        b = _fused(trunk, [head, head], [0.5, 0.5])
        assert a.tables_key() is None
        assert a.tables() is not b.tables()
        assert EffectiveProfile(base=a).tables_key() is None
        assert (EffectiveProfile(base=a).tables()
                is not EffectiveProfile(base=b).tables())


# --------------------------------------------------- the blocked fused curve


def reference_latency(profile, batch):
    """The parent's per-batch computation, verbatim: tuple sort keys,
    ``sum(weights)`` per call, suffix latencies through ``latency()``."""
    weights = profile.weights
    total_w = sum(weights)
    shares = [w * batch / total_w for w in weights]
    subs = [math.floor(s) for s in shares]
    leftover = batch - sum(subs)
    if leftover:
        by_remainder = sorted(
            range(len(shares)), key=lambda i: (subs[i] - shares[i], i)
        )
        for i in by_remainder[:leftover]:
            subs[i] += 1
    total = profile.prefix.latency(batch)
    for sub, suffix in zip(subs, profile.suffixes):
        if sub >= 1:
            total += suffix.latency(min(sub, suffix.max_batch))
    return total, subs


def assert_curve_is_the_reference(profile):
    curve = profile.latency_curve()
    assert len(curve) == profile.max_batch
    assert all(type(lat) is float for lat in curve)  # not numpy scalars
    for batch in range(1, profile.max_batch + 1):
        expected, subs = reference_latency(profile, batch)
        assert profile.split_batch(batch) == subs
        assert profile.latency(batch) == expected     # ==, not approx
        assert curve[batch - 1] == expected
    assert ProfileTables(profile).latency_ms == curve


suffix_profiles = st.builds(
    lambda a, b, mb: LinearProfile(name="s", alpha=a, beta=b, max_batch=mb),
    st.floats(0.001, 0.5), st.floats(0.0, 2.0), st.integers(1, 40),
)


@st.composite
def fused_profiles(draw):
    k = draw(st.integers(1, 12))
    prefix = LinearProfile(
        name="p", alpha=draw(st.floats(0.05, 2.0)),
        beta=draw(st.floats(0.0, 20.0)), max_batch=draw(st.integers(1, 64)),
    )
    suffixes = draw(st.lists(suffix_profiles, min_size=k, max_size=k))
    # zero weights are legal as long as the total stays positive
    weights = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(0.0, 10.0)), min_size=k, max_size=k,
    ))
    weights[draw(st.integers(0, k - 1))] = draw(st.floats(0.01, 10.0))
    return _fused(prefix, suffixes, weights)


#: weights that tie exactly (and zero ones), drawn beside arbitrary floats
_TYING_WEIGHTS = (0.0, 1.0, 2.5, 1.0 / 3.0, 7.0)


@st.composite
def families_sharing_curves(draw):
    """Up to 250 suffixes, many resolving to one interned curve: fresh but
    equal-valued profile objects of a shared head, mixed with distinct
    heads, with ceilings on both sides of the prefix's."""
    prefix_ceiling = draw(st.integers(1, 48))
    prefix = LinearProfile(
        name="p", alpha=draw(st.floats(0.05, 2.0)),
        beta=draw(st.floats(0.0, 20.0)), max_batch=prefix_ceiling,
    )
    ceilings = st.integers(1, prefix_ceiling + 24)
    shared = (draw(st.floats(0.001, 0.5)), draw(st.floats(0.0, 2.0)),
              draw(ceilings))
    distinct = draw(st.lists(suffix_profiles, min_size=1, max_size=4))
    distinct.append(LinearProfile(name="d", alpha=0.01, beta=0.1,
                                  max_batch=draw(ceilings)))
    k = draw(st.integers(1, 250))
    picks = draw(st.lists(st.integers(-1, len(distinct) - 1),
                          min_size=k, max_size=k))
    suffixes = [
        LinearProfile(name=f"s{i}", alpha=shared[0], beta=shared[1],
                      max_batch=shared[2])
        if pick < 0 else distinct[pick]
        for i, pick in enumerate(picks)
    ]
    weights = draw(st.lists(
        st.one_of(st.sampled_from(_TYING_WEIGHTS), st.floats(0.0, 10.0)),
        min_size=k, max_size=k,
    ))
    weights[draw(st.integers(0, k - 1))] = draw(st.floats(0.01, 10.0))
    return _fused(prefix, suffixes, weights)


def block_height(k):
    """Batches per block of a ``k``-suffix fused curve."""
    return max(1, _CURVE_CELLS // k)


def tiny_terms_family(max_batch, k=200):
    """Prefix latency 1.0 and ``k`` suffix terms of 1e-16 each.  Added
    left to right, as :meth:`PrefixBatchedProfile.latency` adds them,
    every term is lost (1.0 + 1e-16 == 1.0); summed pairwise they are not
    (200 of them make 1.0000000000000189)."""
    prefix = TabulatedProfile(name="p", points=((1, 1.0), (2, 1.0)),
                              max_batch=max_batch)
    suffixes = [TabulatedProfile(name=f"s{i}", points=((1, 1e-16), (2, 1e-16)),
                                 max_batch=max_batch) for i in range(k)]
    return _fused(prefix, suffixes, [1.0] * k)


def ledger_families(rates):
    """The fused families of the ledger's 206-app cluster at ``rates``."""
    loads = _cluster(num_games=200).build_session_loads(rates)
    return [load.profile.base for load in loads
            if isinstance(load.profile.base, PrefixBatchedProfile)]


class TestOnePassFusedCurve:
    @given(fused_profiles())
    @settings(max_examples=60, deadline=None)
    def test_random_weights_match_exactly(self, profile):
        assert_curve_is_the_reference(profile)

    @given(families_sharing_curves())
    @example(tiny_terms_family(256))
    @settings(max_examples=40, deadline=None)
    def test_shared_and_distinct_suffix_curves_match_exactly(self, profile):
        assert_curve_is_the_reference(profile)

    def test_sub_batch_above_a_suffix_ceiling_clamps(self):
        trunk = LinearProfile(name="p", alpha=0.5, beta=3.0, max_batch=64)
        tiny = LinearProfile(name="s0", alpha=0.2, beta=0.3, max_batch=3)
        wide = LinearProfile(name="s1", alpha=0.1, beta=0.1, max_batch=64)
        profile = _fused(trunk, [tiny, wide], [0.9, 0.1])
        assert profile.split_batch(64)[0] > tiny.max_batch
        assert_curve_is_the_reference(profile)

    def test_zero_weight_suffix_never_runs(self):
        trunk = LinearProfile(name="p", alpha=0.5, beta=3.0, max_batch=32)
        heads = [LinearProfile(name=f"s{i}", alpha=0.1, beta=1.0 + i,
                               max_batch=32) for i in range(3)]
        profile = _fused(trunk, heads, [0.0, 1.0, 0.0])
        assert all(profile.split_batch(b) == [0, b, 0] for b in (1, 7, 32))
        assert_curve_is_the_reference(profile)

    @pytest.mark.parametrize("k", [17, 40, 200])
    def test_many_suffixes_at_the_default_ceiling(self, k):
        rng = random.Random(k)
        trunk = LinearProfile(name="p", alpha=0.4, beta=6.0, max_batch=256)
        heads = [
            LinearProfile(name=f"s{i}", alpha=rng.uniform(0.001, 0.05),
                          beta=rng.uniform(0.0, 0.3), max_batch=256)
            for i in range(k)
        ]
        # rate-like weights, with exact ties (tie order = suffix order)
        rates = [rng.choice((20.0, 25.0, 30.0)) * rng.uniform(0.8, 1.2)
                 for _ in range(k)]
        rates[3] = rates[5] = rates[11]
        total = sum(rates)
        profile = _fused(trunk, heads, [r / total for r in rates])
        assert_curve_is_the_reference(profile)

    # a 256-suffix family's blocks are 32 batches high: ceilings on both
    # sides of the first block edge, a one-batch last block (33) and
    # three blocks with a partial one (77)
    @pytest.mark.parametrize("max_batch", [1, 5, 31, 32, 33, 77])
    def test_block_edges(self, max_batch):
        k = _CURVE_CELLS // 32
        assert block_height(k) == 32
        trunk = LinearProfile(name="p", alpha=0.3, beta=4.0,
                              max_batch=max_batch)
        heads = [LinearProfile(name=f"s{i}", alpha=0.02 * (i % 7 + 1),
                               beta=0.2, max_batch=max_batch)
                 for i in range(k)]
        weights = [(3.0, 1.0, 1.0, 0.5, 2.5, 1.0, 1.0)[i % 7]
                   for i in range(k)]
        profile = _fused(trunk, heads, weights)
        assert_curve_is_the_reference(profile)

    @pytest.mark.parametrize("k", [2, 200])
    def test_computed_block_edges(self, k):
        # a 2-suffix family is one block up to 4096 batches; a 200-suffix
        # one at the default ceiling needs seven blocks of up to 40
        edge = block_height(k)
        max_batch = 256 if edge < 256 else edge + 2
        assert edge < max_batch
        rng = random.Random(k)
        trunk = LinearProfile(name="p", alpha=0.4, beta=6.0,
                              max_batch=max_batch)
        heads = [LinearProfile(name=f"s{i}", alpha=rng.uniform(0.001, 0.05),
                               beta=rng.uniform(0.0, 0.3), max_batch=max_batch)
                 for i in range(k)]
        profile = _fused(trunk, heads, [rng.uniform(0.5, 2.0)
                                        for _ in range(k)])
        assert_curve_is_the_reference(profile)

    # the summation order: terms of 1e-16 vanish only when added one by
    # one onto the prefix's 1.0, a one-batch curve (1) and a one-batch
    # last block (41) included; the == property takes max batch 256
    @pytest.mark.parametrize("max_batch", [1, 2, 40, 41])
    def test_suffix_terms_are_added_left_to_right(self, max_batch):
        profile = tiny_terms_family(max_batch)
        assert block_height(200) == 40
        assert profile.latency_curve() == (1.0,) * max_batch
        assert_curve_is_the_reference(profile)

    # the ledger's shape: two 200-suffix families, each sharing one
    # suffix table, at the default ceiling.  The default rates give 7
    # distinct weights, and 247 of the 256 batches tie past their room
    # at the cut; seeded +-20 % rates give 200, and none do.
    @pytest.mark.parametrize("seeded", [False, True], ids=["default", "seeded"])
    def test_the_ledgers_200_suffix_families(self, seeded):
        rates = None
        if seeded:
            rng = random.Random(7)
            rates = {app.query.name: app.rate_rps * (0.8 + 0.4 * rng.random())
                     for app in _cluster(num_games=200).apps}
        wide = [f for f in ledger_families(rates) if len(f.suffixes) == 200]
        assert len(wide) == 2
        for profile in wide:
            assert profile.max_batch == 256
            assert len({id(s.tables()) for s in profile.suffixes}) == 1
            assert len(set(profile.weights)) == (200 if seeded else 7)
            assert_curve_is_the_reference(profile)

    def test_suffix_tables_longer_than_the_prefix_are_truncated(self):
        trunk = LinearProfile(name="p", alpha=0.5, beta=3.0, max_batch=40)
        heads = [LinearProfile(name="s0", alpha=0.1, beta=0.1, max_batch=300),
                 LinearProfile(name="s1", alpha=0.2, beta=0.3, max_batch=40)]
        profile = _fused(trunk, heads, [0.7, 0.3])
        assert_curve_is_the_reference(profile)

    def test_one_suffix(self):
        trunk = LinearProfile(name="p", alpha=0.5, beta=3.0, max_batch=100)
        head = LinearProfile(name="s", alpha=0.1, beta=0.4, max_batch=60)
        profile = _fused(trunk, [head], [2.0])
        assert all(profile.split_batch(b) == [b] for b in (1, 60, 100))
        assert_curve_is_the_reference(profile)

    def test_remainder_ties_straddling_a_block_boundary(self):
        # 256 equal weights, blocks of 32 batches: below 256 every batch
        # hands its inputs out one each in suffix order, on both sides of
        # the first block edge
        k = _CURVE_CELLS // 32
        edge = block_height(k)
        trunk = LinearProfile(name="p", alpha=0.5, beta=3.0,
                              max_batch=2 * edge)
        heads = [LinearProfile(name=f"s{i}", alpha=0.05 * (3 - i % 3),
                               beta=0.1, max_batch=2 * edge)
                 for i in range(k)]
        profile = _fused(trunk, heads, [2.0] * k)
        for batch in (edge - 1, edge, edge + 1, edge + 2):
            assert profile.split_batch(batch) == [1] * batch + [0] * (k - batch)
        assert_curve_is_the_reference(profile)

    def test_effective_view_consumes_the_curve(self):
        trunk = LinearProfile(name="p", alpha=0.5, beta=3.0, max_batch=48,
                              pre_ms=4.0, cpu_workers=2)
        heads = [LinearProfile(name=f"s{i}", alpha=0.05, beta=0.2,
                               post_ms=0.4, max_batch=48) for i in range(5)]
        fused = _fused(trunk, heads, [0.4, 0.3, 0.1, 0.1, 0.1])
        for overlap in (True, False):
            eff = EffectiveProfile(base=fused, overlap=overlap)
            assert eff.tables().latency_ms == tuple(
                fused.occupancy_time(b, overlap=overlap)
                for b in range(1, 49)
            )


# ------------------------------------------------------ bounded by one limit


class TestEverythingIsBounded:
    @given(st.lists(
        st.tuples(st.floats(0.05, 5.0), st.floats(0.0, 30.0),
                  st.floats(1.0, 500.0), st.floats(20.0, 400.0)),
        min_size=60, max_size=90,
    ))
    @settings(max_examples=40, deadline=None)
    def test_no_memo_and_not_the_intern_table_outgrow_the_limit(self, draws):
        limit = 16
        shared = LinearProfile(name="shared", alpha=1.0, beta=5.0, max_batch=8)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pt, "_MEMO_LIMIT", limit)
            for alpha, beta, rate, slo in draws:
                fresh = LinearProfile(name="m", alpha=alpha, beta=beta,
                                      max_batch=8)
                for profile in (fresh, shared,
                                EffectiveProfile(base=fresh, overlap=True)):
                    profile.max_batch_residual(rate, slo)
                    profile.max_batch_under_slo(slo)
                    max_batch_under_p99(profile, rate, slo, num_arrivals=40)
                    tables = profile.tables()
                    assert len(tables.residual_memo) <= limit
                    assert len(tables.slo_memo) <= limit
                    assert len(tables.p99_memo) <= limit
                assert len(pt._INTERNED) <= limit
                root = QueryStage("a", fresh)
                root.add_child(QueryStage("b", shared, gamma=2.0))
                with contextlib.suppress(ValueError):  # memoised too
                    plan_query(Query("q", root, slo), rate, epsilon_ms=slo / 8)
                assert len(query_mod._SPLITS) <= limit
        pt._INTERNED.clear()  # tables whose memos were capped at 16
        query_mod._SPLITS.clear()

    def test_answers_survive_a_reset(self):
        profile = LinearProfile(name="m", alpha=1.0, beta=5.0, max_batch=32)
        before = (profile.max_batch_under_slo(90.0),
                  max_batch_under_p99(profile, 60.0, 90.0))
        for i in range(pt._MEMO_LIMIT + 8):
            profile.max_batch_under_slo(10.0 + i)
        assert len(profile.tables().slo_memo) <= pt._MEMO_LIMIT
        assert (profile.max_batch_under_slo(90.0),
                max_batch_under_p99(profile, 60.0, 90.0)) == before


# ------------------------------------------------------------ plan identity


def _cluster(num_games=20):
    cluster = NexusCluster(ClusterConfig(expand_to_cluster=False))
    for i, query in enumerate(all_apps("gtx1080ti", num_games=num_games)):
        cluster.add_query(query, 20.0 + 5.0 * (i % 7), "poisson")
    return cluster


def _rate_draws(cluster, n=5):
    rng = random.Random(23)
    return [
        {app.query.name: app.rate_rps * (0.8 + 0.4 * rng.random())
         for app in cluster.apps}
        for _ in range(n)
    ]


def _plan_nodes(cluster, rates):
    """Node for node: id, duty cycle, per-session batch and rate.  Node
    ids come from a process-wide counter, so they are taken relative to
    its value when the plan started (i.e. as creation order)."""
    first = squishy._next_node_id()
    return [
        (gpu.node_id - first, gpu.duty_cycle_ms,
         [(a.session_id, a.batch, a.load.rate_rps) for a in gpu.allocations])
        for gpu in cluster.plan(rates).gpus
    ]


def _forget():
    pt._INTERNED.clear()
    nexus._FAMILY_PROFILES.clear()
    query_mod._SPLITS.clear()


class TestPlansAreTheParentsPlans:
    def test_warm_cold_and_cleared_tables_emit_one_plan(self, monkeypatch):
        draws = _rate_draws(_cluster())

        # no sharing: every profile object builds its own tables and every
        # query solves its own split
        with monkeypatch.context() as patch:
            patch.setattr(profile_mod, "interned_tables", ProfileTables)
            patch.setattr(query_mod, "_tree_key", lambda stage: None)
            _forget()
            cluster = _cluster()
            expected = [_plan_nodes(cluster, rates) for rates in draws]
            assert not pt._INTERNED and not query_mod._SPLITS
        assert all(
            any(sid.startswith("pb:") for _, _, allocs in nodes
                for sid, _, _ in allocs)
            for nodes in expected
        )  # every plan exercises prefix fusion

        _forget()
        cluster = _cluster()
        cold = [_plan_nodes(cluster, rates) for rates in draws]
        assert pt._INTERNED and nexus._FAMILY_PROFILES and query_mod._SPLITS
        warm = [_plan_nodes(cluster, rates) for rates in draws]
        cleared = []
        for rates in draws:
            _forget()
            cleared.append(_plan_nodes(cluster, rates))
        assert cold == expected
        assert warm == expected
        assert cleared == expected

"""Tests for complex query scheduling (core/query.py) -- section 6.2."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import query as query_module
from repro.core.profile import LinearProfile, TabulatedProfile
from repro.core.query import (
    Query,
    QueryStage,
    evaluate_split,
    even_split,
    plan_query,
)


def fig3_profiles():
    """Figure 3's models X and Y as tabulated profiles.

    X: 40ms->200 r/s (b=8), 60ms->300 r/s (b=18).
    Y: 40ms->300 r/s (b=12), 60ms->500 r/s (b=30).
    """
    x = TabulatedProfile(name="X", points=((8, 40.0), (18, 60.0)))
    y = TabulatedProfile(name="Y", points=((12, 40.0), (30, 60.0)))
    return x, y


def two_stage_query(gamma: float, slo: float = 100.0) -> Query:
    x, y = fig3_profiles()
    root = QueryStage("X", x)
    root.add_child(QueryStage("Y", y, gamma=gamma))
    return Query("xy", root, slo)


class TestFigure4:
    """The section 4.2 worked example: average throughput per split."""

    @pytest.mark.parametrize(
        "gamma,expected",
        [
            (0.1, {(40, 60): 192.3, (60, 40): 272.7}),
            (1.0, {(40, 60): 142.9, (60, 40): 150.0}),
            (10.0, {(40, 60): 40.0, (60, 40): 27.3}),
        ],
    )
    def test_corner_plans_match_paper(self, gamma, expected):
        x, y = fig3_profiles()
        for (bx, by), want in expected.items():
            avg = evaluate_split(
                {"X": x, "Y": y},
                {"X": float(bx), "Y": float(by)},
                {"X": 1.0, "Y": gamma},
            )
            assert avg == pytest.approx(want, rel=0.01)

    def test_no_universal_best_split(self):
        """Each gamma favors a different plan (the paper's key point)."""
        x, y = fig3_profiles()

        def best_plan(gamma):
            plans = {(40, 60): None, (50, 50): None, (60, 40): None}
            for bx, by in plans:
                plans[(bx, by)] = evaluate_split(
                    {"X": x, "Y": y}, {"X": bx, "Y": by},
                    {"X": 1.0, "Y": gamma},
                )
            return max(plans, key=plans.get)

        assert best_plan(0.1) == (60, 40)
        assert best_plan(10.0) == (40, 60)
        assert best_plan(0.1) != best_plan(10.0)


class TestPlanQuery:
    def test_split_sums_within_slo(self):
        q = two_stage_query(gamma=1.0)
        split = plan_query(q, rate_rps=100.0, epsilon_ms=5.0)
        assert split.budgets_ms["X"] + split.budgets_ms["Y"] <= 100.0 + 1e-9

    def test_high_gamma_shifts_budget_to_child(self):
        lo = plan_query(two_stage_query(0.1), 100.0, epsilon_ms=5.0)
        hi = plan_query(two_stage_query(10.0), 100.0, epsilon_ms=5.0)
        # More fan-out -> the child needs efficiency -> a bigger budget.
        assert hi.budgets_ms["Y"] >= lo.budgets_ms["Y"]

    def test_beats_even_split(self):
        """The DP split never needs more GPUs than the even split."""
        for gamma in (0.1, 1.0, 10.0):
            q = two_stage_query(gamma)
            dp = plan_query(q, 300.0, epsilon_ms=5.0)
            ev = even_split(q, 300.0)
            assert dp.total_gpus <= ev.total_gpus + 1e-9

    def test_infeasible_slo_raises(self):
        x = LinearProfile(name="x", alpha=10.0, beta=50.0)
        q = Query("q", QueryStage("x", x), slo_ms=20.0)
        with pytest.raises(ValueError):
            plan_query(q, 10.0, epsilon_ms=5.0)

    def test_negative_rate_rejected(self):
        q = two_stage_query(1.0)
        with pytest.raises(ValueError):
            plan_query(q, -1.0)

    def test_single_stage_gets_whole_budget(self):
        x = LinearProfile(name="x", alpha=1.0, beta=5.0)
        q = Query("q", QueryStage("x", x), slo_ms=80.0)
        split = plan_query(q, 50.0, epsilon_ms=5.0)
        assert split.budgets_ms["x"] == pytest.approx(80.0)

    def test_leaf_absorbs_slack(self):
        """Sibling leaves under a source each get the full SLO."""
        tiny = LinearProfile(name="t", alpha=0.01, beta=0.3)
        big = LinearProfile(name="b", alpha=1.0, beta=10.0)
        root = QueryStage("src", None)
        root.add_child(QueryStage("tiny", tiny, gamma=6.0))
        root.add_child(QueryStage("big", big, gamma=1.0))
        q = Query("game", root, slo_ms=50.0)
        split = plan_query(q, 100.0, epsilon_ms=5.0)
        assert split.budgets_ms["tiny"] == pytest.approx(50.0)
        assert split.budgets_ms["big"] == pytest.approx(50.0)
        assert split.budgets_ms["src"] == 0.0

    def test_three_stage_chain(self):
        a = LinearProfile(name="a", alpha=1.0, beta=10.0)
        b = LinearProfile(name="b", alpha=0.5, beta=5.0)
        c = LinearProfile(name="c", alpha=0.2, beta=2.0)
        root = QueryStage("a", a)
        mid = root.add_child(QueryStage("b", b, gamma=2.0))
        mid.add_child(QueryStage("c", c, gamma=3.0))
        q = Query("chain", root, slo_ms=300.0)
        split = plan_query(q, 100.0, epsilon_ms=5.0)
        total = (split.budgets_ms["a"] + split.budgets_ms["b"]
                 + split.budgets_ms["c"])
        assert total <= 300.0 + 1e-9
        assert all(v > 0 for v in split.budgets_ms.values())

    def test_epsilon_refinement_improves_or_matches(self):
        q = two_stage_query(1.0)
        coarse = plan_query(q, 200.0, epsilon_ms=25.0)
        fine = plan_query(q, 200.0, epsilon_ms=2.0)
        assert fine.total_gpus <= coarse.total_gpus + 1e-9

    def test_worst_case_factor_halves_batches(self):
        x = LinearProfile(name="x", alpha=1.0, beta=0.0, max_batch=512)
        q = Query("q", QueryStage("x", x), slo_ms=100.0)
        plain = plan_query(q, 100.0, worst_case_factor=1.0)
        safe = plan_query(q, 100.0, worst_case_factor=2.0)
        assert safe.batches["x"] <= plain.batches["x"] / 2 + 1

    @given(st.floats(0.1, 10.0), st.floats(100.0, 500.0))
    @settings(max_examples=30, deadline=None)
    def test_budgets_respect_path_constraint(self, gamma, slo):
        q = two_stage_query(gamma, slo=slo)
        split = plan_query(q, 100.0, epsilon_ms=slo / 20)
        assert split.budgets_ms["X"] + split.budgets_ms["Y"] <= slo + 1e-6


class TestEvenSplit:
    def test_even_budgets(self):
        q = two_stage_query(1.0, slo=100.0)
        split = even_split(q, 100.0)
        assert split.budgets_ms["X"] == pytest.approx(50.0)
        assert split.budgets_ms["Y"] == pytest.approx(50.0)

    def test_source_stage_excluded_from_depth(self):
        tiny = LinearProfile(name="t", alpha=0.1, beta=1.0)
        root = QueryStage("src", None)
        root.add_child(QueryStage("m", tiny))
        q = Query("q", root, slo_ms=60.0)
        split = even_split(q, 10.0)
        assert split.budgets_ms["m"] == pytest.approx(60.0)
        assert split.budgets_ms["src"] == 0.0

    def test_infeasible_marked_infinite(self):
        x = LinearProfile(name="x", alpha=10.0, beta=100.0)
        q = Query("q", QueryStage("x", x), slo_ms=50.0)
        split = even_split(q, 10.0)
        assert math.isinf(split.total_gpus)


class TestQueryStructure:
    def test_walk_multiplies_gammas(self):
        a = LinearProfile(name="a", alpha=1.0, beta=1.0)
        root = QueryStage("a", a)
        b = root.add_child(QueryStage("b", a, gamma=2.0))
        b.add_child(QueryStage("c", a, gamma=3.0))
        q = Query("q", root, 100.0)
        mults = {s.name: m for s, m in q.stages()}
        assert mults == {"a": 1.0, "b": 2.0, "c": 6.0}

    def test_depth(self):
        a = LinearProfile(name="a", alpha=1.0, beta=1.0)
        root = QueryStage("a", a)
        b = root.add_child(QueryStage("b", a))
        b.add_child(QueryStage("c", a))
        root.add_child(QueryStage("d", a))
        assert Query("q", root, 1.0).depth() == 3

    def test_gamma_validation(self):
        a = LinearProfile(name="a", alpha=1.0, beta=1.0)
        with pytest.raises(ValueError):
            QueryStage("a", a, gamma=-0.5)

    def test_slo_validation(self):
        a = LinearProfile(name="a", alpha=1.0, beta=1.0)
        with pytest.raises(ValueError):
            Query("q", QueryStage("a", a), slo_ms=0.0)

    def test_sessions_materialization(self):
        q = two_stage_query(2.0)
        split = plan_query(q, 100.0)
        loads = split.sessions(q)
        by_id = {l.session_id: l for l in loads}
        assert by_id["xy/X"].rate_rps == pytest.approx(100.0)
        assert by_id["xy/Y"].rate_rps == pytest.approx(200.0)


# ------------------------------------------- rate-free, memoised splits


def reference_cost_table(profile, rate_rps, budgets_ms, worst_case_factor):
    """The rate-scaled stage cost table, verbatim from before the split
    was solved at unit rate."""
    if profile is None:
        return [0.0] * len(budgets_ms), [0] * len(budgets_ms)
    costs, batches = [], []
    for budget in budgets_ms:
        b = profile.max_batch_with_latency(budget / worst_case_factor)
        if b == 0:
            costs.append(math.inf)
            batches.append(0)
        else:
            costs.append(rate_rps * profile.latency(b) / b / 1000.0)
            batches.append(b)
    return costs, batches


def reference_plan_query(query, rate_rps, epsilon_ms=5.0,
                         worst_case_factor=1.0, min_stage_frac=0.2,
                         slack_tolerance=0.05):
    """The section 6.2 DP solved at ``rate_rps``, verbatim from before
    the split was solved once at unit rate.  Returns ``(budgets,
    batches, total_gpus)``; raises ValueError when infeasible."""
    steps = max(1, int(round(query.slo_ms / epsilon_ms)))
    budgets = [i * query.slo_ms / steps for i in range(steps + 1)]
    floor_frac = min(min_stage_frac, 0.8 / max(1, query.depth()))
    floor_idx = int(floor_frac * steps)
    tables = {}

    def solve(stage, mult):
        stage_rate = rate_rps * mult
        costs, batch_tab = reference_cost_table(
            stage.profile, stage_rate, budgets, worst_case_factor
        )
        child_fs = [solve(child, mult * child.gamma) for child in stage.children]
        k_min = 0 if stage.is_source else floor_idx
        f = [math.inf] * (steps + 1)
        choice = [0] * (steps + 1)
        for t in range(steps + 1):
            totals = [math.inf] * (t + 1)
            for k in range(k_min, t + 1):
                c = costs[k]
                if math.isinf(c):
                    continue
                rest = t - k
                bad = False
                for child_f in child_fs:
                    if math.isinf(child_f[rest]):
                        bad = True
                        break
                    c += child_f[rest]
                if bad:
                    continue
                totals[k] = c
                if c < f[t]:
                    f[t] = c
            if math.isinf(f[t]):
                continue
            limit = f[t] * (1.0 + slack_tolerance)
            for k in range(k_min, t + 1):
                if totals[k] <= limit:
                    choice[t] = k
                    break
        tables[id(stage)] = (choice, batch_tab)
        return f

    root_f = solve(query.root, query.root.gamma)
    if math.isinf(root_f[steps]):
        raise ValueError("infeasible")
    budgets_out, batches_out = {}, {}

    def reconstruct(stage, t):
        choice, batch_tab = tables[id(stage)]
        k = choice[t]
        if not stage.children and not stage.is_source:
            k = t
        budgets_out[stage.name] = budgets[k]
        batches_out[stage.name] = batch_tab[k]
        for child in stage.children:
            reconstruct(child, t - k)

    reconstruct(query.root, steps)
    return budgets_out, batches_out, root_f[steps]


stage_profiles = st.one_of(
    st.none(),  # a source stage
    st.builds(
        lambda a, b, mb: LinearProfile(name="l", alpha=a, beta=b, max_batch=mb),
        st.floats(0.05, 5.0), st.floats(0.0, 30.0), st.integers(1, 128),
    ),
    st.builds(
        lambda pts: TabulatedProfile(name="t", points=tuple(pts)),
        st.lists(st.tuples(st.integers(1, 64), st.floats(1.0, 120.0)),
                 min_size=1, max_size=4, unique_by=lambda p: p[0]).map(
            lambda pts: list(zip(sorted(b for b, _ in pts),
                                 sorted(lat for _, lat in pts)))
        ),
    ),
)


@st.composite
def query_specs(draw):
    """A stage tree of 1-5 stages as plain values: ``(parent index,
    profile, gamma)`` per stage, plus the SLO."""
    n = draw(st.sampled_from([5, 4, 3, 2, 1]))  # deep trees first
    stages = [
        (draw(st.integers(0, i - 1)) if i else -1,
         draw(stage_profiles), draw(st.floats(0.3, 6.0)))
        for i in range(n)
    ]
    return stages, draw(st.floats(20.0, 300.0))


def build_query(spec, name="q"):
    """A fresh Query (new stage and profile objects) from a spec."""
    stages, slo = spec
    built = []
    for i, (parent, profile, gamma) in enumerate(stages):
        if profile is not None:
            profile = type(profile)(**{k: v for k, v in vars(profile).items()
                                       if not k.startswith("_")})
        stage = QueryStage(f"s{i}", profile, gamma=gamma)
        if parent >= 0:
            built[parent].add_child(stage)
        built.append(stage)
    return Query(name, built[0], slo)


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError:
        return None


class TestRateFreeSplits:
    """plan_query solves once at unit rate and memoises by value; every
    answer must be the rate-scaled DP's."""

    @given(query_specs(), st.floats(3.0, 25.0),
           st.floats(1e-3, 1e4), st.floats(1e-3, 1e4))
    @settings(max_examples=300, deadline=None)
    def test_budgets_and_batches_are_the_rate_scaled_dps(
        self, spec, epsilon_ms, rate, other_rate
    ):
        kwargs = dict(epsilon_ms=epsilon_ms, worst_case_factor=2.0)
        query = build_query(spec)
        query_module._SPLITS.clear()
        answers = []
        for r, q in ((rate, query),                   # cold
                     (other_rate, build_query(spec, "twin")),  # warm, by value
                     (rate, query)):                  # warm again
            answers.append((r, outcome(plan_query, q, r, **kwargs)))
        assert len(query_module._SPLITS) == 1
        query_module._SPLITS.clear()
        answers.append((other_rate, outcome(plan_query, query, other_rate,
                                            **kwargs)))  # cleared
        for r, split in answers:
            expected = outcome(reference_plan_query, query, r, **kwargs)
            if expected is None:
                assert split is None
                continue
            budgets, batches, total = expected
            assert split.budgets_ms == budgets
            assert split.batches == batches
            assert split.total_gpus == pytest.approx(total, rel=1e-12)
            assert split.rate_rps == r

    def test_every_input_of_the_split_is_in_the_key(self):
        def chain(slo=240.0, gamma=2.0, beta=5.0):
            root = QueryStage("X", LinearProfile(name="x", alpha=1.0, beta=beta))
            root.add_child(QueryStage(
                "Y", LinearProfile(name="y", alpha=0.4, beta=12.0),
                gamma=gamma,
            ))
            return Query("q", root, slo)

        variants = [
            (chain(), {}),
            (chain(slo=120.0), {}),
            (chain(gamma=0.5), {}),
            (chain(beta=25.0), {}),
            (chain(), {"epsilon_ms": 20.0}),
            (chain(), {"worst_case_factor": 2.0}),
            (chain(), {"min_stage_frac": 0.45}),
            (chain(), {"slack_tolerance": 0.0}),
        ]
        query_module._SPLITS.clear()
        splits = set()
        for q, kwargs in variants:  # no clearing in between: all warm
            split = plan_query(q, 100.0, **kwargs)
            budgets, batches, _ = reference_plan_query(q, 100.0, **kwargs)
            assert (split.budgets_ms, split.batches) == (budgets, batches)
            splits.add(tuple(budgets.values()) + tuple(batches.values()))
        assert len(query_module._SPLITS) == len(splits) == len(variants)

    def test_results_do_not_alias_the_memo(self):
        q = two_stage_query(1.0)
        first = plan_query(q, 100.0)
        first.budgets_ms["X"] = -1.0
        first.batches["X"] = -1
        again = plan_query(q, 100.0)
        assert again.budgets_ms["X"] > 0 and again.batches["X"] > 0

    def test_unkeyed_profiles_solve_every_call(self):
        class Doubled(LinearProfile):
            def latency(self, batch):
                return 2.0 * super().latency(batch)

        root = QueryStage("x", LinearProfile(name="x", alpha=1.0, beta=5.0))
        root.add_child(QueryStage("y", Doubled(name="y", alpha=0.5, beta=2.0)))
        q = Query("q", root, slo_ms=200.0)
        query_module._SPLITS.clear()
        split = plan_query(q, 50.0)
        assert not query_module._SPLITS
        budgets, batches, total = reference_plan_query(q, 50.0)
        assert (split.budgets_ms, split.batches) == (budgets, batches)
        assert split.total_gpus == pytest.approx(total, rel=1e-12)

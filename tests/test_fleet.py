"""Heterogeneous fleets: class assignment, per-class packing, invariants.

Covers the :mod:`repro.core.fleet` surface (GpuClass/Fleet validation,
cost- and GPU-minimizing class choice under inventory bounds),
:func:`repro.core.squishy.pack_fleet` (per-class memory, inventory
shedding, device tagging), the per-model weight dedupe in
:meth:`GpuPlan.memory_bytes`, PPipe-style per-stage class placement, and
the property that a single-class fleet reproduces the homogeneous packer
exactly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.plan_check import check_plan
from repro.core.fleet import Fleet, GpuClass, assign_classes
from repro.core.profile import LinearProfile
from repro.core.query import Query, QueryStage, plan_query_classes
from repro.core.queueing import DEFAULT_SIM_ARRIVALS, max_batch_under_p99
from repro.core.session import Session, SessionLoad
from repro.core.squishy import (
    Allocation,
    GpuPlan,
    pack_fleet,
    squishy_bin_packing,
)

GiB = 1 << 30


def _load(model, slo_ms, rate_rps, alpha=1.0, beta=5.0, device="",
          weight_bytes=0, input_bytes=0, max_batch=64):
    prof = LinearProfile(
        name=model, alpha=alpha, beta=beta, max_batch=max_batch,
        memory_model_bytes=weight_bytes, memory_per_input_bytes=input_bytes,
    )
    return SessionLoad(Session(model, slo_ms), rate_rps, prof, device=device)


def _canonical(plan):
    """Plan shape modulo node identity and device tag (for equivalence)."""
    gpus = sorted(
        (
            tuple(sorted((a.session_id, a.batch) for a in g.allocations)),
            round(g.duty_cycle_ms, 9),
            g.saturated,
        )
        for g in plan.gpus
    )
    return gpus, sorted(l.session_id for l in plan.infeasible)


class TestGpuClassAndFleet:
    def test_validation(self):
        with pytest.raises(ValueError):
            GpuClass("", GiB)
        with pytest.raises(ValueError):
            GpuClass("a", 0)
        with pytest.raises(ValueError):
            GpuClass("a", GiB, price_per_hour=-1.0)
        with pytest.raises(ValueError):
            GpuClass("a", GiB, count=0)
        with pytest.raises(ValueError):
            Fleet(())
        with pytest.raises(ValueError):
            Fleet.of(GpuClass("a", GiB), GpuClass("a", GiB))

    def test_classes_sorted_by_name(self):
        fleet = Fleet.of(GpuClass("z", GiB), GpuClass("a", GiB),
                         GpuClass("m", GiB))
        assert fleet.names == ("a", "m", "z")

    def test_lookups_and_counts(self):
        fleet = Fleet.of(GpuClass("a", GiB, 1.5, 4), GpuClass("b", 2 * GiB))
        assert fleet.memory_capacity("b") == 2 * GiB
        assert fleet.price_per_hour("a") == 1.5
        assert fleet.count("a") == 4
        assert fleet.total_count() is None  # "b" is unbounded
        assert Fleet.of(GpuClass("a", GiB, count=4),
                        GpuClass("b", GiB, count=2)).total_count() == 6
        with pytest.raises(KeyError):
            fleet.get("nope")
        single = Fleet.single("only", GiB)
        assert single.is_single_class and not fleet.is_single_class


class TestAssignClasses:
    def _two_class(self, fast_price=4.0, cheap_price=1.0, fast_count=None,
                   cheap_count=None):
        return Fleet.of(
            GpuClass("cheap", GiB, cheap_price, cheap_count),
            GpuClass("fast", GiB, fast_price, fast_count),
        )

    def _class_loads(self, slo_ms, rate_rps, cheap_alpha=2.0, fast_alpha=0.5):
        return {
            "cheap": [_load("m", slo_ms, rate_rps, alpha=cheap_alpha)],
            "fast": [_load("m", slo_ms, rate_rps, alpha=fast_alpha)],
        }

    def test_cost_objective_picks_cheapest_per_request(self):
        # cheap: 4x the latency but 1/4 the price -> identical $/req;
        # nudge the price so cheap wins strictly.
        fleet = self._two_class(fast_price=4.1)
        out = assign_classes(self._class_loads(200.0, 100.0), fleet,
                             objective="cost")
        assert [l.device for l in out.loads] == ["cheap"]
        assert not out.infeasible

    def test_gpus_objective_picks_highest_capacity(self):
        fleet = self._two_class()
        out = assign_classes(self._class_loads(200.0, 100.0), fleet,
                             objective="gpus")
        assert [l.device for l in out.loads] == ["fast"]

    def test_chosen_load_carries_class_profile(self):
        fleet = self._two_class()
        out = assign_classes(self._class_loads(200.0, 100.0), fleet,
                             objective="gpus")
        assert out.loads[0].profile.latency(1) == pytest.approx(5.5)

    def test_inventory_spills_to_next_cheapest(self):
        # cheap holds ~1 GPU of this load; the second session must spill.
        fleet = self._two_class(cheap_count=1)
        loads = {
            "cheap": [_load("a", 200.0, 400.0, alpha=2.0),
                      _load("b", 200.0, 400.0, alpha=2.0)],
            "fast": [_load("a", 200.0, 400.0, alpha=0.5),
                     _load("b", 200.0, 400.0, alpha=0.5)],
        }
        out = assign_classes(loads, fleet, objective="cost")
        devices = sorted(l.device for l in out.loads)
        assert devices == ["cheap", "fast"]

    def test_exhausted_everywhere_overflows_cheapest(self):
        fleet = self._two_class(cheap_count=1, fast_count=1)
        loads = {
            "cheap": [_load(m, 200.0, 2_000.0, alpha=2.0) for m in "abc"],
            "fast": [_load(m, 200.0, 2_000.0, alpha=0.5) for m in "abc"],
        }
        out = assign_classes(loads, fleet, objective="cost")
        # Nobody is dropped: overflow lands on the cheapest class and
        # admission control sheds later.
        assert len(out.loads) == 3 and not out.infeasible

    def test_slo_infeasible_on_every_class(self):
        fleet = self._two_class()
        loads = {
            "cheap": [_load("m", 1.0, 10.0, alpha=2.0, beta=5.0)],
            "fast": [_load("m", 1.0, 10.0, alpha=0.5, beta=5.0)],
        }
        out = assign_classes(loads, fleet)
        assert not out.loads
        assert [l.session_id for l in out.infeasible] == ["m@1ms"]

    def test_pinning_by_omission(self):
        # A session offered only on "fast" (e.g. a fused pseudo-model
        # profiled on one device) must never land on "cheap", even when
        # cheap is the better deal.
        fleet = self._two_class(fast_price=4.1)
        loads = {
            "cheap": [],
            "fast": [_load("m", 200.0, 100.0, alpha=0.5)],
        }
        out = assign_classes(loads, fleet, objective="cost")
        assert [l.device for l in out.loads] == ["fast"]

    def test_missing_class_and_bad_objective_raise(self):
        fleet = self._two_class()
        with pytest.raises(ValueError, match="missing fleet class"):
            assign_classes({"cheap": []}, fleet)
        with pytest.raises(ValueError, match="objective"):
            assign_classes(self._class_loads(200.0, 1.0), fleet,
                           objective="latency")

    def test_by_class_groups_sorted(self):
        fleet = self._two_class(cheap_count=1)
        loads = {
            "cheap": [_load("a", 200.0, 400.0, alpha=2.0),
                      _load("b", 200.0, 400.0, alpha=2.0)],
            "fast": [_load("a", 200.0, 400.0, alpha=0.5),
                     _load("b", 200.0, 400.0, alpha=0.5)],
        }
        grouped = assign_classes(loads, fleet).by_class()
        assert list(grouped) == sorted(grouped)
        assert sum(len(v) for v in grouped.values()) == 2


class TestPackFleet:
    def test_two_classes_pack_independently(self):
        fleet = Fleet.of(GpuClass("a", GiB), GpuClass("b", GiB))
        loads = [
            _load("x", 100.0, 500.0, device="a"),
            _load("y", 100.0, 500.0, device="b"),
        ]
        plan = pack_fleet(loads, fleet)
        devices = {g.device for g in plan.gpus}
        assert devices == {"a", "b"}
        # No cross-class node: every GPU hosts one class's sessions only.
        for g in plan.gpus:
            assert {a.device for a in g.allocations} == {g.device}
        assert not check_plan(plan, fleet=fleet)

    def test_per_class_memory_capacity(self):
        # Same workload, but class "small" can hold only one model's
        # weights per GPU while "big" fits both merged.
        weight = 4 * GiB
        small = Fleet.of(GpuClass("small", 5 * GiB))
        big = Fleet.of(GpuClass("big", 12 * GiB))
        mk = lambda dev: [
            _load("x", 400.0, 10.0, weight_bytes=weight, device=dev),
            _load("y", 400.0, 10.0, weight_bytes=weight, device=dev),
        ]
        assert pack_fleet(mk("small"), small).num_gpus == 2
        assert pack_fleet(mk("big"), big).num_gpus == 1

    def test_untagged_on_multi_class_fleet_raises(self):
        fleet = Fleet.of(GpuClass("a", GiB), GpuClass("b", GiB))
        with pytest.raises(ValueError, match="untagged"):
            pack_fleet([_load("x", 100.0, 10.0)], fleet)

    def test_unknown_tag_raises(self):
        fleet = Fleet.single("a", GiB)
        with pytest.raises(KeyError, match="not in"):
            pack_fleet([_load("x", 100.0, 10.0, device="z")], fleet)

    def test_untagged_adopts_single_class(self):
        fleet = Fleet.single("only", GiB)
        plan = pack_fleet([_load("x", 100.0, 500.0)], fleet)
        assert all(g.device == "only" for g in plan.gpus)
        assert not check_plan(plan, fleet=fleet)

    def test_inventory_sheds_proportionally(self):
        fleet = Fleet.of(GpuClass("a", GiB, count=1))
        loads = [
            _load("x", 100.0, 2_000.0, device="a"),
            _load("y", 100.0, 1_000.0, device="a"),
        ]
        plan = pack_fleet(loads, fleet)
        assert plan.num_gpus <= 1
        cx = plan.capacity_rps("x@100ms")
        cy = plan.capacity_rps("y@100ms")
        assert cx > 0 and cy > 0
        # Both sessions shed the same fraction (2:1 offered ratio kept).
        assert cx / cy == pytest.approx(2.0, rel=0.25)
        assert not check_plan(plan, fleet=fleet)

    def test_price_per_hour_sums_deployed_gpus(self):
        fleet = Fleet.of(GpuClass("a", GiB, 2.0), GpuClass("b", GiB, 0.5))
        loads = [
            _load("x", 100.0, 500.0, device="a"),
            _load("y", 100.0, 500.0, device="b"),
        ]
        plan = pack_fleet(loads, fleet)
        by_class = plan.gpus_by_class()
        expected = 2.0 * by_class.get("a", 0) + 0.5 * by_class.get("b", 0)
        assert plan.price_per_hour(fleet) == pytest.approx(expected)


class TestMemoryDedupe:
    """Same-model sessions merged on one GPU share one weight copy.

    Regression for the accounting bug where ``GpuPlan.memory_bytes``
    summed per-allocation footprints, double-counting weights and
    refusing merges that actually fit.
    """

    def test_weights_counted_once_per_model(self):
        prof = LinearProfile(name="m", alpha=1.0, beta=5.0, max_batch=64,
                             memory_model_bytes=4 * GiB,
                             memory_per_input_bytes=1_000)
        gpu = GpuPlan(
            allocations=[
                Allocation(SessionLoad(Session("m", 100.0), 10.0, prof), 2),
                Allocation(SessionLoad(Session("m", 200.0), 10.0, prof), 3),
            ],
            duty_cycle_ms=50.0,
        )
        assert gpu.memory_bytes() == 4 * GiB + (2 + 3) * 1_000

    def test_distinct_models_still_sum(self):
        def alloc(model, batch):
            prof = LinearProfile(name=model, alpha=1.0, beta=5.0,
                                 max_batch=64, memory_model_bytes=GiB)
            return Allocation(
                SessionLoad(Session(model, 100.0), 10.0, prof), batch
            )

        gpu = GpuPlan(allocations=[alloc("m", 1), alloc("n", 1)],
                      duty_cycle_ms=50.0)
        assert gpu.memory_bytes() == 2 * GiB

    def test_merge_fits_thanks_to_dedupe(self):
        # Two light sessions of the same 4 GiB model under a 5 GiB cap:
        # double-counted weights (8 GiB) would force two GPUs; the true
        # footprint (one weight copy) merges onto one.
        loads = [
            _load("m", 400.0, 10.0, weight_bytes=4 * GiB, input_bytes=1_000),
            SessionLoad(Session("m", 800.0), 10.0,
                        LinearProfile(name="m", alpha=1.0, beta=5.0,
                                      max_batch=64,
                                      memory_model_bytes=4 * GiB,
                                      memory_per_input_bytes=1_000)),
        ]
        plan = squishy_bin_packing(loads, memory_capacity=5 * GiB)
        assert plan.num_gpus == 1
        assert not plan.gpus[0].validate(memory_capacity=5 * GiB)


class TestQueryClassPlacement:
    def _query(self, slo_ms):
        root = QueryStage("detect",
                          LinearProfile(name="d", alpha=1.0, beta=2.0),
                          model_id="d")
        root.add_child(QueryStage("recognize",
                                  LinearProfile(name="r", alpha=0.5,
                                                beta=1.0),
                                  gamma=2.0, model_id="r"))
        return Query("q", root, slo_ms)

    def _class_profiles(self):
        # "fast" is quicker on every stage, "cheap" costs 1/8 as much;
        # cheap recognition has a 20 ms floor, so a tight query SLO can
        # only afford it on the fast class.
        return {
            "cheap": {
                "detect": LinearProfile(name="d", alpha=2.0, beta=8.0),
                "recognize": LinearProfile(name="r", alpha=1.0, beta=20.0),
            },
            "fast": {
                "detect": LinearProfile(name="d", alpha=0.5, beta=2.0),
                "recognize": LinearProfile(name="r", alpha=0.25, beta=1.0),
            },
        }

    def test_tight_slo_splits_stages_across_classes(self):
        # At a 30 ms query SLO an all-cheap placement needs at least
        # 31 ms (10 ms detect floor + 21 ms recognize floor), so the
        # recognize stage must ride the fast class while detection stays
        # on the cheap one.
        split = plan_query_classes(
            self._query(30.0), rate_rps=100.0,
            class_profiles=self._class_profiles(),
            prices={"cheap": 0.5, "fast": 4.0}, objective="cost",
        )
        assert set(split.devices.values()) == {"cheap", "fast"}
        assert sum(split.budgets_ms.values()) <= 30.0 + 1e-6

    def test_gpus_objective_rides_fast_class(self):
        split = plan_query_classes(
            self._query(200.0), rate_rps=100.0,
            class_profiles=self._class_profiles(),
            prices={"cheap": 0.5, "fast": 4.0}, objective="gpus",
        )
        assert set(split.devices.values()) == {"fast"}

    def test_sessions_are_class_tagged(self):
        query = self._query(200.0)
        split = plan_query_classes(
            query, rate_rps=100.0, class_profiles=self._class_profiles(),
            prices={"cheap": 0.5, "fast": 4.0}, objective="cost",
        )
        loads = split.sessions(query)
        assert len(loads) == 2
        for load in loads:
            assert load.device in ("cheap", "fast")
            assert load.profile.latency(1) > 0


class TestQueueingMemoDeviceKey:
    def test_memo_keys_include_device_class(self):
        prof = LinearProfile(name="m", alpha=1.0, beta=5.0, max_batch=32)
        a = max_batch_under_p99(prof, 50.0, 80.0, device="a")
        b = max_batch_under_p99(prof, 50.0, 80.0, device="b")
        assert a == b  # same tables, so same answer...
        keys = set(prof.tables().p99_memo)
        # ...but the memo keeps one entry per class, so a profile object
        # shared across classes can never alias another class's answer.
        assert (50.0, 80.0, "analytic", 0, DEFAULT_SIM_ARRIVALS, "a") in keys
        assert (50.0, 80.0, "analytic", 0, DEFAULT_SIM_ARRIVALS, "b") in keys


load_specs = st.lists(
    st.tuples(
        st.floats(0.2, 3.0),      # alpha
        st.floats(0.0, 20.0),     # beta
        st.floats(40.0, 400.0),   # slo_ms
        st.floats(1.0, 400.0),    # rate_rps
    ),
    min_size=1, max_size=5,
)


class TestFleetProperties:
    @given(load_specs)
    @settings(max_examples=40, deadline=None)
    def test_single_class_fleet_matches_homogeneous_packer(self, specs):
        loads = [
            _load(f"m{i}", slo, rate, alpha=a, beta=b)
            for i, (a, b, slo, rate) in enumerate(specs)
        ]
        baseline = squishy_bin_packing(loads, memory_capacity=GiB)
        fleet = Fleet.single("gtx1080ti", GiB)
        hetero = pack_fleet(loads, fleet)
        assert _canonical(hetero) == _canonical(baseline)
        assert all(g.device == "gtx1080ti" for g in hetero.gpus)

    @given(load_specs, load_specs)
    @settings(max_examples=40, deadline=None)
    def test_multi_class_plans_satisfy_per_class_invariants(self, sa, sb):
        fleet = Fleet.of(GpuClass("a", GiB, 1.0), GpuClass("b", 2 * GiB, 2.0))
        loads = [
            _load(f"a{i}", slo, rate, alpha=al, beta=be, device="a")
            for i, (al, be, slo, rate) in enumerate(sa)
        ] + [
            _load(f"b{i}", slo, rate, alpha=al, beta=be, device="b")
            for i, (al, be, slo, rate) in enumerate(sb)
        ]
        plan = pack_fleet(loads, fleet)
        assert not check_plan(plan, fleet=fleet)
        # Demand conservation per feasible session: capacity covers rate.
        infeasible = {l.session_id for l in plan.infeasible}
        for load in loads:
            if load.session_id in infeasible:
                continue
            assert plan.capacity_rps(load.session_id) >= load.rate_rps - 1e-6

    @given(load_specs, st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_inventory_bound_is_respected(self, specs, count):
        fleet = Fleet.of(GpuClass("a", GiB, count=count))
        loads = [
            _load(f"m{i}", slo, rate, alpha=a, beta=b, device="a")
            for i, (a, b, slo, rate) in enumerate(specs)
        ]
        plan = pack_fleet(loads, fleet)
        assert plan.num_gpus <= count
        assert not check_plan(plan, fleet=fleet)

    @given(load_specs)
    @settings(max_examples=30, deadline=None)
    def test_assign_classes_covers_every_feasible_session(self, specs):
        fleet = Fleet.of(GpuClass("a", GiB, 1.0), GpuClass("b", GiB, 3.0))
        class_loads = {
            name: [
                _load(f"m{i}", slo, rate, alpha=al * mult, beta=be,
                      device=name)
                for i, (al, be, slo, rate) in enumerate(specs)
            ]
            for name, mult in (("a", 1.0), ("b", 0.5))
        }
        out = assign_classes(class_loads, fleet, objective="cost")
        placed = {l.session_id for l in out.loads}
        dropped = {l.session_id for l in out.infeasible}
        offered = {l.session_id for ls in class_loads.values() for l in ls}
        # Every session ends up in exactly one of placed or infeasible.
        assert not placed & dropped
        assert placed | dropped == offered

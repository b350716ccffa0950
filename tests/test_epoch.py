"""Tests for the incremental epoch scheduler (core/epoch.py)."""

import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.plan_check import PlanCheckError, assert_valid_plan
from repro.core.epoch import EpochScheduler, EpochUpdate, _PlanIndex
from repro.core.fleet import Fleet, GpuClass
from repro.core.profile import LinearProfile
from repro.core.session import Session, SessionLoad
from repro.core.squishy import (
    Allocation,
    GpuPlan,
    SchedulePlan,
    pack_fleet,
    squishy_bin_packing,
)


def load(name, slo, rate, alpha=1.0, beta=10.0):
    return SessionLoad(
        Session(name, slo), rate,
        LinearProfile(name=name, alpha=alpha, beta=beta, max_batch=64),
    )


class TestTriggers:
    def test_epoch_boundary_triggers(self):
        s = EpochScheduler(epoch_ms=30_000.0)
        s.update(0.0, [load("a", 200.0, 50.0)])
        assert not s.should_reschedule(5_000.0, [load("a", 200.0, 50.0)])
        assert s.should_reschedule(31_000.0, [load("a", 200.0, 50.0)])

    def test_min_period_blocks_early_epochs(self):
        """Paper: 'we limit the minimum period between two epochs to 10
        seconds' to prevent oscillation."""
        s = EpochScheduler(epoch_ms=30_000.0, min_period_ms=10_000.0)
        s.update(0.0, [load("a", 200.0, 50.0)])
        surge = [load("a", 200.0, 500.0)]
        assert not s.should_reschedule(5_000.0, surge)
        assert s.should_reschedule(12_000.0, surge)

    def test_large_change_triggers_early(self):
        s = EpochScheduler(epoch_ms=30_000.0, change_threshold=0.25)
        s.update(0.0, [load("a", 200.0, 100.0)])
        assert s.should_reschedule(12_000.0, [load("a", 200.0, 200.0)])
        assert not s.should_reschedule(12_000.0, [load("a", 200.0, 110.0)])

    def test_new_session_triggers(self):
        s = EpochScheduler()
        s.update(0.0, [load("a", 200.0, 100.0)])
        both = [load("a", 200.0, 100.0), load("b", 200.0, 10.0)]
        assert s.should_reschedule(12_000.0, both)

    def test_retired_session_triggers_early(self):
        """A session absent from the loads is a rate change to zero: its
        GPUs should be reclaimed at the next eligible epoch, not held
        until the 30 s boundary."""
        s = EpochScheduler(epoch_ms=30_000.0)
        both = [load("a", 200.0, 100.0), load("b", 200.0, 50.0)]
        s.update(0.0, both)
        assert s.should_reschedule(12_000.0, [load("a", 200.0, 100.0)])
        assert not s.should_reschedule(12_000.0, both)


class TestIncrementalUpdates:
    def test_first_update_allocates(self):
        s = EpochScheduler()
        up = s.update(0.0, [load("a", 200.0, 300.0)])
        assert up.gpus_after >= 1
        assert s.capacity_rps("a@200ms") >= 300.0 - 1e-6

    def test_growth_adds_gpus(self):
        s = EpochScheduler()
        s.update(0.0, [load("a", 200.0, 100.0)])
        before = s.num_gpus
        up = s.update(30_000.0, [load("a", 200.0, 800.0)])
        assert up.gpus_after > before
        assert s.capacity_rps("a@200ms") >= 800.0 - 1e-6

    def test_shrink_releases_gpus(self):
        s = EpochScheduler()
        s.update(0.0, [load("a", 200.0, 3000.0)])
        before = s.num_gpus
        assert before >= 2
        up = s.update(30_000.0, [load("a", 200.0, 50.0)])
        assert up.gpus_after < before

    def test_steady_state_no_churn(self):
        s = EpochScheduler()
        loads = [load("a", 200.0, 100.0), load("b", 300.0, 60.0)]
        s.update(0.0, loads)
        up = s.update(30_000.0, loads)
        assert up.sessions_moved == 0
        assert up.gpus_before == up.gpus_after

    def test_node_reorder_is_not_churn(self):
        """Churn is counted by stable node ids, not list positions.

        The per-epoch occupancy re-sort permutes ``plan.gpus``; a session
        that stays on the same physical node must count as zero moves
        even when its node's position changes."""
        s = EpochScheduler()
        loads = [load("a", 200.0, 700.0), load("b", 300.0, 400.0)]
        s.update(0.0, loads)
        assert len(s.plan.gpus) >= 2
        s.plan = SchedulePlan(gpus=list(reversed(s.plan.gpus)),
                              infeasible=s.plan.infeasible)
        up = s.update(30_000.0, loads)
        assert up.sessions_moved == 0

    def test_retired_session_dropped(self):
        s = EpochScheduler()
        s.update(0.0, [load("a", 200.0, 100.0), load("b", 300.0, 60.0)])
        s.update(30_000.0, [load("a", 200.0, 100.0)])
        assert s.capacity_rps("b@300ms") == 0.0
        assert s.capacity_rps("a@200ms") >= 100.0 - 1e-6

    def test_max_gpus_cap_respected(self):
        s = EpochScheduler(max_gpus=2)
        s.update(0.0, [load("a", 200.0, 2000.0)])
        assert s.num_gpus <= 2

    def test_plans_stay_valid_across_updates(self):
        s = EpochScheduler()
        rates = [100.0, 400.0, 150.0, 600.0, 30.0]
        for i, r in enumerate(rates):
            s.update(i * 30_000.0, [load("a", 200.0, r),
                                    load("b", 250.0, r / 2)])
            assert not s.plan.validate()
            assert s.capacity_rps("a@200ms") >= r - 1e-6

    def test_updates_recorded(self):
        s = EpochScheduler()
        s.update(0.0, [load("a", 200.0, 100.0)])
        s.update(30_000.0, [load("a", 200.0, 200.0)])
        assert len(s.updates) == 2
        assert s.updates[1].epoch == 2
        assert s.updates[1].time_ms == 30_000.0

    def test_gpus_added_released_accounting(self):
        s = EpochScheduler()
        up1 = s.update(0.0, [load("a", 200.0, 800.0)])
        assert up1.gpus_added == up1.gpus_after
        up2 = s.update(30_000.0, [load("a", 200.0, 10.0)])
        assert up2.gpus_released == up1.gpus_after - up2.gpus_after


class TestNodeReuse:
    def test_first_update_reuses_nothing(self):
        s = EpochScheduler()
        up = s.update(0.0, [load("a", 200.0, 100.0)])
        assert up.nodes_reused == 0

    def test_steady_state_reuses_node_objects(self):
        """Unchanged rates reuse the existing GpuPlan objects verbatim
        instead of rebuilding content-identical copies."""
        s = EpochScheduler()
        loads = [load("a", 200.0, 100.0), load("b", 300.0, 60.0)]
        s.update(0.0, loads)
        before = {id(n) for n in s.plan.gpus}
        assert before
        up = s.update(30_000.0, loads)
        assert {id(n) for n in s.plan.gpus} == before
        assert up.nodes_reused == len(s.plan.gpus)
        assert up.sessions_moved == 0

    def test_rate_change_rebuilds_only_affected_nodes(self):
        """A rate change repacks the nodes hosting that session; nodes
        dedicated to unchanged sessions carry over as the same objects."""
        s = EpochScheduler()
        la, lb = load("a", 200.0, 3000.0), load("b", 300.0, 30.0)
        s.update(0.0, [la, lb])
        full_a = {
            id(n) for n in s.plan.gpus
            if all(al.session_id == "a@200ms" for al in n.allocations)
            and n.saturated
        }
        assert full_a, "setup: expected saturated a-only nodes"
        up = s.update(30_000.0, [la, lb.with_rate(60.0)])
        after = {id(n) for n in s.plan.gpus}
        assert full_a <= after
        assert up.nodes_reused >= len(full_a)
        assert s.capacity_rps("b@300ms") >= 60.0 - 1e-6
        assert not s.plan.validate()

    def test_reused_plan_matches_rebuilt_plan(self):
        """The fast path must be a pure optimization: reusing nodes
        yields exactly the plan a full incremental rebuild would."""
        loads = [load("a", 200.0, 700.0), load("b", 300.0, 400.0),
                 load("c", 150.0, 90.0)]
        fast = EpochScheduler()
        fast.update(0.0, loads)
        # Same starting plan, but force the slow path by cloning nodes
        # through a rate perturbation round-trip is fragile; instead
        # compare against a scheduler whose second epoch sees fresh
        # (equal-valued) load objects, exercising the profile-identity
        # guard: equal content but different profile objects must fall
        # back to the rebuild and still produce an identical plan.
        fresh = [load("a", 200.0, 700.0), load("b", 300.0, 400.0),
                 load("c", 150.0, 90.0)]
        up = fast.update(30_000.0, fresh)
        assert up.nodes_reused == 0  # new profile objects: no reuse
        reused = EpochScheduler()
        reused.update(0.0, loads)
        up2 = reused.update(30_000.0, loads)
        assert up2.nodes_reused == len(reused.plan.gpus)
        # node_id is a process-global counter, so compare node *content*.
        def content(plan):
            return sorted(
                (
                    n.duty_cycle_ms, n.saturated,
                    tuple(
                        (a.session_id, a.load.rate_rps, a.batch)
                        for a in n.allocations
                    ),
                )
                for n in plan.gpus
            )

        assert content(fast.plan) == content(reused.plan)

    def test_retired_session_node_not_reused(self):
        s = EpochScheduler()
        la, lb = load("a", 200.0, 3000.0), load("b", 300.0, 30.0)
        s.update(0.0, [la, lb])
        b_nodes = {
            id(n) for n in s.plan.gpus
            if any(al.session_id == "b@300ms" for al in n.allocations)
        }
        assert b_nodes
        up = s.update(30_000.0, [la])
        after = {id(n) for n in s.plan.gpus}
        # Nodes that hosted b are rebuilt or released; a's dedicated
        # saturated nodes carry over unchanged.
        assert not (b_nodes & after)
        assert up.nodes_reused >= 1
        for n in s.plan.gpus:
            assert all(al.session_id != "b@300ms" for al in n.allocations)


class TestEvictionPath:
    def test_overloaded_node_evicts_and_repacks(self):
        """When a shared node becomes overloaded by rate growth, the
        cheapest sessions are evicted and repacked elsewhere."""
        s = EpochScheduler()
        light = [load("a", 300.0, 30.0), load("b", 300.0, 30.0)]
        s.update(0.0, light)
        shared = [n for n in s.plan.gpus if len(n.allocations) == 2]
        assert shared, "setup: expected a merged node"
        # b's rate grows 20x: the old shared node cannot host both.
        grown = [load("a", 300.0, 30.0), load("b", 300.0, 600.0)]
        up = s.update(30_000.0, grown)
        assert not s.plan.validate()
        assert s.capacity_rps("a@300ms") >= 30.0 - 1e-6
        assert s.capacity_rps("b@300ms") >= 600.0 - 1e-6

    def test_capped_plan_keeps_fullest_nodes(self):
        s = EpochScheduler(max_gpus=1)
        s.update(0.0, [load("a", 200.0, 50.0), load("b", 200.0, 800.0)])
        assert s.num_gpus == 1
        # The surviving node is the busier one.
        assert s.plan.gpus[0].occupancy > 0.3


# ---------------------------------------------------------------------------
# The walk before it skipped untouched nodes: a verbatim copy of
# ``update``, ``_incremental_plan``, ``_capped_plan``, ``_assignment`` and
# ``_count_moves`` as they were when every node was re-derived every epoch
# (only the lazy relative import of ``assert_valid_plan`` became a
# module-level one).  The property below pins the scheduler's plans and
# churn to it.


class _ReferenceScheduler(EpochScheduler):
    def update(self, now_ms: float, loads: list[SessionLoad]) -> EpochUpdate:
        """Run one epoch: adapt the plan to the new rates.

        Call this when :meth:`should_reschedule` returns True (or
        unconditionally at epoch boundaries); it records and returns the
        churn summary either way.
        """
        before = self.plan.num_gpus
        before_assignment = self._assignment()

        new_plan = self._incremental_plan(loads)
        if self.max_gpus is not None and new_plan.num_gpus > self.max_gpus:
            new_plan = self._capped_plan(loads)
        if self.validate:
            assert_valid_plan(
                new_plan, memory_capacity=self.memory_capacity,
                fleet=self.fleet,
            )
        prev_nodes = {id(n) for n in self.plan.gpus}
        reused = sum(1 for n in new_plan.gpus if id(n) in prev_nodes)
        self.plan = new_plan

        moved = self._count_moves(before_assignment, self._assignment())
        self._epoch += 1
        self._last_schedule_ms = now_ms
        self._last_rates = {l.session_id: l.rate_rps for l in loads}
        update = EpochUpdate(
            epoch=self._epoch,
            time_ms=now_ms,
            gpus_before=before,
            gpus_after=self.plan.num_gpus,
            sessions_moved=moved,
            triggered=True,
            nodes_reused=reused,
        )
        self.updates.append(update)
        return update

    def _incremental_plan(self, loads: list[SessionLoad]) -> SchedulePlan:
        """Keep feasible nodes; evict/repack only what must change."""
        by_id = {l.session_id: l for l in loads}
        demand = {l.session_id: l.rate_rps for l in loads}

        kept: list[GpuPlan] = []
        evicted: list[str] = []

        # Walk existing nodes from most- to least-utilized so that, when
        # demand shrinks, the least-utilized backends are the ones drained
        # (section 6.1: "the scheduler attempts to move sessions from the
        # least utilized backends to other backends").
        for node in sorted(
            self.plan.gpus, key=lambda n: (-n.occupancy, n.node_id)
        ):
            # Fast path: when every allocation on this node would take
            # exactly its current rate again, the rebuild below reproduces
            # the node verbatim (same loads, batches, duty cycle), so the
            # existing GpuPlan object can be reused without reconstructing
            # allocations or re-running the eviction loop.  This is the
            # common case between epochs: most sessions' rates are
            # unchanged and only a few nodes need repacking.
            reuse = bool(node.allocations)
            taken: dict[str, float] = {}
            for alloc in node.allocations:
                sid = alloc.session_id
                load = alloc.load
                cur = by_id.get(sid)
                remaining = taken.get(sid, demand.get(sid, 0.0))
                if cur is None or remaining <= 1e-9:
                    reuse = False
                    break
                supplied = alloc.batch / max(node.duty_cycle_ms, 1e-9) * 1000.0
                take = remaining if remaining < supplied else supplied
                # Exact float equality is deliberate: the rebuilt
                # allocation would carry precisely ``take`` as its rate,
                # so any difference -- however small -- means the node's
                # contents would change and it must be rebuilt.
                if (
                    take != load.rate_rps
                    or cur.profile is not load.profile
                    or cur.session != load.session
                ):
                    reuse = False
                    break
                taken[sid] = remaining - take
            # One validate() call guards the reuse (identical to the first
            # iteration of the slow path's eviction check, since the node
            # contents match what the rebuild would produce); the savings
            # come from skipping the allocation/GpuPlan reconstruction.
            if reuse and not node.validate(self._node_memory(node)):
                demand.update(taken)
                kept.append(node)
                continue

            new_allocs: list[Allocation] = []
            for alloc in node.allocations:
                sid = alloc.session_id
                if sid not in by_id:
                    continue  # session retired entirely
                remaining = demand.get(sid, 0.0)
                if remaining <= 1e-9:
                    continue  # demand already covered by earlier nodes
                supplied = alloc.batch / max(node.duty_cycle_ms, 1e-9) * 1000.0
                take = min(remaining, supplied)
                demand[sid] = remaining - take
                new_allocs.append(
                    Allocation(by_id[sid].with_rate(take), alloc.batch)
                )
            if not new_allocs:
                continue  # release this backend
            candidate = GpuPlan(
                new_allocs, node.duty_cycle_ms, saturated=node.saturated,
                node_id=node.node_id, device=node.device,
            )
            # Overload check: evict cheapest sessions until feasible.
            while candidate.validate(self._node_memory(node)):
                cheapest = min(
                    range(len(candidate.allocations)),
                    key=lambda i: candidate.allocations[i].exec_ms,
                )
                victim = candidate.allocations[cheapest]
                evicted.append(victim.session_id)
                demand[victim.session_id] = (
                    demand.get(victim.session_id, 0.0) + victim.load.rate_rps
                )
                rest = [
                    a for i, a in enumerate(candidate.allocations) if i != cheapest
                ]
                if not rest:
                    candidate = None  # type: ignore[assignment]
                    break
                candidate = GpuPlan(
                    rest, candidate.duty_cycle_ms,
                    saturated=candidate.saturated, node_id=candidate.node_id,
                    device=candidate.device,
                )
            if candidate is not None and candidate.allocations:
                kept.append(candidate)

        # Pack all uncovered demand (new sessions, rate growth, evictions).
        residual_loads = [
            by_id[sid].with_rate(rate)
            for sid, rate in demand.items()
            if rate > 1e-9
        ]
        extra = self._repack(residual_loads)
        return SchedulePlan(
            gpus=kept + extra.gpus, infeasible=extra.infeasible
        )
    def _capped_plan(self, loads: list[SessionLoad]) -> SchedulePlan:
        """Demand exceeds the GPU cap: shed load *proportionally*.

        Scaling every session's rate down by a common factor until the
        plan fits keeps all sessions served -- admission control absorbs
        the shed fraction uniformly (section 5: "Nexus relies on admission
        control that drops excessive requests").  Dropping whole GPU plans
        would zero out some sessions entirely, which matters most in the
        recovery case (a dead backend shrinks the cap).
        """
        assert self.max_gpus is not None

        def pack_at(scale: float) -> SchedulePlan:
            scaled = [l.with_rate(l.rate_rps * scale) for l in loads]
            return self._incremental_plan(scaled)

        lo, hi = 0.02, 1.0
        best = pack_at(lo)
        if best.num_gpus > self.max_gpus:
            # Even 2% does not fit: keep the fullest nodes and give up on
            # the rest (nothing proportional shedding can do here).
            nodes = sorted(best.gpus, key=lambda n: (-n.occupancy, n.node_id))
            return SchedulePlan(
                gpus=nodes[: self.max_gpus], infeasible=best.infeasible
            )
        for _ in range(12):
            mid = (lo + hi) / 2
            cand = pack_at(mid)
            if cand.num_gpus <= self.max_gpus:
                lo, best = mid, cand
            else:
                hi = mid
        return best
    def _assignment(self) -> dict[str, tuple[int, ...]]:
        """session -> stable node ids hosting it (order-independent)."""
        out: dict[str, list[int]] = {}
        for node in self.plan.gpus:
            for alloc in node.allocations:
                out.setdefault(alloc.session_id, []).append(node.node_id)
        return {sid: tuple(sorted(ids)) for sid, ids in out.items()}

    @staticmethod
    def _count_moves(
        before: dict[str, tuple[int, ...]], after: dict[str, tuple[int, ...]]
    ) -> int:
        """Sessions whose node-id set changed (coarse churn measure).

        Diffing stable node ids -- not positions in ``plan.gpus``, which
        re-sort every epoch -- means a session that stays put counts as
        zero churn even when the node list reorders, and a session that
        retires (or appears) counts as one move.
        """
        moved = 0
        for sid in sorted(before.keys() | after.keys()):
            if before.get(sid, ()) != after.get(sid, ()):
                moved += 1
        return moved


GiB = 1 << 30
_FLEET = Fleet.of(GpuClass("a", GiB), GpuClass("b", 2 * GiB))


def _digest(plan, ids):
    """A plan as comparable values: node ids renumbered by first
    appearance (``ids`` persists across one scheduler's plans), floats as
    ``.hex()``."""
    nodes = tuple(
        (
            ids.setdefault(g.node_id, len(ids)), g.duty_cycle_ms.hex(),
            g.saturated, g.device,
            tuple(
                (a.session_id, a.load.rate_rps.hex(), a.batch, a.device)
                for a in g.allocations
            ),
        )
        for g in plan.gpus
    )
    infeasible = tuple((l.session_id, l.rate_rps.hex()) for l in plan.infeasible)
    return nodes, infeasible


def _update_fields(up):
    return (up.epoch, up.time_ms, up.gpus_before, up.gpus_after,
            up.sessions_moved, up.triggered, up.nodes_reused)


_RATES = st.one_of(st.just(0.0), st.floats(1.0, 900.0))
_SPEC = st.tuples(
    st.sampled_from([0.5, 1.0, 2.0, 4.0]),       # alpha
    st.sampled_from([5.0, 10.0, 20.0, 40.0]),    # beta
    st.sampled_from([40.0, 100.0, 200.0, 400.0]),  # slo
    _RATES,
    st.sampled_from(["a", "b"]),                 # class under the fleet
)
_STEP = st.one_of(
    st.tuples(st.just("redraw"), st.integers(0, 99), _RATES),
    st.tuples(st.just("edit"), st.integers(0, 99), _RATES),
    st.tuples(st.just("swap"), st.integers(0, 99)),
    st.tuples(st.just("add"), _SPEC),
    st.tuples(st.just("retire"), st.integers(0, 99)),
    st.tuples(st.just("fail"), st.integers(0, 99)),
    st.tuples(st.just("adopt")),
    st.tuples(st.just("cap"), st.one_of(st.none(), st.integers(1, 6))),
    st.tuples(st.just("same")),
)


def _profile(name, alpha, beta):
    return LinearProfile(
        name=name, alpha=alpha, beta=beta, max_batch=64,
        memory_model_bytes=GiB // 3, memory_per_input_bytes=1 << 20,
    )


class TestSkipEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(
        specs=st.lists(_SPEC, min_size=1, max_size=8),
        steps=st.lists(_STEP, min_size=1, max_size=14),
        with_fleet=st.booleans(),
    )
    def test_same_plans_as_the_full_walk(self, specs, steps, with_fleet):
        fleet = _FLEET if with_fleet else None
        names = iter(range(1000))

        def make(spec):
            alpha, beta, slo, rate, device = spec
            name = f"s{next(names)}"
            return SessionLoad(
                Session(name, slo), rate, _profile(name, alpha, beta),
                device if fleet else "",
            )

        def foreign(loads):
            if fleet is not None:
                return pack_fleet(loads, fleet)
            return squishy_bin_packing(loads)

        loads = [make(spec) for spec in specs]
        fast = EpochScheduler(fleet=fleet)
        ref = _ReferenceScheduler(fleet=fleet)
        fast_ids: dict[int, int] = {}
        ref_ids: dict[int, int] = {}

        def check(up_fast, up_ref):
            assert _update_fields(up_fast) == _update_fields(up_ref)
            assert _digest(fast.plan, fast_ids) == _digest(ref.plan, ref_ids)
            assert fast._last_rates == ref._last_rates

        now = 0.0
        check(fast.update(now, loads), ref.update(now, loads))
        for step in steps:
            now += 30_000.0
            kind = step[0]
            if kind in ("redraw", "edit", "swap", "retire"):
                i = step[1] % len(loads)
            if kind == "redraw":
                loads[i] = loads[i].with_rate(step[2])
            elif kind == "edit":
                loads[i].rate_rps = step[2]
            elif kind == "swap":
                old = loads[i]
                p = old.profile
                loads[i] = SessionLoad(
                    old.session, old.rate_rps,
                    _profile(p.name, p.alpha, p.beta), old.device,
                )
            elif kind == "add":
                loads.append(make(step[1]))
            elif kind == "retire" and len(loads) > 1:
                loads.pop(i)
            elif kind == "fail" and fast.plan.gpus:
                k = step[1] % len(fast.plan.gpus)
                check(
                    fast.handle_failure(now, [fast.plan.gpus[k].node_id], loads),
                    ref.handle_failure(now, [ref.plan.gpus[k].node_id], loads),
                )
                continue
            elif kind == "adopt":
                fast.adopt(foreign(loads), now, loads)
                ref.adopt(foreign(loads), now, loads)
                assert _digest(fast.plan, fast_ids) == _digest(ref.plan, ref_ids)
            elif kind == "cap":
                fast.max_gpus = ref.max_gpus = step[1]
            check(fast.update(now, loads), ref.update(now, loads))


class TestSkipPerturbations:
    """Two ways a node's demand changes although its sessions' loads did
    not.  Each scenario adopts a hand-built plan in which session s sits
    on a shared node A (higher occupancy, walked first) and on its own
    node B (batch 1 in a 50 ms cycle, so it could supply 20 rps but takes
    what A leaves over)."""

    @staticmethod
    def _pair(t_beta=30.0):
        s = SessionLoad(Session("s", 200.0), 15.0,
                        LinearProfile(name="s", alpha=1.0, beta=10.0))
        t = SessionLoad(Session("t", 200.0), 10.0,
                        LinearProfile(name="t", alpha=1.0, beta=t_beta))
        return s, t

    def _run(self, loads_per_epoch, each=lambda sched: None):
        fast, ref = EpochScheduler(), _ReferenceScheduler()
        fast_ids: dict[int, int] = {}
        ref_ids: dict[int, int] = {}
        s, t = loads_per_epoch[0][:2]
        for sched in (fast, ref):
            shared = GpuPlan([Allocation(s.with_rate(10.0), 1),
                              Allocation(t.with_rate(10.0), 1)], 100.0)
            own = GpuPlan([Allocation(s.with_rate(5.0), 1)], 50.0)
            sched.adopt(SchedulePlan([shared, own]), 0.0, loads_per_epoch[0])
        for epoch, loads in enumerate(loads_per_epoch, start=1):
            up_fast = fast.update(epoch * 30_000.0, loads)
            up_ref = ref.update(epoch * 30_000.0, loads)
            assert _update_fields(up_fast) == _update_fields(up_ref)
            assert _digest(fast.plan, fast_ids) == _digest(ref.plan, ref_ids)
            each(fast)
        return fast

    def test_rebuilt_node_that_resorts_unsettles_its_sessions(self):
        """t retires: A is rebuilt with s alone and re-sorts after B, so
        next epoch B is walked first and sees all of s's demand.  B must
        not be skipped although it was carried over and s is unchanged."""
        s, t = self._pair()
        self._run([[s, t], [s], [s]])

    def test_eviction_upstream_reaches_a_later_node(self):
        """t's profile gets heavier: A is rebuilt, evicts s and then t,
        and s's demand at B grows.  B must not be skipped although only t
        changed."""
        s, t = self._pair()
        _, heavy = self._pair(t_beta=120.0)
        fast = self._run([[s, t], [s, heavy]])
        assert fast.capacity_rps("s@200ms") >= 15.0 - 1e-6

    def test_memory_bound_change_unsettles_every_node(self):
        """Settled nodes passed validate() under the old memory bound; a
        new bound re-checks them all (here: the merged node no longer
        fits two models' weights and evicts one)."""
        loads = [
            SessionLoad(Session(name, 300.0), 30.0, _profile(name, 1.0, 10.0))
            for name in ("a", "b")
        ]
        fast, ref = EpochScheduler(), _ReferenceScheduler()
        fast_ids: dict[int, int] = {}
        ref_ids: dict[int, int] = {}
        for epoch in range(5):
            if epoch == 3:
                fast.memory_capacity = ref.memory_capacity = GiB // 2
            up_fast = fast.update(epoch * 30_000.0, loads)
            up_ref = ref.update(epoch * 30_000.0, loads)
            assert _update_fields(up_fast) == _update_fields(up_ref)
            assert _digest(fast.plan, fast_ids) == _digest(ref.plan, ref_ids)
        assert fast.num_gpus == 2

    def test_infeasible_session_beside_unchanged_ones(self):
        """x cannot meet its SLO even at batch 1, so it is never placed:
        it is a clean session with no hosts, and its whole rate must be
        listed infeasible every epoch, from the leftover the walk carries
        over -- also while a neighbour's redraws rebuild nodes."""
        s, t = self._pair()
        x = SessionLoad(Session("x", 20.0), 30.0,
                        LinearProfile(name="x", alpha=1.0, beta=25.0))

        def x_listed(sched):
            assert [(l.session_id, l.rate_rps) for l in sched.plan.infeasible] == [
                ("x@20ms", 30.0)
            ]

        self._run([
            [s, t, x], [s, t, x], [s, t.with_rate(12.0), x],
            [s, t.with_rate(12.0), x], [s, t.with_rate(4.0), x],
            [s, t.with_rate(4.0), x],
        ], each=x_listed)

    def test_rebuild_that_ties_a_kept_node_sorts_in_plan_order(self):
        """A plan lists node N twice.  The first copy takes 20 of s's 25
        rps and is rebuilt with N's id and batches, so with N's key; the
        second copy keeps its 5 rps and is reused.  Equal keys sort in
        plan order, so next epoch the rebuild comes first again."""
        s = SessionLoad(Session("s", 200.0), 25.0,
                        LinearProfile(name="s", alpha=1.0, beta=10.0))
        fast, ref = EpochScheduler(), _ReferenceScheduler()
        fast_ids: dict[int, int] = {}
        ref_ids: dict[int, int] = {}
        for sched in (fast, ref):
            node = GpuPlan([Allocation(s.with_rate(5.0), 1)], 50.0)
            sched.adopt(SchedulePlan([node, node]), 0.0, [s])
        for epoch in range(1, 4):
            up_fast = fast.update(epoch * 30_000.0, [s])
            up_ref = ref.update(epoch * 30_000.0, [s])
            assert _update_fields(up_fast) == _update_fields(up_ref)
            assert _digest(fast.plan, fast_ids) == _digest(ref.plan, ref_ids)

    def test_plan_listing_a_settled_node_twice(self):
        """A plan assigned from outside may list one node object twice;
        neither copy is settled, so the walk checks both."""
        loads = [load("a", 200.0, 700.0), load("b", 300.0, 400.0)]
        fast, ref = EpochScheduler(), _ReferenceScheduler()
        fast_ids: dict[int, int] = {}
        ref_ids: dict[int, int] = {}
        for epoch in range(4):
            if epoch == 2:
                for sched in (fast, ref):
                    gpus = sched.plan.gpus
                    sched.plan = SchedulePlan(gpus + gpus[:1])
            up_fast = fast.update(epoch * 30_000.0, loads)
            up_ref = ref.update(epoch * 30_000.0, loads)
            assert _update_fields(up_fast) == _update_fields(up_ref)
            assert _digest(fast.plan, fast_ids) == _digest(ref.plan, ref_ids)


def _ledger_loads():
    """The perf ledger's epoch scenario: 400 synthetic sessions."""
    loads = []
    for i in range(400):
        profile = LinearProfile(
            name=f"m{i}", alpha=1.0 + (i % 5) * 0.5,
            beta=10.0 + (i % 7) * 5.0, max_batch=64,
        )
        loads.append(SessionLoad(
            Session(f"m{i}", 100.0 + 25.0 * (i % 8)),
            50.0 + 10.0 * (i % 11), profile,
        ))
    return loads


def _redraw(rng, loads, count=3):
    for idx in rng.sample(range(len(loads)), count):
        loads[idx] = loads[idx].with_rate(20.0 + rng.random() * 200.0)


@pytest.fixture
def validate_calls(monkeypatch):
    calls = []
    real = GpuPlan.validate

    def counting(self, memory_capacity=None):
        calls.append(self)
        return real(self, memory_capacity)

    monkeypatch.setattr(GpuPlan, "validate", counting)
    return calls


class TestSkipIsRealAndBounded:
    def test_steady_state_epoch_validates_nothing(self, validate_calls):
        loads = _ledger_loads()
        s = EpochScheduler()
        s.update(0.0, loads)       # first pack: nothing to carry over
        s.update(30_000.0, loads)  # every node checked; a few rebuilt
        s.update(60_000.0, loads)  # the rebuilt ones checked and settled
        validate_calls.clear()
        up = s.update(90_000.0, loads)
        assert validate_calls == []
        assert up.nodes_reused == s.num_gpus
        assert up.sessions_moved == 0

    def test_redraw_checks_far_fewer_nodes_than_the_plan(self, validate_calls):
        rng = random.Random(1)
        loads = _ledger_loads()
        s = EpochScheduler()
        for epoch in range(3):
            s.update(epoch * 30_000.0, loads)
        _redraw(rng, loads)
        validate_calls.clear()
        s.update(90_000.0, loads)
        assert 0 < len(validate_calls) < s.num_gpus // 10

    def test_walk_touches_only_what_a_change_reaches(self, monkeypatch):
        """The walk reads plan nodes only through its index: the fresh
        slots and the host lists of the sessions a change reaches.  An
        unchanged epoch reads none; a three-session redraw a handful."""
        touched: set[int] = set()

        class CountingHosts(dict):
            def __getitem__(self, sid):
                entries = super().__getitem__(sid)
                touched.update(id(slot.node) for slot, _ in entries)
                return entries

            def get(self, sid, default=None):
                entries = super().get(sid, default)
                touched.update(id(slot.node) for slot, _ in entries or ())
                return entries

        real = EpochScheduler._incremental_plan

        def counting(self, index, by_id, demand, dirty):
            hosts = index.hosts
            index.hosts = CountingHosts(hosts)
            touched.update(id(slot.node) for slot in index.fresh)
            try:
                return real(self, index, by_id, demand, dirty)
            finally:
                index.hosts = hosts

        rng = random.Random(1)
        loads = _ledger_loads()
        s = EpochScheduler()
        for epoch in range(3):
            s.update(epoch * 30_000.0, loads)
        monkeypatch.setattr(EpochScheduler, "_incremental_plan", counting)
        s.update(90_000.0, loads)
        assert touched == set()
        _redraw(rng, loads)
        s.update(120_000.0, loads)
        assert 0 < len(touched) < s.num_gpus // 10

    def test_memo_never_outgrows_the_plan(self):
        """The kept order and the session -> hosts index always describe
        the emitted plan, after updates, failures, adoptions and plain
        assignments, and hold no node or session beyond it."""
        rng = random.Random(2)
        loads = _ledger_loads()
        s = EpochScheduler()

        def hosts(slots):
            out: dict[str, list[tuple[int, int]]] = {}
            for slot in slots:
                for sid, alloc in zip(slot.sids, slot.node.allocations):
                    out.setdefault(sid, []).append((id(slot.node), id(alloc)))
            return out

        def check(full=True):
            """Every epoch: the index lists exactly the plan's nodes, in
            slot order, and its host lists follow that order.  With
            ``full``, also that the order and keys equal a fresh rebuild
            (which recomputes every node's occupancy)."""
            index = s._synced_index()
            assert sorted(map(id, index.nodes)) == sorted(map(id, s.plan.gpus))
            assert all(map(operator.is_, index.nodes,
                           [slot.node for slot in index.slots]))
            assert index.slots == sorted(index.slots)
            assert {
                sid: [(id(slot.node), id(alloc)) for slot, alloc in entries]
                for sid, entries in index.hosts.items()
            } == hosts(index.slots)
            slots = {id(slot) for slot in index.slots}
            assert all(id(slot) in slots for slot in index.fresh)
            assert index.left.keys() <= {l.session_id for l in loads}
            if full:
                rebuilt = _PlanIndex(s.plan.gpus)
                assert all(map(operator.is_, index.nodes, rebuilt.nodes))
                assert [slot[:2] + slot[4:] for slot in index.slots] == [
                    slot[:2] + slot[4:] for slot in rebuilt.slots
                ]

        s.update(0.0, loads)
        check()
        for epoch in range(1, 1001):
            _redraw(rng, loads)
            now = epoch * 30_000.0
            s.update(now, loads)
            check(full=epoch % 10 == 0)
            if epoch % 100 == 0:
                dead = [s.plan.gpus[rng.randrange(s.num_gpus)].node_id]
                s.handle_failure(now + 1.0, dead, loads)
                check()
                s.adopt(s.plan, now + 2.0, loads)
                check()
            if epoch % 250 == 0:
                gpus = s.plan.gpus
                s.plan = SchedulePlan(gpus[1:] + gpus[:2], s.plan.infeasible)
                check()


class TestDrift:
    def test_one_after_first_and_unchanged_epochs(self):
        loads = _ledger_loads()
        s = EpochScheduler()
        s.update(0.0, loads)
        assert s.drift(loads) == 1.0
        s.update(30_000.0, loads)
        assert s.drift(loads) == 1.0

    def test_pinned_at_epoch_100_of_the_ledger_scenario(self):
        """The incremental plan's fragmentation, measured: 280 GPUs where
        a fresh pack needs 198.  A change to the walk's packing policy
        moves this pin on purpose."""
        rng = random.Random(1)
        loads = _ledger_loads()
        s = EpochScheduler()
        s.update(0.0, loads)
        for epoch in range(1, 101):
            _redraw(rng, loads)
            s.update(epoch * 30_000.0, loads)
        assert s.num_gpus == 280
        assert s.drift(loads) == 280 / 198


class TestValidateChecksTheCap:
    def test_oversize_plan_raises_gpu_cap(self, monkeypatch):
        monkeypatch.setattr(
            EpochScheduler, "_capped_plan",
            lambda self, loads: squishy_bin_packing(loads),
        )
        s = EpochScheduler(max_gpus=1, validate=True)
        with pytest.raises(PlanCheckError) as caught:
            s.update(0.0, [load("a", 200.0, 2000.0)])
        assert "gpu-cap" in {v.rule for v in caught.value.violations}

"""Incremental epoch scheduling: adapt the plan across workload changes.

Paper section 5: "Allocation, scheduling, and routing updates happen at
the granularity of an epoch, typically 30-60s ... To prevent oscillation
from frequent reconfiguration, we limit the minimum period between two
epochs to 10 seconds."  Section 6.1's closing paragraph describes the
incremental policy this module implements:

- if workload *decreases*, move sessions off the least-utilized backends
  and release backends that no longer run anything;
- if a backend becomes *overloaded*, evict its cheapest sessions until it
  is feasible again, then re-pack the evicted sessions (plus any brand-new
  demand) with squishy bin packing.

:class:`EpochScheduler` owns the evolving plan and reports churn metrics
(GPUs added/released, sessions moved) so the large-scale experiment
(Figure 13) can show adaptation lag and reconfiguration cost.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

from .fleet import Fleet
from .floatcmp import approx_zero
from .profile import BatchingProfile
from .session import Session, SessionLoad
from .squishy import (
    Allocation,
    GpuPlan,
    SchedulePlan,
    pack_fleet,
    squishy_bin_packing,
)

__all__ = ["EpochUpdate", "EpochScheduler"]

#: What the walk remembers about one plan node, by identity: the node
#: itself (holding it pins ``id(node)``), its sort key, its session ids
#: and its ``(session id, rate)`` pairs in allocation order.
_NodeMemo = tuple[
    GpuPlan, tuple[float, int], tuple[str, ...], tuple[tuple[str, float], ...]
]

_SORT_KEY = operator.itemgetter(1)


def _remember(node: GpuPlan) -> _NodeMemo:
    pairs = tuple((a.session_id, a.load.rate_rps) for a in node.allocations)
    return (
        node, (-node.occupancy, node.node_id),
        tuple(sid for sid, _ in pairs), pairs,
    )


class _Walk(NamedTuple):
    """One walk over the previous plan, and what it changed."""

    plan: SchedulePlan
    #: memos of the nodes carried over as the same object, in walk order
    reused: list[_NodeMemo]
    #: previous-plan nodes rebuilt or released
    dropped: list[GpuPlan]
    #: new nodes: rebuilt ones and the repack of uncovered demand
    added: list[GpuPlan]


@dataclass
class EpochUpdate:
    """What one epoch's rescheduling changed."""

    epoch: int
    time_ms: float
    gpus_before: int
    gpus_after: int
    sessions_moved: int
    triggered: bool
    #: plan nodes carried over *unchanged* from the previous epoch (the
    #: incremental fast path reused the GpuPlan object instead of
    #: rebuilding it).  Zero when the GPU cap forced a proportional
    #: repack of every node.
    nodes_reused: int = 0

    @property
    def gpus_added(self) -> int:
        return max(0, self.gpus_after - self.gpus_before)

    @property
    def gpus_released(self) -> int:
        return max(0, self.gpus_before - self.gpus_after)


@dataclass
class EpochScheduler:
    """Stateful scheduler reacting to per-epoch workload statistics.

    Args:
        epoch_ms: nominal epoch length (30-60 s in the paper).
        min_period_ms: minimum gap between reschedules (10 s in the paper).
        change_threshold: relative rate change that triggers an early epoch.
        memory_capacity: per-GPU memory bound handed to the packer.
        max_gpus: optional cluster size cap; demand beyond it is left to
            admission control (the runtime's drop policy).
        fleet: optional heterogeneous fleet.  When set, class-tagged
            loads repack per class (class memory capacities and inventory
            counts come from the fleet) and ``memory_capacity`` only
            applies to nodes whose class the fleet does not know.
        validate: when True, every plan this scheduler emits is checked
            against the Algorithm-1 invariants
            (:mod:`repro.analysis.plan_check`) and a violation raises
            :class:`~repro.analysis.plan_check.PlanCheckError`.  Leave
            False for baselines that are latency-infeasible by design.
    """

    epoch_ms: float = 30_000.0
    min_period_ms: float = 10_000.0
    change_threshold: float = 0.25
    memory_capacity: int | None = None
    max_gpus: int | None = None
    validate: bool = False
    fleet: Fleet | None = None

    plan: SchedulePlan = field(default_factory=lambda: SchedulePlan(gpus=[]))
    updates: list[EpochUpdate] = field(default_factory=list)
    _epoch: int = 0
    _last_schedule_ms: float = -math.inf
    _last_rates: dict[str, float] = field(default_factory=dict)

    # What the last walk emitted, so the next one can skip what it did not
    # touch (see _incremental_plan).  None of it holds a node that is not
    # in the emitted plan.
    #: the emitted plan's nodes, to notice a plan replaced outside the walk
    _emitted: list[GpuPlan] = field(default_factory=list, repr=False)
    #: settled nodes -- those the last walk carried over -- by ``id``
    _settled: dict[int, _NodeMemo] = field(default_factory=dict, repr=False)
    #: sessions the last walk left unstable (membership tests only)
    _unstable: set[str] = field(default_factory=set, repr=False)
    #: (rate, profile, session) each session had when the last walk ran
    _inputs: dict[str, tuple[float, BatchingProfile, Session]] = field(
        default_factory=dict, repr=False
    )
    #: session -> node ids hosting it in the emitted plan
    _hosts: dict[str, list[int]] = field(default_factory=dict, repr=False)
    #: the memory bounds the settled nodes were validated under
    _validated_under: tuple[int | None, Fleet | None] = (None, None)

    # ------------------------------------------------------------- triggers

    def should_reschedule(self, now_ms: float, loads: list[SessionLoad]) -> bool:
        """Epoch boundary reached, or a large workload change observed."""
        if now_ms - self._last_schedule_ms < self.min_period_ms:
            return False
        if now_ms - self._last_schedule_ms >= self.epoch_ms:
            return True
        for load in loads:
            old = self._last_rates.get(load.session_id, 0.0)
            new = load.rate_rps
            base = max(old, 1e-9)
            if approx_zero(old) and new > 0.0:
                return True
            if abs(new - old) / base > self.change_threshold:
                return True
        # A session that disappears entirely (present last epoch, absent
        # from the current loads) is a rate change to zero: without an
        # early epoch its GPUs stay allocated until the next boundary.
        seen = {load.session_id for load in loads}
        for sid, old in self._last_rates.items():
            if old > 0.0 and sid not in seen:
                return True
        return False

    # ------------------------------------------------------------- schedule

    def update(self, now_ms: float, loads: list[SessionLoad]) -> EpochUpdate:
        """Run one epoch: adapt the plan to the new rates.

        Call this when :meth:`should_reschedule` returns True (or
        unconditionally at epoch boundaries); it records and returns the
        churn summary either way.
        """
        gpus = self.plan.gpus
        before = len(gpus)
        emitted = self._emitted
        if len(emitted) != before or not all(map(operator.is_, gpus, emitted)):
            self._forget_replaced(gpus)
        basis = (self.memory_capacity, self.fleet)
        if basis != self._validated_under:
            self._settled.clear()
            self._validated_under = basis

        # One pass over the loads: the walk's inputs, the new rates, and
        # the sessions whose load differs from what the last walk saw.
        last = self._inputs
        inputs: dict[str, tuple[float, BatchingProfile, Session]] = {}
        by_id: dict[str, SessionLoad] = {}
        rates: dict[str, float] = {}
        dirty = set(self._unstable)
        for load in loads:
            session = load.session
            sid = session.session_id
            rate = load.rate_rps
            profile = load.profile
            by_id[sid] = load
            rates[sid] = rate
            seen = last.get(sid)
            if (
                seen is None or seen[0] != rate or seen[1] is not profile
                or (seen[2] is not session and seen[2] != session)
            ):
                seen = (rate, profile, session)
                dirty.add(sid)
            inputs[sid] = seen
        dirty |= last.keys() - inputs.keys()  # retired sessions

        walk = self._incremental_plan(by_id, dict(rates), self._settled, dirty)
        new_plan = walk.plan
        capped = self.max_gpus is not None and new_plan.num_gpus > self.max_gpus
        if capped:
            new_plan = self._capped_plan(loads)
        if self.validate:
            # Imported lazily: repro.analysis depends on core.squishy, so a
            # module-level import here would be circular when repro.analysis
            # is imported first.
            from ..analysis.plan_check import assert_valid_plan

            assert_valid_plan(
                new_plan, memory_capacity=self.memory_capacity,
                max_gpus=self.max_gpus, fleet=self.fleet,
            )

        if capped:
            # The capped plan comes from probe walks over scaled loads:
            # settle nothing, so the next epoch walks every node in full.
            kept = {id(n) for n in gpus}
            reused = sum(1 for n in new_plan.gpus if id(n) in kept)
            moved = self._count_moves(gpus, new_plan.gpus)
            self._settled.clear()
            self._unstable = set()
        else:
            reused = len(walk.reused)
            moved = self._count_moves(walk.dropped, walk.added)
            settled = self._settled
            unstable: set[str] = set()
            for node in walk.dropped:
                settled.pop(id(node), None)
                unstable.update(a.session_id for a in node.allocations)
            for memo in walk.reused:
                settled[id(memo[0])] = memo
            self._unstable = unstable
        self.plan = new_plan
        self._emitted = list(new_plan.gpus)
        self._inputs = inputs

        self._epoch += 1
        self._last_schedule_ms = now_ms
        self._last_rates = rates
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

    def _incremental_plan(
        self, by_id: dict[str, SessionLoad], demand: dict[str, float],
        settled: dict[int, _NodeMemo], dirty: set[str],
    ) -> _Walk:
        """Keep feasible nodes; evict/repack only what must change.

        ``by_id`` and ``demand`` map each session to its load and rate;
        the walk consumes ``demand`` and grows ``dirty``.  A node is
        *skipped* -- carried over with no further check -- when it is in
        ``settled`` (the last walk carried it over as the same object) and
        hosts no session in ``dirty``.  ``dirty`` starts as the sessions
        whose load changed since the last walk plus the unstable ones
        (the last walk rebuilt or released a node hosting them, or a
        settled node hosting them has since left the plan), and every
        node the walk does not skip adds its sessions; nodes the last walk
        created are not settled, so they never hide behind a skip.  A
        skipped node's
        sessions therefore met the same nodes, in the same order, taking
        the same rates as last epoch, and the full check below would reuse
        the node too; the skip applies the same ``taken`` arithmetic to
        ``demand``.  Probe walks pass an empty ``settled``.
        """
        kept: list[GpuPlan] = []
        evicted: list[str] = []
        reused: list[_NodeMemo] = []
        dropped: list[GpuPlan] = []
        added: list[GpuPlan] = []

        order = [settled.get(id(n)) or _remember(n) for n in self.plan.gpus]
        # Walk existing nodes from most- to least-utilized so that, when
        # demand shrinks, the least-utilized backends are the ones drained
        # (section 6.1: "the scheduler attempts to move sessions from the
        # least utilized backends to other backends").
        order.sort(key=_SORT_KEY)
        for memo in order:
            node, _, sids, pairs = memo
            if id(node) in settled and dirty.isdisjoint(sids):
                for sid, rate in pairs:
                    demand[sid] -= rate
                kept.append(node)
                reused.append(memo)
                continue
            dirty.update(sids)
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
                reused.append(_remember(node))
                continue

            dropped.append(node)
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
                added.append(candidate)

        # Pack all uncovered demand (new sessions, rate growth, evictions).
        residual_loads = [
            by_id[sid].with_rate(rate)
            for sid, rate in demand.items()
            if rate > 1e-9
        ]
        extra = self._repack(residual_loads)
        added += extra.gpus
        plan = SchedulePlan(gpus=kept + extra.gpus, infeasible=extra.infeasible)
        return _Walk(plan, reused, dropped, added)

    def _node_memory(self, node: GpuPlan) -> int | None:
        """Memory bound for one node: its class's capacity under a fleet."""
        if self.fleet is not None and node.device in self.fleet.names:
            return self.fleet.memory_capacity(node.device)
        return self.memory_capacity

    def _repack(self, loads: list[SessionLoad]) -> SchedulePlan:
        """Pack uncovered demand: per class under a fleet, flat otherwise."""
        if self.fleet is not None:
            return pack_fleet(loads, self.fleet)
        return squishy_bin_packing(loads, memory_capacity=self.memory_capacity)

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
            by_id = {l.session_id: l for l in scaled}
            demand = {l.session_id: l.rate_rps for l in scaled}
            return self._incremental_plan(by_id, demand, {}, set()).plan

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

    # ------------------------------------------------------------- recovery

    def handle_failure(
        self, now_ms: float, failed_node_ids: set[int] | list[int],
        loads: list[SessionLoad],
    ) -> EpochUpdate:
        """Run a recovery epoch after backends died.

        Drops the plan nodes hosted by the dead backends (identified by
        stable ``node_id``, never by list position) and re-runs the
        incremental update: surviving nodes are kept, the dead nodes'
        demand is uncovered and re-packed onto new nodes -- which the
        deployment layer maps to surviving backends, charging each newly
        placed session its weight-reload cost.
        """
        failed = set(failed_node_ids)
        self.plan = SchedulePlan(
            gpus=[n for n in self.plan.gpus if n.node_id not in failed],
            infeasible=self.plan.infeasible,
        )
        return self.update(now_ms, loads)

    def adopt(
        self, plan: SchedulePlan, now_ms: float, loads: list[SessionLoad]
    ) -> None:
        """Take ownership of an externally computed plan.

        Used at deployment time: the initial plan comes from the full
        planner (latency splits, prefix fusion, cluster expansion); the
        epoch scheduler evolves it incrementally from there.
        """
        self.plan = plan
        self._last_schedule_ms = now_ms
        self._last_rates = {l.session_id: l.rate_rps for l in loads}

    # -------------------------------------------------------------- helpers

    def drift(self, loads: list[SessionLoad]) -> float:
        """Plan GPUs divided by the GPUs a fresh pack of ``loads`` needs.

        The fresh pack is :meth:`_repack` (per class under a fleet), so
        the ratio is 1.0 right after a first update and grows as the kept
        nodes fragment.
        """
        fresh = self._repack(loads).num_gpus
        if fresh == 0:
            return 1.0 if self.plan.num_gpus == 0 else math.inf
        return self.plan.num_gpus / fresh

    def _forget_replaced(self, gpus: list[GpuPlan]) -> None:
        """The plan was replaced outside the walk (``handle_failure``,
        ``adopt`` or assignment): re-index it and unsettle what changed.

        A settled node that vanished leaves its sessions unstable, since
        the next node hosting them now sees more demand; a node listed
        twice is not settled.  Nodes the last walk did not emit never were.
        """
        listed: dict[int, int] = {}
        hosts: dict[str, list[int]] = {}
        for node in gpus:
            listed[id(node)] = listed.get(id(node), 0) + 1
            for alloc in node.allocations:
                hosts.setdefault(alloc.session_id, []).append(node.node_id)
        settled = self._settled
        for key, memo in list(settled.items()):
            times = listed.get(key, 0)
            if times != 1:
                del settled[key]
            if times == 0:
                self._unstable.update(memo[2])
        self._hosts = hosts
        self._emitted = list(gpus)

    def _count_moves(self, dropped: list[GpuPlan], added: list[GpuPlan]) -> int:
        """Sessions whose node-id set changed (coarse churn measure).

        Diffing stable node ids -- not positions in ``plan.gpus``, which
        re-sort every epoch -- means a session that stays put counts as
        zero churn even when the node list reorders, and a session that
        retires (or appears) counts as one move.  Only sessions on a
        dropped or added node can move, so the session -> node-id index
        is patched for those nodes alone.
        """
        hosts = self._hosts
        before: dict[str, tuple[int, ...]] = {}
        for node in dropped + added:
            for alloc in node.allocations:
                sid = alloc.session_id
                if sid not in before:
                    before[sid] = tuple(sorted(hosts.get(sid, ())))
        for node in dropped:
            for alloc in node.allocations:
                hosts[alloc.session_id].remove(node.node_id)
        for node in added:
            for alloc in node.allocations:
                hosts.setdefault(alloc.session_id, []).append(node.node_id)
        moved = 0
        for sid, was in before.items():
            now = hosts[sid]
            if not now:
                del hosts[sid]
            if tuple(sorted(now)) != was:
                moved += 1
        return moved

    def capacity_rps(self, session_id: str) -> float:
        return self.plan.capacity_rps(session_id)

    @property
    def num_gpus(self) -> int:
        return self.plan.num_gpus

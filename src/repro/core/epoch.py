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

import heapq
import math
import operator
from bisect import bisect_left, bisect_right, insort
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


class _Slot(NamedTuple):
    """One node of the emitted plan, as the walk order holds it.

    Slots compare as tuples: by the walk's key, ``(-occupancy, node_id)``
    (most- to least-utilized), then by ``serial``, which is unique within
    one index, so a comparison never reaches ``node``.
    """

    neg_occupancy: float
    node_id: int
    serial: int
    node: GpuPlan
    #: the session id of each allocation, in allocation order
    sids: tuple[str, ...]


def _slot(node: GpuPlan, serial: int) -> _Slot:
    sids = tuple(a.session_id for a in node.allocations)
    return _Slot(-node.occupancy, node.node_id, serial, node, sids)


_FIRST = operator.itemgetter(0)


def _count_moves(dropped: list[_Slot], added: list[_Slot]) -> int:
    """Sessions whose node-id set changed (coarse churn measure).

    Diffing stable node ids -- not positions in ``plan.gpus``, which
    re-sort every epoch -- means a session that stays put counts as zero
    churn even when the node list reorders, and a session that retires
    (or appears) counts as one move.  A session's node ids change exactly
    when the ids it loses with ``dropped`` differ from those it gains with
    ``added`` (a rebuilt node keeps its id).
    """
    lost: dict[str, list[int]] = {}
    for slot in dropped:
        for sid in slot.sids:
            lost.setdefault(sid, []).append(slot.node_id)
    gained: dict[str, list[int]] = {}
    for slot in added:
        for sid in slot.sids:
            gained.setdefault(sid, []).append(slot.node_id)
    moved = len(gained.keys() - lost.keys())
    for sid, ids in lost.items():
        if sorted(ids) != sorted(gained.get(sid, [])):
            moved += 1
    return moved


class _Walk(NamedTuple):
    """One walk over the previous plan, and what it changed."""

    plan: SchedulePlan
    #: previous-plan nodes carried over as the same object
    reused: int
    #: slots of previous-plan nodes rebuilt or released, in walk order
    dropped: list[_Slot]
    #: new nodes: rebuilt ones and the repack of uncovered demand, in
    #: plan order
    added: list[GpuPlan]


class _PlanIndex:
    """The emitted plan as the next walk reads it.

    ``slots`` lists the plan's nodes in walk order and ``nodes`` the same
    nodes, sliced to build the next plan.  ``hosts`` maps each session to
    one ``(slot, allocation)`` per allocation hosting it, in walk order;
    the allocation's rate is what that host takes.
    ``fresh`` holds the slots no walk has carried over yet, which the next
    walk checks, and ``unstable`` the sessions whose hosts changed since
    their demand was last computed.  ``left`` is each session's demand the
    last walk's nodes left uncovered; ``emitted`` the plan's node list as
    emitted, to notice a plan replaced outside the walk.  Every slot holds
    a node of that plan.
    """

    __slots__ = (
        "slots", "nodes", "hosts", "fresh", "unstable", "left", "emitted",
        "_serial", "_tied",
    )

    def __init__(
        self, gpus: list[GpuPlan] | None = None,
        known: dict[int, _Slot] | None = None,
    ) -> None:
        self.unstable: list[str] = []
        self.left: dict[str, float] = {}
        self._build(gpus or [], known or {})

    def _build(self, gpus: list[GpuPlan], known: dict[int, _Slot]) -> None:
        """Index ``gpus`` anew, every slot fresh.  ``known`` holds
        slots of nodes indexed before, by ``id``: their keys are reused."""
        slots = [known.get(id(node)) or _slot(node, 0) for node in gpus]
        # sorted() is stable: equal keys keep plan order, as in a walk
        # that sorts the whole plan
        order = sorted(range(len(slots)), key=lambda i: slots[i][:2])
        self.slots = [
            _Slot(s[0], s[1], serial, s[3], s[4])
            for serial, s in enumerate(slots[i] for i in order)
        ]
        self.nodes = [slot.node for slot in self.slots]
        self.hosts: dict[str, list[tuple[_Slot, Allocation]]] = {}
        for slot in self.slots:
            for sid, alloc in zip(slot.sids, slot.node.allocations):
                self.hosts.setdefault(sid, []).append((slot, alloc))
        self.fresh = list(self.slots)
        self.emitted = list(gpus)
        self._serial = len(self.slots)
        self._tied = False

    def add(self, node: GpuPlan) -> _Slot:
        slot = _slot(node, self._serial)
        self._serial += 1
        slots = self.slots
        i = bisect_right(slots, slot)
        # Equal walk keys sort in plan order, which a new serial does not
        # know: flag the tie and let advance() rebuild.
        key = slot[:2]
        if (i and slots[i - 1][:2] == key) or (
            i < len(slots) and slots[i][:2] == key
        ):
            self._tied = True
        slots.insert(i, slot)
        self.nodes.insert(i, node)
        for sid, alloc in zip(slot.sids, node.allocations):
            insort(self.hosts.setdefault(sid, []), (slot, alloc), key=_FIRST)
        return slot

    def remove(self, slot: _Slot) -> None:
        i = bisect_left(self.slots, slot)
        del self.slots[i]
        del self.nodes[i]
        hosts = self.hosts
        for sid in slot.sids:
            entries = hosts.get(sid)
            if entries is None:
                continue  # a session listed twice on the node
            entries[:] = [e for e in entries if e[0] is not slot]
            if not entries:
                del hosts[sid]

    def advance(self, walk: _Walk, left: dict[str, float]) -> int:
        """Carry the index over to the plan ``walk`` emitted, which left
        ``left`` uncovered; return the sessions that moved."""
        self.unstable = []
        for slot in walk.dropped:
            self.remove(slot)
            self.unstable += slot.sids
        self.fresh = [self.add(node) for node in walk.added]
        moved = _count_moves(walk.dropped, self.fresh)
        self.left = left
        if self._tied:
            self._build(walk.plan.gpus, self._known())
        else:
            self.emitted = list(walk.plan.gpus)
        return moved

    def _known(self) -> dict[int, _Slot]:
        return {id(slot.node): slot for slot in self.slots}

    def replaced_by(self, gpus: list[GpuPlan]) -> _PlanIndex:
        """The index of a plan replaced outside the walk (``handle_failure``,
        ``adopt`` or assignment).

        When the new plan only cuts nodes out of the emitted one (a
        failure), their slots go and their sessions become unstable.
        Otherwise the plan is indexed afresh: a node stays settled when
        this index had it settled and the new plan lists it once, and a
        session whose allocations changed -- a node gone, new or listed
        twice -- is unstable, since its leftover no longer follows from
        its hosts.
        """
        kept = set(map(id, gpus))
        if [node for node in self.emitted if id(node) in kept] == gpus:
            for slot in [s for s in self.slots if id(s.node) not in kept]:
                self.remove(slot)
                self.unstable += slot.sids
            self.fresh = [s for s in self.fresh if id(s.node) in kept]
            self.emitted = list(gpus)
            return self
        new = _PlanIndex(gpus, self._known())
        listed: dict[int, int] = {}
        for node in gpus:
            listed[id(node)] = listed.get(id(node), 0) + 1
        fresh = set(map(id, self.fresh))
        settled = {id(s.node) for s in self.slots if id(s) not in fresh}
        new.fresh = [
            s for s in new.slots
            if listed[id(s.node)] != 1 or id(s.node) not in settled
        ]
        unstable = list(self.unstable)
        for sid, entries in self.hosts.items():
            now = new.hosts.get(sid, [])
            if [a for _, a in entries] != [a for _, a in now]:
                unstable.append(sid)
        unstable += [sid for sid in new.hosts if sid not in self.hosts]
        new.unstable = unstable
        new.left = self.left
        return new


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

    #: the emitted plan in walk order, so the next walk visits only the
    #: nodes a change reaches (see _incremental_plan)
    _index: _PlanIndex = field(default_factory=_PlanIndex, repr=False)
    #: (rate, profile, session) each session had when the last walk ran
    _inputs: dict[str, tuple[float, BatchingProfile, Session]] = field(
        default_factory=dict, repr=False
    )
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
        index = self._synced_index()
        before = len(index.emitted)
        basis = (self.memory_capacity, self.fleet)
        if basis != self._validated_under:
            index.fresh = list(index.slots)
            self._validated_under = basis

        # One pass over the loads: the walk's inputs, the new rates, and
        # the sessions whose load differs from what the last walk saw.
        last = self._inputs
        inputs: dict[str, tuple[float, BatchingProfile, Session]] = {}
        by_id: dict[str, SessionLoad] = {}
        rates: dict[str, float] = {}
        dirty = list(index.unstable)
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
                dirty.append(sid)
            inputs[sid] = seen
        if not last.keys() <= inputs.keys():
            dirty += [sid for sid in last if sid not in inputs]  # retired
        # Each session starts from the demand the last walk left uncovered,
        # in load order (the repack's input order); the walk starts a dirty
        # one from its rate.
        left = index.left
        if list(left) == list(by_id):
            demand = left.copy()
        else:
            demand = {sid: left.get(sid, 0.0) for sid in by_id}

        walk = self._incremental_plan(index, by_id, demand, dirty)
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
            kept = {id(n) for n in index.emitted}
            reused = sum(1 for n in new_plan.gpus if id(n) in kept)
            self._index = _PlanIndex(new_plan.gpus)
            self._index.left = dict(rates)
            moved = _count_moves(index.slots, self._index.slots)
        else:
            reused = walk.reused
            moved = index.advance(walk, demand)
        self.plan = new_plan
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
        self, index: _PlanIndex, by_id: dict[str, SessionLoad],
        demand: dict[str, float], dirty: list[str],
    ) -> _Walk:
        """Keep feasible nodes; evict/repack only what must change.

        ``by_id`` maps each session to its load, and ``demand`` to the
        demand it starts the walk with: its rate, or for a session not in
        ``dirty`` the leftover of the last walk.  The walk consumes
        ``demand`` and reads ``index`` without changing it.

        Nodes are walked in ``index`` order, from a heap.  A node is
        *reached* -- checked in full, and rebuilt if its contents would
        change -- when it is fresh (no walk has carried it over) or hosts
        a session that is *dirty*: in ``dirty`` (its load changed, it
        retired, or its hosts changed) or on a node reached earlier in
        this walk.  Reaching a node makes its sessions dirty and pushes
        their later hosts.  Every other node is carried over untouched.
        Its sessions met the same nodes, in the same order, taking the
        same rates as last walk, so the full check would reuse the node
        too.  A session first reached at some node starts from its rate
        less the takes of the hosts before it, subtracted in walk order:
        the float sequence a walk over every node performs.  A session no
        change reaches keeps the leftover it had, bit for bit.  Probe
        walks pass an index in which every node is fresh.
        """
        hosts = index.hosts
        heap = list(index.fresh)
        queued = set(map(id, heap))
        for sid in dirty:
            load = by_id.get(sid)
            if load is not None:
                demand[sid] = load.rate_rps
            for slot, _ in hosts.get(sid, []):
                if id(slot) not in queued:
                    queued.add(id(slot))
                    heap.append(slot)
        heapq.heapify(heap)
        touched = set(dirty)

        dropped: list[_Slot] = []
        replaced: list[GpuPlan | None] = []
        added: list[GpuPlan] = []
        # Walk existing nodes from most- to least-utilized so that, when
        # demand shrinks, the least-utilized backends are the ones drained
        # (section 6.1: "the scheduler attempts to move sessions from the
        # least utilized backends to other backends").
        while heap:
            slot = heapq.heappop(heap)
            node = slot.node
            for sid in slot.sids:
                if sid in touched:
                    continue
                # First reached here: every host before this one was
                # carried over untouched.
                touched.add(sid)
                load = by_id.get(sid)
                remaining = 0.0 if load is None else load.rate_rps
                for host, alloc in hosts[sid]:
                    if host < slot:
                        remaining -= alloc.load.rate_rps
                    elif id(host) not in queued:
                        queued.add(id(host))
                        heapq.heappush(heap, host)
                if load is not None:
                    demand[sid] = remaining
            # Fast path: when every allocation on this node would take
            # exactly its current rate again, the rebuild below reproduces
            # the node verbatim (same loads, batches, duty cycle), so the
            # existing GpuPlan object can be reused without reconstructing
            # allocations or re-running the eviction loop.
            reuse = bool(node.allocations)
            taken: dict[str, float] = {}
            for sid, alloc in zip(slot.sids, node.allocations):
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
                    or (cur.session is not load.session
                        and cur.session != load.session)
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
                continue

            dropped.append(slot)
            replaced.append(None)
            new_allocs: list[Allocation] = []
            for sid, alloc in zip(slot.sids, node.allocations):
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
                replaced[-1] = candidate
                added.append(candidate)

        # The kept nodes in walk order: the previous order with each
        # dropped node replaced by its rebuild, or cut out.
        nodes = index.nodes
        slots = index.slots
        gpus: list[GpuPlan] = []
        start = 0
        for slot, candidate in zip(dropped, replaced):
            i = bisect_left(slots, slot)
            gpus += nodes[start:i]
            if candidate is not None:
                gpus.append(candidate)
            start = i + 1
        gpus += nodes[start:]

        # Pack all uncovered demand (new sessions, rate growth, evictions).
        residual_loads = [
            by_id[sid].with_rate(rate)
            for sid, rate in demand.items()
            if rate > 1e-9
        ]
        extra = self._repack(residual_loads)
        added += extra.gpus
        gpus += extra.gpus
        plan = SchedulePlan(gpus=gpus, infeasible=extra.infeasible)
        return _Walk(plan, len(slots) - len(dropped), dropped, added)

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

        index = _PlanIndex(self.plan.gpus)

        def pack_at(scale: float) -> SchedulePlan:
            scaled = [l.with_rate(l.rate_rps * scale) for l in loads]
            by_id = {l.session_id: l for l in scaled}
            demand = {l.session_id: l.rate_rps for l in scaled}
            return self._incremental_plan(index, by_id, demand, []).plan

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

    def _synced_index(self) -> _PlanIndex:
        """The index of ``self.plan``, re-indexed if the plan was replaced
        outside the walk (``handle_failure``, ``adopt`` or assignment).

        List equality compares by identity first, so this is one C-level
        pass; a node swapped for an equal copy counts as the same node.
        """
        index = self._index
        gpus = self.plan.gpus
        if gpus != index.emitted:
            index = self._index = index.replaced_by(gpus)
        return index

    def capacity_rps(self, session_id: str) -> float:
        return self.plan.capacity_rps(session_id)

    @property
    def num_gpus(self) -> int:
        return self.plan.num_gpus

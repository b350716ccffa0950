"""Squishy bin packing: the paper's Algorithm 1 (section 6.1).

Bin packing where the "balls" change size with the batch they are squished
into.  The algorithm has two phases:

1. **ScheduleSaturate** -- for each session, compute the largest batch
   ``B`` with ``2*l(B) <= SLO`` (a request that just misses a batch waits
   for the whole next one), hence the session's peak single-GPU throughput
   ``T = B / l(B)``.  Allocate ``floor(rate / T)`` whole GPUs and emit the
   remainder as a *residual load*.

2. **ScheduleResidue** -- for each residual load pick the largest batch
   ``b`` satisfying Equation 2, ``b/r + l(b) <= SLO`` (duty cycle to
   gather the batch plus its execution), giving duty cycle ``d = b/r`` and
   occupancy ``l(b)/d``.  Sort residues by occupancy descending and
   best-fit merge them into existing duty cycles (Figure 7): the merged
   node adopts the smaller duty cycle, every member's batch shrinks to
   ``ceil(d * r) <= b`` (which can only improve its worst-case latency),
   and the merge is accepted only if the members' batch latencies still
   fit inside the new duty cycle and the GPU's memory.

The only assumptions on profiles are that latency is non-decreasing and
throughput non-decreasing in batch size -- no linearity required.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

from .fleet import Fleet
from .floatcmp import approx_ge, approx_le
from .session import SessionLoad

__all__ = [
    "Allocation",
    "GpuPlan",
    "SchedulePlan",
    "schedule_saturate",
    "schedule_residue",
    "squishy_bin_packing",
    "pack_fleet",
]


@dataclass
class Allocation:
    """One session's share of one GPU's duty cycle."""

    load: SessionLoad
    batch: int

    @property
    def session_id(self) -> str:
        return self.load.session_id

    @property
    def device(self) -> str:
        """Device class this allocation's load was profiled for."""
        return self.load.device

    @property
    def exec_ms(self) -> float:
        """Batch execution latency for this allocation."""
        return self.load.profile.latency(self.batch)

    def gather_wait_ms(self) -> float:
        """Worst wait of a batch's first request until the batch fills."""
        if self.load.rate_rps <= 0:
            return 0.0
        return (self.batch - 1) / self.load.rate_rps * 1000.0

    def memory_bytes(self) -> int:
        return self.load.profile.memory_bytes(self.batch)


#: process-wide source of stable GPU-plan node ids.  Ids are identity, not
#: order: churn accounting and failure tracking diff plans on ``node_id``,
#: never on a node's position in ``SchedulePlan.gpus`` (which the epoch
#: scheduler re-sorts every epoch).
_node_ids = itertools.count(1)


def _next_node_id() -> int:
    return next(_node_ids)


@dataclass
class GpuPlan:
    """The schedule for one GPU: sessions executed round-robin in a cycle.

    ``duty_cycle_ms`` is the period over which the GPU cycles through all
    its allocations.  A saturated GPU (single session at peak batch) uses
    ``duty_cycle = l(B)`` and back-to-back batches.

    ``node_id`` is a stable identity that survives re-sorting and rebuilds:
    a plan node that carries over to the next epoch (possibly with adjusted
    allocations) keeps its id, so "did this session move?" and "which node
    died with that backend?" have well-defined answers.
    """

    allocations: list[Allocation]
    duty_cycle_ms: float
    saturated: bool = False
    node_id: int = field(default_factory=_next_node_id)
    device: str = ""

    @property
    def busy_ms(self) -> float:
        return sum(a.exec_ms for a in self.allocations)

    @property
    def occupancy(self) -> float:
        """Fraction of the duty cycle spent executing."""
        if self.duty_cycle_ms <= 0:
            return 0.0
        return self.busy_ms / self.duty_cycle_ms

    def throughput_rps(self, session_id: str) -> float:
        """Capacity this GPU provides to one session (requests/second)."""
        total = 0.0
        for a in self.allocations:
            if a.session_id == session_id:
                total += a.batch / self.duty_cycle_ms * 1000.0
        return total

    def memory_bytes(self) -> int:
        """Resident bytes on this GPU: weights once per model, activations
        per allocation.

        Two sessions of the same model merged into one duty cycle share
        one resident copy of the weights (one model instance, several
        queues), so weight bytes are deduped per model id -- summing
        ``Allocation.memory_bytes`` would double-count them and refuse
        merges that actually fit.
        """
        total = 0
        weight_bytes: dict[str, int] = {}
        for a in self.allocations:
            total += a.batch * a.load.profile.memory_per_input_bytes
            model = a.load.session.model_id
            prior = weight_bytes.get(model, 0)
            weight_bytes[model] = max(prior, a.load.profile.memory_model_bytes)
        return total + sum(weight_bytes.values())

    def session_ids(self) -> list[str]:
        return [a.session_id for a in self.allocations]

    def worst_case_ms(self, alloc: Allocation) -> float:
        """One member's worst-case latency on this node (section 6.1).

        A saturated node runs back-to-back batches, so a request that just
        misses one batch waits for the whole next one: ``2*l(B)``.  On a
        shared node a request waits at most one duty cycle, then its
        batch's execution (Equation 2).  A lone residual session dispatches
        as soon as its batch fills: its first request waits the gather
        time, not the nominal duty cycle.
        """
        if self.saturated:
            return 2 * alloc.exec_ms
        wc = self.duty_cycle_ms + alloc.exec_ms
        if len(self.allocations) == 1:
            wc = min(wc, alloc.gather_wait_ms() + alloc.exec_ms)
        return wc

    def validate(self, memory_capacity: int | None = None) -> list[str]:
        """Return human-readable constraint violations (empty if valid)."""
        problems = []
        if not approx_le(self.busy_ms, self.duty_cycle_ms):
            problems.append(
                f"busy {self.busy_ms:.2f}ms exceeds duty cycle "
                f"{self.duty_cycle_ms:.2f}ms"
            )
        for a in self.allocations:
            wc = self.worst_case_ms(a)
            if not approx_le(wc, a.load.slo_ms):
                problems.append(
                    f"{a.session_id}: worst-case {wc:.2f}ms > SLO "
                    f"{a.load.slo_ms:.2f}ms"
                )
        if memory_capacity is not None and self.memory_bytes() > memory_capacity:
            problems.append(
                f"memory {self.memory_bytes()} > capacity {memory_capacity}"
            )
        return problems


@dataclass
class SchedulePlan:
    """Full cluster plan: one GpuPlan per allocated GPU."""

    gpus: list[GpuPlan]
    infeasible: list[SessionLoad] = field(default_factory=list)

    @property
    def num_gpus(self) -> int:
        return len(self.gpus)

    def capacity_rps(self, session_id: str) -> float:
        return sum(g.throughput_rps(session_id) for g in self.gpus)

    def gpus_by_class(self) -> dict[str, int]:
        """GPU counts per device class (sorted by class name)."""
        counts: dict[str, int] = {}
        for gpu in self.gpus:
            counts[gpu.device] = counts.get(gpu.device, 0) + 1
        return {name: counts[name] for name in sorted(counts)}

    def price_per_hour(self, fleet: Fleet) -> float:
        """Hourly dollar cost of every GPU this plan occupies."""
        return sum(fleet.price_per_hour(g.device) for g in self.gpus)

    def validate(self, memory_capacity: int | None = None) -> list[str]:
        problems = []
        for i, gpu in enumerate(self.gpus):
            problems.extend(f"gpu{i}: {p}" for p in gpu.validate(memory_capacity))
        return problems


@dataclass
class _Residual:
    """Working record for ScheduleResidue."""

    load: SessionLoad
    batch: int
    duty_ms: float

    @property
    def occupancy(self) -> float:
        return self.load.profile.latency(self.batch) / self.duty_ms


def schedule_saturate(
    loads: list[SessionLoad],
) -> tuple[list[GpuPlan], list[SessionLoad], list[SessionLoad]]:
    """Phase 1: allocate whole GPUs to sessions that can fill them.

    Returns ``(gpu_plans, residual_loads, infeasible_loads)``.  A load is
    infeasible when even a batch of one misses its SLO on this profile.
    """
    plans: list[GpuPlan] = []
    residuals: list[SessionLoad] = []
    infeasible: list[SessionLoad] = []
    # Stable input order: callers often assemble loads from dicts/sets, and
    # the emitted plan must not depend on their iteration order (the
    # determinism contract nexuslint enforces on this package).
    for load in sorted(loads, key=lambda l: l.session_id):
        if load.rate_rps <= 0:
            continue
        peak_batch = load.profile.max_batch_under_slo(load.slo_ms)
        if peak_batch == 0:
            # Too tight for back-to-back batching (2*l(1) > SLO), but may
            # still be servable on-arrival at batch ~1: shard the rate
            # across enough residual-only nodes.
            if load.profile.latency(1) > load.slo_ms:
                infeasible.append(load)
            else:
                residuals.extend(_shard_tight_session(load))
            continue
        peak_tput = load.profile.throughput(peak_batch)
        whole_gpus = int(load.rate_rps // peak_tput)
        for _ in range(whole_gpus):
            plans.append(
                GpuPlan(
                    allocations=[Allocation(load.with_rate(peak_tput), peak_batch)],
                    duty_cycle_ms=load.profile.latency(peak_batch),
                    saturated=True,
                    device=load.device,
                )
            )
        residue_rate = load.rate_rps - whole_gpus * peak_tput
        # Tolerance relative to one GPU's capacity: at high rates the
        # subtraction's float rounding can leave a residue of a few ulps
        # of ``rate_rps``, and an absolute 1e-9 threshold would spawn a
        # whole extra GPU to serve it.
        if residue_rate > 1e-9 * peak_tput * max(1.0, whole_gpus):
            residuals.append(load.with_rate(residue_rate))
    return plans, residuals, infeasible


def _shard_tight_session(load: SessionLoad) -> list[SessionLoad]:
    """Split a too-tight-to-saturate session into residual-sized shards.

    Each shard must fit one GPU's residual capacity (the batch/duty pair
    of Equation 2 with the duty capped at the SLO slack); the smallest
    shard count whose per-shard rate fits is used.
    """
    for shards in range(1, 10_000):
        shard = load.with_rate(load.rate_rps / shards)
        res = _initial_residual(shard)
        if res is None:
            continue
        capacity = res.batch / res.duty_ms * 1000.0
        if approx_ge(capacity, shard.rate_rps):
            return [shard] * shards
    return [load]  # give the packer one oversized shard; drops absorb it


def _initial_residual(load: SessionLoad) -> _Residual | None:
    """Largest batch (and duty cycle) satisfying Equation 2 for this load.

    The duty cycle is the gather time ``b / r`` -- but never longer than
    the session's SLO slack ``L - l(b)``: a low-rate session must still be
    *visited* often enough that a request arriving right after its slot
    does not miss the SLO waiting for the next cycle.  (The GPU simply
    idles through slots whose queue is empty.)
    """
    batch = load.profile.max_batch_residual(load.rate_rps, load.slo_ms)
    if batch == 0:
        return None
    while batch >= 1:
        exec_ms = load.profile.latency(batch)
        duty_ms = min(batch / load.rate_rps * 1000.0,
                      load.slo_ms - exec_ms)
        if duty_ms >= exec_ms:
            return _Residual(load, batch, duty_ms)
        batch -= 1
    # Very tight sessions (SLO - l(1) < l(1)): no cycle grants a
    # worst-case guarantee, but a mostly-idle solo node serves requests on
    # arrival within l(1) <= SLO.  Model it as batch-1 slots at a
    # conservative utilization (the duty is the capacity bound, not a
    # visit interval); such nodes never merge (duty + l exceeds the SLO).
    exec_ms = load.profile.latency(1)
    if exec_ms <= load.slo_ms:
        duty_ms = exec_ms / _TIGHT_SESSION_UTILIZATION
        if approx_ge(1.0 / duty_ms * 1000.0, load.rate_rps):
            return _Residual(load, 1, duty_ms)
    return None


#: Ceiling on merged-node occupancy.  1.0 is the paper's rule (the worked
#: example of section 4.1 packs A+B to exactly 100% of the duty cycle);
#: lower values trade GPUs for burst slack -- the ablation bench sweeps
#: this.
MERGE_OCCUPANCY_CAP = 1.0

#: Target utilization for sessions so tight (SLO - l(1) < l(1)) that no
#: duty cycle guarantees their worst case: they get dedicated batch-1
#: slots kept mostly idle so queueing rarely pushes waits past the slack.
_TIGHT_SESSION_UTILIZATION = 0.55


def _try_merge(
    node: GpuPlan, res: _Residual, memory_capacity: int | None,
    occupancy_cap: float = MERGE_OCCUPANCY_CAP,
) -> GpuPlan | None:
    """Figure 7's merge: shrink to the smaller duty cycle, re-derive batches.

    Returns the merged plan, or None if latency/memory constraints fail.
    Shards of the same session never share a GPU (one queue per session
    per backend): sharding exists to spread one session across GPUs.
    """
    if any(a.session_id == res.load.session_id for a in node.allocations):
        return None
    # Never mix device classes in one duty cycle: the node's profiles and
    # memory bound are all class-specific.
    if res.load.device != node.device:
        return None
    new_duty = min(node.duty_cycle_ms, res.duty_ms)
    members = [(a.load, a.batch) for a in node.allocations] + [(res.load, res.batch)]
    new_allocs: list[Allocation] = []
    busy = 0.0
    for load, old_batch in members:
        # ceil(d * r) <= old_batch because d <= old duty = old_batch / r,
        # so worst-case latency can only improve (section 6.1's argument).
        new_batch = min(old_batch, math.ceil(new_duty * load.rate_rps / 1000.0))
        if new_batch < 1:
            new_batch = 1
        exec_ms = load.profile.latency(new_batch)
        if not approx_le(new_duty + exec_ms, load.slo_ms):
            return None
        busy += exec_ms
        new_allocs.append(Allocation(load, new_batch))
    if not approx_le(busy, occupancy_cap * new_duty):
        return None
    # The merge grows an existing node in place: keep its identity.
    merged = GpuPlan(new_allocs, new_duty, node_id=node.node_id,
                     device=node.device)
    if memory_capacity is not None and merged.memory_bytes() > memory_capacity:
        return None
    return merged


def schedule_residue(
    residuals: list[SessionLoad],
    memory_capacity: int | None = None,
    merge_order: str = "best_fit",
) -> tuple[list[GpuPlan], list[SessionLoad]]:
    """Phase 2: pack residual loads into shared duty cycles.

    Args:
        residuals: loads, each needing less than one GPU.
        memory_capacity: per-GPU memory bound, or None to ignore memory.
        merge_order: ``"best_fit"`` (paper: merge into the candidate whose
            merged occupancy is highest), ``"first_fit"``, or
            ``"worst_fit"`` -- the alternatives exist for the ablation
            bench on merge policy.

    Returns ``(gpu_plans, infeasible_loads)``.
    """
    if merge_order not in ("best_fit", "first_fit", "worst_fit"):
        raise ValueError(f"unknown merge_order {merge_order!r}")

    work: list[_Residual] = []
    infeasible: list[SessionLoad] = []
    # Stable input order (see schedule_saturate): identical residual sets
    # must pack identically regardless of how the caller ordered them.
    for load in sorted(residuals, key=lambda l: l.session_id):
        if load.rate_rps <= 0:
            continue
        res = _initial_residual(load)
        if res is None:
            infeasible.append(load)
        else:
            work.append(res)

    # Best-fit decreasing: consider heaviest residuals first; ties break
    # on session id so equal-occupancy residues pack order-independently.
    work.sort(key=lambda r: (-r.occupancy, r.load.session_id))

    nodes: list[GpuPlan] = []
    for res in work:
        chosen_idx: int | None = None
        chosen_plan: GpuPlan | None = None
        for i, node in enumerate(nodes):
            merged = _try_merge(node, res, memory_capacity)
            if merged is None:
                continue
            if merge_order == "first_fit":
                chosen_idx, chosen_plan = i, merged
                break
            better = (
                chosen_plan is None
                or (merge_order == "best_fit" and merged.occupancy > chosen_plan.occupancy)
                or (merge_order == "worst_fit" and merged.occupancy < chosen_plan.occupancy)
            )
            if better:
                chosen_idx, chosen_plan = i, merged
        if chosen_plan is not None and chosen_idx is not None:
            nodes[chosen_idx] = chosen_plan
        else:
            nodes.append(
                GpuPlan([Allocation(res.load, res.batch)], res.duty_ms,
                        device=res.load.device)
            )
    return nodes, infeasible


def squishy_bin_packing(
    loads: list[SessionLoad],
    memory_capacity: int | None = None,
) -> SchedulePlan:
    """Algorithm 1 end-to-end: saturate, then pack residues."""
    saturated, residuals, infeasible = schedule_saturate(loads)
    residual_nodes, more_infeasible = schedule_residue(
        residuals, memory_capacity=memory_capacity
    )
    return SchedulePlan(
        gpus=saturated + residual_nodes,
        infeasible=infeasible + more_infeasible,
    )


#: Binary-search depth when shedding a class's rates down to its
#: inventory; 1e-12 of the scale interval is far below rate granularity.
_SHED_SEARCH_ITERS = 40


def _shed_to_count(
    loads: list[SessionLoad],
    count: int,
    pack: Callable[[list[SessionLoad]], SchedulePlan],
) -> SchedulePlan:
    """Proportionally scale a class's rates until its plan fits ``count``.

    Mirrors the cluster's admission control: when a class's inventory
    cannot serve its assigned rates, every session sheds the same
    fraction rather than any session being dropped outright.
    """
    lo, hi = 0.0, 1.0
    best = pack([l.with_rate(0.0) for l in loads])
    for _ in range(_SHED_SEARCH_ITERS):
        mid = (lo + hi) / 2.0
        plan = pack([l.with_rate(l.rate_rps * mid) for l in loads])
        if plan.num_gpus <= count:
            lo, best = mid, plan
        else:
            hi = mid
    return best


def pack_fleet(
    loads: list[SessionLoad],
    fleet: Fleet,
) -> SchedulePlan:
    """Algorithm 1 per device class: heterogeneous squishy packing.

    Every load must be tagged with a fleet class (``SessionLoad.device``)
    and carry that class's profile -- see
    :func:`repro.core.fleet.assign_classes`.  As a convenience, untagged
    loads are legal on a *single-class* fleet and adopt its class, so the
    homogeneous path needs no re-tagging.  Each class packs independently
    with its own memory capacity; a class whose plan exceeds its
    inventory ``count`` sheds rate proportionally until it fits.
    """
    tagged: list[SessionLoad] = []
    for load in loads:
        if not load.device:
            if not fleet.is_single_class:
                raise ValueError(
                    f"untagged load {load.session_id!r} on a multi-class "
                    f"fleet; assign device classes first"
                )
            load = load.with_device(fleet.classes[0].name)
        elif load.device not in fleet.names:
            raise KeyError(
                f"load {load.session_id!r} tagged {load.device!r}, not in "
                f"fleet {fleet.names}"
            )
        tagged.append(load)

    gpus: list[GpuPlan] = []
    infeasible: list[SessionLoad] = []
    for gpu_class in fleet.classes:
        class_loads = [l for l in tagged if l.device == gpu_class.name]
        if not class_loads:
            continue
        def pack(
            batch: list[SessionLoad], memory: int = gpu_class.mem_capacity
        ) -> SchedulePlan:
            return squishy_bin_packing(batch, memory_capacity=memory)

        plan = pack(class_loads)
        if gpu_class.count is not None and plan.num_gpus > gpu_class.count:
            plan = _shed_to_count(class_loads, gpu_class.count, pack)
        gpus.extend(plan.gpus)
        infeasible.extend(plan.infeasible)
    return SchedulePlan(gpus=gpus, infeasible=infeasible)

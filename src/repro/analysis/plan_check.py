"""Runtime-free validation of Algorithm-1 invariants on GPU plans.

The paper's squishy bin packing (section 6.1) is only correct when every
emitted :class:`~repro.core.squishy.GpuPlan` satisfies a small set of
invariants — ``duty_cycle + batch_latency <= SLO`` chief among them.  The
runtime tests exercise those invariants dynamically; this module checks
them *statically* on any plan object, with no simulator in the loop, so
schedulers, experiments, and the control plane can assert a plan is sound
before deploying or measuring it.

Checked invariants (one rule slug per class of violation):

- ``slo-headroom``       every allocation's worst-case latency fits its
                         SLO (Equation 2; saturated nodes use the
                         back-to-back ``2*l(B)`` bound, lone residual
                         nodes the gather-time bound; see
                         :meth:`~repro.core.squishy.GpuPlan.worst_case_ms`).
- ``duty-overcommit``    the members' batch latencies fit inside the duty
                         cycle (residue-merge legality, Figure 7).
- ``memory-capacity``    resident model memory fits the GPU.
- ``double-assignment``  a session appears at most once per GPU (shards
                         spread across GPUs; one queue per session per
                         backend).
- ``batch-bounds``       batches are >= 1 and within the profile's
                         maximum.
- ``nonpositive-duty``   duty cycles are positive.
- ``duplicate-node-id``  plan nodes carry unique stable identities (churn
                         accounting diffs on ``node_id``).
- ``gpu-cap``            (opt-in) the plan fits a hard cluster size; with
                         a :class:`~repro.core.fleet.Fleet`, each class's
                         GPU count also fits that class's inventory.
- ``device-consistency`` (fleet only) every node is tagged with a known
                         fleet class and every allocation's load carries
                         the same class tag -- a load packed against one
                         class's profile must not land on another class's
                         GPU.  Memory capacity is then checked per class.

:func:`assert_valid_plan` is the assertion-layer entry point wired into
``EpochScheduler.update``, ``BackendPool.apply_plan``, and the
experiments; it raises :class:`PlanCheckError` carrying the violation
list.  Baseline schedulers (batch-oblivious) are latency-infeasible *by
design* and are deployed with validation off.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.fleet import Fleet
from ..core.floatcmp import approx_le
from ..core.squishy import GpuPlan, SchedulePlan

__all__ = [
    "PlanViolation",
    "PlanCheckError",
    "check_gpu_plan",
    "check_plan",
    "assert_valid_plan",
    "plans_checked",
]

#: process-wide count of plans validated (reported by the experiment
#: report so "every figure came from a validated plan" is observable).
_plans_checked: int = 0


def plans_checked() -> int:
    """How many plans this process has validated so far."""
    return _plans_checked


@dataclass(frozen=True)
class PlanViolation:
    """One invariant violation found in a plan."""

    rule: str
    message: str
    gpu_index: int | None = None
    session_id: str | None = None

    def render(self) -> str:
        where = "" if self.gpu_index is None else f"gpu{self.gpu_index}: "
        return f"[{self.rule}] {where}{self.message}"


class PlanCheckError(AssertionError):
    """A plan failed invariant validation."""

    def __init__(self, violations: list[PlanViolation], context: str = ""):
        self.violations = violations
        self.context = context
        header = f"invalid plan{f' ({context})' if context else ''}:"
        lines = [header] + [f"  {v.render()}" for v in violations]
        super().__init__("\n".join(lines))


def check_gpu_plan(
    plan: GpuPlan,
    memory_capacity: int | None = None,
    gpu_index: int | None = None,
) -> list[PlanViolation]:
    """Validate one GPU's schedule; returns violations (empty if sound)."""
    violations: list[PlanViolation] = []

    if plan.duty_cycle_ms <= 0:
        violations.append(PlanViolation(
            "nonpositive-duty",
            f"duty cycle {plan.duty_cycle_ms!r} ms must be positive",
            gpu_index=gpu_index,
        ))
        return violations  # downstream ratios are meaningless

    # Batch bounds come first: profiles refuse to report latency for an
    # out-of-range batch, so the latency-derived checks below can only run
    # over the in-bounds allocations.
    seen: dict[str, int] = {}
    in_bounds: list[int] = []
    for i, alloc in enumerate(plan.allocations):
        sid = alloc.session_id
        seen[sid] = seen.get(sid, 0) + 1

        if alloc.batch < 1:
            violations.append(PlanViolation(
                "batch-bounds", f"{sid}: batch {alloc.batch} < 1",
                gpu_index=gpu_index, session_id=sid,
            ))
            continue
        max_batch = getattr(alloc.load.profile, "max_batch", None)
        if max_batch is not None and alloc.batch > max_batch:
            violations.append(PlanViolation(
                "batch-bounds",
                f"{sid}: batch {alloc.batch} exceeds profile max "
                f"{max_batch}",
                gpu_index=gpu_index, session_id=sid,
            ))
            continue
        in_bounds.append(i)

    busy = sum(plan.allocations[i].exec_ms for i in in_bounds)
    if not approx_le(busy, plan.duty_cycle_ms):
        violations.append(PlanViolation(
            "duty-overcommit",
            f"batch latencies sum to {busy:.3f} ms, exceeding the "
            f"{plan.duty_cycle_ms:.3f} ms duty cycle",
            gpu_index=gpu_index,
        ))

    for i in in_bounds:
        alloc = plan.allocations[i]
        sid = alloc.session_id
        wc = plan.worst_case_ms(alloc)
        if not approx_le(wc, alloc.load.slo_ms):
            violations.append(PlanViolation(
                "slo-headroom",
                f"{sid}: worst-case {wc:.3f} ms exceeds SLO "
                f"{alloc.load.slo_ms:.3f} ms (duty "
                f"{plan.duty_cycle_ms:.3f} + exec {alloc.exec_ms:.3f})",
                gpu_index=gpu_index, session_id=sid,
            ))

    for sid, count in seen.items():
        if count > 1:
            violations.append(PlanViolation(
                "double-assignment",
                f"{sid} assigned {count} times on one GPU (one queue per "
                f"session per backend)",
                gpu_index=gpu_index, session_id=sid,
            ))

    if memory_capacity is not None:
        used = plan.memory_bytes()
        if used > memory_capacity:
            violations.append(PlanViolation(
                "memory-capacity",
                f"resident memory {used} B exceeds GPU capacity "
                f"{memory_capacity} B",
                gpu_index=gpu_index,
            ))

    return violations


def _check_device_consistency(
    plan: GpuPlan, fleet: Fleet, gpu_index: int
) -> tuple[list[PlanViolation], int | None]:
    """Fleet invariants for one node: known class, matching load tags.

    Returns ``(violations, memory_capacity)`` where the capacity is the
    node's class capacity, or None when the class is unknown (the memory
    check is then meaningless).
    """
    violations: list[PlanViolation] = []
    if plan.device not in fleet.names:
        violations.append(PlanViolation(
            "device-consistency",
            f"node tagged {plan.device!r}, not a fleet class "
            f"{fleet.names}",
            gpu_index=gpu_index,
        ))
        return violations, None
    for alloc in plan.allocations:
        if alloc.device != plan.device:
            violations.append(PlanViolation(
                "device-consistency",
                f"{alloc.session_id}: load tagged {alloc.device!r} on a "
                f"{plan.device!r} GPU (profile/class mismatch)",
                gpu_index=gpu_index, session_id=alloc.session_id,
            ))
    return violations, fleet.memory_capacity(plan.device)


def check_plan(
    plan: SchedulePlan,
    memory_capacity: int | None = None,
    max_gpus: int | None = None,
    fleet: Fleet | None = None,
) -> list[PlanViolation]:
    """Validate a full cluster plan; returns violations (empty if sound).

    With ``fleet`` set, memory is bounded per class, every node must be
    consistently class-tagged (``device-consistency``), and each class's
    GPU count must fit its inventory (``gpu-cap`` per class).
    """
    global _plans_checked
    _plans_checked += 1

    violations: list[PlanViolation] = []
    node_ids: dict[int, int] = {}
    for i, gpu in enumerate(plan.gpus):
        gpu_memory = memory_capacity
        if fleet is not None:
            device_violations, class_memory = _check_device_consistency(
                gpu, fleet, i
            )
            violations.extend(device_violations)
            if class_memory is not None:
                gpu_memory = class_memory
        violations.extend(
            check_gpu_plan(gpu, memory_capacity=gpu_memory, gpu_index=i)
        )
        if gpu.node_id in node_ids:
            violations.append(PlanViolation(
                "duplicate-node-id",
                f"node_id {gpu.node_id} used by gpu{node_ids[gpu.node_id]} "
                f"and gpu{i}; stable identity must be unique",
                gpu_index=i,
            ))
        else:
            node_ids[gpu.node_id] = i

    if max_gpus is not None and plan.num_gpus > max_gpus:
        violations.append(PlanViolation(
            "gpu-cap",
            f"plan uses {plan.num_gpus} GPUs, exceeding the cluster cap "
            f"{max_gpus}",
        ))

    if fleet is not None:
        for name, used in plan.gpus_by_class().items():
            if name not in fleet.names:
                continue  # already a device-consistency violation
            cap = fleet.count(name)
            if cap is not None and used > cap:
                violations.append(PlanViolation(
                    "gpu-cap",
                    f"class {name!r} uses {used} GPUs, exceeding its "
                    f"inventory {cap}",
                ))

    return violations


def assert_valid_plan(
    plan: SchedulePlan,
    memory_capacity: int | None = None,
    max_gpus: int | None = None,
    fleet: Fleet | None = None,
    context: str = "",
) -> SchedulePlan:
    """Raise :class:`PlanCheckError` if the plan violates any invariant.

    Returns the plan unchanged so call sites can validate inline::

        pool.apply_plan(assert_valid_plan(plan, context="epoch"))
    """
    violations = check_plan(
        plan, memory_capacity=memory_capacity, max_gpus=max_gpus, fleet=fleet
    )
    if violations:
        raise PlanCheckError(violations, context=context)
    return plan

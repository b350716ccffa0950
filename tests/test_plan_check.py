"""Tests for the runtime-free plan validator (analysis/plan_check.py)."""

import pytest

from repro.analysis.plan_check import (
    PlanCheckError,
    assert_valid_plan,
    check_gpu_plan,
    check_plan,
    plans_checked,
)
from repro.core.epoch import EpochScheduler
from repro.core.profile import LinearProfile
from repro.core.session import Session, SessionLoad
from repro.core.squishy import (
    Allocation,
    GpuPlan,
    SchedulePlan,
    squishy_bin_packing,
)


def load(name, slo, rate, alpha=1.0, beta=10.0, max_batch=64,
         model_bytes=0):
    return SessionLoad(
        Session(name, slo),
        rate,
        LinearProfile(name=name, alpha=alpha, beta=beta, max_batch=max_batch,
                      memory_model_bytes=model_bytes),
    )


def rules_of(violations):
    return {v.rule for v in violations}


class TestValidPlans:
    def test_squishy_output_is_clean(self):
        loads = [
            load("a", slo=200.0, rate=64.0),
            load("b", slo=250.0, rate=32.0),
            load("c", slo=150.0, rate=300.0),
        ]
        plan = squishy_bin_packing(loads)
        assert check_plan(plan) == []

    def test_assert_valid_plan_returns_plan(self):
        plan = squishy_bin_packing([load("a", slo=200.0, rate=64.0)])
        assert assert_valid_plan(plan) is plan

    def test_hand_built_feasible_gpu(self):
        l = load("a", slo=200.0, rate=50.0)
        # batch 8: latency 18 ms; duty 80 ms -> worst case 98 ms < 200 ms.
        plan = GpuPlan([Allocation(l, 8)], duty_cycle_ms=80.0)
        assert check_gpu_plan(plan) == []

    def test_counter_increments(self):
        before = plans_checked()
        check_plan(SchedulePlan(gpus=[]))
        assert plans_checked() == before + 1


class TestInvalidPlans:
    def test_slo_violating_plan_rejected(self):
        l = load("a", slo=100.0, rate=10.0)
        # duty 95 + exec 18 = 113 ms worst case > 100 ms SLO (the gather
        # bound is far larger at 10 r/s, so the min does not rescue it).
        plan = GpuPlan([Allocation(l, 8)], duty_cycle_ms=95.0)
        assert "slo-headroom" in rules_of(check_gpu_plan(plan))

    def test_duty_overcommitted_plan_rejected(self):
        a, b = load("a", slo=400.0, rate=20.0), load("b", slo=400.0, rate=20.0)
        # Two batch-16 members: 2 * 26 ms busy > 40 ms duty cycle.
        plan = GpuPlan([Allocation(a, 16), Allocation(b, 16)],
                       duty_cycle_ms=40.0)
        assert "duty-overcommit" in rules_of(check_gpu_plan(plan))

    def test_memory_oversubscribed_plan_rejected(self):
        l = load("a", slo=200.0, rate=50.0, model_bytes=8_000_000_000)
        plan = GpuPlan([Allocation(l, 8)], duty_cycle_ms=80.0)
        violations = check_gpu_plan(plan, memory_capacity=1_000_000_000)
        assert "memory-capacity" in rules_of(violations)
        # Without a capacity bound the same plan is fine.
        assert check_gpu_plan(plan) == []

    def test_double_assigned_session_rejected(self):
        l = load("a", slo=400.0, rate=50.0)
        plan = GpuPlan([Allocation(l, 4), Allocation(l, 4)],
                       duty_cycle_ms=120.0)
        assert "double-assignment" in rules_of(check_gpu_plan(plan))

    def test_batch_above_profile_max_rejected(self):
        l = load("a", slo=1000.0, rate=50.0, max_batch=8)
        plan = GpuPlan([Allocation(l, 16)], duty_cycle_ms=200.0)
        assert "batch-bounds" in rules_of(check_gpu_plan(plan))

    def test_nonpositive_duty_rejected(self):
        l = load("a", slo=200.0, rate=50.0)
        plan = GpuPlan([Allocation(l, 8)], duty_cycle_ms=0.0)
        assert rules_of(check_gpu_plan(plan)) == {"nonpositive-duty"}

    def test_duplicate_node_ids_rejected(self):
        l = load("a", slo=200.0, rate=50.0)
        g1 = GpuPlan([Allocation(l, 8)], duty_cycle_ms=80.0, node_id=7)
        g2 = GpuPlan([Allocation(load("b", 200.0, 50.0), 8)],
                     duty_cycle_ms=80.0, node_id=7)
        plan = SchedulePlan(gpus=[g1, g2])
        assert "duplicate-node-id" in rules_of(check_plan(plan))

    def test_gpu_cap_opt_in(self):
        plan = squishy_bin_packing([load("a", slo=150.0, rate=1600.0)])
        assert plan.num_gpus > 1
        assert check_plan(plan) == []
        assert "gpu-cap" in rules_of(check_plan(plan, max_gpus=1))

    def test_assert_valid_plan_raises_with_details(self):
        l = load("a", slo=100.0, rate=10.0)
        bad = SchedulePlan(
            gpus=[GpuPlan([Allocation(l, 8)], duty_cycle_ms=95.0)]
        )
        with pytest.raises(PlanCheckError) as exc_info:
            assert_valid_plan(bad, context="unit test")
        err = exc_info.value
        assert err.violations
        assert "unit test" in str(err)
        assert "slo-headroom" in str(err)
        # PlanCheckError is an AssertionError so plain asserts upstream
        # (pytest.raises(AssertionError)) also catch it.
        assert isinstance(err, AssertionError)


def _saturated_node(slo):
    # Back-to-back batches of 16 (l = 26 ms): bound 2 * 26 = 52 ms.
    a = load("a", slo=slo, rate=600.0)
    plan = GpuPlan([Allocation(a, 16)], duty_cycle_ms=26.0, saturated=True)
    return plan, 52.0


def _lone_residual_node(slo):
    # Batch 8 (l = 18 ms) at 200 r/s gathers in 7 / 200 s = 35 ms, well
    # inside the 80 ms duty: bound min(80 + 18, 35 + 18) = 53 ms.
    a = load("a", slo=slo, rate=200.0)
    return GpuPlan([Allocation(a, 8)], duty_cycle_ms=80.0), 53.0


def _shared_node(slo):
    # Two members in an 80 ms duty: member a's bound is 80 + l(8) = 98 ms;
    # b's SLO is loose, so only a's can fail.
    a = load("a", slo=slo, rate=100.0)
    b = load("b", slo=1000.0, rate=50.0)
    plan = GpuPlan([Allocation(a, 8), Allocation(b, 4)], duty_cycle_ms=80.0)
    return plan, 98.0


@pytest.mark.parametrize("slack", [0.5, -0.5], ids=["above", "below"])
@pytest.mark.parametrize(
    "build", [_saturated_node, _lone_residual_node, _shared_node],
    ids=["saturated", "lone-residual", "shared"],
)
def test_validate_and_plan_check_share_the_worst_case_bound(build, slack):
    """GpuPlan.validate() and check_gpu_plan apply one section-6.1 bound:
    both accept an SLO just above the hand-computed worst case and both
    reject one just below it."""
    _, bound = build(1000.0)
    plan, _ = build(bound + slack)
    alloc = plan.allocations[0]
    assert plan.worst_case_ms(alloc) == pytest.approx(bound)
    validate_fails = plan.validate() != []
    check = check_gpu_plan(plan)
    check_fails = "slo-headroom" in rules_of(check)
    assert validate_fails == check_fails == (slack < 0)
    if check_fails:
        assert [v.session_id for v in check] == [alloc.session_id]


class TestSchedulerIntegration:
    def test_epoch_scheduler_validates_when_enabled(self):
        sched = EpochScheduler(validate=True)
        sched.update(0.0, [load("a", slo=200.0, rate=64.0)])
        assert sched.plan.num_gpus >= 1

    def test_epoch_scheduler_validation_covers_recovery(self):
        loads = [load("a", slo=200.0, rate=120.0),
                 load("b", slo=250.0, rate=60.0)]
        sched = EpochScheduler(validate=True)
        sched.update(0.0, loads)
        dead = [sched.plan.gpus[0].node_id]
        sched.handle_failure(30_000.0, dead, loads)
        assert check_plan(sched.plan) == []

    def test_backend_pool_rejects_invalid_plan(self):
        from repro.cluster.frontend import RoutingTable
        from repro.cluster.global_scheduler import BackendPool, PoolConfig
        from repro.simulation.simulator import Simulator

        pool = BackendPool(
            Simulator(), RoutingTable(),
            config=PoolConfig(validate_plans=True),
        )
        l = load("a", slo=100.0, rate=10.0)
        bad = SchedulePlan(
            gpus=[GpuPlan([Allocation(l, 8)], duty_cycle_ms=95.0)]
        )
        with pytest.raises(PlanCheckError):
            pool.apply_plan(bad)
        good = squishy_bin_packing([load("b", slo=200.0, rate=64.0)])
        pool.apply_plan(good)  # does not raise
        assert pool.gpus_in_use == good.num_gpus


class TestPlanDeterminism:
    """Satellite: identical inputs in any order produce identical plans."""

    @staticmethod
    def canonical(plan):
        return sorted(
            (gpu.saturated, round(gpu.duty_cycle_ms, 6),
             tuple(sorted((a.session_id, a.batch) for a in gpu.allocations)))
            for gpu in plan.gpus
        )

    def test_plan_independent_of_input_order(self):
        loads = [
            load("zeta", slo=200.0, rate=64.0),
            load("alpha", slo=250.0, rate=32.0),
            load("mid", slo=150.0, rate=210.0),
            load("beta", slo=300.0, rate=18.0),
        ]
        forward = squishy_bin_packing(loads)
        backward = squishy_bin_packing(list(reversed(loads)))
        assert self.canonical(forward) == self.canonical(backward)

    def test_plan_independent_of_dict_iteration_order(self):
        # Same sessions assembled through differently-ordered dicts, the
        # way control-plane callers build load lists.
        spec = {"zeta": 64.0, "alpha": 32.0, "mid": 210.0, "beta": 18.0}
        slos = {"zeta": 200.0, "alpha": 250.0, "mid": 150.0, "beta": 300.0}
        d1 = {k: spec[k] for k in ["zeta", "alpha", "mid", "beta"]}
        d2 = {k: spec[k] for k in ["beta", "mid", "alpha", "zeta"]}
        p1 = squishy_bin_packing(
            [load(k, slos[k], r) for k, r in d1.items()]
        )
        p2 = squishy_bin_packing(
            [load(k, slos[k], r) for k, r in d2.items()]
        )
        assert self.canonical(p1) == self.canonical(p2)
        assert check_plan(p1) == [] and check_plan(p2) == []

"""Golden snapshot of the ledger's 206-app full plans.

``tests/data/plan_206_apps.txt`` holds five seeded rate draws of the
cluster the perf ledger's ``plan_fleet_epochs`` workload re-plans (6
paper apps plus 200 game variants), planned node for node with every
float written as ``float.hex()``.  A planner optimisation must leave it
byte-identical.  Regenerate it only for a change that means to move
plans, and say so:

    PYTHONPATH=src python tests/test_plan_snapshot.py > tests/data/plan_206_apps.txt
"""

import difflib
import random
import sys
from pathlib import Path

from repro.cluster.nexus import ClusterConfig, NexusCluster
from repro.core import squishy
from repro.workloads.apps import all_apps

SNAPSHOT = Path(__file__).parent / "data" / "plan_206_apps.txt"
SEEDS = (1, 2, 3, 4, 5)


def ledger_cluster():
    """The 206-app cluster of the ledger's ``plan_fleet_epochs``."""
    cluster = NexusCluster(ClusterConfig(expand_to_cluster=False))
    for i, query in enumerate(all_apps("gtx1080ti", num_games=200)):
        cluster.add_query(query, 20.0 + 5.0 * (i % 7), "poisson")
    return cluster


def render_plan(cluster, rates) -> list[str]:
    """One plan as text: the latency splits, then node by node.  Node ids
    come from a process-wide counter, so they are written relative to
    its value when the plan started (i.e. as creation order)."""
    first = squishy._next_node_id()
    plan = cluster.plan(rates)
    lines = []
    for name in sorted(cluster.splits):
        budgets = cluster.splits[name]
        lines.append(f"split {name} " + " ".join(
            f"{stage}={budgets[stage].hex()}" for stage in sorted(budgets)))
    for gpu in plan.gpus:
        lines.append(
            f"node {gpu.node_id - first} duty={gpu.duty_cycle_ms.hex()} "
            f"saturated={gpu.saturated}"
        )
        for a in gpu.allocations:
            lines.append(
                f"  {a.session_id} batch={a.batch} "
                f"rate={a.load.rate_rps.hex()} slo={a.load.slo_ms.hex()} "
                f"exec={a.exec_ms.hex()}"
            )
    for load in plan.infeasible:
        lines.append(f"infeasible {load.session_id}")
    return lines


def render() -> str:
    cluster = ledger_cluster()
    out = []
    for seed in SEEDS:
        rng = random.Random(seed)
        rates = {
            app.query.name: app.rate_rps * (0.8 + 0.4 * rng.random())
            for app in cluster.apps
        }
        out.append(f"# seed {seed}")
        out.extend(render_plan(cluster, rates))
    return "\n".join(out) + "\n"


def test_206_app_plans_match_the_snapshot():
    got = render()
    want = SNAPSHOT.read_text()
    if got != want:
        diff = "".join(difflib.unified_diff(
            want.splitlines(True), got.splitlines(True),
            str(SNAPSHOT), "planned", n=1,
        ))
        raise AssertionError(diff[:4000])


if __name__ == "__main__":
    sys.stdout.write(render())

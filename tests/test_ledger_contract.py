"""The perf ledger patches ``repro`` by name; keep those names patchable.

``benchmarks/ledger`` interposes span timers on the layers' entry points
from outside ``src/`` (``layers.install``) and ``derive.py`` calls the
queueing oracle directly.  A rename of any symbol it reaches for would
otherwise surface only when the benchmark pipeline runs; this test
installs the harness's own patches in a subprocess (they rebind module
globals process-wide) and drives the planner, then a simulated serving
run with a backend crash and its recovery epoch, through them.  It reads
the harness and changes nothing in it.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import layers
from spans import Recorder

rec = Recorder()
layers.install(rec)          # KeyError/AttributeError on a renamed symbol

# derive._queueing_prediction's calls, verbatim
from repro.core.profile import EffectiveProfile
from repro.core.queueing import OracleInapplicable, analytic_estimate
from repro.models.profiler import profile

estimate = analytic_estimate(
    EffectiveProfile(base=profile("lenet5"), overlap=True), 400.0, 8,
)

# one small plan through the patched planner entry points
from repro.cluster.nexus import ClusterConfig, NexusCluster
from repro.workloads.apps import all_apps

cluster = NexusCluster(ClusterConfig(expand_to_cluster=False))
for query in all_apps("gtx1080ti", num_games=2):
    cluster.add_query(query, 20.0, "poisson")
plan = cluster.plan()

# one short serving run through the patched data path: a crash the
# heartbeat detector sees, then the recovery epoch's redeploy
from repro.cluster.faults import FaultPlan

served = NexusCluster(ClusterConfig(dynamic=True, epoch_ms=1_000.0))
for query in all_apps("gtx1080ti", num_games=2):
    served.add_query(query, 20.0, "poisson")
result = served.run(5_000.0, faults=FaultPlan().crash(500.0, 0))
print(json.dumps({
    "p99_ms": estimate.p99_ms,
    "gpus": plan.num_gpus,
    "detections": len(result.detections),
    "calls": {key: row[0] for key, row in rec.fn.items() if row[0]},
    "counters": rec.counters,
    "samples": {key: len(values) for key, values in rec.samples.items()},
}))
"""


@functools.lru_cache(maxsize=None)
def _run_patched() -> dict:
    """Run the script once per test session; its JSON summary line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(REPO / "benchmarks" / "ledger")],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_ledger_patches_install_and_see_the_planner():
    seen = _run_patched()
    assert seen["p99_ms"] > 0.0 and seen["gpus"] >= 1
    calls = seen["calls"]
    for span in (
        "core.profile_tables:ProfileTables.__init__",
        "core.queueing:analytic_estimate",
        "models.profiler:profile",
        "models.profiler:profile_model",
        "models.profiler:prefix_suffix_profiles",
        "cluster.nexus:NexusCluster.plan",
        "cluster.nexus:NexusCluster.build_session_loads",
        "core.query:plan_query",
        "core.query:even_split",
        "core.squishy:squishy_bin_packing",
    ):
        assert calls.get(span, 0) >= 1, (span, sorted(calls))


def test_ledger_patches_see_the_serving_path():
    """The traced workloads read these wrappers of the serving path; a
    signature change in a wrapped method fails here rather than in a
    traced benchmark run."""
    seen = _run_patched()
    assert seen["detections"] == 1
    calls = seen["calls"]
    for span in (
        "observability.tracer:Tracer.batch_executed",
        "cluster.backend:Backend.enqueue",
        "cluster.backend:Backend.fail",
        "cluster.frontend:Frontend._handle_backend_failure",
        "core.epoch:EpochScheduler.handle_failure",
    ):
        assert calls.get(span, 0) >= 1, (span, sorted(calls))
    # deploy plus the recovery epoch's redeploy
    assert calls["cluster.global_scheduler:BackendPool.apply_plan"] >= 2
    counters, samples = seen["counters"], seen["samples"]
    assert counters["cluster.frontend.stage_reqs"] > 0   # _dispatch_stage
    assert counters["cluster.backend.exec_ms"] > 0       # batch_executed
    assert samples["cluster.backend.batch_size"] > 0
    # RuntimeCore.install_epoch_loop's wrapper times every epoch tick
    assert samples["cluster.nexus.epoch_tick_ms"] >= 4

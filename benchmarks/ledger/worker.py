"""The in-process workloads, each run in a fresh interpreter.

``python worker.py sim_replay|plan_fleet_epochs --seed N --seconds S
[--trace] [--setup-only]`` is started by :mod:`run`, which times how long
the worker takes to print ``READY`` (interpreter start, imports, app and
profile build, first plan: the workload's ``setup_s``) and reads the
result, one JSON object, from the last line of standard output.  A fresh
process per run keeps ``ru_maxrss`` and every lazily built cache of one
workload out of the next one's numbers.

Neither workload opens a socket or starts an event loop of its own;
``sim_replay`` drives the discrete-event simulator, ``plan_fleet_epochs``
calls the planner and nothing else.  Both are bound by this one
process's CPU, so their timings are scaled by a reference kernel timed
beside every timed section (:class:`HostSpeed`).
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

#: phase lengths below are sized for this many measured seconds.
NOMINAL_SECONDS = 20.0

DEVICE = "gtx1080ti"
MIX_RPS = 800.0
#: a timed section is kept to about half a second of host time, so that the
#: speed readings on either side of it (see HostSpeed) describe it
MIX_SIM_MS = 8_000.0
MIX_REPS = 20
FLEET_SHARDS = 4
FLEET_GPUS = 1250
FLEET_SESSIONS = 20
FLEET_DAY_MS = 15_000.0
FLEET_BASE_RPS = 10.0
#: dense enough that every seed's 15 s day sees crashes, detections (2 s
#: lease) and recoveries
FLEET_CRASHES_PER_MIN = 8.0
FLEET_RECOVER_MS = 4_000.0
FLEET_REPS = 8
PLAN_GAMES = 200
EPOCH_SESSIONS = 400
#: the planner's phases run interleaved in this many rounds (see Phases);
#: each round replays the same seeded epoch scenario from a fresh pack
ROUNDS = 5
#: epoch updates between two speed readings
EPOCH_BLOCK = 25

from estimators import metric  # noqa: E402

#: set by ``--trace``: the span recorder of this process.
REC = None


def _scaled(count: int, seconds: float, floor: int) -> int:
    return max(floor, round(count * seconds / NOMINAL_SECONDS))


def _rss_mb() -> float:
    """Peak resident memory of this worker and of its forked shards.

    Own peak from ``VmHWM``: ``ru_maxrss`` is not reset by ``exec``, so it
    would start at whatever the spawning harness process weighed.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        own = next(
            int(line.split()[1]) for line in fh if line.startswith("VmHWM:")
        )
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ---------------------------------------------------------- the host's speed

#: steps of the reference kernel, and what they take on the reference box
#: while its host is quiet
REFERENCE_STEPS = 40_000
REFERENCE_S = 0.0165


def reference() -> float:
    """Seconds a fixed piece of interpreter work takes right now: heap
    pushes and pops, dictionary updates, integer arithmetic, the stuff the
    simulator and the planner are made of.  It allocates nothing the
    garbage collector tracks, so it never pays for a collection of the
    measured program's heap."""
    push, pop = heapq.heappush, heapq.heappop
    heap: list[int] = []
    counts: dict[int, int] = {}
    t0 = time.perf_counter()
    for i in range(REFERENCE_STEPS):
        push(heap, (i * 7919) % 10007 * 65536 + i)
        counts[i & 1023] = counts.get(i & 1023, 0) + 1
        if i & 1:
            pop(heap)
    return time.perf_counter() - t0


class HostSpeed:
    """Turns a wall time into the time the same work takes on the quiet
    reference box.

    The box this runs on is a guest of a shared host and runs everything
    1.3-2x slower for tenths of a second to minutes at a time, whatever
    the code.  The reference kernel is therefore timed right before and
    right after every timed section, and the section's wall time is
    scaled by ``REFERENCE_S`` over the mean of the two readings.  A change
    to the program moves a section's time and not the kernel's; a slow
    spell of the host moves both and cancels.
    """

    def __init__(self) -> None:
        self.readings: list[float] = []
        self._last = 0.0

    def mark(self) -> float:
        """Take a reading: the one that precedes a timed section."""
        self._last = reference()
        self.readings.append(self._last)
        return self._last

    def factor(self) -> float:
        """Take the reading that follows the section (and precedes the next
        one, if that starts at once); returns what to multiply the
        section's wall time by."""
        before = self._last
        return REFERENCE_S / ((before + self.mark()) / 2)

    def info(self) -> dict:
        return {"speed": REFERENCE_S / statistics.median(self.readings),
                "readings": len(self.readings)}


class Phases:
    """Timed sections, interleaved in rounds and summed per phase.

    A workload's phases do not run one after the other but in
    ``ROUNDS`` rounds of a slice of each, so that a slow spell of the
    host lands in a share of every metric's samples, where the median
    ignores it, and not in all the samples of one metric.  A phase's span
    table is the sum of its sections' tables, and must add up to the sum
    of their timed walls.
    """

    def __init__(self) -> None:
        self.speed = HostSpeed()
        self.wall_s: dict[str, float] = {}
        self.snaps: dict[str, list[dict]] = {}
        self._reading_s = 0.0

    def begin(self) -> float:
        """Start a timed section: forget the spans of what ran between."""
        if REC is not None:
            REC.snapshot(reset=True)
        self._reading_s = 0.0
        return time.perf_counter()

    def factor(self) -> float:
        """A speed reading inside an open section, whose wall it is kept
        out of (the kernel is no layer's work)."""
        t0 = time.perf_counter()
        factor = self.speed.factor()
        self._reading_s += time.perf_counter() - t0
        return factor

    def end(self, phase: str, t0: float) -> float:
        wall_s = time.perf_counter() - t0 - self._reading_s
        self.wall_s[phase] = self.wall_s.get(phase, 0.0) + wall_s
        if REC is not None:
            self.snaps.setdefault(phase, []).append(REC.snapshot(reset=True))
        return wall_s

    def trace(self) -> dict | None:
        if REC is None:
            return None
        from spans import merge_snapshots

        out = {}
        for phase, snaps in self.snaps.items():
            out[phase] = merge_snapshots(snaps)
            out[phase]["wall_ms"] = self.wall_s[phase] * 1e3
        return out


# ------------------------------------------------------------- sim_replay


def _mix_cluster(seed: int):
    from repro.cluster.nexus import ClusterConfig, NexusCluster
    from repro.workloads.apps import all_apps

    queries = all_apps(DEVICE, num_games=4)
    cluster = NexusCluster(ClusterConfig(expand_to_cluster=False, seed=seed))
    for query in queries:
        cluster.add_query(query, MIX_RPS / len(queries), "poisson")
    return cluster


def _fleet_specs(seed: int):
    from repro.experiments.megascale import ShardSpec

    return [
        ShardSpec(
            shard_id=s, gpus=FLEET_GPUS, sessions=FLEET_SESSIONS,
            duration_ms=FLEET_DAY_MS, day_ms=FLEET_DAY_MS,
            base_rps=FLEET_BASE_RPS, seed=seed + 104_729 * s,
            crash_rate_per_min=FLEET_CRASHES_PER_MIN,
            recover_after_ms=FLEET_RECOVER_MS,
        )
        for s in range(FLEET_SHARDS)
    ]


def sim_setup(seed: int) -> dict:
    cluster = _mix_cluster(seed)
    plan = cluster.plan()
    return {"gpus_planned": plan.num_gpus}


def sim_replay(seed: int, seconds: float) -> dict:
    from repro.experiments.megascale import run_shard
    from repro.simulation import sharded

    checks: list[dict] = []
    phases = Phases()
    speed = phases.speed
    reps = _scaled(MIX_REPS, seconds, 3)
    fleet_reps = _scaled(FLEET_REPS, seconds, 2)
    specs = _fleet_specs(seed)

    # The fan-out, once and untimed: the shards through forked workers.
    # Two busy processes on a two-core guest of a shared host time the
    # host's scheduler, so the timed repetitions below run one shard at a
    # time in this process; this call shows that the fan-out gives the
    # same simulated day, and what spawning it costs (layer metrics).
    workers = min(2, os.cpu_count() or 1)
    t0 = time.perf_counter()
    fanned = sharded.shard_map(run_shard, specs, workers)
    spawn_s = time.perf_counter() - t0
    efficiency = sum(r["wall_s"] for r in fanned) / (workers * spawn_s)

    # mix: the 10-app deployment under the monolithic simulator, each
    # repetition on a fresh cluster, collected before the timer and freed
    # after (without that, repetitions drift upwards)
    walls, stats = [], []

    def mix_rep() -> None:
        cluster = _mix_cluster(seed)
        gc.collect()
        speed.mark()
        t0 = phases.begin()
        result = cluster.run(MIX_SIM_MS)
        walls.append(phases.end("mix", t0) * speed.factor())
        qm = result.query_metrics
        stats.append({
            "queries": qm.total,
            "ok": qm.ok_count,
            "events": result.events_processed,
            "good_rate": qm.good_rate,
            "gpus": result.gpus_used,
            "p50_ms": float(qm.latency_percentile(50.0)),
            "p99_ms": float(qm.latency_percentile(99.0)),
            "stage_requests": result.invocation_metrics.total,
            "records": len(qm.records) + len(result.invocation_metrics.records),
        })

    # fleet: the federated shards (seeded crash / recovery, summary-mode
    # metrics, epoch and heartbeat loops), one at a time
    fleet_ms_per_kq, fleet_rows = [], []

    def fleet_rep() -> None:
        rows = []
        for spec in specs:
            gc.collect()
            speed.mark()
            t0 = phases.begin()
            row = run_shard(spec)
            wall_s = phases.end("fleet", t0) * speed.factor()
            fleet_ms_per_kq.append(1e6 * wall_s / row["queries"])
            rows.append(row)
        fleet_rows.append(rows)

    # the two phases' repetitions alternate, evenly spread over the run
    order = sorted(
        [((i + 0.5) / reps, mix_rep) for i in range(reps)]
        + [((i + 0.5) / fleet_reps, fleet_rep) for i in range(fleet_reps)],
        key=lambda slot: slot[0])
    for _, rep in order:
        rep()
    mix = stats[0]
    checks.append({
        "name": "mix: same-seed repetitions give identical simulated statistics",
        "ok": all(s == mix for s in stats),
        "detail": f"{reps} repetitions of {mix['queries']} queries, "
                  f"{mix['events']} events",
    })

    def simulated(rows: list[dict]) -> list[tuple]:
        return [
            (r["queries"], r["events"], r["good_rate"], r["gpus"],
             r["epochs"], r["crashes"], r["detections"])
            for r in rows
        ]

    first = fleet_rows[0]
    checks.append({
        "name": "fleet: same-seed repetitions give identical simulated "
                "statistics, fanned out or not",
        "ok": all(simulated(rows) == simulated(first)
                  for rows in [fanned, *fleet_rows]),
        "detail": f"{fleet_reps} repetitions of {len(first)} shards and one "
                  f"fan-out over {workers} workers",
    })
    fleet_queries = sum(r["queries"] for r in first)
    fleet_ok = sum(r["queries"] * r["good_rate"] for r in first)
    detect = [r["mean_detect_ms"] for r in first if r["detections"]]

    metrics = {
        "op_p50_ms": metric(
            mix["p50_ms"], "ms", mix["queries"], "sim_latency_p50_ms"),
        "heavy_op_ms": metric(
            statistics.median(fleet_ms_per_kq), "ms", len(fleet_ms_per_kq),
            "1e6/fleet_queries_per_s"),
        "ops_per_s": metric(
            mix["queries"] / statistics.median(walls), "1/s", reps,
            "mix_queries_per_s"),
        "gpus_used": metric(mix["gpus"], "GPUs"),
        "peak_rss_mb": metric(_rss_mb(), "MB"),
    }
    return {
        "metrics": metrics,
        "demoted": {
            "cluster.nexus.mix_p99_ms": metric(
                mix["p99_ms"], "ms", mix["queries"]),
        },
        "attempted": mix["queries"] * reps + fleet_queries * fleet_reps,
        "in_slo": mix["ok"] * reps + round(fleet_ok) * fleet_reps,
        "failed": 0,     # a simulated query ends in its SLO or outside it
        "checks": checks,
        "trace": phases.trace(),
        # what derive.py needs beside the span tables
        "info": {
            "host": speed.info(),
            "mix": dict(mix, reps=reps, sim_ms=MIX_SIM_MS),
            "fleet": {
                "good_rate": fleet_ok / fleet_queries,
                "p99_ms": max(r["p99_ms"] for r in first),
                "detect_ms_mean": (
                    sum(detect) / len(detect) if detect else 0.0),
                "parallel_efficiency": efficiency,
                "spawn_s": spawn_s,
            },
        },
    }


# ------------------------------------------------------ plan_fleet_epochs


def _plan_cluster():
    from repro.cluster.nexus import ClusterConfig, NexusCluster
    from repro.workloads.apps import all_apps

    cluster = NexusCluster(ClusterConfig(expand_to_cluster=False))
    for i, query in enumerate(all_apps(DEVICE, num_games=PLAN_GAMES)):
        cluster.add_query(query, 20.0 + 5.0 * (i % 7), "poisson")
    return cluster


def plan_setup(seed: int) -> dict:
    cluster = _plan_cluster()
    plan = cluster.plan()
    return {"cluster": cluster, "gpus_planned": plan.num_gpus}


def _epoch_loads():
    from repro.core.profile import LinearProfile
    from repro.core.session import Session, SessionLoad

    loads = []
    for i in range(EPOCH_SESSIONS):
        profile = LinearProfile(
            name=f"m{i}", alpha=1.0 + (i % 5) * 0.5,
            beta=10.0 + (i % 7) * 5.0, max_batch=64,
        )
        loads.append(SessionLoad(
            Session(f"m{i}", 100.0 + 25.0 * (i % 8)),
            50.0 + 10.0 * (i % 11), profile,
        ))
    return loads


def _ordered_p99(values: list[float]) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


def plan_fleet_epochs(seed: int, seconds: float, setup: dict) -> dict:
    from repro.analysis import plan_check
    from repro.core import queueing
    from repro.core.epoch import EpochScheduler
    from repro.experiments import mixed_fleet
    from repro.models import get_device
    from repro.models.gpus import make_fleet
    from repro.models.profiler import profile

    rng = random.Random(seed)
    memory = int(get_device(DEVICE).mem_capacity)
    plans = invalid = violations = 0
    phases = Phases()
    speed = phases.speed

    def checked(plan, **kwargs) -> None:
        nonlocal plans, invalid, violations
        found = plan_check.check_plan(plan, **kwargs)
        plans += 1
        invalid += bool(found)
        violations += len(found)

    cluster = setup["cluster"]
    fleet = make_fleet(mixed_fleet.DEFAULT_COUNTS)
    mixed_fleet.plan_mixed(mixed_fleet.DEFAULT_COUNTS)   # warm, untimed
    prof = profile("resnet50", DEVICE)
    # per round
    n_full = _scaled(60, seconds, 10) // ROUNDS
    n_epochs = max(1, _scaled(1500, seconds, 150) // ROUNDS)
    n_mixed = max(1, _scaled(30, seconds, 5) // ROUNDS)
    n_analytic = _scaled(2000, seconds, 200) // ROUNDS
    n_simulate = max(1, _scaled(20, seconds, 5) // ROUNDS)
    failure_every = min(100, n_epochs)

    full_ms: list[float] = []
    epoch_rounds: list[list[float]] = []
    reused = nodes = full_repacks = fallbacks = queries = answered = 0
    for round_no in range(ROUNDS):
        # (a) full 206-app plans at seeded +-20 % rates
        speed.mark()
        t_phase = phases.begin()
        for _ in range(n_full):
            rates = {
                app.query.name: app.rate_rps * (0.8 + 0.4 * rng.random())
                for app in cluster.apps
            }
            t0 = time.perf_counter()
            plan = cluster.plan(rates)
            wall_ms = (time.perf_counter() - t0) * 1e3
            full_ms.append(wall_ms * phases.factor())
            checked(plan, memory_capacity=memory)
        phases.end("full_plan", t_phase)

        # (b) incremental epochs over 400 synthetic sessions: the same
        # seeded scenario every round, each from a fresh full pack, because
        # one long series is not stationary (the incremental plan grows
        # from 191 GPUs to about 390 within 300 epochs and goes on)
        erng = random.Random(seed)
        loads = _epoch_loads()
        sched = EpochScheduler()
        sched.update(0.0, loads)            # initial full pack, untimed
        series: list[float] = []
        block: list[float] = []
        speed.mark()
        t_phase = phases.begin()
        for epoch in range(1, n_epochs + 1):
            for idx in erng.sample(range(EPOCH_SESSIONS), 3):
                loads[idx] = loads[idx].with_rate(20.0 + erng.random() * 200.0)
            now_ms = epoch * 30_000.0
            t0 = time.perf_counter()
            update = sched.update(now_ms, loads)
            block.append((time.perf_counter() - t0) * 1e3)
            reused += update.nodes_reused
            nodes += update.gpus_after
            full_repacks += update.nodes_reused == 0
            checked(sched.plan)
            if epoch % failure_every == 0:
                dead = [sched.plan.gpus[erng.randrange(sched.num_gpus)].node_id]
                sched.handle_failure(now_ms + 1.0, dead, loads)
                checked(sched.plan)
                sched.adopt(sched.plan, now_ms + 2.0, loads)
            if epoch % EPOCH_BLOCK == 0 or epoch == n_epochs:
                factor = phases.factor()
                series += [ms * factor for ms in block]
                block.clear()
        phases.end("epochs", t_phase)
        epoch_rounds.append(series)

        # (c) mixed-fleet packs
        t_phase = phases.begin()
        for _ in range(n_mixed):
            packed = mixed_fleet.plan_mixed(mixed_fleet.DEFAULT_COUNTS)
            checked(packed.plan, fleet=fleet)
        phases.end("mixed_fleet", t_phase)

        # (d) capacity what-if queries
        t_phase = phases.begin()
        for _ in range(n_analytic):
            rate = 20.0 + 160.0 * rng.random()
            estimate = queueing.capacity_answer(prof, rate, mode="analytic")
            fallbacks += estimate.source != "analytic"
            answered += estimate.p99_ms > 0.0
        for i in range(n_simulate):
            rate = 20.0 + 160.0 * rng.random()
            estimate = queueing.capacity_answer(
                prof, rate, mode="simulate", seed=seed + round_no * n_simulate + i)
            answered += estimate.p99_ms > 0.0
        queries += n_analytic + n_simulate
        phases.end("capacity", t_phase)
    epoch_ms = [ms for series in epoch_rounds for ms in series]

    attempted = plans + queries
    failed = invalid + (queries - answered)
    checks = [{
        "name": "every emitted plan passes check_plan",
        "ok": invalid == 0,
        "detail": f"{plans} plans, {violations} violations",
    }, {
        "name": "every capacity query is answered",
        "ok": answered == queries,
        "detail": f"{answered} of {queries}",
    }]
    round_rates = [1e3 * len(series) / sum(series) for series in epoch_rounds]
    metrics = {
        "op_p50_ms": metric(
            statistics.median(epoch_ms), "ms", len(epoch_ms), "epoch_p50_ms"),
        "heavy_op_ms": metric(
            statistics.median(full_ms), "ms", len(full_ms), "plan_full_ms"),
        "ops_per_s": metric(
            statistics.median(round_rates), "1/s", len(round_rates),
            "epochs_per_s"),
        "gpus_used": metric(setup["gpus_planned"], "GPUs"),
        "peak_rss_mb": metric(_rss_mb(), "MB"),
    }
    return {
        "metrics": metrics,
        "demoted": {
            "core.epoch.update_p99_ms": metric(
                _ordered_p99(epoch_ms), "ms", len(epoch_ms)),
        },
        "attempted": attempted,
        "in_slo": attempted - failed,
        "failed": failed,
        "checks": checks,
        "trace": phases.trace(),
        # what derive.py needs beside the span tables
        "info": {
            "host": speed.info(),
            "epochs": {"reuse_share": reused / max(nodes, 1),
                       "full_repacks": full_repacks},
            "capacity": {"fallback_share": fallbacks / (ROUNDS * n_analytic)},
            "violations": violations,
        },
    }


# ------------------------------------------------------------------- main


def main(argv: list[str]) -> int:
    global REC
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=["sim_replay", "plan_fleet_epochs"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if args.trace:
        import layers
        from spans import Recorder

        REC = Recorder()
        layers.install(REC)
        REC.trace_gc()
    setup = (sim_setup if args.workload == "sim_replay" else plan_setup)(
        args.seed
    )
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if args.workload == "sim_replay":
        result = sim_replay(args.seed, args.seconds)
    else:
        result = plan_fleet_epochs(args.seed, args.seconds, setup)
    result["workload"] = args.workload
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

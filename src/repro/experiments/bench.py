"""Performance benchmarks: the repo's wall-clock baseline.

``python -m repro bench`` times the hot paths every experiment sits
on -- the discrete-event loop, the single-GPU dispatch simulation, the
epoch replanner, the queueing oracle's capacity queries (analytic vs
simulated), and a full cluster run -- plus a serial-vs-parallel cluster
rate sweep through the process-pool runner, and writes the measurements to
``BENCH_simulator.json`` so future changes have a trajectory to compare
against (``benchmarks/perf/`` wraps the same functions in
pytest-benchmark for statistical runs).

All simulated work is seeded and deterministic; only the wall-clock
readings vary between invocations.  The parallel sweep records the
*measured* speedup alongside ``cpu_count`` -- on a single-core container
it is recorded as ``skipped`` rather than reporting process-spawn
overhead as a speedup figure.
"""

from __future__ import annotations

import json
import os
import platform
import random
import time

from ..core.drop import EarlyDropPolicy, simulate_dispatch
from ..core.profile import LinearProfile
from ..simulation.simulator import Simulator
from ..workloads.arrivals import poisson_arrivals
from .common import parallel_map

__all__ = ["run_bench", "DEFAULT_OUT", "format_bench", "check_regression"]

DEFAULT_OUT = "BENCH_simulator.json"
SCHEMA = "repro-bench/1"


# ------------------------------------------------------------ micro benches

def bench_event_loop(num_events: int, seed: int = 0) -> dict:
    """Deep-heap event-loop throughput: pre-schedule ``num_events`` at
    seeded random times, then drain.  Exercises heap ordering, the
    slotted-event allocation, and the run loop itself."""
    sim = Simulator()
    rng = random.Random(seed)

    def _noop() -> None:
        pass

    t0 = time.perf_counter()
    for _ in range(num_events):
        sim.schedule(rng.random() * 1000.0, _noop)
    sim.run()
    wall = time.perf_counter() - t0
    return {
        "events": num_events,
        "wall_s": round(wall, 4),
        "events_per_s": round(num_events / wall),
    }


def _dispatch_profile() -> LinearProfile:
    # Figure 5/9 parameterization at alpha=1.0 (beta-heavy: big queues).
    return LinearProfile(name="bench", alpha=1.0, beta=25.0, max_batch=64)


def bench_dispatch(duration_ms: float, rate_rps: float = 900.0,
                   seed: int = 3) -> dict:
    """``simulate_dispatch`` under overload (1.8x the optimal rate), where
    queues grow long and per-batch queue maintenance dominates."""
    arrivals = poisson_arrivals(rate_rps, duration_ms, seed=seed)
    t0 = time.perf_counter()
    stats = simulate_dispatch(arrivals, _dispatch_profile(), 100.0,
                              EarlyDropPolicy(25))
    wall = time.perf_counter() - t0
    return {
        "requests": len(arrivals),
        "wall_s": round(wall, 4),
        "requests_per_s": round(len(arrivals) / wall),
        "bad_rate": round(stats.bad_rate, 4),
    }


# --------------------------------------------------------- cluster benches

def _make_cluster(rate_rps: float, seed: int):
    from ..cluster.nexus import ClusterConfig, NexusCluster
    from ..workloads.apps import all_apps

    config = ClusterConfig(device="gtx1080ti", expand_to_cluster=False,
                           seed=seed)
    cluster = NexusCluster(config)
    queries = all_apps("gtx1080ti", num_games=4)
    for query in queries:
        cluster.add_query(query, rate_rps=rate_rps / len(queries))
    return cluster


def bench_cluster(duration_ms: float, rate_rps: float = 800.0,
                  seed: int = 0) -> dict:
    """The headline cluster run: the full application mix on one
    scheduler-planned deployment (the utilization study's setup)."""
    cluster = _make_cluster(rate_rps, seed)
    t0 = time.perf_counter()
    result = cluster.run(duration_ms, warmup_ms=duration_ms / 10)
    wall = time.perf_counter() - t0
    return {
        "sim_duration_ms": duration_ms,
        "wall_s": round(wall, 4),
        "sim_ms_per_wall_s": round(duration_ms / wall),
        "good_rate": round(result.good_rate, 4),
        "gpus_used": result.gpus_used,
    }


def _cluster_point(args: tuple[float, float, int]) -> tuple[float, float]:
    """One rate-sweep point: a full cluster run at the given offered rate.

    Module-level (picklable) and seeded through its arguments, so sweep
    points can fan across the process pool and still reproduce serial
    results exactly.
    """
    rate_rps, duration_ms, seed = args
    cluster = _make_cluster(rate_rps, seed)
    result = cluster.run(duration_ms, warmup_ms=duration_ms / 10)
    return (rate_rps, round(result.good_rate, 6))


def bench_parallel_sweep(duration_ms: float, workers: int,
                         points: int = 6, seed: int = 0) -> dict:
    """Serial vs parallel wall clock for a cluster rate sweep.

    The sweep is the shape every figure search has (independent cluster
    runs at different offered rates); the measured speedup is what
    ``report --workers`` / figure sweeps actually gain on this machine.
    """
    rates = [400.0 + 150.0 * i for i in range(points)]
    tasks = [(rate, duration_ms, seed) for rate in rates]

    # More workers than cores only adds process-spawn overhead and makes
    # the "speedup" misleading, so clamp to the machine and record both
    # the requested and the effective count.
    effective = max(1, min(workers, os.cpu_count() or 1))

    t0 = time.perf_counter()
    serial = parallel_map(_cluster_point, tasks, workers=1)
    serial_wall = time.perf_counter() - t0

    out = {
        "workers": effective,
        "workers_requested": workers,
        "points": points,
        "sim_duration_ms": duration_ms,
        "serial_wall_s": round(serial_wall, 4),
    }
    if effective == 1:
        # One core: the "parallel" leg would measure process-spawn
        # overhead, not parallelism, and any speedup number would be
        # noise.  Record the skip instead of a misleading ~1x figure.
        out["skipped"] = True
        return out

    t0 = time.perf_counter()
    parallel = parallel_map(_cluster_point, tasks, workers=effective)
    parallel_wall = time.perf_counter() - t0

    out["parallel_wall_s"] = round(parallel_wall, 4)
    out["speedup"] = round(serial_wall / parallel_wall, 3)
    out["identical_results"] = serial == parallel
    return out


def bench_oracle_vs_sim(queries: int = 400, batch_cap: int = 32,
                        seed: int = 0) -> dict:
    """Per-capacity-query cost: the closed-form oracle vs the simulation
    it replaces in the planner's inner loop (docs/queueing.md).

    Both modes answer the same rate sweep through
    :func:`~repro.core.queueing.capacity_answer` on a warmed profile; the
    simulate side runs 1/20th the queries (each one replays a 20k-arrival
    queue) and reports the per-query average.
    """
    from ..core.queueing import capacity_answer

    profile = _dispatch_profile()
    rates = [200.0 + (i % 97) * 3.0 for i in range(queries)]
    capacity_answer(profile, rates[0], batch_cap=batch_cap)  # warm tables

    t0 = time.perf_counter()
    for rate in rates:
        capacity_answer(profile, rate, batch_cap=batch_cap, mode="analytic")
    analytic_wall = time.perf_counter() - t0

    sim_queries = max(1, queries // 20)
    t0 = time.perf_counter()
    for rate in rates[:sim_queries]:
        capacity_answer(profile, rate, batch_cap=batch_cap, mode="simulate",
                        seed=seed)
    sim_wall = time.perf_counter() - t0

    analytic_us = analytic_wall / queries * 1e6
    sim_us = sim_wall / sim_queries * 1e6
    return {
        "queries": queries,
        "wall_s": round(analytic_wall, 4),
        "analytic_us_per_query": round(analytic_us, 1),
        "simulate_us_per_query": round(sim_us, 1),
        "speedup": round(sim_us / analytic_us, 1),
        "oracle_queries_per_s": round(queries / analytic_wall),
    }


def bench_epoch_schedule(epochs: int = 200, sessions: int = 40,
                         seed: int = 0) -> dict:
    """Epoch-scheduler throughput under a mostly-stable workload.

    Each simulated epoch perturbs a few sessions' rates and leaves the
    rest untouched -- the steady-state shape the incremental replanner is
    built for.  ``reuse_fraction`` reports how many plan nodes per epoch
    were carried over unchanged instead of repacked.
    """
    from ..core.epoch import EpochScheduler
    from ..core.session import Session, SessionLoad

    rng = random.Random(seed)
    loads = []
    for i in range(sessions):
        profile = LinearProfile(
            name=f"m{i}", alpha=1.0 + (i % 5) * 0.5,
            beta=10.0 + (i % 7) * 5.0, max_batch=64,
        )
        slo_ms = 100.0 + 25.0 * (i % 8)
        loads.append(
            SessionLoad(Session(f"m{i}", slo_ms), 50.0 + 10.0 * (i % 11),
                        profile)
        )

    sched = EpochScheduler()
    sched.update(0.0, loads)  # initial full pack, outside the timer
    reused = 0
    total_nodes = 0
    t0 = time.perf_counter()
    for epoch in range(1, epochs + 1):
        for idx in rng.sample(range(sessions), 3):
            loads[idx] = loads[idx].with_rate(20.0 + rng.random() * 200.0)
        up = sched.update(epoch * 30_000.0, loads)
        reused += up.nodes_reused
        total_nodes += up.gpus_after
    wall = time.perf_counter() - t0
    return {
        "epochs": epochs,
        "sessions": sessions,
        "wall_s": round(wall, 4),
        "epochs_per_s": round(epochs / wall),
        "reuse_fraction": round(reused / max(total_nodes, 1), 4),
        "gpus_final": sched.num_gpus,
    }


def bench_mixed_fleet(iterations: int = 30) -> dict:
    """Mixed-fleet planning throughput: class assignment + per-class
    squishy packing over the heterogeneous reference workload
    (docs/heterogeneous.md).  One iteration is a full ``plan_mixed``
    call: every session re-profiled on every class, the cost-greedy
    class choice, and one ``pack_fleet`` run with per-class validation.
    """
    from .mixed_fleet import DEFAULT_COUNTS, plan_mixed

    plan_mixed(DEFAULT_COUNTS)  # warm the profile cache outside the timer
    t0 = time.perf_counter()
    for _ in range(iterations):
        result = plan_mixed(DEFAULT_COUNTS)
    wall = time.perf_counter() - t0
    return {
        "iterations": iterations,
        "wall_s": round(wall, 4),
        "plans_per_s": round(iterations / wall, 1),
        "gpus": result.plan.num_gpus if result.plan is not None else 0,
        "price_per_hour": round(result.price_per_hour, 2),
    }


# ----------------------------------------------------------------- harness

def run_bench(quick: bool = False, workers: int = 4,
              out_path: str | None = DEFAULT_OUT, repeats: int = 3,
              sweep_points: int | None = None) -> dict:
    """Run the perf suite and (optionally) write the JSON baseline.

    ``quick`` scales the workloads down ~10x for CI smoke runs; the JSON
    records which mode produced it so baselines are never cross-compared.
    The single-run benches keep the best of ``repeats`` runs (least-noise
    estimator -- single-core CI containers jitter 10-20% run to run); the
    parallel sweep runs once, its serial/parallel ratio is
    self-normalizing.
    """
    if quick:
        events, dispatch_ms, cluster_ms, points = 50_000, 20_000.0, 4_000.0, 4
        epochs = 60
    else:
        events, dispatch_ms, cluster_ms, points = 200_000, 60_000.0, 20_000.0, 6
        epochs = 200
    if sweep_points is not None:
        points = sweep_points
    repeats = max(1, repeats)

    event_loop = min(
        (bench_event_loop(events, seed=i) for i in range(repeats)),
        key=lambda r: r["wall_s"],
    )
    dispatch = min(
        (bench_dispatch(dispatch_ms) for _ in range(repeats)),
        key=lambda r: r["wall_s"],
    )
    epoch_sched = min(
        (bench_epoch_schedule(epochs) for _ in range(repeats)),
        key=lambda r: r["wall_s"],
    )
    oracle = min(
        (bench_oracle_vs_sim(queries=100 if quick else 400)
         for _ in range(repeats)),
        key=lambda r: r["wall_s"],
    )
    cluster = min(
        (bench_cluster(cluster_ms) for _ in range(repeats)),
        key=lambda r: r["wall_s"],
    )
    mixed = min(
        (bench_mixed_fleet(10 if quick else 30) for _ in range(repeats)),
        key=lambda r: r["wall_s"],
    )
    sweep = bench_parallel_sweep(cluster_ms / 2, workers=workers,
                                 points=points)

    payload = {
        "schema": SCHEMA,
        "created_unix": round(time.time(), 1),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "quick": quick,
        "benchmarks": {
            "simulator_event_loop": event_loop,
            "simulate_dispatch": dispatch,
            "epoch_schedule": epoch_sched,
            "oracle_vs_sim": oracle,
            "cluster_headline": cluster,
            "mixed_fleet_planning": mixed,
            "parallel_cluster_sweep": sweep,
        },
    }
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return payload


#: Rate metrics the regression gate compares (higher is better).  Only
#: workload-size-independent rates are listed: wall_s depends on the
#: configured workload, so quick and full runs stay comparable here.
_GATE_METRICS = (
    ("simulator_event_loop", "events_per_s"),
    ("simulate_dispatch", "requests_per_s"),
    ("epoch_schedule", "epochs_per_s"),
    ("oracle_vs_sim", "oracle_queries_per_s"),
    ("cluster_headline", "sim_ms_per_wall_s"),
    ("mixed_fleet_planning", "plans_per_s"),
)


def check_regression(payload: dict, baseline_path: str,
                     threshold: float = 0.30) -> tuple[str, list[str]]:
    """Gate a fresh bench payload against a committed baseline.

    Returns ``(status, lines)`` where status is ``"ok"`` (all rate
    metrics within ``threshold`` of the baseline), ``"fail"`` (some rate
    dropped more than ``threshold``), or ``"skip"`` (the baseline was
    produced on different hardware -- platform string or CPU count
    differ -- or cannot be read, so a wall-clock comparison would be
    meaningless).  Rates are compared, never wall seconds, so a quick
    run can be gated against a full-mode baseline.
    """
    try:
        with open(baseline_path, encoding="utf-8") as fh:
            baseline = json.load(fh)
    except (OSError, ValueError) as exc:
        return "skip", [f"baseline {baseline_path} unreadable: {exc}"]

    for key in ("platform", "cpu_count"):
        if baseline.get(key) != payload.get(key):
            return "skip", [
                "hardware fingerprint mismatch "
                f"({key}: baseline {baseline.get(key)!r}, "
                f"current {payload.get(key)!r}); not comparable"
            ]

    status = "ok"
    lines = []
    base_benches = baseline.get("benchmarks", {})
    cur_benches = payload.get("benchmarks", {})
    for bench, metric in _GATE_METRICS:
        old = base_benches.get(bench, {}).get(metric)
        new = cur_benches.get(bench, {}).get(metric)
        if not old or not new:
            lines.append(f"{bench}.{metric}: missing from baseline or "
                         "current run; not compared")
            continue
        change = (new - old) / old
        verdict = "ok"
        if change < -threshold:
            status = "fail"
            verdict = f"REGRESSION (>{threshold:.0%} drop)"
        lines.append(
            f"{bench}.{metric}: {old:,} -> {new:,} ({change:+.1%}) {verdict}"
        )
    return status, lines


def format_bench(payload: dict) -> str:
    """Render the bench payload as the table the CLI prints."""
    from .common import format_table

    b = payload["benchmarks"]
    sweep = b["parallel_cluster_sweep"]
    if sweep.get("skipped"):
        sweep_cell = "skipped (single-core host)"
        sweep_wall = sweep["serial_wall_s"]
    else:
        sweep_cell = f"{sweep['speedup']}x with {sweep['workers']} workers"
        sweep_wall = sweep["parallel_wall_s"]
    rows = [
        ["event_loop", f"{b['simulator_event_loop']['events_per_s']:,} events/s",
         b["simulator_event_loop"]["wall_s"]],
        ["simulate_dispatch",
         f"{b['simulate_dispatch']['requests_per_s']:,} reqs/s",
         b["simulate_dispatch"]["wall_s"]],
        ["epoch_schedule",
         f"{b['epoch_schedule']['epochs_per_s']:,} epochs/s "
         f"({b['epoch_schedule']['reuse_fraction']:.0%} reused)",
         b["epoch_schedule"]["wall_s"]],
        ["oracle_vs_sim",
         f"{b['oracle_vs_sim']['oracle_queries_per_s']:,} queries/s "
         f"({b['oracle_vs_sim']['speedup']}x vs simulate)",
         b["oracle_vs_sim"]["wall_s"]],
        ["cluster_headline",
         f"{b['cluster_headline']['sim_ms_per_wall_s']:,} sim-ms/s",
         b["cluster_headline"]["wall_s"]],
        ["mixed_fleet_planning",
         f"{b['mixed_fleet_planning']['plans_per_s']:,} plans/s "
         f"({b['mixed_fleet_planning']['gpus']} GPUs, "
         f"${b['mixed_fleet_planning']['price_per_hour']}/hr)",
         b["mixed_fleet_planning"]["wall_s"]],
        ["parallel_sweep", sweep_cell, sweep_wall],
    ]
    notes = (f"python {payload['python']}, {payload['cpu_count']} cpu(s), "
             f"quick={payload['quick']}")
    return format_table("perf baseline", ["benchmark", "throughput", "wall_s"],
                        rows, notes)


if __name__ == "__main__":
    print(format_bench(run_bench()))

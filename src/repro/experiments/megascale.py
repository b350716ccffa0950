"""Megascale serving: 10k-GPU, 1000-session days in simulated minutes.

The paper's deployments top out at dozens of GPUs; this experiment asks
what the simulator stack can say about *fleet*-scale serving.  The
cluster is split into independent shards -- session popularity couples
sessions to their own shard's GPUs, never across shards -- so each shard
is a self-contained :class:`~repro.cluster.nexus.NexusCluster` timeline
that a worker process can run end to end through
:func:`~repro.simulation.sharded.shard_map`, the repo's one sharded
execution mode.

Each shard serves a slice of the sessions under a compressed synthetic
day: diurnal popularity drift (every session peaks at its own hour),
regional waves (follow-the-sun demand), and flash crowds (sudden spikes
with exponential cool-down) from :mod:`repro.workloads.traces`, plus a
seeded crash/recovery fault plan.  Workers run with summary-mode metrics
(counters + log-histograms, never per-request records) and return small
dicts; live simulator state never crosses the process boundary.

Reported per shard and in aggregate: goodput, good rate, latency tails,
plan churn (epochs), failure detections and mean detection latency, and
simulator event throughput.
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass

from ..cluster.faults import CRASH, seeded_plan
from ..cluster.nexus import ClusterConfig, NexusCluster
from ..simulation.sharded import shard_map
from ..workloads.apps import game_query
from ..workloads.traces import DiurnalDrift, FlashCrowd, RegionalWave
from .common import ExperimentResult

__all__ = ["run", "ShardSpec", "run_shard"]


@dataclass(frozen=True)
class ShardSpec:
    """Everything a worker needs to rebuild and run one shard.

    Plain picklable data -- the worker constructs the cluster, traffic
    and fault plan from this spec, so results are a pure function of it.
    """

    shard_id: int
    gpus: int
    sessions: int
    duration_ms: float
    day_ms: float
    base_rps: float
    seed: int
    device: str = "gtx1080ti"
    crash_rate_per_min: float = 2.0
    recover_after_ms: float = 10_000.0


def _rate_fn(spec: ShardSpec, i: int):
    """Session ``i``'s demand curve: drift, wave, or flash crowd."""
    kind = i % 3
    if kind == 0:
        return DiurnalDrift(
            spec.base_rps,
            peak_hour=24.0 * i / max(1, spec.sessions),
            day_ms=spec.day_ms,
        )
    if kind == 1:
        return RegionalWave(
            2.0 * spec.base_rps, region=i % 4, n_regions=4,
            day_ms=spec.day_ms,
        )
    return FlashCrowd(
        spec.base_rps,
        start_ms=(0.2 + 0.6 * (i % 7) / 7.0) * spec.duration_ms,
        magnitude=6.0,
        ramp_ms=spec.duration_ms / 50.0,
        decay_ms=spec.duration_ms / 10.0,
    )


def run_shard(spec: ShardSpec) -> dict:
    """Build, serve and summarize one shard (module-level: picklable)."""
    cfg = ClusterConfig(
        device=spec.device,
        max_gpus=spec.gpus,
        expand_to_cluster=False,
        summary_metrics=True,
        epoch_ms=spec.duration_ms / 8.0,
        heartbeat_ms=500.0,
        lease_ms=2_000.0,
        seed=spec.seed,
    )
    cluster = NexusCluster(cfg)
    for i in range(spec.sessions):
        query = game_query(
            spec.device, game_id=spec.shard_id * spec.sessions + i
        )
        # Plan for each session's peak so flash crowds have headroom.
        rate_fn = _rate_fn(spec, i)
        peak = max(
            rate_fn(t)
            for t in (
                k * spec.duration_ms / 16.0 for k in range(17)
            )
        )
        cluster.add_query(query, rate_rps=peak, rate_fn=rate_fn)

    # Victims drawn from the slots the plan actually drafts (the fleet
    # cap may be far larger than demand); crashes against never-drafted
    # slots would be skipped and teach nothing about recovery.
    drafted = max(1, min(spec.gpus, cluster.plan().num_gpus))
    faults = seeded_plan(
        spec.seed + 7_919,
        num_backends=drafted,
        duration_ms=spec.duration_ms,
        crash_rate_per_min=spec.crash_rate_per_min,
        recover_after_ms=spec.recover_after_ms,
        start_ms=spec.duration_ms * 0.1,
    )

    wall_start = time.perf_counter()
    result = cluster.run(spec.duration_ms, faults=faults)
    wall_s = time.perf_counter() - wall_start

    # A slot can crash, recover and crash again; pair each detection
    # with the latest crash at or before it, not a dict's last-write.
    crashes_by_slot: dict[int, list[float]] = {}
    for t, kind, idx in (result.fault_log or []):
        if kind == CRASH:
            crashes_by_slot.setdefault(idx, []).append(t)
    delays = []
    for idx, declared in (result.detections or []):
        times = crashes_by_slot.get(idx, [])
        i = bisect.bisect_right(times, declared) - 1
        if i >= 0:
            delays.append(declared - times[i])
    qm = result.query_metrics
    return {
        "shard": spec.shard_id,
        "gpus": result.gpus_used,
        "sessions": spec.sessions,
        "queries": qm.total,
        "good_rate": qm.good_rate,
        "goodput_rps": qm.goodput_rps(span_ms=spec.duration_ms),
        "p99_ms": qm.latency_percentile(99.0),
        "epochs": result.epochs,
        "crashes": sum(len(v) for v in crashes_by_slot.values()),
        "detections": len(result.detections or []),
        "mean_detect_ms": (sum(delays) / len(delays)) if delays else 0.0,
        "events": result.events_processed,
        "wall_s": wall_s,
    }


def run(
    gpus: int = 10_000,
    sessions: int = 1_000,
    shards: int = 8,
    duration_s: float = 120.0,
    seed: int = 0,
    workers: int | None = None,
    base_rps: float = 10.0,
) -> ExperimentResult:
    """The megascale scenario: a compressed day on a sharded fleet.

    ``gpus`` and ``sessions`` are fleet totals, dealt evenly across
    ``shards`` independent partitions; the synthetic day is compressed
    into ``duration_s`` of virtual time.  ``workers`` fans shards across
    processes (``None`` = serial; results are identical either way).
    """
    if shards < 1:
        raise ValueError(f"need at least one shard, got {shards}")
    duration_ms = duration_s * 1000.0
    specs = [
        ShardSpec(
            shard_id=s,
            gpus=gpus // shards,
            sessions=max(1, sessions // shards),
            duration_ms=duration_ms,
            day_ms=duration_ms,  # one compressed day per run
            base_rps=base_rps,
            seed=seed + 104_729 * s,
        )
        for s in range(shards)
    ]
    wall_start = time.perf_counter()
    rows = shard_map(run_shard, specs, workers=workers or 1)
    wall_s = time.perf_counter() - wall_start

    result = ExperimentResult(
        name=f"megascale: {gpus} GPUs, {sessions} sessions, "
             f"{shards} shards, {duration_s:.0f}s day",
        columns=[
            "shard", "gpus", "queries", "good_rate", "goodput_rps",
            "p99_ms", "epochs", "crashes", "detections",
            "mean_detect_ms", "events", "wall_s",
        ],
    )
    for row in rows:
        result.add(
            row["shard"], row["gpus"], row["queries"],
            round(row["good_rate"], 4), round(row["goodput_rps"], 1),
            round(row["p99_ms"], 1) if not math.isnan(row["p99_ms"]) else 0.0,
            row["epochs"], row["crashes"], row["detections"],
            round(row["mean_detect_ms"], 1), row["events"],
            round(row["wall_s"], 2),
        )
    total_q = sum(r["queries"] for r in rows)
    total_events = sum(r["events"] for r in rows)
    total_ok = sum(r["queries"] * r["good_rate"] for r in rows)
    detect = [r["mean_detect_ms"] for r in rows if r["detections"]]
    result.add(
        "all", sum(r["gpus"] for r in rows), total_q,
        round(total_ok / total_q, 4) if total_q else 1.0,
        round(sum(r["goodput_rps"] for r in rows), 1),
        round(max((r["p99_ms"] for r in rows
                   if not math.isnan(r["p99_ms"])), default=0.0), 1),
        sum(r["epochs"] for r in rows),
        sum(r["crashes"] for r in rows),
        sum(r["detections"] for r in rows),
        round(sum(detect) / len(detect), 1) if detect else 0.0,
        total_events, round(wall_s, 2),
    )
    result.notes = (
        f"federated shards via process fan-out (workers={workers or 1}); "
        f"aggregate {total_events / max(wall_s, 1e-9):,.0f} events/s "
        "wall-clock; plan churn = epochs (fault-driven re-packs included); "
        "summary-mode metrics (no per-request records retained)"
    )
    return result

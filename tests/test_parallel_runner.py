"""Parallel experiment runner: serial-vs-parallel identity + bench JSON.

The process-pool runner's whole contract is that fanning work across
workers changes wall-clock only, never content: same report bytes, same
sweep points, same footer counts.  These tests pin that contract with a
cheap experiment subset (the full fast-subset identity holds too --
``python -m repro.experiments.report --no-timing --workers 4`` -- but is
too slow for tier-1).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro

from repro.experiments.bench import _cluster_point
from repro.experiments.common import (
    parallel_map,
    run_experiment,
    run_experiments,
)
from repro.experiments.report import generate_report

#: Cheap, deterministic subset: covers an analytic table, a seeded
#: dispatch sweep, and a full cluster run (the three experiment shapes).
_SUBSET: list[tuple[str, dict]] = [
    ("table1", {}),
    ("fig2", {}),
    ("fig5", {"duration_ms": 3_000.0}),
    ("utilization", {"duration_ms": 3_000.0}),
]


class TestSerialParallelIdentity:
    def test_run_experiments_identical(self):
        serial = run_experiments(_SUBSET, workers=None)
        parallel = run_experiments(_SUBSET, workers=2)
        assert [r.name for r in serial] == [r.name for r in parallel]
        for s, p in zip(serial, parallel):
            assert str(s.result) == str(p.result)
            assert s.plans_checked == p.plans_checked

    def test_report_byte_identical(self):
        serial = generate_report(_SUBSET, workers=None, include_timing=False)
        parallel = generate_report(_SUBSET, workers=2, include_timing=False)
        assert serial == parallel

    def test_parallel_map_preserves_order_and_values(self):
        tasks = [(rate, 2_000.0, 0) for rate in (300.0, 600.0, 900.0)]
        serial = parallel_map(_cluster_point, tasks, workers=1)
        pooled = parallel_map(_cluster_point, tasks, workers=2)
        assert serial == pooled
        assert [rate for rate, _ in pooled] == [300.0, 600.0, 900.0]

    def test_run_experiment_rejects_non_result(self):
        with pytest.raises(ModuleNotFoundError):
            run_experiment("no_such_experiment", {})

    def test_tracing_excludes_parallelism(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            generate_report(_SUBSET, trace_dir="/tmp/x", workers=2)


class TestBenchJson:
    def test_quick_bench_writes_well_formed_json(self, tmp_path):
        out = tmp_path / "BENCH_simulator.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "bench", "--quick",
             "--workers", "2", "--repeats", "1", "--out", str(out)],
            capture_output=True, text=True, timeout=600, env=env,
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro-bench/1"
        assert payload["quick"] is True
        assert payload["cpu_count"] >= 1
        b = payload["benchmarks"]
        assert b["simulator_event_loop"]["events_per_s"] > 0
        assert b["simulate_dispatch"]["requests_per_s"] > 0
        assert b["cluster_headline"]["good_rate"] > 0.5
        sweep = b["parallel_cluster_sweep"]
        # Requested workers are recorded verbatim; the effective count
        # is clamped to the machine so speedup is never misattributed.
        assert sweep["workers_requested"] == 2
        assert sweep["workers"] == max(1, min(2, os.cpu_count() or 1))
        assert b["epoch_schedule"]["epochs_per_s"] > 0
        assert 0.0 <= b["epoch_schedule"]["reuse_fraction"] <= 1.0
        if sweep["workers"] == 1:
            # Single-core host: the parallel leg is skipped outright --
            # a speedup figure there would only measure spawn overhead.
            assert sweep["skipped"] is True
            assert "speedup" not in sweep
        else:
            assert sweep["speedup"] > 0
            assert sweep["identical_results"] is True

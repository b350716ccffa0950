"""Smoke tests: every example script runs clean and prints its story."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, timeout: float = 240.0) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True, text=True, timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "good rate" in out
    assert "latency split" in out


def test_capacity_planning():
    out = run_example("capacity_planning.py")
    assert "workload needs" in out
    assert "exact optimum" in out


def test_gpu_timeline():
    out = run_example("gpu_timeline.py")
    assert "squishy packing chose" in out
    assert "legend:" in out


@pytest.mark.slow
def test_game_streaming():
    out = run_example("game_streaming.py", timeout=400.0)
    assert "with prefix batching" in out
    assert "without" in out


@pytest.mark.slow
def test_autoscaling_deployment():
    out = run_example("autoscaling_deployment.py", timeout=500.0)
    assert "epochs run" in out
    assert "bad rate" in out


def test_trace_inspection():
    out = run_example("trace_inspection.py")
    assert "batch-size histogram" in out
    assert "within its SLO" in out

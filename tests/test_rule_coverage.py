"""Registry coverage: no rule lands untested.

For every slug in the merged registry (per-file syntactic rules plus the
whole-program async rules), this suite keeps one *firing* fixture tree
and one *clean* fixture tree, runs both through the full engine
(:func:`repro.analysis.lint.lint_paths`), and asserts the rule fires
exactly where intended.  A new rule added to either registry without
fixtures here fails ``test_registry_fully_covered`` immediately.
"""

import textwrap
from pathlib import Path

import pytest

from repro.analysis.lint import all_rules, lint_paths

# Each entry: rule slug -> (firing tree, clean tree).  Paths are relative
# to the fixture root, so directory components (core/, cluster/,
# serving/) select each rule's scope exactly as in the real package.
FIXTURES: dict[str, tuple[dict[str, str], dict[str, str]]] = {
    "wall-clock": (
        {"core/mod.py": """
            import time

            def stamp():
                return time.time()
        """},
        {"core/mod.py": """
            def stamp(sim):
                return sim.now
        """},
    ),
    "unseeded-random": (
        {"core/mod.py": """
            import numpy as np

            def rng():
                return np.random.default_rng()
        """},
        {"core/mod.py": """
            import numpy as np

            def rng(seed):
                return np.random.default_rng(seed)
        """},
    ),
    "unordered-iteration": (
        {"core/mod.py": """
            def f(items):
                return [x for x in set(items)]
        """},
        {"core/mod.py": """
            def f(items):
                return [x for x in sorted(set(items))]
        """},
    ),
    "float-equality": (
        {"core/mod.py": """
            def f(rate_rps):
                return rate_rps == 0.0
        """},
        {"core/mod.py": """
            from repro.core.floatcmp import approx_zero

            def f(rate_rps):
                return approx_zero(rate_rps)
        """},
    ),
    "mixed-units": (
        {"core/mod.py": """
            def f(span_ms, wait_us):
                return span_ms + wait_us
        """},
        {"core/mod.py": """
            def f(span_ms, wait_ms):
                return span_ms + wait_ms
        """},
    ),
    "untraced-mutation": (
        {"cluster/mod.py": """
            def finish(request):
                request.done = True
        """},
        {"cluster/mod.py": """
            def finish(request, tracer):
                request.done = True
                tracer.emit(request)
        """},
    ),
    "unmemoized-profile-scan": (
        {"core/mod.py": """
            def best_batch(profile, slo_ms):
                best = 0
                for b in range(1, profile.max_batch + 1):
                    if profile.latency(b) <= slo_ms:
                        best = b
                return best
        """},
        {"core/mod.py": """
            def best_batch(profile, slo_ms):
                return profile.max_batch_with_latency(slo_ms)
        """},
    ),
    "sim-in-planner-inner-loop": (
        {"core/epoch.py": """
            def capacity(profile, rate):
                return simulate_estimate(profile, rate)
        """},
        {"core/epoch.py": """
            from repro.core.queueing import capacity_answer

            def capacity(profile, rate):
                return capacity_answer(profile, rate)
        """},
    ),
    "raw-time-literal": (
        {"serving/mod.py": """
            def expired(elapsed_ms):
                return elapsed_ms > 5_000
        """},
        {"serving/mod.py": """
            LIMIT_MS = 5_000.0

            def expired(elapsed_ms):
                return elapsed_ms > LIMIT_MS
        """},
    ),
    "raw-gpu-count-literal": (
        {"core/mod.py": """
            def expand(pack_at, max_gpus):
                hi = 2.0
                while pack_at(hi).num_gpus <= max_gpus and hi < 64:
                    hi *= 2
                return hi
        """},
        {"core/mod.py": """
            def expand(pack_at, max_gpus, scale_cap):
                hi = 2.0
                while pack_at(hi).num_gpus <= max_gpus and hi < scale_cap:
                    hi *= 2
                return hi
        """},
    ),
    "invalid-suppression": (
        {"serving/mod.py": """
            def f():
                return 1  # nexuslint: disable=no-such-rule
        """},
        {"core/mod.py": """
            import time

            def stamp():
                return time.time()  # nexuslint: disable=wall-clock
        """},
    ),
    "blocking-call-in-async": (
        {
            "util.py": """
                import time

                def backoff():
                    time.sleep(1)
            """,
            "srv.py": """
                from util import backoff

                async def handler():
                    backoff()
            """,
        },
        {"srv.py": """
            import asyncio

            async def handler():
                await asyncio.sleep(0.001)
        """},
    ),
    "interleaved-state-mutation": (
        {"srv.py": """
            class Counter:
                async def bump(self):
                    snapshot = self.count
                    await self.flush()
                    self.count = snapshot + 1
        """},
        {"srv.py": """
            class Counter:
                async def bump(self):
                    await self.flush()
                    self.count = self.count + 1
        """},
    ),
    "unawaited-coroutine": (
        {"srv.py": """
            async def job():
                pass

            async def go():
                job()
        """},
        {"srv.py": """
            async def job():
                pass

            async def go():
                await job()
        """},
    ),
    "orphan-task": (
        {"srv.py": """
            async def job():
                pass

            async def go(loop):
                loop.create_task(job())
        """},
        {"srv.py": """
            async def job():
                pass

            async def go(loop, tasks):
                task = loop.create_task(job())
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        """},
    ),
    "cpu-bound-handler": (
        {"serving/mod.py": """
            class Frontend:
                def _h_metrics(self, pending_requests):
                    total = 0
                    for request in pending_requests:
                        total += request.cost
                    return total
        """},
        {"serving/mod.py": """
            class Frontend:
                def _h_metrics(self, pending_requests):
                    total = 0
                    for request in pending_requests[:64]:
                        total += request.cost
                    return total
        """},
    ),
}


def run_engine(tree_files: dict[str, str], tmp_path: Path):
    for rel, source in tree_files.items():
        file = tmp_path / rel
        file.parent.mkdir(parents=True, exist_ok=True)
        file.write_text(textwrap.dedent(source), encoding="utf-8")
    findings, errors = lint_paths([tmp_path])
    assert errors == [], errors
    return findings


def test_registry_fully_covered():
    """Every slug in the merged registry has firing + clean fixtures."""
    assert set(FIXTURES) == set(all_rules()), (
        "rule registry and coverage fixtures diverged; add a firing and "
        "a clean fixture for every new rule"
    )


@pytest.mark.parametrize("rule", sorted(FIXTURES))
def test_firing_fixture_fires(rule, tmp_path):
    firing, _clean = FIXTURES[rule]
    found = run_engine(firing, tmp_path)
    assert rule in {f.rule for f in found}, (
        f"{rule}: firing fixture produced {[f.render() for f in found]}"
    )


@pytest.mark.parametrize("rule", sorted(FIXTURES))
def test_clean_fixture_is_fully_clean(rule, tmp_path):
    _firing, clean = FIXTURES[rule]
    found = run_engine(clean, tmp_path)
    assert found == [], (
        f"{rule}: clean fixture produced {[f.render() for f in found]}"
    )

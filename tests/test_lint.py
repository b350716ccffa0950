"""Tests for nexuslint (analysis/lint.py): every rule, both directions."""

import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis.lint import RULES, all_rules, lint_paths, lint_source, main

CORE = Path("core/mod.py")
CLUSTER = Path("cluster/mod.py")
EXPERIMENTS = Path("experiments/mod.py")
SERVING = Path("serving/mod.py")


def findings(source, rel_path=CORE, rules=None):
    return lint_source(textwrap.dedent(source), rel_path=rel_path,
                       rules=rules)


def rules_of(found):
    return {f.rule for f in found}


class TestWallClock:
    def test_time_time_flagged_in_core(self):
        found = findings("""
            import time

            def stamp():
                return time.time()
        """)
        assert rules_of(found) == {"wall-clock"}

    def test_datetime_now_flagged(self):
        found = findings("""
            from datetime import datetime

            def stamp():
                return datetime.now()
        """)
        assert rules_of(found) == {"wall-clock"}

    def test_simulator_time_clean(self):
        assert findings("""
            def stamp(sim):
                return sim.now
        """) == []

    def test_out_of_scope_path_clean(self):
        found = findings("""
            import time

            def stamp():
                return time.time()
        """, rel_path=EXPERIMENTS)
        assert found == []


class TestUnseededRandom:
    def test_global_random_flagged(self):
        found = findings("""
            import random

            def jitter():
                return random.random()
        """)
        assert rules_of(found) == {"unseeded-random"}

    def test_unseeded_default_rng_flagged(self):
        found = findings("""
            import numpy as np

            def make_rng():
                return np.random.default_rng()
        """)
        assert rules_of(found) == {"unseeded-random"}

    def test_seeded_default_rng_clean(self):
        assert findings("""
            import numpy as np

            def make_rng(seed):
                return np.random.default_rng(seed)
        """) == []

    def test_instance_methods_clean(self):
        assert findings("""
            def draw(rng):
                return rng.normal(0.0, 1.0)
        """) == []


class TestUnorderedIteration:
    def test_set_display_flagged(self):
        found = findings("""
            def walk():
                for x in {3, 1, 2}:
                    yield x
        """)
        assert rules_of(found) == {"unordered-iteration"}

    def test_dict_view_union_flagged(self):
        found = findings("""
            def diff(before, after):
                for sid in before.keys() | after.keys():
                    yield sid
        """)
        assert rules_of(found) == {"unordered-iteration"}

    def test_set_call_in_comprehension_flagged(self):
        found = findings("""
            def ids(items):
                return [x for x in set(items)]
        """)
        assert rules_of(found) == {"unordered-iteration"}

    def test_sorted_set_clean(self):
        assert findings("""
            def walk(before, after):
                for sid in sorted(before.keys() | after.keys()):
                    yield sid
        """) == []

    def test_list_iteration_clean(self):
        assert findings("""
            def walk(items):
                for x in items:
                    yield x
        """) == []


class TestFloatEquality:
    def test_float_literal_eq_flagged(self):
        found = findings("""
            def check(rate_rps):
                return rate_rps == 0.0
        """)
        assert "float-equality" in rules_of(found)

    def test_quantity_names_ne_flagged(self):
        found = findings("""
            def changed(old_latency_ms, new_latency_ms):
                return old_latency_ms != new_latency_ms
        """)
        assert "float-equality" in rules_of(found)

    def test_int_literal_clean(self):
        assert findings("""
            def check(count):
                return count == 0
        """) == []

    def test_floatcmp_usage_clean(self):
        assert findings("""
            from repro.core.floatcmp import approx_zero

            def check(rate_rps):
                return approx_zero(rate_rps)
        """) == []


class TestMixedUnits:
    def test_add_ms_us_flagged(self):
        found = findings("""
            def total(exec_ms, wait_us):
                return exec_ms + wait_us
        """)
        assert "mixed-units" in rules_of(found)

    def test_compare_ms_s_flagged(self):
        found = findings("""
            def late(exec_ms, slo_s):
                return exec_ms > slo_s
        """)
        assert "mixed-units" in rules_of(found)

    def test_same_unit_clean(self):
        assert findings("""
            def total(exec_ms, wait_ms):
                return exec_ms + wait_ms
        """) == []

    def test_multiplication_is_conversion(self):
        # * and / convert between units and stay legal.
        assert findings("""
            def convert(duty_ms, rate_rps):
                return duty_ms * rate_rps / 1000.0
        """) == []


class TestUntracedMutation:
    def test_mutation_without_trace_flagged(self):
        found = findings("""
            def finish(self, request, now):
                request.done = True
        """, rel_path=CLUSTER)
        assert rules_of(found) == {"untraced-mutation"}

    def test_outcome_callback_without_trace_flagged(self):
        found = findings("""
            def drop(self, request, now):
                if request.on_drop is not None:
                    request.on_drop(request, now)
        """, rel_path=CLUSTER)
        assert rules_of(found) == {"untraced-mutation"}

    def test_tracer_emit_clean(self):
        assert findings("""
            def finish(self, request, now):
                request.done = True
                self.tracer.request_completed(
                    now, request.session_id, request.request_id,
                    request.arrival_ms, request.deadline_ms, True,
                )
        """, rel_path=CLUSTER) == []

    def test_record_helper_clean(self):
        assert findings("""
            def finish(self, request, now):
                request.done = True
                self._record_outcome(request, now)
        """, rel_path=CLUSTER) == []

    def test_on_fail_exempt(self):
        # Retryable losses are traced at the frontend; on_fail alone does
        # not constitute an outcome.
        assert findings("""
            def fail(self, request, now):
                if request.on_fail is not None:
                    request.on_fail(request, now)
        """, rel_path=CLUSTER) == []

    def test_rule_scoped_to_cluster(self):
        assert findings("""
            def finish(self, request, now):
                request.done = True
        """, rel_path=CORE) == []


class TestUnmemoizedProfileScan:
    def test_latency_scan_over_max_batch_flagged(self):
        found = findings("""
            def peak(profile, slo_ms):
                best = 0
                for b in range(1, profile.max_batch + 1):
                    if profile.latency(b) <= slo_ms:
                        best = b
                return best
        """)
        assert "unmemoized-profile-scan" in rules_of(found)

    def test_bare_max_batch_name_flagged(self):
        found = findings("""
            def peak(profile, max_batch, slo_ms):
                for b in range(1, max_batch + 1):
                    profile.latency(b)
        """)
        assert "unmemoized-profile-scan" in rules_of(found)

    def test_range_without_max_batch_clean(self):
        assert findings("""
            def warm(profile):
                for b in range(1, 9):
                    profile.latency(b)
        """, rules=frozenset({"unmemoized-profile-scan"})) == []

    def test_scan_without_latency_call_clean(self):
        assert findings("""
            def sizes(profile):
                out = []
                for b in range(1, profile.max_batch + 1):
                    out.append(b)
                return out
        """, rules=frozenset({"unmemoized-profile-scan"})) == []

    def test_rule_scoped_to_core(self):
        assert findings("""
            def peak(profile, slo_ms):
                for b in range(1, profile.max_batch + 1):
                    profile.latency(b)
        """, rel_path=EXPERIMENTS) == []

    def test_suppressible(self):
        found = findings("""
            def peak(profile, slo_ms):
                for b in range(1, profile.max_batch + 1):  # nexuslint: disable=unmemoized-profile-scan
                    profile.latency(b)
        """, rules=frozenset({"unmemoized-profile-scan"}))
        assert found == []


class TestSimInPlannerInnerLoop:
    EPOCH = Path("core/epoch.py")
    SQUISHY = Path("core/squishy.py")

    def test_simulate_call_flagged_in_epoch(self):
        found = findings("""
            def capacity(profile, rate_rps):
                return simulate_estimate(profile, rate_rps)
        """, rel_path=self.EPOCH)
        assert "sim-in-planner-inner-loop" in rules_of(found)

    def test_simulator_constructor_flagged_in_squishy(self):
        found = findings("""
            def capacity(profile):
                sim = DispatchSimulator()
                return sim
        """, rel_path=self.SQUISHY)
        assert "sim-in-planner-inner-loop" in rules_of(found)

    def test_attribute_call_flagged(self):
        found = findings("""
            def capacity(queueing, profile, rate_rps):
                return queueing.simulate_estimate(profile, rate_rps)
        """, rel_path=self.EPOCH)
        assert "sim-in-planner-inner-loop" in rules_of(found)

    def test_capacity_answer_clean(self):
        assert findings("""
            def capacity(profile, rate_rps):
                return capacity_answer(profile, rate_rps, mode="analytic")
        """, rel_path=self.EPOCH,
            rules=frozenset({"sim-in-planner-inner-loop"})) == []

    def test_other_core_module_clean(self):
        assert findings("""
            def capacity(profile, rate_rps):
                return simulate_estimate(profile, rate_rps)
        """, rel_path=Path("core/queueing.py"),
            rules=frozenset({"sim-in-planner-inner-loop"})) == []

    def test_out_of_scope_path_clean(self):
        assert findings("""
            def capacity(profile, rate_rps):
                return simulate_estimate(profile, rate_rps)
        """, rel_path=EXPERIMENTS,
            rules=frozenset({"sim-in-planner-inner-loop"})) == []

    def test_suppressible(self):
        found = findings("""
            def capacity(profile, rate_rps):
                return simulate_estimate(profile, rate_rps)  # nexuslint: disable=sim-in-planner-inner-loop
        """, rel_path=self.EPOCH,
            rules=frozenset({"sim-in-planner-inner-loop"}))
        assert found == []


class TestSuppression:
    def test_line_suppression(self):
        found = findings("""
            def check(rate_rps):
                return rate_rps == 0.0  # nexuslint: disable=float-equality
        """)
        assert found == []

    def test_line_suppression_is_rule_specific(self):
        found = findings("""
            def check(rate_rps):
                return rate_rps == 0.0  # nexuslint: disable=wall-clock
        """)
        assert rules_of(found) == {"float-equality"}

    def test_file_suppression(self):
        found = findings("""
            # nexuslint: disable-file=float-equality
            def a(rate_rps):
                return rate_rps == 0.0

            def b(slo_ms):
                return slo_ms == 1.5
        """)
        assert found == []

    def test_disable_all(self):
        found = findings("""
            import time

            def stamp():
                return time.time()  # nexuslint: disable=all
        """)
        assert found == []

    def test_rules_filter(self):
        source = """
            import time

            def f(rate_rps):
                if rate_rps == 0.0:
                    return time.time()
        """
        assert rules_of(findings(source)) == {"float-equality", "wall-clock"}
        only = findings(source, rules=frozenset({"wall-clock"}))
        assert rules_of(only) == {"wall-clock"}


class TestRawTimeLiteral:
    """serving/ + cluster/ only: bare numeric time literals are banned."""

    def test_addition_with_literal_flagged_in_cluster(self):
        found = findings("""
            def f(deadline_ms):
                return deadline_ms + 50
        """, rel_path=CLUSTER)
        assert rules_of(found) == {"raw-time-literal"}

    def test_comparison_with_literal_flagged_in_serving(self):
        found = findings("""
            def f(elapsed_ms):
                return elapsed_ms > 5_000
        """, rel_path=SERVING)
        assert rules_of(found) == {"raw-time-literal"}

    def test_scheduling_call_literal_flagged(self):
        found = findings("""
            def f(sim):
                sim.schedule(50, lambda: None)
        """, rel_path=SERVING)
        assert rules_of(found) == {"raw-time-literal"}

    def test_scheduling_priority_and_callback_args_clean(self):
        # Only the delay/instant is a time: a priority or a callback's
        # positional arguments are not.
        assert findings("""
            def f(sim, loop, start_ms, delay_ms, cb):
                sim.schedule_at(start_ms, cb, -1)
                sim.schedule(delay_ms, cb, 2)
                loop.call_later(delay_ms, cb, 3)
        """, rel_path=CLUSTER) == []

    def test_scheduling_literal_flagged_only_in_delay_slot(self):
        found = findings("""
            def f(sim, cb):
                sim.schedule_at(250, cb, -1)
        """, rel_path=CLUSTER)
        assert rules_of(found) == {"raw-time-literal"}
        assert len(found) == 1

    def test_asyncio_sleep_literal_flagged(self):
        found = findings("""
            import asyncio

            async def f():
                await asyncio.sleep(0.1)
        """, rel_path=SERVING)
        assert rules_of(found) == {"raw-time-literal"}

    def test_conversion_literal_flagged(self):
        found = findings("""
            def f(span_ms):
                return span_ms / 1000.0
        """, rel_path=SERVING)
        assert rules_of(found) == {"raw-time-literal"}

    def test_epsilon_literal_clean(self):
        assert findings("""
            def f(duty_cycle_ms, now):
                return now >= duty_cycle_ms - 1e-9
        """, rel_path=CLUSTER) == []

    def test_zero_guard_clean(self):
        assert findings("""
            def f(timeout_ms):
                return timeout_ms > 0
        """, rel_path=SERVING) == []

    def test_named_operands_clean(self):
        assert findings("""
            GRACE_MS = 1_000.0

            def f(tail_ms):
                return tail_ms + GRACE_MS
        """, rel_path=SERVING) == []

    def test_rate_scaling_clean(self):
        # Multiplying a time by a non-conversion factor is not a unit
        # conversion (e.g. headroom scaling).
        assert findings("""
            def f(slo_ms):
                return slo_ms * 0.5
        """, rel_path=SERVING) == []

    def test_out_of_scope_path_clean(self):
        assert findings("""
            def f(deadline_ms):
                return deadline_ms + 50
        """, rel_path=CORE) == []

    def test_suppression_honored(self):
        src = (
            "def f(deadline_ms):\n"
            "    return deadline_ms + 50"
            "  # nexuslint: disable=raw-time-literal\n"
        )
        assert lint_source(src, rel_path=CLUSTER) == []


SEEDED_VIOLATIONS = {
    # One file per rule, placed so the rule's scope applies.
    "core/clock.py": "import time\n\ndef f():\n    return time.time()\n",
    "core/rng.py": (
        "import numpy as np\n\ndef f():\n"
        "    return np.random.default_rng()\n"
    ),
    "core/sets.py": "def f(s):\n    return [x for x in set(s)]\n",
    "core/eq.py": "def f(rate_rps):\n    return rate_rps == 0.0\n",
    "core/units.py": "def f(a_ms, b_us):\n    return a_ms + b_us\n",
    "cluster/mutate.py": (
        "def f(self, request, now):\n    request.done = True\n"
    ),
    "core/scan.py": (
        "def f(profile, slo_ms):\n"
        "    best = 0\n"
        "    for b in range(1, profile.max_batch + 1):\n"
        "        if profile.latency(b) <= slo_ms:\n"
        "            best = b\n"
        "    return best\n"
    ),
    "core/epoch.py": (
        "def f(profile, rate):\n"
        "    return simulate_estimate(profile, rate)\n"
    ),
    "core/grow.py": (
        "def f(pack_at, max_gpus):\n"
        "    hi = 2.0\n"
        "    while pack_at(hi).num_gpus <= max_gpus and hi < 64:\n"
        "        hi *= 2\n"
        "    return hi\n"
    ),
    "serving/delay.py": (
        "def f(sim):\n    sim.schedule(50, lambda: None)\n"
    ),
    "serving/waiver.py": (
        "def f():\n    return 1  # nexuslint: disable=no-such-rule\n"
    ),
}


class TestInvalidSuppression:
    """Directives are themselves linted: unknown slugs and waivers that
    waive nothing are findings (ruff's unused-noqa, for nexuslint)."""

    def test_unknown_rule_slug_fires(self):
        found = findings("""
            def f():
                return 1  # nexuslint: disable=definitely-not-a-rule
        """)
        assert rules_of(found) == {"invalid-suppression"}
        assert "definitely-not-a-rule" in found[0].message

    def test_unknown_slug_in_file_wide_directive_fires(self):
        found = findings("""
            # nexuslint: disable-file=not-a-rule

            def f():
                return 1
        """)
        assert rules_of(found) == {"invalid-suppression"}

    def test_async_rule_slugs_are_known(self):
        # A line waiver naming a whole-program rule is a *valid* slug;
        # lint_source leaves unused-ness to the project driver.
        found = findings("""
            import time

            async def f():
                time.sleep(1)  # nexuslint: disable=blocking-call-in-async
        """)
        assert found == []

    def test_unused_line_suppression_fires_in_project_run(self, tmp_path):
        target = tmp_path / "core" / "mod.py"
        target.parent.mkdir()
        target.write_text(
            "def f(a_ms, b_ms):\n"
            "    return a_ms + b_ms  # nexuslint: disable=wall-clock\n"
        )
        found, errors = lint_paths([tmp_path])
        assert errors == []
        assert rules_of(found) == {"invalid-suppression"}
        assert "matches no finding" in found[0].message

    def test_used_line_suppression_is_clean_in_project_run(self, tmp_path):
        target = tmp_path / "core" / "mod.py"
        target.parent.mkdir()
        target.write_text(
            "import time\n\n"
            "def f():\n"
            "    return time.time()  # nexuslint: disable=wall-clock\n"
        )
        found, errors = lint_paths([tmp_path])
        assert errors == []
        assert found == []

    def test_used_suppression_of_async_rule_is_clean(self, tmp_path):
        target = tmp_path / "core" / "mod.py"
        target.parent.mkdir()
        target.write_text(
            "import time\n\n\n"
            "async def f():\n"
            "    time.sleep(1)  # nexuslint: disable=blocking-call-in-async\n"
        )
        found, errors = lint_paths([tmp_path])
        assert errors == []
        assert found == []

    def test_docstring_mention_is_not_a_directive(self, tmp_path):
        target = tmp_path / "core" / "mod.py"
        target.parent.mkdir()
        target.write_text(
            '"""Waive with ``# nexuslint: disable=wall-clock``."""\n\n'
            "def f(a_ms, b_ms):\n"
            "    return a_ms + b_ms\n"
        )
        found, errors = lint_paths([tmp_path])
        assert errors == []
        assert found == []

    def test_invalid_suppression_is_itself_suppressible(self, tmp_path):
        target = tmp_path / "core" / "mod.py"
        target.parent.mkdir()
        target.write_text(
            "# nexuslint: disable-file=invalid-suppression\n\n"
            "def f(a_ms, b_ms):\n"
            "    return a_ms + b_ms  # nexuslint: disable=wall-clock\n"
        )
        found, errors = lint_paths([tmp_path])
        assert errors == []
        assert found == []


class TestGithubFormat:
    def test_findings_render_as_workflow_annotations(self, tmp_path, capsys):
        target = tmp_path / "core" / "eq.py"
        target.parent.mkdir()
        target.write_text(SEEDED_VIOLATIONS["core/eq.py"])
        assert main([str(tmp_path), "--format", "github"]) == 1
        out = capsys.readouterr().out
        line = next(ln for ln in out.splitlines() if ln.startswith("::error"))
        assert line.startswith(f"::error file={target}")
        assert ",line=2," in line
        assert "title=nexuslint float-equality::" in line

    def test_clean_tree_emits_no_annotations(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("def f():\n    return 1\n")
        assert main([str(tmp_path), "--format", "github"]) == 0
        assert "::error" not in capsys.readouterr().out


class TestBaseline:
    def seed(self, tmp_path):
        target = tmp_path / "core" / "eq.py"
        target.parent.mkdir(exist_ok=True)
        target.write_text(SEEDED_VIOLATIONS["core/eq.py"])
        return target

    def test_write_then_check_is_clean(self, tmp_path, capsys):
        self.seed(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(
            [str(tmp_path), "--baseline", str(baseline), "--write-baseline"]
        ) == 0
        assert main([str(tmp_path), "--baseline", str(baseline)]) == 0

    def test_new_finding_fails_despite_baseline(self, tmp_path, capsys):
        self.seed(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(
            [str(tmp_path), "--baseline", str(baseline), "--write-baseline"]
        ) == 0
        extra = tmp_path / "core" / "clock.py"
        extra.write_text(SEEDED_VIOLATIONS["core/clock.py"])
        assert main([str(tmp_path), "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "[wall-clock]" in out
        assert "[float-equality]" not in out  # ratcheted away

    def test_stale_entries_are_reported(self, tmp_path, capsys):
        target = self.seed(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(
            [str(tmp_path), "--baseline", str(baseline), "--write-baseline"]
        ) == 0
        target.write_text("def f():\n    return 1\n")  # fixed the finding
        assert main([str(tmp_path), "--baseline", str(baseline)]) == 0
        err = capsys.readouterr().err
        assert "stale baseline entry" in err

    def test_json_out_artifact(self, tmp_path, capsys):
        self.seed(tmp_path)
        artifact = tmp_path / "findings.json"
        assert main([str(tmp_path), "--json-out", str(artifact)]) == 1
        import json

        payload = json.loads(artifact.read_text())
        assert payload["findings"][0]["rule"] == "float-equality"
        assert payload["waived_by_baseline"] == 0


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        pkg = tmp_path / "core"
        pkg.mkdir()
        (pkg / "ok.py").write_text("def f(a_ms, b_ms):\n    return a_ms + b_ms\n")
        assert main([str(tmp_path)]) == 0

    def test_seeded_tree_exits_nonzero_with_every_rule(self, tmp_path, capsys):
        for rel, source in SEEDED_VIOLATIONS.items():
            target = tmp_path / rel
            target.parent.mkdir(exist_ok=True)
            target.write_text(source)
        assert main([str(tmp_path)]) == 1
        reported = capsys.readouterr().out
        for rule in RULES:
            assert f"[{rule}]" in reported

    def test_json_format(self, tmp_path, capsys):
        target = tmp_path / "core" / "eq.py"
        target.parent.mkdir()
        target.write_text(SEEDED_VIOLATIONS["core/eq.py"])
        assert main([str(tmp_path), "--format", "json"]) == 1
        out = capsys.readouterr().out
        import json

        payload = json.loads(out)
        assert payload and payload[0]["rule"] == "float-equality"

    def test_unparsable_input_exits_two(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("def f(:\n")
        assert main([str(tmp_path)]) == 2

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path), "--rules", "no-such-rule"]) == 2

    def test_missing_path_exits_two(self, capsys):
        assert main(["/no/such/path/anywhere"]) == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():  # syntactic + whole-program registries
            assert rule in out


class TestRepoIsClean:
    def test_installed_package_lints_clean(self):
        """Acceptance: ``python -m repro lint`` exits 0 on this repo."""
        package_root = Path(repro.__file__).resolve().parent
        found, errors = lint_paths([package_root])
        assert errors == []
        assert found == [], "\n".join(f.render() for f in found)

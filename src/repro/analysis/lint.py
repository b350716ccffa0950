"""nexuslint: project-specific static analysis for the cluster engine.

An AST-based lint pass encoding the repo's correctness contracts — the
hazards that surface as silent SLO misses or nondeterministic plans, not
as crashes, and that no generic linter knows to look for:

Determinism (planning paths only: ``core/``, ``cluster/``,
``simulation/`` — the code whose outputs must be bit-identical across
runs for seeded fault plans and plan diffing to work):

- ``wall-clock``          calls to ``time.time()`` / ``datetime.now()``
                          etc.; virtual time comes from the simulator.
- ``unseeded-random``     module-level ``random.*`` / legacy
                          ``np.random.*`` globals and ``default_rng()``
                          without a seed.
- ``unordered-iteration`` ``for``-loops and comprehensions over ``set``
                          displays, ``set()``/``frozenset()`` calls, or
                          dict-view set algebra (``a.keys() | b.keys()``):
                          Python sets hash-order their elements, so plan
                          construction driven by such iteration is
                          order-dependent.

Sizing discipline (planning paths only, same scope as determinism):

- ``raw-gpu-count-literal`` a bare integer literal compared against a
                          GPU-count quantity (``num_gpus < 64``), or
                          capping a search loop whose condition also
                          tests one (``... and hi < 64``): cluster sizes
                          are configuration (``max_gpus``, the fleet
                          inventory), never constants baked into
                          planning code.

Unit discipline (everywhere):

- ``float-equality``      ``==``/``!=`` against float literals or between
                          unit-suffixed quantities; use
                          :mod:`repro.core.floatcmp`.
- ``mixed-units``         ``+``/``-``/comparisons between operands whose
                          suffixes disagree (``_ms`` vs ``_us`` vs ``_s``
                          vs ``_rps``); multiplication/division are
                          conversions and stay legal.

Unit discipline (``serving/`` and ``cluster/`` only -- the code that
runs under both virtual and wall clocks):

- ``raw-time-literal``    a bare numeric literal combined with a
                          time-suffixed quantity (``deadline_ms + 50``),
                          compared against one (``elapsed_ms > 5000``),
                          passed to a scheduling call
                          (``sim.schedule(50, fn)``), or used as a unit
                          conversion factor (``span_ms / 1000.0``).
                          Name the quantity (a ``*_ms`` constant) or use
                          ``repro.runtime.clock.MS_PER_S``; literals
                          below ``1e-3`` are treated as float-jitter
                          epsilons and stay legal.

Observability contract (``cluster/`` only):

- ``untraced-mutation``   a function that mutates request state (assigns
                          request attributes or fires ``on_drop`` /
                          ``on_complete`` callbacks) must emit a
                          ``TraceEvent`` on some path — directly via a
                          tracer, or by delegating to a ``_record_*`` /
                          ``_finish_*`` / ``_final_*`` helper.  The
                          ``on_fail`` path is exempt by design: retryable
                          losses are traced at the frontend when the
                          retry or terminal drop happens, keeping exactly
                          one outcome event per logical request.

Performance contract (``core/`` only):

- ``unmemoized-profile-scan``  ``for``-loops over ``range(...max_batch...)``
                          whose body calls ``.latency()`` per batch size:
                          an O(max_batch) scan on the planning hot path.
                          Bisect the precomputed lookup tables instead
                          (``profile.max_batch_with_latency`` /
                          ``max_batch_residual`` or ``profile.tables()``).
- ``sim-in-planner-inner-loop``  (``core/epoch.py`` and ``core/squishy.py``
                          only) direct simulator invocations --
                          ``simulate_*()`` calls or ``*Simulator``
                          construction -- inside the planner's inner
                          loop.  Capacity questions route through
                          :func:`repro.core.queueing.capacity_answer`,
                          which consults the O(1) analytic oracle and
                          owns the documented fallback-to-simulation
                          policy; an inline simulator turns every
                          capacity probe into an event-loop run.

Whole-program pass (``analysis/callgraph.py`` + ``analysis/asynclint.py``):
on top of the per-file rules, :func:`lint_paths` builds a project-wide
call graph and runs the flow-aware asyncio-hazard rules
(``blocking-call-in-async``, ``interleaved-state-mutation``,
``unawaited-coroutine``, ``orphan-task``, ``cpu-bound-handler``) — see
:mod:`repro.analysis.asynclint` for their semantics.

Suppression: append ``# nexuslint: disable=<rule>[,<rule>...]`` to the
offending line, or ``# nexuslint: disable-file=<rule>`` anywhere in the
file for a file-wide waiver.  ``disable=all`` waives every rule.
Directives are themselves checked (``invalid-suppression``): naming an
unknown rule slug, or a line suppression that suppresses nothing, is a
finding — stale waivers cannot silently rot.

Baseline ratchet: ``--baseline .nexuslint-baseline.json`` waives exactly
the findings recorded in the file (matched on relative path + rule +
line), so new rules land enforced-at-zero-*new*-findings; stale entries
are reported so the baseline only ever shrinks.  ``--write-baseline``
regenerates it.

Run via ``python -m repro lint [paths...]`` (defaults to the installed
``repro`` package) — exit status 0 when clean, 1 with findings, 2 on
unreadable/unparsable inputs.  ``--format github`` emits workflow
annotations; ``--json-out`` writes a machine-readable findings artifact.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import sys
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .callgraph import (
    build_call_graph,
    dotted_name,
    module_name_for,
    terminal_name,
)

__all__ = [
    "Finding",
    "RULES",
    "all_rules",
    "lint_source",
    "lint_paths",
    "load_baseline",
    "apply_baseline",
    "write_baseline",
    "add_arguments",
    "run",
    "main",
]

#: one-line summary shown by ``--help``.
DESCRIPTION = "nexuslint: determinism / SLO-safety static analysis"

# --------------------------------------------------------------- rule table

#: rule slug -> one-line description (the authoritative rule registry).
RULES: dict[str, str] = {
    "wall-clock": "wall-clock reads in planning paths; use simulator time",
    "unseeded-random": "global/unseeded RNG in planning paths; seed an rng",
    "unordered-iteration": "iteration over a set in planning paths; sort it",
    "float-equality": "== / != on float quantities; use repro.core.floatcmp",
    "mixed-units": "adding/comparing operands with different unit suffixes",
    "untraced-mutation": "request-state mutation without a TraceEvent emit",
    "unmemoized-profile-scan":
        "linear profile.latency() scan over batch sizes; use the "
        "precomputed profile.tables() lookups",
    "sim-in-planner-inner-loop":
        "direct simulator call in the planner's capacity path; route "
        "through repro.core.queueing.capacity_answer",
    "raw-time-literal":
        "bare numeric time literal in serving/cluster code; name it "
        "(a *_ms constant) or use repro.runtime.clock.MS_PER_S",
    "raw-gpu-count-literal":
        "bare integer literal bounding a GPU-count quantity in planning "
        "code; derive the bound from max_gpus / the fleet inventory",
    "invalid-suppression":
        "nexuslint directive naming an unknown rule, or a line "
        "suppression that suppresses nothing",
}


def all_rules() -> dict[str, str]:
    """The merged rule registry: per-file syntactic rules plus the
    whole-program async-hazard rules."""
    from .asynclint import RULES as ASYNC_RULES

    return {**RULES, **ASYNC_RULES}

#: path components that mark deterministic planning code.
_PLANNING = frozenset({"core", "cluster", "simulation"})

#: rule -> (directories, file names) where it applies: a file with one of
#: the directories among its path components and, when names are given,
#: one of those names.  Rules not listed apply everywhere.
_RULE_SCOPES: dict[str, tuple[frozenset[str], frozenset[str] | None]] = {
    "wall-clock": (_PLANNING, None),
    "unseeded-random": (_PLANNING, None),
    "unordered-iteration": (_PLANNING, None),
    "raw-gpu-count-literal": (_PLANNING, None),
    # the code that owns request lifecycle state
    "untraced-mutation": (frozenset({"cluster"}), None),
    # the planning hot path, where batch-size scans must bisect tables
    "unmemoized-profile-scan": (frozenset({"core"}), None),
    # the planner's inner loop, where capacity questions must route
    # through the queueing oracle, never a direct simulator
    "sim-in-planner-inner-loop": (
        frozenset({"core"}), frozenset({"epoch.py", "squishy.py"}),
    ),
    # the code that runs under both the simulator and wall clocks, where
    # an unnamed ``50`` can silently be ms in one driver and s in another
    "raw-time-literal": (frozenset({"serving", "cluster"}), None),
}


def _rules_in_scope(rel_path: Path) -> frozenset[str]:
    """The per-file rules that apply to a file at ``rel_path``."""
    parts = set(rel_path.parts[:-1])
    in_scope = set(RULES)
    for rule, (dirs, names) in _RULE_SCOPES.items():
        if not parts & dirs or (names is not None
                                and rel_path.name not in names):
            in_scope.discard(rule)
    return frozenset(in_scope)


# wall-clock: dotted callables that read host time.
_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.date.today", "date.today",
})

# unseeded-random: module-level convenience functions backed by a hidden
# process-global RNG (stdlib and numpy legacy).
_GLOBAL_RANDOM_FNS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "expovariate",
    "betavariate", "random_sample", "rand", "randn", "normal", "poisson",
    "exponential", "permutation",
})

# mixed-units: recognized quantity suffixes.  Time suffixes are mutually
# incompatible under +/-/comparison; ``rps`` is incompatible with all of
# them.
_UNIT_SUFFIXES = frozenset({"ns", "us", "ms", "s", "rps"})

# raw-time-literal: suffixes that mark a *time* quantity, the calls whose
# first argument is a delay/instant, the conversion factors that must
# be spelled MS_PER_S, and the magnitude floor below which a literal is
# treated as a float-comparison epsilon.
_TIME_SUFFIXES = frozenset({"ns", "us", "ms", "s"})
_SCHEDULING_CALLS = frozenset({
    "schedule", "schedule_at", "schedule_after",
    "call_later", "call_at", "sleep",
})
_CONVERSION_LITERALS = frozenset({1e3, 1e-3, 1e6, 1e-6, 6e4})
_EPSILON_FLOOR = 1e-3

# raw-gpu-count-literal: literals below this are legal degenerate checks
# (``num_gpus <= 0``, ``num_gpus > 1``); at or above it they encode a
# cluster size.
_GPU_LITERAL_FLOOR = 2

# float-equality: name fragments marking latency/rate quantities.
_QUANTITY_FRAGMENTS = (
    "latency", "rate", "slo", "duty", "occupancy", "goodput",
    "throughput", "deadline", "budget",
)

# untraced-mutation: parameter names treated as request handles, the
# outcome callbacks that require a trace, and the helper-name prefixes
# that count as emitting one.
_REQUEST_NAMES = frozenset({"request", "req"})
_OUTCOME_CALLBACKS = frozenset({"on_drop", "on_complete"})
_TRACING_HELPER_PREFIXES = ("_record_", "_finish_", "_final_")


@dataclass(frozen=True)
class Finding:
    """One lint violation, pointing at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"

    def as_dict(self) -> dict[str, object]:
        return {
            "path": self.path, "line": self.line, "col": self.col,
            "rule": self.rule, "message": self.message,
        }


# ------------------------------------------------------------- suppressions


@dataclass(frozen=True)
class _Directive:
    """One ``# nexuslint:`` comment, with its location and form."""

    lineno: int
    file_wide: bool
    rules: frozenset[str]


def _parse_suppressions(source: str) -> list[_Directive]:
    """Extract every ``# nexuslint:`` directive with its location.

    Only genuine comment tokens count — the marker appearing inside a
    string or docstring (this module documents the syntax, after all) is
    not a directive."""
    marker = "# nexuslint:"
    directives: list[_Directive] = []
    if "nexuslint" not in source:
        return directives
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            idx = tok.string.find(marker)
            if idx < 0:
                continue
            directive = tok.string[idx + len(marker):].strip()
            for form, file_wide in (
                ("disable-file=", True), ("disable=", False)
            ):
                if not directive.startswith(form):
                    continue
                rules = frozenset(
                    r.strip() for r in directive[len(form):].split(",")
                    if r.strip()
                )
                directives.append(
                    _Directive(tok.start[0], file_wide, rules)
                )
                break
    except tokenize.TokenError:
        pass  # unparsable tail: ast.parse will report it properly
    return directives


def _invalid_suppression_findings(
    path: str,
    directives: list[_Directive],
    raw: list[Finding],
    check_unused: bool,
) -> list[Finding]:
    """The ``invalid-suppression`` rule: unknown slugs in any directive,
    and line suppressions that waive nothing.

    Unused-ness is only judged when ``check_unused`` is set — it needs
    the *raw* findings of every pass (syntactic and whole-program), so
    the per-file entry point leaves it to the project driver.
    """
    known = set(all_rules()) | {"all"}
    raw_rules_by_line: dict[int, set[str]] = {}
    for f in raw:
        raw_rules_by_line.setdefault(f.line, set()).add(f.rule)
    findings: list[Finding] = []
    for d in directives:
        unknown = sorted(d.rules - known)
        for slug in unknown:
            findings.append(Finding(
                path=path, line=d.lineno, col=1, rule="invalid-suppression",
                message=(
                    f"unknown rule {slug!r} in nexuslint directive; see "
                    f"--list-rules for valid slugs"
                ),
            ))
        if not check_unused or d.file_wide:
            continue
        valid = d.rules & known
        if not valid:
            continue  # fully unknown: already reported above
        at_line = raw_rules_by_line.get(d.lineno, set())
        used = bool(at_line) if "all" in valid else bool(valid & at_line)
        if not used:
            findings.append(Finding(
                path=path, line=d.lineno, col=1, rule="invalid-suppression",
                message=(
                    f"suppression of {', '.join(sorted(valid))} matches no "
                    f"finding on this line; remove the stale waiver"
                ),
            ))
    return findings


def _suppress(
    path: str, source: str, raw: list[Finding], check_unused: bool,
) -> list[Finding]:
    """Apply the file's ``# nexuslint:`` directives to its raw findings:
    drop the waived ones and add the ``invalid-suppression`` findings
    (themselves waivable) for the directives."""
    directives = _parse_suppressions(source)
    per_line: dict[int, frozenset[str]] = {}
    file_wide: set[str] = set()
    for d in directives:
        if d.file_wide:
            file_wide.update(d.rules)
        else:
            per_line[d.lineno] = per_line.get(d.lineno, frozenset()) | d.rules

    def waived(f: Finding) -> bool:
        at_line = per_line.get(f.line, frozenset())
        return bool({"all", f.rule} & (file_wide | at_line))

    invalid = _invalid_suppression_findings(path, directives, raw,
                                            check_unused)
    return [f for f in raw + invalid if not waived(f)]


# ------------------------------------------------------------- AST helpers


def _unit_suffix(node: ast.expr) -> str | None:
    """The unit suffix of a name-like operand (``exec_ms`` -> ``"ms"``)."""
    name = terminal_name(node)
    if name is None or "_" not in name:
        return None
    suffix = name.rsplit("_", 1)[-1]
    return suffix if suffix in _UNIT_SUFFIXES else None


def _literal(node: ast.expr) -> int | float | None:
    """The value of an int/float literal, ignoring a leading ``-`` or
    ``+``; None for anything else (bools included)."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    if (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
    ):
        return node.value
    return None


def _bare_time_literal(node: ast.expr) -> bool:
    """A numeric literal big enough to be a duration, not an epsilon."""
    value = _literal(node)
    return value is not None and abs(value) >= _EPSILON_FLOOR


def _time_suffix(node: ast.expr) -> str | None:
    suffix = _unit_suffix(node)
    return suffix if suffix in _TIME_SUFFIXES else None


def _is_quantity_name(node: ast.expr) -> bool:
    name = terminal_name(node)
    if name is None:
        return False
    lowered = name.lower()
    if _unit_suffix(node) is not None:
        return True
    return any(frag in lowered for frag in _QUANTITY_FRAGMENTS)


def _iter_target(node: ast.expr) -> ast.expr:
    """Unwrap pass-through wrappers around an iterable expression."""
    while (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"enumerate", "reversed", "iter"}
        and node.args
    ):
        node = node.args[0]
    return node


def _is_unordered_iterable(node: ast.expr) -> bool:
    node = _iter_target(node)
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"set", "frozenset"}
    ):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return any(
            _is_dict_view_or_set(side) for side in (node.left, node.right)
        )
    return False


def _mentions_max_batch(node: ast.expr) -> bool:
    """True when any name in the expression is (or ends in) max_batch."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and child.id == "max_batch":
            return True
        if isinstance(child, ast.Attribute) and child.attr == "max_batch":
            return True
    return False


def _mentions_gpus(node: ast.expr) -> bool:
    """True when any name in the expression denotes a GPU count."""
    for child in ast.walk(node):
        name: str | None = None
        if isinstance(child, ast.Name):
            name = child.id
        elif isinstance(child, ast.Attribute):
            name = child.attr
        if name is not None and name.lower().endswith("gpus"):
            return True
    return False


def _bare_gpu_count_literal(node: ast.expr) -> bool:
    """An int literal big enough to encode a cluster size."""
    value = _literal(node)
    return isinstance(value, int) and value >= _GPU_LITERAL_FLOOR


def _is_dict_view_or_set(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in {"set", "frozenset"}:
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in {"keys", "items"}:
            return True
    return False


# ------------------------------------------------------------- the visitor


class _Linter(ast.NodeVisitor):
    """Single-pass visitor evaluating every applicable rule."""

    def __init__(self, path: str, rel_path: Path):
        self.path = path
        self.rules = _rules_in_scope(rel_path)
        self.findings: list[Finding] = []

    # ------------------------------------------------------------ plumbing

    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(Finding(
            path=self.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule,
            message=message,
        ))

    # --------------------------------------------------------- determinism

    def visit_Call(self, node: ast.Call) -> None:
        if "wall-clock" in self.rules:
            self._check_wall_clock(node)
        if "unseeded-random" in self.rules:
            self._check_unseeded_random(node)
        if "sim-in-planner-inner-loop" in self.rules:
            self._check_sim_in_planner(node)
        if "raw-time-literal" in self.rules:
            self._check_scheduling_literal(node)
        self.generic_visit(node)

    def _check_scheduling_literal(self, node: ast.Call) -> None:
        name = terminal_name(node.func)
        if name not in _SCHEDULING_CALLS:
            return
        # Only the first argument is a delay or instant; later ones are a
        # priority (``schedule_at(t, fn, -1)``) or callback arguments.
        if node.args and _bare_time_literal(node.args[0]):
            self._report(
                node.args[0], "raw-time-literal",
                f"bare numeric delay passed to {name}(); name the "
                f"duration (a *_ms constant) so its unit is explicit",
            )

    def _check_sim_in_planner(self, node: ast.Call) -> None:
        name = terminal_name(node.func)
        if name is None:
            return
        if name.startswith("simulate") or name.endswith("Simulator"):
            self._report(
                node, "sim-in-planner-inner-loop",
                f"{name}() invoked in the planner's capacity path; route "
                f"capacity questions through "
                f"repro.core.queueing.capacity_answer (oracle + documented "
                f"fallback) instead of an inline simulator",
            )

    def _check_wall_clock(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        if dotted is not None and dotted in _CLOCK_CALLS:
            self._report(
                node, "wall-clock",
                f"{dotted}() reads host wall-clock time; planning code must "
                f"use the simulator clock (sim.now)",
            )

    def _check_unseeded_random(self, node: ast.Call) -> None:
        dotted = dotted_name(node.func)
        if dotted is None:
            return
        parts = dotted.split(".")
        # random.shuffle(...) / np.random.randint(...) style globals.
        if (
            len(parts) >= 2
            and parts[-1] in _GLOBAL_RANDOM_FNS
            and parts[-2] == "random"
        ):
            self._report(
                node, "unseeded-random",
                f"{dotted}() draws from the process-global RNG; construct a "
                f"seeded generator instead",
            )
            return
        # default_rng() / Random() with no (or an explicit None) seed.
        if parts[-1] in {"default_rng", "Random", "RandomState"}:
            seed_missing = not node.args and not any(
                kw.arg == "seed" for kw in node.keywords
            )
            seed_none = any(
                isinstance(arg, ast.Constant) and arg.value is None
                for arg in node.args[:1]
            ) or any(
                kw.arg == "seed"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is None
                for kw in node.keywords
            )
            if seed_missing or seed_none:
                self._report(
                    node, "unseeded-random",
                    f"{dotted}() without a seed is entropy-seeded; pass an "
                    f"explicit seed",
                )

    def visit_For(self, node: ast.For) -> None:
        if "unordered-iteration" in self.rules:
            self._check_unordered_iteration(node.iter)
        if "unmemoized-profile-scan" in self.rules:
            self._check_profile_scan(node)
        self.generic_visit(node)

    def _check_profile_scan(self, node: ast.For) -> None:
        """``for b in range(..., max_batch...): ... .latency(b) ...`` is a
        linear scan the precomputed lookup tables replace."""
        it = _iter_target(node.iter)
        if not (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Name)
            and it.func.id == "range"
        ):
            return
        if not any(_mentions_max_batch(arg) for arg in it.args):
            return
        for child in ast.walk(node):
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "latency"
            ):
                self._report(
                    node, "unmemoized-profile-scan",
                    "O(max_batch) latency() scan in planning code; bisect "
                    "the precomputed tables instead "
                    "(profile.max_batch_with_latency / max_batch_residual "
                    "or profile.tables())",
                )
                return

    def visit_comprehension(self, node: ast.comprehension) -> None:
        if "unordered-iteration" in self.rules:
            self._check_unordered_iteration(node.iter)
        self.generic_visit(node)

    def _check_unordered_iteration(self, iter_node: ast.expr) -> None:
        if _is_unordered_iterable(iter_node):
            self._report(
                iter_node, "unordered-iteration",
                "iterating a set hash-orders the elements; wrap in "
                "sorted(...) with a stable key",
            )

    # ------------------------------------------------------ unit discipline

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if isinstance(op, (ast.Eq, ast.NotEq)):
                self._check_float_equality(node, left, right)
            if isinstance(
                op, (ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE)
            ):
                self._check_mixed_units(node, left, right)
                if "raw-time-literal" in self.rules:
                    self._check_time_literal_pair(node, left, right)
                if "raw-gpu-count-literal" in self.rules:
                    self._check_gpu_count_literal(node, left, right)
        self.generic_visit(node)

    def _check_gpu_count_literal(
        self, node: ast.AST, left: ast.expr, right: ast.expr
    ) -> None:
        """A GPU-count quantity compared against a bare integer literal."""
        for gpu_side, other in ((left, right), (right, left)):
            if _mentions_gpus(gpu_side) and _bare_gpu_count_literal(other):
                self._report(
                    node, "raw-gpu-count-literal",
                    "GPU-count quantity compared against a bare integer "
                    "literal; derive the bound from max_gpus or the fleet "
                    "inventory instead of baking in a cluster size",
                )
                return

    def visit_While(self, node: ast.While) -> None:
        if "raw-gpu-count-literal" in self.rules:
            self._check_gpu_search_cap(node.test)
        self.generic_visit(node)

    def _check_gpu_search_cap(self, test: ast.expr) -> None:
        """``while pack(hi).num_gpus <= max_gpus and hi < 64`` — the bare
        literal caps a cluster-size search independently of the cluster
        size, so the search silently stops scaling past it."""
        if not isinstance(test, ast.BoolOp):
            return
        if not any(_mentions_gpus(value) for value in test.values):
            return
        for value in test.values:
            if not isinstance(value, ast.Compare) or _mentions_gpus(value):
                continue
            operands = [value.left, *value.comparators]
            if any(_bare_gpu_count_literal(op) for op in operands):
                self._report(
                    value, "raw-gpu-count-literal",
                    "bare integer literal caps a search loop that tests a "
                    "GPU count; derive the cap from max_gpus or the fleet "
                    "inventory instead of baking in a cluster size",
                )
                return

    def _check_time_literal_pair(
        self, node: ast.AST, left: ast.expr, right: ast.expr
    ) -> None:
        """A time-suffixed quantity combined/compared with a bare literal."""
        for suffixed, other in ((left, right), (right, left)):
            if _time_suffix(suffixed) is not None and _bare_time_literal(other):
                self._report(
                    node, "raw-time-literal",
                    f"bare numeric literal against a _"
                    f"{_time_suffix(suffixed)} quantity; name it (a *_ms "
                    f"constant) so its unit is explicit",
                )
                return

    def _check_float_equality(
        self, node: ast.Compare, left: ast.expr, right: ast.expr
    ) -> None:
        literal = (isinstance(_literal(left), float)
                   or isinstance(_literal(right), float))
        quantities = _is_quantity_name(left) and _is_quantity_name(right)
        if literal or quantities:
            self._report(
                node, "float-equality",
                "exact == / != on float quantities is rounding-fragile; use "
                "repro.core.floatcmp (approx_eq / approx_zero)",
            )

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, (ast.Add, ast.Sub)):
            self._check_mixed_units(node, node.left, node.right)
            if "raw-time-literal" in self.rules:
                self._check_time_literal_pair(node, node.left, node.right)
        elif "raw-time-literal" in self.rules and isinstance(
            node.op, (ast.Mult, ast.Div)
        ):
            self._check_conversion_literal(node)
        self.generic_visit(node)

    def _check_conversion_literal(self, node: ast.BinOp) -> None:
        """``span_ms / 1000.0``-style conversions must spell MS_PER_S."""
        for suffixed, other in (
            (node.left, node.right), (node.right, node.left)
        ):
            value = _literal(other)
            if (
                _time_suffix(suffixed) is not None
                and value is not None
                and abs(value) in _CONVERSION_LITERALS
            ):
                self._report(
                    node, "raw-time-literal",
                    "unit conversion by raw literal; use "
                    "repro.runtime.clock.MS_PER_S (or a named factor)",
                )
                return

    def _check_mixed_units(
        self, node: ast.AST, left: ast.expr, right: ast.expr
    ) -> None:
        lu, ru = _unit_suffix(left), _unit_suffix(right)
        if lu is not None and ru is not None and lu != ru:
            self._report(
                node, "mixed-units",
                f"operands carry different units (_{lu} vs _{ru}); convert "
                f"explicitly before combining",
            )

    # ------------------------------------------------ observability contract

    def visit_FunctionDef(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        if "untraced-mutation" in self.rules:
            self._check_untraced_mutation(node)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def _check_untraced_mutation(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        mutates = False
        traces = False
        for child in ast.walk(node):
            # Nested function bodies are checked on their own visit.
            if child is not node and isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if isinstance(child, (ast.Assign, ast.AugAssign)):
                targets = (
                    child.targets if isinstance(child, ast.Assign)
                    else [child.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in _REQUEST_NAMES
                    ):
                        mutates = True
            if isinstance(child, ast.Call):
                callee = terminal_name(child.func)
                if callee in _OUTCOME_CALLBACKS:
                    mutates = True
                if self._emits_trace(child):
                    traces = True
        if mutates and not traces:
            self._report(
                node, "untraced-mutation",
                f"{node.name}() mutates request state but emits no "
                f"TraceEvent; record the outcome via the tracer (or a "
                f"_record_*/_finish_*/_final_* helper)",
            )

    @staticmethod
    def _emits_trace(call: ast.Call) -> bool:
        func = call.func
        if isinstance(func, ast.Attribute):
            owner = terminal_name(func.value)
            if owner is not None and "tracer" in owner:
                return True
            name = func.attr
        elif isinstance(func, ast.Name):
            name = func.id
        else:
            return False
        if name == "emit":
            return True
        return name.startswith(_TRACING_HELPER_PREFIXES)


# --------------------------------------------------------------- front end


def lint_source(
    source: str,
    path: str = "<string>",
    rel_path: Path | None = None,
    rules: frozenset[str] | None = None,
) -> list[Finding]:
    """Lint one unit of Python source with the per-file syntactic rules;
    returns findings (never raises on rule matches, raises
    ``SyntaxError`` on unparsable input).  Unknown rule slugs in
    directives are reported here; unused-suppression detection needs the
    whole-program pass and lives in :func:`lint_paths`."""
    tree = ast.parse(source, filename=path)
    visitor = _Linter(path, rel_path or Path(path))
    visitor.visit(tree)
    findings = _suppress(path, source, visitor.findings, check_unused=False)
    if rules is not None:
        findings = [f for f in findings if f.rule in rules]
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))


def _iter_python_files(target: Path) -> Iterator[Path]:
    if target.is_file():
        yield target
        return
    yield from sorted(target.rglob("*.py"))


def lint_paths(
    paths: Sequence[Path],
    rules: frozenset[str] | None = None,
) -> tuple[list[Finding], list[str]]:
    """Run the full engine over files/trees: per-file syntactic rules,
    then the whole-program async-hazard pass over a shared call graph,
    then suppression filtering and directive validation.  Returns
    ``(findings, errors)`` where errors are unreadable or unparsable
    inputs.  Every file is parsed exactly once; both passes share the
    trees."""
    from .asynclint import analyze_graph

    errors: list[str] = []
    units: list[tuple[Path, Path, str, ast.Module, str]] = []
    for target in paths:
        # Directory targets scope rules by path parts relative to the
        # directory; lone files keep their absolute path so the enclosing
        # core/cluster/simulation component still selects the right rules.
        root = target if target.is_dir() else None
        for file in _iter_python_files(target):
            try:
                source = file.read_text(encoding="utf-8")
                tree = ast.parse(source, filename=str(file))
            except (OSError, SyntaxError) as exc:
                errors.append(f"{file}: {exc}")
                continue
            rel = file.relative_to(root) if root is not None else file
            units.append(
                (file, rel, module_name_for(file, root=root), tree, source)
            )

    # Pass 1: per-file syntactic rules (raw findings: suppressions are
    # applied after the merge so directive validation sees everything).
    raw_by_file: dict[str, list[Finding]] = {}
    for file, rel, _module, tree, _source in units:
        visitor = _Linter(str(file), rel)
        visitor.visit(tree)
        raw_by_file[str(file)] = visitor.findings

    # Pass 2: whole-program async-hazard rules over the shared trees.
    graph = build_call_graph(
        [(file, rel, module, tree) for file, rel, module, tree, _ in units]
    )
    for finding in analyze_graph(graph):
        raw_by_file.setdefault(finding.path, []).append(finding)

    # Merge, apply suppressions, validate directives.
    findings: list[Finding] = []
    for file, _rel, _module, _tree, source in units:
        key = str(file)
        findings.extend(_suppress(
            key, source, raw_by_file.get(key, []), check_unused=True,
        ))

    if rules is not None:
        findings = [f for f in findings if f.rule in rules]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings, errors


# ----------------------------------------------------------------- baseline


def load_baseline(path: Path) -> list[dict]:
    """The recorded findings of a ``.nexuslint-baseline.json`` ratchet."""
    data = json.loads(path.read_text(encoding="utf-8"))
    return list(data.get("findings", []))


def _baseline_key(
    path_str: str, rule: str, line: int, base_dir: Path,
) -> tuple[str, str, int]:
    """Baselines match on (path relative to the baseline file, rule,
    line) so the file is stable across checkouts."""
    p = Path(path_str)
    try:
        rel = p.resolve().relative_to(base_dir.resolve())
    except ValueError:
        rel = p
    return (rel.as_posix(), rule, line)


def apply_baseline(
    findings: list[Finding], entries: list[dict], base_dir: Path,
) -> tuple[list[Finding], int, list[tuple[str, str, int]]]:
    """Filter findings through the ratchet.  Returns ``(kept, waived,
    stale)``: findings not in the baseline, the count the baseline
    absorbed, and recorded entries that no longer fire (the ratchet
    should shrink by exactly those)."""
    allowed = {
        (str(e["path"]), str(e["rule"]), int(e["line"])) for e in entries
    }
    kept: list[Finding] = []
    matched: set[tuple[str, str, int]] = set()
    for f in findings:
        key = _baseline_key(f.path, f.rule, f.line, base_dir)
        if key in allowed:
            matched.add(key)
        else:
            kept.append(f)
    waived = len(findings) - len(kept)
    stale = sorted(allowed - matched)
    return kept, waived, stale


def write_baseline(findings: list[Finding], path: Path) -> None:
    """(Re)generate the ratchet from the current findings."""
    base_dir = path.resolve().parent
    entries = [
        {"path": p, "rule": r, "line": n}
        for p, r, n in sorted(
            _baseline_key(f.path, f.rule, f.line, base_dir)
            for f in findings
        )
    ]
    path.write_text(
        json.dumps({"version": 1, "findings": entries}, indent=2) + "\n",
        encoding="utf-8",
    )


def _default_target() -> Path:
    import repro

    return Path(repro.__file__).resolve().parent


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the lint flags on ``parser`` (this module's own parser and
    the ``repro lint`` subcommand share them); :func:`run` reads them."""
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--rules", default=None, metavar="R1,R2",
        help="comma-separated subset of rules to apply",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "github"), default="text",
        help="findings output format (github = workflow annotations)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule registry and exit",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None, metavar="FILE",
        help="ratchet file: recorded findings are waived, new ones fail",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="regenerate --baseline from the current findings and exit",
    )
    parser.add_argument(
        "--json-out", type=Path, default=None, metavar="FILE",
        help="also write a JSON findings artifact (post-baseline)",
    )


def run(args: argparse.Namespace) -> int:
    """Lint with the flags of :func:`add_arguments`; returns the exit
    status (0 clean, 1 findings, 2 bad input)."""
    registry = all_rules()
    if args.list_rules:
        for slug, description in registry.items():
            print(f"{slug:28s} {description}")
        return 0

    rules: frozenset[str] | None = None
    if args.rules:
        rules = frozenset(r.strip() for r in args.rules.split(",") if r.strip())
        unknown = rules - set(registry)
        if unknown:
            print(f"unknown rule(s): {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2

    if args.write_baseline and args.baseline is None:
        print("--write-baseline requires --baseline FILE", file=sys.stderr)
        return 2

    targets = list(args.paths) or [_default_target()]
    missing = [t for t in targets if not t.exists()]
    if missing:
        for t in missing:
            print(f"no such path: {t}", file=sys.stderr)
        return 2

    findings, errors = lint_paths(targets, rules=rules)
    for error in errors:
        print(error, file=sys.stderr)

    if args.write_baseline:
        assert args.baseline is not None
        write_baseline(findings, args.baseline)
        print(
            f"nexuslint: wrote {len(findings)} finding(s) to "
            f"{args.baseline}", file=sys.stderr,
        )
        return 2 if errors else 0

    waived = 0
    stale: list[tuple[str, str, int]] = []
    if args.baseline is not None:
        if args.baseline.exists():
            findings, waived, stale = apply_baseline(
                findings, load_baseline(args.baseline),
                args.baseline.resolve().parent,
            )
        else:
            print(f"nexuslint: baseline {args.baseline} not found; "
                  f"treating as empty", file=sys.stderr)

    if args.json_out is not None:
        args.json_out.write_text(json.dumps({
            "findings": [f.as_dict() for f in findings],
            "waived_by_baseline": waived,
            "stale_baseline": [
                {"path": p, "rule": r, "line": n} for p, r, n in stale
            ],
        }, indent=2) + "\n", encoding="utf-8")

    if args.format == "json":
        print(json.dumps([f.as_dict() for f in findings], indent=2))
    elif args.format == "github":
        for f in findings:
            print(
                f"::error file={f.path},line={f.line},col={f.col},"
                f"title=nexuslint {f.rule}::{f.message}"
            )
    else:
        for finding in findings:
            print(finding.render())

    for p, r, n in stale:
        print(
            f"nexuslint: stale baseline entry {p}:{n} [{r}] no longer "
            f"fires; shrink the baseline", file=sys.stderr,
        )
    if errors:
        return 2
    if findings:
        print(f"nexuslint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


def main(argv: Iterable[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro lint", description=DESCRIPTION)
    add_arguments(parser)
    return run(parser.parse_args(list(argv) if argv is not None else None))


if __name__ == "__main__":
    sys.exit(main())

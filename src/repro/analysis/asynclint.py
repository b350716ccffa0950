"""Flow-aware asyncio-hazard rules over the whole-program call graph.

The serving plane (PR 7) moved the planner and dispatch state onto a
real event loop.  That changes the failure modes: one blocking call in a
coroutine stalls every in-flight request on the shared core, and every
``await`` is a preemption point where another coroutine can see —
or clobber — half-updated ``self`` state.  These hazards are invisible
to the per-file syntactic pass because they live in *reachability*
(a handler three calls away from ``time.sleep``) and in *ordering*
(a read before an ``await``, the dependent write after it).

Rules (all report through the shared :class:`~repro.analysis.lint.Finding`
type and obey the same ``# nexuslint: disable=`` suppressions):

- ``blocking-call-in-async``      a coroutine transitively reaches a
  blocking primitive (``time.sleep``, blocking socket/subprocess/file
  I/O, or a simulator run loop like ``run_until``/``advance_to``)
  through resolved project calls.  The finding is anchored at the call
  site inside the coroutine that starts the blocking chain, and the
  message spells out the chain.
- ``interleaved-state-mutation``  the asyncio race detector: a
  ``self.<attr>`` read before an ``await`` feeding a write after it.
  The value written was computed from a snapshot another coroutine may
  have invalidated during the suspension.  Re-reading after the await
  (``self.x = self.x + 1``) or publishing the write before awaiting
  both pass.
- ``unawaited-coroutine``         a call that provably returns a
  coroutine (project ``async def`` or a known asyncio factory) whose
  result is discarded — the body never runs.
- ``orphan-task``                 ``create_task``/``ensure_future``
  whose returned handle is dropped: the task is garbage-collectable
  mid-flight and its exceptions vanish.  Retaining the handle (or
  chaining ``add_done_callback``) passes.
- ``cpu-bound-handler``           ``serving/`` request handlers
  (``_h_*`` / ``handle*`` by the repo's route-handler convention) that
  loop unboundedly over request collections on the event loop.

Like the call graph itself, every rule is an under-approximation:
hazards are reported only along edges the resolver can prove, so a
finding is worth reading, never noise to waive wholesale.
"""

from __future__ import annotations

import ast
from pathlib import Path

from .callgraph import CallGraph, CallSite, FunctionNode
from .lint import Finding

__all__ = ["RULES", "analyze_graph"]

#: rule slug -> one-line description (merged into the CLI registry).
RULES: dict[str, str] = {
    "blocking-call-in-async":
        "coroutine transitively reaches a blocking call; it stalls the "
        "event loop — move it off-loop or use the async equivalent",
    "interleaved-state-mutation":
        "self.* read before an await and written after it; another "
        "coroutine may update it during the suspension",
    "unawaited-coroutine":
        "coroutine call result discarded; the body never runs",
    "orphan-task":
        "create_task/ensure_future handle dropped; exceptions are lost "
        "— retain the task and add a done-callback",
    "cpu-bound-handler":
        "serving handler loops unboundedly over a request collection "
        "on the event loop; bound the scan or defer it",
}

#: canonical external callables that block the calling thread.
_BLOCKING_EXTERNAL = frozenset({
    "time.sleep",
    "socket.create_connection", "socket.getaddrinfo",
    "socket.gethostbyname",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
    "urllib.request.urlopen",
    "requests.get", "requests.post", "requests.put", "requests.request",
    "open", "input",
})

#: terminal attribute names that block when the receiver is unresolved:
#: pathlib-style synchronous file I/O and the simulator run loops
#: (``ManualEventSource.run_until`` / ``advance_to`` spin virtual time to
#: completion — called from a coroutine they freeze the wall-clock loop).
#: ``drain`` is deliberately absent: ``StreamWriter.drain()`` is awaitable.
_BLOCKING_TERMINALS = frozenset({
    "read_text", "write_text", "read_bytes", "write_bytes",
    "run_until", "advance_to",
})

#: external factories that return coroutines (for unawaited detection).
_KNOWN_COROUTINES = frozenset({
    "asyncio.sleep", "asyncio.gather", "asyncio.wait", "asyncio.wait_for",
    "asyncio.open_connection", "asyncio.start_server", "asyncio.to_thread",
})

#: terminal names that spawn tasks whose handle must be retained.
_TASK_SPAWNERS = frozenset({"create_task", "ensure_future"})

#: serving-handler naming convention (HTTP route handlers and friends).
_HANDLER_PREFIXES = ("_h_", "handle")

#: iterable-name fragments that mark request-scaled collections.
_REQUESTY_FRAGMENTS = (
    "request", "pending", "queue", "backlog", "inflight", "conn",
)

#: BFS depth cap for blocking-chain searches (paranoia, not policy).
_CHAIN_DEPTH_CAP = 24


def analyze_graph(graph: CallGraph) -> list[Finding]:
    """Run every async-hazard rule; returns raw (unsuppressed) findings."""
    findings: list[Finding] = []
    ordered = sorted(
        graph.functions.values(),
        key=lambda f: (f.path, f.lineno, f.col),
    )
    for fn in ordered:
        if fn.is_async:
            findings.extend(_check_blocking(fn, graph))
            findings.extend(_check_interleaved(fn))
        findings.extend(_check_unawaited(fn, graph))
        findings.extend(_check_orphan_task(fn))
        if _in_serving(fn.rel_path) and _is_handler(fn):
            findings.extend(_check_cpu_bound(fn))
    return findings


def _in_serving(rel_path: Path) -> bool:
    return "serving" in rel_path.parts[:-1]


def _is_handler(fn: FunctionNode) -> bool:
    return fn.name.startswith(_HANDLER_PREFIXES)


def _finding(fn: FunctionNode, node_line: int, node_col: int,
             rule: str, message: str) -> Finding:
    return Finding(
        path=fn.path, line=node_line, col=node_col,
        rule=rule, message=message,
    )


# ----------------------------------------------------- blocking-call-in-async


def _direct_blocking(site: CallSite) -> str | None:
    """The blocking primitive this call site hits directly, if any."""
    if site.awaited:
        return None
    if site.external is not None and site.external in _BLOCKING_EXTERNAL:
        return site.external
    if (
        site.resolved is None
        and site.raw is not None
        and "." in site.raw
        and site.terminal in _BLOCKING_TERMINALS
    ):
        return site.raw
    return None


def _check_blocking(fn: FunctionNode, graph: CallGraph) -> list[Finding]:
    """BFS from the coroutine over resolved project edges; report the
    shortest chain that reaches a blocking primitive."""
    # Direct hit: anchor at the blocking call itself.
    for site in fn.calls:
        primitive = _direct_blocking(site)
        if primitive is not None:
            return [_finding(
                fn, site.lineno, site.col, "blocking-call-in-async",
                f"coroutine {fn.name}() calls {primitive}(), which blocks "
                f"the event loop; use the async equivalent or move it "
                f"off-loop",
            )]
    # Transitive: anchor at the first edge of the chain inside fn.
    seen: set[str] = {fn.qualname}
    queue: list[tuple[str, CallSite, tuple[str, ...]]] = []
    for site in fn.calls:
        if site.resolved is not None and site.resolved not in seen:
            seen.add(site.resolved)
            queue.append((site.resolved, site, (fn.name,)))
    depth = 0
    while queue and depth < _CHAIN_DEPTH_CAP:
        depth += 1
        next_queue: list[tuple[str, CallSite, tuple[str, ...]]] = []
        for qualname, anchor, path_names in queue:
            callee = graph.functions.get(qualname)
            if callee is None:
                continue
            chain = path_names + (callee.name,)
            for site in callee.calls:
                primitive = _direct_blocking(site)
                if primitive is not None:
                    arrow = " -> ".join(chain)
                    return [_finding(
                        fn, anchor.lineno, anchor.col,
                        "blocking-call-in-async",
                        f"coroutine {fn.name}() reaches blocking "
                        f"{primitive}() via {arrow}; it stalls the event "
                        f"loop for every in-flight request",
                    )]
            for site in callee.calls:
                if site.resolved is not None and site.resolved not in seen:
                    seen.add(site.resolved)
                    next_queue.append((site.resolved, anchor, chain))
        queue = next_queue
    return []


# ------------------------------------------------- interleaved-state-mutation


def _is_self_attr(node: ast.expr) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _mutation_events(
    fn_node: ast.AsyncFunctionDef,
) -> list[tuple[str, str | None, ast.AST]]:
    """Linearize the body into ``read``/``write``/``await`` events on
    ``self.*`` attributes, in evaluation order (value before store)."""
    events: list[tuple[str, str | None, ast.AST]] = []

    def expr(node: ast.expr) -> None:
        if isinstance(node, ast.Await):
            expr(node.value)
            events.append(("await", None, node))
            return
        attr = _is_self_attr(node)
        if attr is not None:
            if isinstance(node.ctx, ast.Load):
                events.append(("read", attr, node))
            elif isinstance(node.ctx, ast.Store):
                events.append(("write", attr, node))
            return
        if isinstance(node, ast.Lambda):
            return  # deferred body: nothing happens at definition time
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                expr(child)
            elif isinstance(child, ast.comprehension):
                expr(child.iter)
                for cond in child.ifs:
                    expr(cond)
            elif isinstance(child, ast.keyword):
                expr(child.value)

    def stmt(node: ast.stmt) -> None:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return  # separate execution contexts
        if isinstance(node, ast.Assign):
            expr(node.value)
            for target in node.targets:
                expr(target)
            return
        if isinstance(node, ast.AnnAssign):
            if node.value is not None:
                expr(node.value)
            expr(node.target)
            return
        if isinstance(node, ast.AugAssign):
            # x += v re-reads at the store, so the read is only stale if
            # the *value* expression awaits in between.
            attr = _is_self_attr(node.target)
            if attr is not None:
                events.append(("read", attr, node.target))
            else:
                expr(node.target)
            expr(node.value)
            if attr is not None:
                events.append(("write", attr, node.target))
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                stmt(child)
            elif isinstance(child, ast.expr):
                expr(child)
            elif isinstance(child, ast.excepthandler):
                for sub in child.body:
                    stmt(sub)
            elif isinstance(child, ast.withitem):
                expr(child.context_expr)
                if child.optional_vars is not None:
                    expr(child.optional_vars)

    for body_stmt in fn_node.body:
        stmt(body_stmt)
    return events


def _check_interleaved(fn: FunctionNode) -> list[Finding]:
    """Flag writes to ``self.<attr>`` whose value was derived from a read
    on the other side of an ``await``."""
    assert isinstance(fn.node, ast.AsyncFunctionDef)
    findings: list[Finding] = []
    fresh: set[str] = set()   # attrs read since the last await
    stale: set[str] = set()   # attrs read before some await, not re-read
    flagged: set[str] = set()
    for kind, attr, node in _mutation_events(fn.node):
        if kind == "read":
            assert attr is not None
            fresh.add(attr)
            stale.discard(attr)
        elif kind == "await":
            stale |= fresh
            fresh.clear()
        else:  # write
            assert attr is not None
            if attr in stale and attr not in flagged:
                flagged.add(attr)
                findings.append(_finding(
                    fn, getattr(node, "lineno", fn.lineno),
                    getattr(node, "col_offset", 0) + 1,
                    "interleaved-state-mutation",
                    f"self.{attr} is read before an await and written "
                    f"after it in {fn.name}(); a concurrent coroutine can "
                    f"update it during the suspension — re-read it after "
                    f"awaiting, or publish the write first",
                ))
            stale.discard(attr)
            fresh.discard(attr)
    return findings


# ----------------------------------------------------------- unawaited + orphan


def _check_unawaited(fn: FunctionNode, graph: CallGraph) -> list[Finding]:
    findings: list[Finding] = []
    for site in fn.calls:
        if not site.discarded or site.awaited:
            continue
        target_async = (
            site.resolved is not None
            and site.resolved in graph.functions
            and graph.functions[site.resolved].is_async
        )
        known = site.external in _KNOWN_COROUTINES
        if target_async or known:
            name = site.raw or site.terminal or "<coroutine>"
            findings.append(_finding(
                fn, site.lineno, site.col, "unawaited-coroutine",
                f"{name}() returns a coroutine that is never awaited; "
                f"its body never runs",
            ))
    return findings


def _check_orphan_task(fn: FunctionNode) -> list[Finding]:
    findings: list[Finding] = []
    for site in fn.calls:
        if site.discarded and site.terminal in _TASK_SPAWNERS:
            findings.append(_finding(
                fn, site.lineno, site.col, "orphan-task",
                f"{site.raw or site.terminal}() task handle is dropped; "
                f"the task can be collected mid-flight and its exception "
                f"is lost — retain it and add a done-callback",
            ))
    return findings


# ----------------------------------------------------------- cpu-bound-handler


def _loop_iter_is_requesty(iter_node: ast.expr) -> bool:
    """An unbounded iteration over a request-scaled collection?"""
    node = iter_node
    # Slices and islice() bound the scan; list()/sorted()/values() etc.
    # are pass-throughs that keep it unbounded.
    while isinstance(node, ast.Call):
        name = (
            node.func.attr if isinstance(node.func, ast.Attribute)
            else node.func.id if isinstance(node.func, ast.Name)
            else None
        )
        if name == "islice":
            return False
        if not node.args:
            node = node.func  # x.values() -> inspect the receiver chain
            break
        node = node.args[0]
    if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice):
        return False
    terminals: list[str] = []
    for child in ast.walk(node):
        if isinstance(child, ast.Attribute):
            terminals.append(child.attr.lower())
        elif isinstance(child, ast.Name):
            terminals.append(child.id.lower())
    return any(
        frag in name for name in terminals for frag in _REQUESTY_FRAGMENTS
    )


def _check_cpu_bound(fn: FunctionNode) -> list[Finding]:
    """Unbounded loops over request collections inside serving handlers
    (including their deferred closures — those run on the loop too)."""
    findings: list[Finding] = []
    for node in ast.walk(fn.node):
        if isinstance(node, ast.For) and _loop_iter_is_requesty(node.iter):
            findings.append(_finding(
                fn, node.lineno, node.col_offset + 1, "cpu-bound-handler",
                f"handler {fn.name}() iterates an unbounded request "
                f"collection on the event loop; bound the scan (slice / "
                f"islice) or defer it to the epoch loop",
            ))
        elif isinstance(node, ast.While):
            test = node.test
            infinite = (
                isinstance(test, ast.Constant) and test.value is True
            )
            if infinite and not any(
                isinstance(sub, (ast.Break, ast.Await, ast.Return))
                for sub in ast.walk(node)
            ):
                findings.append(_finding(
                    fn, node.lineno, node.col_offset + 1,
                    "cpu-bound-handler",
                    f"handler {fn.name}() spins in a while-True loop with "
                    f"no await/break; nothing else runs on the loop",
                ))
    return findings

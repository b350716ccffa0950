"""Launcher for the live workloads' traced run.

``python traced_server.py <serve arguments>`` is ``python -m repro serve
<serve arguments>`` with the ledger's span timers installed first (see
:mod:`layers`) and one extra route, ``GET /v1/ledger/spans[?reset=1]``,
through which the harness reads the span table at phase boundaries.  The
untraced runs that produce the end-to-end numbers start ``python -m
repro serve`` itself; this file is the only place the live plane is
interposed on, and it lives with the benchmark.

The event loop is traced too, because the server's CPU that no layer
claims is mostly spent there: ``asyncio.loop`` is one loop iteration
minus the callbacks it ran (socket reads, timer heap, handle dispatch)
and ``asyncio.idle`` the time blocked in ``select`` -- wall time the
process did not use, kept out of the CPU reconciliation.
"""

from __future__ import annotations

import asyncio
import json
import selectors
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

from spans import Recorder  # noqa: E402
import layers  # noqa: E402


def _trace_event_loop(rec: Recorder) -> None:
    """Make ``asyncio.run`` build a loop whose iterations are spans."""
    base = asyncio.SelectorEventLoop
    run_once = rec.wrap(base._run_once, "asyncio.loop:_run_once")

    class TimedSelector(selectors.DefaultSelector):
        pass

    TimedSelector.select = rec.wrap(  # type: ignore[method-assign]
        selectors.DefaultSelector.select, "asyncio.idle:select"
    )

    class TracedLoop(base):  # type: ignore[misc,valid-type]
        def __init__(self) -> None:
            super().__init__(TimedSelector())

        _run_once = run_once

    class Policy(asyncio.DefaultEventLoopPolicy):
        def new_event_loop(self):
            return TracedLoop()

    asyncio.set_event_loop_policy(Policy())


def _add_spans_route(rec: Recorder) -> None:
    from repro.serving import server

    install_routes = server.NexusServer._install_routes

    def spans(params: dict[str, str], body: bytes):
        snap = rec.snapshot(reset=params.get("reset") == "1")
        snap["process_cpu_ms"] = time.process_time() * 1e3
        snap["wall_ms"] = time.perf_counter() * 1e3
        return 200, json.dumps(snap, separators=(",", ":")).encode()

    def traced_install_routes(self) -> None:
        install_routes(self)
        self._http.get("/v1/ledger/spans", spans)

    server.NexusServer._install_routes = traced_install_routes


def main(argv: list[str]) -> int:
    rec = Recorder()
    layers.install(rec)
    rec.trace_gc()
    _trace_event_loop(rec)
    _add_spans_route(rec)
    from repro.cli import main as cli_main

    return cli_main(["serve", *argv])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

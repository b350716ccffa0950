"""NexusServer: the live HTTP frontend over a wall-clock ServingRuntime.

``python -m repro serve`` builds one of these: a
:class:`~repro.serving.runtime.ServingRuntime` driven by an
:class:`~repro.runtime.clock.AsyncioEventSource` (so backends, retries,
leases and epochs all run on real milliseconds), fronted by the REST
surface below.

REST API (all JSON):

=======  =============== ==================================================
method   path            semantics
=======  =============== ==================================================
GET      /v1/healthz     liveness + uptime
GET      /v1/invoke      ``?app=NAME``: submit one query, respond when it
                         completes (``ok`` reflects the SLO verdict)
GET      /v1/plan        the deployed schedule plan
GET      /v1/metrics     aggregate serving statistics
POST     /v1/apps        register an app spec and redeploy
POST     /v1/shutdown    drain and stop the server
=======  =============== ==================================================
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import replace

from ..cluster.nexus import ClusterConfig, NexusCluster
from ..runtime.clock import AsyncioEventSource
from .http import HttpServer, json_bytes
from .runtime import ServingRuntime, parse_app_spec

__all__ = ["NexusServer"]

_OK = (200, b'{"status":"ok"}')


class NexusServer:
    """HTTP frontend + wall-clock epoch loop around a ServingRuntime."""

    def __init__(
        self,
        config: ClusterConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 8642,
        trace: bool = False,
        loop: asyncio.AbstractEventLoop | None = None,
    ) -> None:
        self.loop = loop or asyncio.get_event_loop()
        self.events = AsyncioEventSource(self.loop)
        # Always summary mode: a live server's request count is unbounded,
        # and nothing on this plane reads more than counters, per-session
        # stats and histogram percentiles, so no outcome is retained.
        cfg = replace(config or ClusterConfig(), summary_metrics=True)
        self.runtime = ServingRuntime(
            self.events, NexusCluster(cfg), trace=trace,
            max_backends=cfg.max_gpus,
        )
        self.host = host
        self.port = port
        self._http = HttpServer(self.loop)
        self._install_routes()
        self._shutdown = self.loop.create_future()
        self.bound_port: int | None = None

    # -------------------------------------------------------------- routes

    def _install_routes(self) -> None:
        http = self._http
        http.get("/v1/healthz", self._h_healthz)
        http.get("/v1/invoke", self._h_invoke)
        http.get("/v1/plan", self._h_plan)
        http.get("/v1/metrics", self._h_metrics)
        http.post("/v1/apps", self._h_apps)
        http.post("/v1/shutdown", self._h_shutdown)

    def _h_healthz(self, params: dict[str, str], body: bytes):
        return 200, json_bytes({
            "status": "ok",
            "uptime_ms": self.events.now,
            "apps": self.runtime.app_names,
        })

    def _h_invoke(self, params: dict[str, str], body: bytes):
        app = params.get("app")
        if not app:
            return 400, b'{"error":"missing app parameter"}'
        submit = self.runtime.submit

        # Deferred response: the query's completion hook writes straight
        # into this request's in-order slot -- no per-request future,
        # coroutine, or task on the hot path.
        def deferred(respond) -> None:
            def on_done(instance) -> None:
                # Hand-rolled payload: hot path, all-scalar fields.
                respond(200, b'{"ok":%s,"latency_ms":%.3f}' % (
                    b"false" if instance.failed else b"true",
                    instance.completion_ms - instance.arrival_ms,
                ))

            try:
                submit(app, on_done)
            except KeyError:
                respond(404, json_bytes({"error": f"unknown app {app!r}"}))

        return deferred

    def _h_plan(self, params: dict[str, str], body: bytes):
        return 200, json_bytes(self.runtime.plan_summary())

    def _h_metrics(self, params: dict[str, str], body: bytes):
        return 200, json_bytes(self.runtime.stats())

    def _h_apps(self, params: dict[str, str], body: bytes):
        try:
            spec = json.loads(body or b"{}")
            query, rate, arrival = parse_app_spec(
                spec["spec"], self.runtime.config.device
            )
            if "rate_rps" in spec:
                rate = float(spec["rate_rps"])
            self.runtime.add_app(query, rate, arrival)
            plan = self.runtime.deploy()
        except (KeyError, ValueError) as exc:
            return 400, json_bytes({"error": str(exc)})
        return 200, json_bytes({
            "registered": query.name, "gpus": plan.num_gpus,
        })

    def _h_shutdown(self, params: dict[str, str], body: bytes):
        if not self._shutdown.done():
            self._shutdown.set_result(None)
        return _OK

    # ----------------------------------------------------------- lifecycle

    async def start(self) -> int:
        """Deploy registered apps, start control loops, bind the socket."""
        if self.runtime.planner.apps:
            self.runtime.deploy()
        if self.runtime.config.dynamic:
            self.runtime.start_epoch_loop()
        self.runtime.core.install_heartbeat(
            self.runtime.config.heartbeat_ms,
            self.runtime.config.lease_ms,
        )
        _, port = await self._http.serve(self.host, self.port)
        self.bound_port = port
        return port

    async def wait_shutdown(self) -> None:
        await self._shutdown

    async def stop(self) -> None:
        self.runtime.stop()
        await self._http.close()

"""The live serving plane: spec parsing, driver equivalence, HTTP, loadgen.

Three layers of coverage:

- :func:`repro.serving.runtime.parse_app_spec` -- the CLI/REST app
  grammar;
- driver equivalence -- the same arrival trace submitted to a
  :class:`~repro.serving.runtime.ServingRuntime` once under the
  :class:`~repro.simulation.simulator.Simulator` and once under the
  independently implemented
  :class:`~repro.runtime.clock.ManualEventSource` must produce
  byte-identical dispatch outcomes (same completions, same drops, same
  timestamps) -- the tentpole's "the simulator is just one driver"
  claim, tested;
- the asyncio HTTP frontend and open-loop load generator, exercised
  in-process over real sockets (response ordering under pipelining, the
  REST surface, and a short serve+loadgen burst).
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.cluster.nexus import ClusterConfig
from repro.runtime.clock import ManualEventSource
from repro.serving.loadgen import _fetch_json, run_loadgen, wait_ready
from repro.serving.runtime import (
    ServingRuntime,
    parse_app_spec,
    single_model_query,
)
from repro.serving.server import NexusServer
from repro.simulation.simulator import Simulator
from repro.workloads.arrivals import poisson_arrivals


class TestParseAppSpec:
    def test_model_slo_rate_form(self):
        query, rate, arrival = parse_app_spec("lenet5:50:1000", "gtx1080ti")
        assert query.name == "lenet5"
        assert query.slo_ms == 50.0
        assert rate == 1000.0
        assert arrival == "poisson"

    def test_paper_app_form(self):
        query, rate, _ = parse_app_spec("app=traffic:120", "gtx1080ti")
        assert rate == 120.0
        assert query.name  # a real multi-stage paper application

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError, match="unknown app"):
            parse_app_spec("app=nosuch:10", "gtx1080ti")

    def test_malformed_specs_rejected(self):
        for bad in ("lenet5", "lenet5:fast:10", "app=traffic"):
            with pytest.raises(ValueError):
                parse_app_spec(bad, "gtx1080ti")

    def test_single_model_query_carries_slo(self):
        query = single_model_query("lenet5", 75.0, "gtx1080ti")
        assert query.slo_ms == 75.0
        assert query.root.model_id == "lenet5"


class TestDriverEquivalence:
    """Same trace, two drivers, identical decisions."""

    RATE_RPS = 400.0
    SLO_MS = 50.0
    DURATION_MS = 1_500.0
    HORIZON_MS = 5_000.0

    def _run_driver(self, events):
        cfg = ClusterConfig(max_gpus=4, seed=11)
        runtime = ServingRuntime(events, cfg)
        runtime.add_app(
            single_model_query("lenet5", self.SLO_MS, cfg.device),
            self.RATE_RPS,
        )
        runtime.deploy()
        outcomes = []

        def on_done(instance):
            outcomes.append((
                instance.arrival_ms, instance.completion_ms,
                instance.failed,
            ))

        times_ms = poisson_arrivals(
            self.RATE_RPS, self.DURATION_MS, seed=7
        )
        for t in times_ms:
            events.schedule_at(t, lambda: runtime.submit("lenet5", on_done))
        events.run_until(self.HORIZON_MS)
        qm = runtime.core.query_metrics
        counters = (
            qm.total, qm.ok_count, qm.dropped_count, qm.late_count,
        )
        return len(times_ms), outcomes, counters

    def test_sim_and_manual_drivers_agree_byte_for_byte(self):
        submitted_sim, outcomes_sim, counters_sim = self._run_driver(
            Simulator()
        )
        submitted_man, outcomes_man, counters_man = self._run_driver(
            ManualEventSource()
        )
        assert submitted_sim == submitted_man
        # Every submitted query resolved under both drivers.
        assert len(outcomes_sim) == submitted_sim
        assert len(outcomes_man) == submitted_man
        # Identical outcome streams: same order, same float timestamps,
        # same SLO verdicts -- no tolerance, the decisions must match
        # exactly for the "one runtime core, two drivers" claim to hold.
        assert outcomes_sim == outcomes_man
        assert counters_sim == counters_man
        # The run is non-degenerate: some queries complete ok.
        assert counters_sim[1] > 0


class _Captured(Exception):
    """Raised by the RuntimeCore stand-in once it has seen its knobs."""


class TestPoolConfigParity:
    """The live runtime serves with the simulator driver's pool knobs."""

    def test_fleet_config_reaches_the_live_pool(self, monkeypatch):
        from dataclasses import replace

        from repro.cluster import nexus
        from repro.models.gpus import make_fleet

        cfg = ClusterConfig(
            max_gpus=8, fleet=make_fleet({"gtx1080ti": 4, "t4": 4}),
            retry_max=5, retry_backoff_ms=2.0,
        )
        seen = {}

        def capture(events, pool_config=None, retry_policy=None, **_):
            seen["pool"], seen["retry"] = pool_config, retry_policy
            raise _Captured

        with monkeypatch.context() as patch:
            patch.setattr(nexus, "RuntimeCore", capture)
            with pytest.raises(_Captured):
                nexus.NexusCluster(cfg).run(1_000.0)

        live = ServingRuntime(Simulator(), cfg).core
        assert live.pool.config.fleet is cfg.fleet
        # The one knob the drivers choose differently: the simulator caps
        # backends only under faults, the live pool always.
        assert seen["pool"].max_backends is None
        assert live.pool.config == replace(seen["pool"], max_backends=8)
        assert live.frontends[0].retry_policy == seen["retry"]


async def _post_json(host: str, port: int, path: str, payload: dict) -> dict:
    """POST helper (Connection: close; reads to EOF)."""
    reader, writer = await asyncio.open_connection(host, port)
    body = json.dumps(payload).encode()
    writer.write(
        b"POST %s HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n"
        b"Connection: close\r\n\r\n%s" % (path.encode(), len(body), body)
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, response_body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return {"status": status, "body": json.loads(response_body or b"{}")}


def _make_server() -> NexusServer:
    cfg = ClusterConfig(max_gpus=4)
    server = NexusServer(config=cfg, port=0)
    server.runtime.add_app(
        single_model_query("lenet5", 100.0, cfg.device), 500.0
    )
    return server


class TestHttpServerCloseRace:
    def test_close_does_not_clobber_concurrent_serve(self):
        """Regression (found by asynclint's interleaved-state-mutation):
        ``HttpServer.close()`` used to null ``self._server`` *after*
        awaiting ``wait_closed()``.  A ``serve()`` completing during that
        suspension installed a fresh listener, and the resumed close then
        silently clobbered it — a live server with no handle."""
        from repro.serving.http import HttpServer

        class _StubServer:
            def __init__(self):
                self.closed = False

            def close(self):
                self.closed = True

            async def wait_closed(self):
                await asyncio.sleep(0)
                await asyncio.sleep(0)

        async def scenario():
            loop = asyncio.get_event_loop()
            http = HttpServer(loop)
            old = _StubServer()
            http._server = old
            closing = loop.create_task(http.close())
            await asyncio.sleep(0)  # let close() suspend in wait_closed()
            new = _StubServer()
            http._server = new      # concurrent serve() lands here
            await closing
            assert old.closed
            assert http._server is new, (
                "close() clobbered the server installed during its await"
            )

        asyncio.run(scenario())


class TestHttpSurface:
    def test_rest_endpoints(self):
        async def scenario():
            server = _make_server()
            port = await server.start()
            try:
                health = await _fetch_json("127.0.0.1", port, "/v1/healthz")
                assert health["status"] == "ok"
                assert health["apps"] == ["lenet5"]

                plan = await _fetch_json("127.0.0.1", port, "/v1/plan")
                assert plan["deployed"] and plan["gpus"] >= 1

                metrics = await _fetch_json("127.0.0.1", port, "/v1/metrics")
                assert metrics["queries"] == 0

                registered = await _post_json(
                    "127.0.0.1", port, "/v1/apps",
                    {"spec": "squeezenet:40:100"},
                )
                assert registered["status"] == 200
                assert registered["body"]["registered"] == "squeezenet"

                duplicate = await _post_json(
                    "127.0.0.1", port, "/v1/apps",
                    {"spec": "lenet5:50:100"},
                )
                assert duplicate["status"] == 400
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_pipelined_responses_keep_request_order(self):
        """A sync response queued behind a pending invoke slot must wait."""
        async def scenario():
            server = _make_server()
            port = await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                # One deferred invoke, then two immediate requests, in a
                # single write; responses must come back in that order.
                writer.write(
                    b"GET /v1/invoke?app=lenet5 HTTP/1.1\r\nHost: t\r\n\r\n"
                    b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n"
                    b"GET /no/such/route HTTP/1.1\r\nHost: t\r\n"
                    b"Connection: close\r\n\r\n"
                )
                await writer.drain()
                raw = await reader.read()  # server closes after the 3rd
                writer.close()
            finally:
                await server.stop()
            statuses = [
                int(chunk.split(b" ", 1)[0])
                for chunk in raw.split(b"HTTP/1.1 ")[1:]
            ]
            bodies = [
                chunk.rpartition(b"\r\n\r\n")[2]
                for chunk in raw.split(b"HTTP/1.1 ")[1:]
            ]
            assert statuses == [200, 200, 404]
            assert bodies[0].startswith(b'{"ok":')     # the invoke verdict
            assert b'"status":"ok"' in bodies[1]       # healthz second
            return raw

        asyncio.run(scenario())

    def test_invoke_validates_app(self):
        async def scenario():
            server = _make_server()
            port = await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(
                    b"GET /v1/invoke HTTP/1.1\r\nHost: t\r\n\r\n"
                    b"GET /v1/invoke?app=nosuch HTTP/1.1\r\nHost: t\r\n"
                    b"Connection: close\r\n\r\n"
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
            finally:
                await server.stop()
            statuses = [
                int(chunk.split(b" ", 1)[0])
                for chunk in raw.split(b"HTTP/1.1 ")[1:]
            ]
            assert statuses == [400, 404]

        asyncio.run(scenario())


class TestServeLoadgenEndToEnd:
    def test_short_open_loop_burst(self):
        """serve + loadgen in-process: non-zero goodput, clean shutdown."""
        async def scenario():
            server = _make_server()
            port = await server.start()
            try:
                await wait_ready("127.0.0.1", port, timeout_s=5.0)
                report = await run_loadgen(
                    "127.0.0.1", port, "lenet5",
                    rate_rps=300.0, duration_s=1.0,
                    connections=2, seed=3,
                )
            finally:
                shutdown = await _post_json(
                    "127.0.0.1", port, "/v1/shutdown", {}
                )
                await server.wait_shutdown()
                await server.stop()
            assert shutdown["status"] == 200
            return report

        report = asyncio.run(scenario())
        # Open loop: every arrival was sent and every send was answered.
        assert report.sent > 0
        assert report.responses == report.sent
        # Non-zero goodput through the real stack (the first ~50 ms of
        # requests land in the model-load window and may drop).
        assert report.ok > 0
        assert report.achieved_rps > 0
        assert report.latency_p99_ms > 0
        stats = report.server_stats
        assert stats["queries"] == report.sent
        assert stats["goodput_rps"] > 0

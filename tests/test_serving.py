"""The live serving plane: specs, driver equivalence, metrics, HTTP, loadgen.

Four layers of coverage:

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
- the record-time metric fold -- ``stats()`` against exact tallies of
  the outcomes callers saw, with no per-request record retained;
- the asyncio HTTP frontend and open-loop load generator, exercised
  in-process over real sockets (response ordering under pipelining, the
  REST surface, and a short serve+loadgen burst).
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import pytest

import repro
from repro.cluster.faults import FaultPlan
from repro.cluster.nexus import ClusterConfig, NexusCluster
from repro.models.gpus import make_fleet
from repro.runtime.clock import ManualEventSource
from repro.serving.loadgen import _fetch_json, run_loadgen, wait_ready
from repro.serving.runtime import (
    ServingRuntime,
    parse_app_spec,
    single_model_query,
)
from repro.serving.server import NexusServer
from repro.simulation.simulator import Simulator
from repro.workloads.apps import traffic_query
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


class TestLazyServingImports:
    """A simulated run reaches ``repro.serving.runtime``; it must not pay
    for asyncio, ssl or the HTTP server."""

    def test_a_simulated_run_loads_no_event_loop_or_server(self):
        src = pathlib.Path(repro.__file__).resolve().parent.parent
        probe = (
            "import sys, repro.cluster.nexus, repro.serving.runtime\n"
            "print(*[m for m in ('asyncio', 'ssl', 'repro.serving.server')"
            " if m in sys.modules])"
        )
        env = {**os.environ, "PYTHONPATH": str(src)}
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True,
            text=True, timeout=120, check=True,
        )
        assert result.stdout.strip() == ""

    def test_package_names_resolve_on_first_access(self):
        import repro.serving as serving

        assert serving.NexusServer is NexusServer
        assert serving.ServingRuntime is ServingRuntime
        assert serving.run_loadgen is run_loadgen
        assert serving.parse_app_spec is parse_app_spec
        assert serving.LoadgenReport.__module__ == "repro.serving.loadgen"
        with pytest.raises(AttributeError):
            serving.no_such_name  # noqa: B018


class TestDriverEquivalence:
    """Same trace, two drivers, identical decisions."""

    RATE_RPS = 400.0
    SLO_MS = 50.0
    DURATION_MS = 1_500.0
    HORIZON_MS = 5_000.0

    def _run_driver(self, events):
        cfg = ClusterConfig(max_gpus=4, seed=11)
        runtime = ServingRuntime(events, NexusCluster(cfg))
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


def _exact_percentile(latencies: list[float], pct: float) -> float:
    """The retained-records percentile: nearest rank over sorted values."""
    lats = sorted(latencies)
    idx = min(len(lats) - 1, math.ceil(pct / 100.0 * len(lats)) - 1)
    return lats[max(0, idx)]


class TestLiveMetricsFold:
    """The live runtime folds outcomes at record time: nothing per request
    is retained, and ``/v1/metrics`` agrees with the outcomes callers saw."""

    STATS_KEYS = {
        "now_ms", "span_ms", "queries", "good_rate", "bad_rate",
        "goodput_rps", "latency_p50_ms", "latency_p99_ms", "dropped",
        "late", "epochs", "gpus",
    }

    def test_stats_match_exact_tallies(self):
        events = Simulator()
        cfg = ClusterConfig(max_gpus=12, seed=3, summary_metrics=True)
        runtime = ServingRuntime(events, NexusCluster(cfg))
        runtime.add_app(single_model_query("lenet5", 50.0, cfg.device), 2_000.0)
        runtime.add_app(traffic_query(cfg.device), 60.0)
        runtime.deploy()
        outcomes = []

        def on_done(instance):
            outcomes.append((
                instance.failed, instance.arrival_ms, instance.deadline_ms,
                instance.completion_ms,
            ))

        for seed, (app, rate) in enumerate(
            (("lenet5", 2_000.0), (runtime.app_names[1], 60.0))
        ):
            for t in poisson_arrivals(rate, 2_500.0, seed=seed):
                events.schedule_at(
                    t, lambda app=app: runtime.submit(app, on_done)
                )
        events.run_until(6_000.0)

        core = runtime.core
        assert core.query_metrics.records == []
        assert core.invocation_metrics.records == []
        # Multi-stage queries fan out: more stage requests than queries.
        assert core.invocation_metrics.total > len(outcomes)

        dropped = sum(1 for failed, *_ in outcomes if failed)
        served = [
            (completion - arrival, completion <= deadline)
            for failed, arrival, deadline, completion in outcomes
            if not failed
        ]
        ok = sum(1 for _, in_slo in served if in_slo)
        stats = runtime.stats()
        assert set(stats) == self.STATS_KEYS
        assert len(outcomes) > 5_000
        assert stats["queries"] == len(outcomes)
        assert stats["dropped"] == dropped
        assert stats["late"] == len(served) - ok
        assert stats["good_rate"] == ok / len(outcomes)
        assert 0 < ok < len(outcomes)  # some outcomes miss their SLO
        latencies = [lat for lat, _ in served]
        for key, pct in (("latency_p50_ms", 50.0), ("latency_p99_ms", 99.0)):
            exact = _exact_percentile(latencies, pct)
            assert exact * (1 - 1e-9) <= stats[key] <= exact * 1.05 * (1 + 1e-9)


class _Captured(Exception):
    """Raised by the RuntimeCore stand-in once it has seen its knobs."""


class TestPoolConfigParity:
    """Every driver builds its RuntimeCore in one place, from the config."""

    CFG = ClusterConfig(
        max_gpus=8, fleet=make_fleet({"gtx1080ti": 4, "t4": 4}),
        retry_max=5, retry_backoff_ms=2.0,
    )

    @staticmethod
    def _capture(monkeypatch, build):
        """The knobs ``build()`` hands the one ``RuntimeCore(...)``."""
        from repro.serving import runtime

        seen = {}

        def capture(events, **kwargs):
            seen.update(kwargs)
            raise _Captured

        with monkeypatch.context() as patch:
            patch.setattr(runtime, "RuntimeCore", capture)
            with pytest.raises(_Captured):
                build()
        return seen

    def test_config_reaches_the_one_core(self, monkeypatch):
        seen = self._capture(
            monkeypatch, lambda: NexusCluster(self.CFG).run(1_000.0)
        )
        pool, retry = seen["pool_config"], seen["retry_policy"]
        assert pool.fleet is self.CFG.fleet
        assert pool.validate_plans
        assert (retry.max_retries, retry.backoff_ms) == (5, 2.0)
        assert seen["num_frontends"] == self.CFG.num_frontends
        assert seen["summary_metrics"] is False

    def test_fault_free_simulation_is_uncapped(self, monkeypatch):
        seen = self._capture(
            monkeypatch, lambda: NexusCluster(self.CFG).run(1_000.0)
        )
        assert seen["pool_config"].max_backends is None
        faulted = self._capture(
            monkeypatch,
            lambda: NexusCluster(self.CFG).run(1_000.0, faults=FaultPlan()),
        )
        assert faulted["pool_config"].max_backends == 8

    def test_fleet_config_reaches_the_live_pool(self, monkeypatch):
        loop = asyncio.new_event_loop()
        try:
            seen = self._capture(
                monkeypatch,
                lambda: NexusServer(config=self.CFG, port=0, loop=loop),
            )
        finally:
            loop.close()
        # The live server folds and caps at max_gpus whatever the caller's
        # config says (and leaves that config untouched).
        assert self.CFG.summary_metrics is False
        assert seen["summary_metrics"] is True
        assert seen["pool_config"].fleet is self.CFG.fleet
        assert seen["pool_config"].max_backends == 8
        sim = self._capture(
            monkeypatch, lambda: NexusCluster(self.CFG).run(1_000.0)
        )
        assert seen["pool_config"] == replace(
            sim["pool_config"], max_backends=8
        )
        assert seen["retry_policy"] == sim["retry_policy"]


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

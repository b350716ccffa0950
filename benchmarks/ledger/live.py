"""The two live workloads: a real server process under the ledger's load.

``live_lenet_open`` and ``live_apps_dynamic`` start ``python -m repro
serve`` (or, for a traced run, :mod:`traced_server`) as a subprocess,
drive it from this process with :mod:`loadgen`, read the server's CPU
and memory from ``/proc``, and stop it through ``POST /v1/shutdown``.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import re
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import loadgen
from estimators import metric, window_stat, windows

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
HOST = "127.0.0.1"
SETUP_SAMPLES = 5

LENET_ARGS = ["--app", "lenet5:50:25000"]
LENET_RPS = 8000.0
LENET_WARM_S = 2.0
LENET_BASE_SHARE = 0.7          # of the measured seconds; the rest is `sat`
SAT_WINDOW = 1024
SAT_RAMP_S = 0.5

DYNAMIC_APPS = [
    "app=traffic:300", "app=amber:60", "app=dance:60", "app=bb:60",
    "app=bike:60", "app=logo:60", "squeezenet:40:1000",
    "lenet5:100:50", "googlenet:100:50", "resnet50:100:50",
    "mobilenet_v1:100:50", "vgg16:100:50", "inception_v3:100:50",
]
DYNAMIC_EPOCH_MS = 2000
DYNAMIC_WARM_S = 6.0
TRAFFIC_RPS = 300.0
SQUEEZENET_RPS = 1000.0
#: registered mid-run, at these shares of the measured phase
LATE_APPS = [(0.4, "alexnet:80:200"), (0.6, "resnet18:80:200"),
             (0.8, "inception_v4:200:50")]
#: the windows whose median a timing is (see estimators.py).  The lenet
#: tail takes few, wide windows: the collector's full passes over the
#: retained records stall the loop about once a second, so a 1 s window
#: either holds one or does not and its p99 flips between two values.
#: The dynamic windows are whole epochs, one re-plan in each; the
#: complex-query stream is a third as fast and gets wider windows to keep
#: at least ten samples beyond its p99.
LENET_TAIL_WINDOWS = 5
LENET_WINDOW_S = 1.0
SAT_WINDOW_S = 0.5
DYNAMIC_WINDOW_S = 2.0
DYNAMIC_CQ_WINDOW_S = 4.0
#: `/v1/metrics` reads timed after `base`, on the records it retained
METRICS_POLLS = 3
#: connections open, first requests due this long after the phase call
START_DELAY_S = 0.2


# ------------------------------------------------------------ the server


@dataclass
class Server:
    proc: subprocess.Popen
    port: int
    setup_s: float
    banner: str

    @property
    def pid(self) -> int:
        return self.proc.pid

    def cpu_s(self) -> float:
        """Seconds the server's threads have spent on a CPU so far
        (``/proc/<pid>/task/*/schedstat``: nanosecond resolution, where
        ``/proc/<pid>/stat`` counts 10 ms ticks)."""
        total = 0
        for task in os.listdir(f"/proc/{self.pid}/task"):
            with open(f"/proc/{self.pid}/task/{task}/schedstat", "rb") as fh:
                total += int(fh.read().split()[0])
        return total / 1e9

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")


def read_line(proc: subprocess.Popen, timeout_s: float) -> str:
    """The child's next stdout line, or '' on EOF / timeout."""
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        if not sel.select(timeout_s):
            return ""
    return proc.stdout.readline()


def spawn_server(args: list[str], traced: bool) -> Server:
    """Start the server; ``setup_s`` runs from spawn to the first 200
    from ``/v1/healthz``."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    if traced:
        cmd = [sys.executable, str(HERE / "traced_server.py")]
    else:
        cmd = [sys.executable, "-m", "repro", "serve"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd + ["--port", "0", *args], env=env, cwd=str(ROOT),
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    banner = read_line(proc, 60.0)
    found = re.search(r"serving on http://[^:]+:(\d+) ", banner)
    if not found:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"server did not start: {banner!r}")
    port = int(found.group(1))
    while True:
        try:
            reply = asyncio.run(
                loadgen.request_once(HOST, port, "GET", "/v1/healthz")
            )
            if reply.status == 200:
                break
        except (OSError, RuntimeError):
            pass
        if time.perf_counter() - t0 > 60.0 or proc.poll() is not None:
            proc.kill()
            proc.wait()
            raise RuntimeError("server never became healthy")
        time.sleep(0.005)
    return Server(proc, port, time.perf_counter() - t0, banner.strip())


def stop_server(server: Server) -> bool:
    """Shut down through the REST surface; True for a clean exit."""
    try:
        asyncio.run(loadgen.request_once(
            HOST, server.port, "POST", "/v1/shutdown"))
    except (OSError, RuntimeError):
        pass
    try:
        out, _ = server.proc.communicate(timeout=15.0)
    except subprocess.TimeoutExpired:
        server.proc.kill()
        out, _ = server.proc.communicate()
    return server.proc.returncode == 0 and "server stopped cleanly" in out


def measured_setup(args: list[str], traced: bool) -> tuple[Server, list[float], bool]:
    """Set up ``SETUP_SAMPLES`` times; keep the last server running."""
    samples, clean = [], True
    for _ in range(SETUP_SAMPLES - 1):
        extra = spawn_server(args, traced)
        samples.append(extra.setup_s)
        clean = stop_server(extra) and clean
    server = spawn_server(args, traced)
    samples.append(server.setup_s)
    return server, samples, clean


# --------------------------------------------------------------- helpers


async def _get_json(port: int, path: str) -> dict:
    reply = await loadgen.request_once(HOST, port, "GET", path)
    if reply.status != 200:
        raise RuntimeError(f"GET {path} -> {reply.status}")
    return json.loads(reply.body)


async def _spans(port: int, traced: bool) -> dict | None:
    """Read-and-reset the traced server's span table."""
    if not traced:
        return None
    return await _get_json(port, "/v1/ledger/spans?reset=1")


def _plan_facts(plan: dict) -> dict:
    """Planned batch per session and mean planned occupancy."""
    batches: dict[str, list[int]] = {}
    for gpu in plan["plan"]:
        for alloc in gpu["sessions"]:
            batches.setdefault(alloc["session"], []).append(alloc["batch"])
    occupancy = [gpu["occupancy"] for gpu in plan["plan"]]
    return {
        "gpus": plan["gpus"],
        "planned_batch": {
            sid: sum(b) / len(b) for sid, b in batches.items()
        },
        "nodes": {sid: len(b) for sid, b in batches.items()},
        "planned_occupancy": sum(occupancy) / max(len(occupancy), 1),
    }


def _phase_trace(snapshot: dict | None, since: dict | None,
                 responses: int, extra: dict) -> dict | None:
    """A phase's span table with the CPU and wall it must add up to.

    Both come from the server's own clocks, read in the same handler
    that read (and cleared) the spans: ``since`` is the previous read.
    """
    if snapshot is None or since is None:
        return None
    snapshot["server_cpu_ms"] = (
        snapshot["process_cpu_ms"] - since["process_cpu_ms"])
    snapshot["wall_ms"] = snapshot["wall_ms"] - since["wall_ms"]
    snapshot["responses"] = responses
    snapshot.update(extra)
    return snapshot


def _spans_at(port: int, when: float, traced: bool) -> "asyncio.Task | None":
    """Read-and-reset the span table at ``when`` (the end of warm-up),
    while the load keeps running."""
    if not traced:
        return None

    async def read() -> dict | None:
        await asyncio.sleep(when - time.perf_counter())
        return await _spans(port, True)

    return asyncio.ensure_future(read())


class CpuSampler:
    """Reads the server's CPU clock at window edges while load runs."""

    def __init__(self, server: Server, start: float, width: float,
                 count: int) -> None:
        self.samples: list[tuple[float, float]] = []
        loop = asyncio.get_running_loop()
        now = time.perf_counter()
        for k in range(count + 1):
            loop.call_later(start + k * width - now, self._read, server)

    def _read(self, server: Server) -> None:
        self.samples.append((time.perf_counter(), server.cpu_s()))

    def us_per_response(self, recv_s: np.ndarray) -> list[float]:
        """Server CPU per response, window by window (edges are the
        moments the clock was actually read)."""
        out = []
        for (t0, c0), (t1, c1) in zip(self.samples, self.samples[1:]):
            answered = int(np.count_nonzero((recv_s >= t0) & (recv_s < t1)))
            if answered:
                out.append(1e6 * (c1 - c0) / answered)
        return out


class OpenPhase:
    """The measured part of an open-loop run, stream by stream."""

    def __init__(self, results: list[loadgen.StreamResult], start: float):
        keep = [r.due_s >= start for r in results]
        self.lat = [r.latency_ms[k] for r, k in zip(results, keep)]
        self.due = [r.due_s[k] for r, k in zip(results, keep)]
        self.code = [r.code[k] for r, k in zip(results, keep)]
        self.lag = np.concatenate(
            [r.send_lag_ms[k] for r, k in zip(results, keep)])

    def sent(self, i: int | None = None) -> int:
        return sum(x.size for x in self._pick(self.lat, i))

    def answered(self, i: int | None = None) -> int:
        return sum(
            int(np.count_nonzero(~np.isnan(x))) for x in self._pick(self.lat, i))

    def ok(self, i: int | None = None) -> int:
        return sum(
            int(np.count_nonzero(x == 2)) for x in self._pick(self.code, i))

    def bad_status(self) -> int:
        return sum(
            int(np.count_nonzero((c == 0) & ~np.isnan(x)))
            for c, x in zip(self.code, self.lat))

    @staticmethod
    def _pick(arrays: list[np.ndarray], i: int | None) -> list[np.ndarray]:
        return arrays if i is None else [arrays[i]]

    def merged(self, streams: list[int]) -> tuple[np.ndarray, np.ndarray]:
        return (np.concatenate([self.lat[i] for i in streams]),
                np.concatenate([self.due[i] for i in streams]))

    def recv_s(self) -> np.ndarray:
        """Absolute receive time of every answered request."""
        lat = np.concatenate(self.lat)
        due = np.concatenate(self.due)
        done = ~np.isnan(lat)
        return due[done] + lat[done] / 1e3


def _generator_check(lag_ms: np.ndarray, cpu_util: float) -> dict:
    """A generator that cannot keep up voids the run.

    Falling behind shows in every quantile of the send lag, a host
    hiccup only in the last one, so the rule is on the 90th percentile
    and the 99th is reported as a layer metric.
    """
    p90 = float(np.percentile(lag_ms, 90))
    return {
        "name": "load generator kept up (send lag p90 <= 5 ms, CPU <= 0.9)",
        "ok": p90 <= 5.0 and cpu_util <= 0.9,
        "detail": f"lag p90 {p90:.2f} ms, p99 "
                  f"{np.percentile(lag_ms, 99):.2f} ms, cpu {cpu_util:.2f}",
    }


# ------------------------------------------------------- live_lenet_open


async def _lenet_phases(server: Server, seed: int, seconds: float,
                        traced: bool) -> dict:
    port = server.port
    base_s = seconds * LENET_BASE_SHARE
    sat_s = seconds - base_s
    nconn = min(2, os.cpu_count() or 1)
    plan = _plan_facts(await _get_json(port, "/v1/plan"))

    streams = [
        loadgen.Stream(
            "lenet5",
            loadgen.poisson_offsets(
                LENET_RPS / nconn, LENET_WARM_S + base_s, seed * 1000 + k),
        )
        for k in range(nconn)
    ]
    t0 = time.perf_counter() + START_DELAY_S
    start = t0 + LENET_WARM_S
    count = max(1, round(base_s / LENET_WINDOW_S))
    width = base_s / count
    sampler = CpuSampler(server, start, width, count)
    boundary_task = _spans_at(port, start, traced)

    results, gen_util = await loadgen.run_open_loop(
        HOST, port, streams, LENET_WARM_S + base_s, t0)
    boundary = await boundary_task if boundary_task is not None else None
    base_spans = await _spans(port, traced)
    base_mark = dict(base_spans) if traced else None
    base = OpenPhase(results, start)
    # Memory is read here, where the request count is the schedule's: in
    # `sat` it would follow the response rate.
    peak_rss_mb = server.peak_rss_mb()
    sent_all = sum(r.sent for r in results)
    answered_all = sum(r.answered for r in results)

    # The metrics read sorts every record retained so far; it is timed
    # here, where their number is the schedule's (a layer metric).
    polls = []
    for _ in range(METRICS_POLLS):
        reply = await loadgen.request_once(HOST, port, "GET", "/v1/metrics")
        polls.append(reply.rtt_ms)
        stats = json.loads(reply.body)
    checks = [{
        "name": "base: client answered == server /v1/metrics queries",
        "ok": stats["queries"] == answered_all,
        "detail": f"client {answered_all}, server {stats['queries']}",
    }]

    # ---- phase sat: closed loop, fixed window per connection.  A capacity
    # probe: it overloads the server on purpose, so what early drop sheds
    # here is not a failure; an unanswered or non-200 request is.
    sat = await loadgen.run_closed_loop(
        HOST, port, "lenet5", nconn, SAT_WINDOW, sat_s)
    sat_spans = await _spans(port, traced)
    stats = await _get_json(port, "/v1/metrics")
    checks.append({
        "name": "sat: client answered == server /v1/metrics queries",
        "ok": stats["queries"] == answered_all + sat.answered,
        "detail": f"client {answered_all + sat.answered}, "
                  f"server {stats['queries']}",
    })
    unanswered = (sent_all - answered_all) + (sat.sent - sat.answered)
    checks.append({
        "name": "every request sent was answered",
        "ok": unanswered == 0,
        "detail": f"{unanswered} unanswered of {sent_all + sat.sent}",
    })
    checks.append(_generator_check(base.lag, max(gen_util, sat.cpu_util)))

    lat, due = base.merged(list(range(nconn)))
    p99s = window_stat(lat, windows(
        due, start, base_s / LENET_TAIL_WINDOWS, LENET_TAIL_WINDOWS), 99)
    answered_lat = lat[~np.isnan(lat)]
    cpu = sampler.us_per_response(base.recv_s())
    ramp_s = min(SAT_RAMP_S, sat_s / 3)
    sat_count = max(1, int((sat_s - ramp_s) / SAT_WINDOW_S))
    sat_width = (sat_s - ramp_s) / sat_count
    sat_masks = windows(sat.recv_s, sat.t0 + ramp_s, sat_width, sat_count)
    sat_rates = [float(np.count_nonzero(m)) / sat_width for m in sat_masks]
    sat_rtt = sat.rtt_ms[sat.recv_s >= sat.t0 + ramp_s]
    metrics = {
        "op_p50_ms": metric(
            np.median(answered_lat), "ms", answered_lat.size, "rtt_p50_ms"),
        "heavy_op_ms": metric(
            np.median(sat_rtt), "ms", sat_rtt.size, "sat_rtt_p50_ms"),
        "ops_per_s": metric(
            statistics.median(sat_rates), "1/s", len(sat_rates), "sat_rps"),
        "gpus_used": metric(plan["gpus"], "GPUs"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    trace = None
    if traced:
        facts = {"plan": plan, "session": "lenet5", "session_rps": LENET_RPS}
        trace = {
            "base": _phase_trace(base_spans, boundary, base.answered(), facts),
            "sat": _phase_trace(sat_spans, base_mark, sat.answered, facts),
        }
    return {
        "metrics": metrics,
        "demoted": {
            "loadgen.rtt_p99_ms": metric(
                statistics.median(p99s), "ms", len(p99s)),
            "loadgen.ctl_metrics_ms": metric(
                statistics.median(polls), "ms", len(polls)),
            "loadgen.server_cpu_us_per_req": metric(
                statistics.median(cpu), "us", len(cpu)),
        },
        "attempted": base.sent(),
        "in_slo": base.ok(),
        "failed": unanswered + base.bad_status() + sat.bad_status,
        "checks": checks,
        "trace": trace,
        # what derive.py needs beside the span tables
        "info": {
            "loadgen": {
                "send_lag_p99_ms": float(np.percentile(base.lag, 99)),
                "cpu_util": max(gen_util, sat.cpu_util),
            },
            "server": stats,
        },
    }


def live_lenet_open(seed: int, seconds: float, traced: bool) -> dict:
    return _run_live(LENET_ARGS, _lenet_phases, seed, seconds, traced)


# ----------------------------------------------------- live_apps_dynamic


async def _dynamic_phases(server: Server, seed: int, seconds: float,
                          traced: bool) -> dict:
    port = server.port
    total_s = DYNAMIC_WARM_S + seconds
    plan = _plan_facts(await _get_json(port, "/v1/plan"))

    controls = [
        loadgen.ControlOp(DYNAMIC_WARM_S + t, "metrics", "GET", "/v1/metrics")
        for t in np.arange(0.5, seconds, 1.0)
    ] + [
        loadgen.ControlOp(DYNAMIC_WARM_S + t, "plan", "GET", "/v1/plan")
        for t in np.arange(2.5, seconds, 5.0)
    ] + [
        loadgen.ControlOp(
            DYNAMIC_WARM_S + share * seconds, "apps", "POST", "/v1/apps",
            json.dumps({"spec": spec}).encode(),
        )
        for share, spec in LATE_APPS
    ]
    controls.sort(key=lambda op: op.offset_s)
    streams = [
        loadgen.Stream(
            "traffic0",
            loadgen.poisson_offsets(TRAFFIC_RPS, total_s, seed * 1000 + 1)),
        loadgen.Stream(
            "squeezenet",
            loadgen.poisson_offsets(SQUEEZENET_RPS, total_s, seed * 1000 + 2),
            controls),
    ]
    t0 = time.perf_counter() + START_DELAY_S
    start = t0 + DYNAMIC_WARM_S
    count = max(1, round(seconds / DYNAMIC_WINDOW_S))
    width = seconds / count
    sampler = CpuSampler(server, start, width, count)
    boundary_task = _spans_at(port, start, traced)

    results, gen_util = await loadgen.run_open_loop(
        HOST, port, streams, total_s, t0)
    boundary = await boundary_task if boundary_task is not None else None
    spans = await _spans(port, traced)
    phase = OpenPhase(results, start)
    traffic, squeeze = results
    answered_all = traffic.answered + squeeze.answered
    sent_all = traffic.sent + squeeze.sent
    stats = await _get_json(port, "/v1/metrics")
    final_plan = await _get_json(port, "/v1/plan")

    ctl = squeeze.controls
    polls = [c.rtt_ms for c in ctl if c.kind == "metrics"]
    registered = [c for c in ctl if c.kind == "apps"]
    checks = [{
        "name": "client answered == server /v1/metrics queries",
        "ok": stats["queries"] == answered_all,
        "detail": f"client {answered_all}, server {stats['queries']}",
    }, {
        "name": "every request sent was answered",
        "ok": sent_all == answered_all
              and len(ctl) == squeeze.controls_sent,
        "detail": f"{sent_all - answered_all} invokes and "
                  f"{squeeze.controls_sent - len(ctl)} control requests "
                  "unanswered",
    }, {
        "name": "control requests answered 200",
        "ok": all(c.status == 200 for c in ctl),
        "detail": f"{len(ctl)} control requests",
    }, {
        "name": "late apps registered and planned",
        "ok": len(registered) == len(LATE_APPS) and all(
            spec.split(":")[0] in final_plan["apps"] for _, spec in LATE_APPS
        ),
        "detail": f"{len(final_plan['apps'])} apps deployed",
    }, {
        "name": "re-planning ran",
        "ok": stats["epochs"] >= int(total_s * 1000 / DYNAMIC_EPOCH_MS) - 1,
        "detail": f"{stats['epochs']} epochs",
    }, _generator_check(phase.lag, gen_util)]

    TRAFFIC, SQUEEZE = 0, 1
    sq_lat, sq_due = phase.merged([SQUEEZE])
    tr_lat, tr_due = phase.merged([TRAFFIC])
    p99s = window_stat(sq_lat, windows(sq_due, start, width, count), 99)
    cq_count = max(1, round(seconds / DYNAMIC_CQ_WINDOW_S))
    cq_p99s = window_stat(
        tr_lat, windows(tr_due, start, seconds / cq_count, cq_count), 99)
    cpu = sampler.us_per_response(phase.recv_s())
    responses = phase.answered()
    metrics = {
        "op_p50_ms": metric(
            np.nanmedian(sq_lat), "ms", phase.answered(SQUEEZE), "rtt_p50_ms"),
        "heavy_op_ms": metric(
            statistics.median(cq_p99s), "ms", len(cq_p99s), "cq_rtt_p99_ms"),
        "ops_per_s": metric(
            phase.ok() / seconds, "1/s", phase.ok(), "goodput_rps"),
        "gpus_used": metric(plan["gpus"], "GPUs"),
        "peak_rss_mb": metric(server.peak_rss_mb(), "MB"),
    }
    hard_failures = (
        (sent_all - answered_all) + (squeeze.controls_sent - len(ctl))
        + phase.bad_status() + sum(1 for c in ctl if c.status != 200)
    )
    trace = None
    if traced:
        trace = {"measured": _phase_trace(
            spans, boundary, responses,
            {"plan": plan, "session": "squeezenet",
             "session_rps": SQUEEZENET_RPS})}
    return {
        "metrics": metrics,
        "demoted": {
            "loadgen.rtt_p99_ms": metric(
                statistics.median(p99s), "ms", len(p99s)),
            "loadgen.ctl_metrics_ms": metric(
                statistics.median(polls), "ms", len(polls)),
            "loadgen.server_cpu_us_per_req": metric(
                statistics.median(cpu), "us", len(cpu)),
        },
        "attempted": phase.sent() + squeeze.controls_sent,
        "in_slo": phase.ok() + sum(1 for c in ctl if c.status == 200),
        "failed": hard_failures,
        "checks": checks,
        "trace": trace,
        # what derive.py needs beside the span tables
        "info": {
            "loadgen": {
                "send_lag_p99_ms": float(np.percentile(phase.lag, 99)),
                "cpu_util": gen_util,
            },
            "server": stats,
        },
    }


def live_apps_dynamic(seed: int, seconds: float, traced: bool) -> dict:
    args = ["--dynamic", "--epoch-ms", str(DYNAMIC_EPOCH_MS)]
    for spec in DYNAMIC_APPS:
        args += ["--app", spec]
    return _run_live(args, _dynamic_phases, seed, seconds, traced)


# ----------------------------------------------------------------- driver


def _run_live(args: list[str], phases, seed: int, seconds: float,
              traced: bool) -> dict:
    server, setups, clean = measured_setup(args, traced)
    gc.collect()
    gc.disable()   # the generator allocates no cycles; keep its pauses out
    try:
        result = asyncio.run(phases(server, seed, seconds, traced))
    except BaseException:
        server.proc.kill()
        server.proc.wait()
        raise
    finally:
        gc.enable()
    clean = stop_server(server) and clean
    result["checks"].append({
        "name": "server stopped cleanly",
        "ok": clean,
        "detail": f"{len(setups)} servers started and stopped",
    })
    result["metrics"]["setup_s"] = metric(
        statistics.median(setups), "s", len(setups))
    return result

"""The ledger's own load generator: one process, few pipelined connections.

Owned by the benchmark so a later change cannot move a number by editing
``repro.serving.loadgen`` (which this module deliberately does not
import).  Differences from that generator that matter to the numbers:

- **open loop from a seeded schedule**: every request has a *due* time
  drawn from a seeded Poisson process before the phase starts, and its
  latency is timed from that due time, not from the moment the bytes
  left.  A server stall therefore charges every request that was due
  during the stall, which is what independent users would see.  How late
  the generator itself ran (``send_lag``) is reported so a slow generator
  cannot pass as a slow server;
- **closed loop with a fixed window** for saturation: each connection
  keeps ``window`` requests outstanding and refills exactly as many as
  were answered, so the offered load follows the server and the response
  rate is the capacity;
- at most ``nproc`` connections (2 on the reference box), HTTP/1.1
  pipelining, strict FIFO response matching per connection -- control
  requests (``/v1/metrics``, ``/v1/plan``, ``POST /v1/apps``) ride the
  same connection as the invoke stream they are scheduled beside.

Times are ``time.perf_counter()`` seconds throughout.
"""

from __future__ import annotations

import asyncio
import time
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ControlOp", "ControlResult", "Stream", "StreamResult",
    "poisson_offsets", "run_open_loop", "run_closed_loop", "request_once",
    "invoke_request",
]

_TICK_S = 0.001
_DRAIN_TIMEOUT_S = 8.0


def invoke_request(app: str) -> bytes:
    return (f"GET /v1/invoke?app={app} HTTP/1.1\r\nHost: ledger\r\n\r\n").encode()


def control_request(method: str, path: str, body: bytes = b"") -> bytes:
    head = f"{method} {path} HTTP/1.1\r\nHost: ledger\r\n"
    if method == "POST":
        head += f"Content-Length: {len(body)}\r\n"
    return head.encode() + b"\r\n" + body


def poisson_offsets(rate_rps: float, duration_s: float, seed: int) -> list[float]:
    """Seeded Poisson arrival offsets in ``[0, duration_s)`` seconds."""
    rng = np.random.default_rng(seed)
    n = int(rate_rps * duration_s * 1.2) + 64
    times = np.cumsum(rng.exponential(1.0 / rate_rps, n))
    while times[-1] < duration_s:  # astronomically rare; keep it correct
        more = np.cumsum(rng.exponential(1.0 / rate_rps, n)) + times[-1]
        times = np.concatenate([times, more])
    return times[times < duration_s].tolist()


@dataclass
class ControlOp:
    """One scheduled control request (offset from the phase start)."""

    offset_s: float
    kind: str
    method: str
    path: str
    body: bytes = b""


@dataclass
class ControlResult:
    kind: str
    due_s: float
    rtt_ms: float
    status: int
    body: bytes


class _Pending:
    """FIFO tag of a control request (invokes are tagged by a bare float)."""

    __slots__ = ("op", "due")

    def __init__(self, op: ControlOp, due: float) -> None:
        self.op = op
        self.due = due


@dataclass
class Stream:
    """What one connection sends: an invoke schedule plus control ops."""

    app: str
    offsets_s: list[float]
    controls: list[ControlOp] = field(default_factory=list)


@dataclass
class StreamResult:
    """Per-connection outcome, in send order (FIFO matching)."""

    app: str
    due_s: np.ndarray          # absolute due time of every request sent
    latency_ms: np.ndarray     # NaN where unanswered
    code: np.ndarray           # 2 = 200 ok:true, 1 = 200 ok:false, 0 = other
    send_lag_ms: np.ndarray    # actual send minus due
    controls: list[ControlResult]
    controls_sent: int

    @property
    def sent(self) -> int:
        return int(self.due_s.size)

    @property
    def answered(self) -> int:
        return int(np.count_nonzero(~np.isnan(self.latency_ms)))

    @property
    def ok(self) -> np.ndarray:
        return self.code == 2

    @property
    def bad_status(self) -> np.ndarray:
        """Answered, but not with a 200."""
        return (self.code == 0) & ~np.isnan(self.latency_ms)


class _Conn(asyncio.Protocol):
    """One pipelined keep-alive connection with FIFO response matching."""

    def __init__(self) -> None:
        self.transport: asyncio.Transport | None = None
        self.fifo: deque = deque()
        self.buf = b""
        self.lat: list[float] = []      # seconds, per answered invoke
        #: per answered invoke: 2 = 200 ok:true, 1 = 200 ok:false, 0 = not 200
        self.okf: list[int] = []
        self.controls: list[ControlResult] = []
        self.lost = False
        #: closed loop: refill this many per answered invoke until stop.
        self.refill: bytes | None = None
        self.sent_at: list[float] = []

    def connection_made(self, transport) -> None:
        self.transport = transport

    def connection_lost(self, exc) -> None:
        self.lost = True
        self.transport = None

    def data_received(self, data: bytes) -> None:
        now = time.perf_counter()
        buf = self.buf + data if self.buf else data
        end = len(buf)
        pos = 0
        fifo = self.fifo
        lat = self.lat
        okf = self.okf
        invokes = 0
        while pos < end:
            head_end = buf.find(b"\r\n\r\n", pos)
            if head_end < 0:
                break
            # Content-Length is the server's last header.
            length = int(buf[buf.rfind(b" ", pos, head_end) + 1:head_end])
            body_at = head_end + 4
            nxt = body_at + length
            if nxt > end:
                break
            if not fifo:
                raise RuntimeError("response without a request in flight")
            tag = fifo.popleft()
            good = buf.startswith(b"HTTP/1.1 200", pos)
            if type(tag) is float:
                lat.append(now - tag)
                okf.append(
                    (2 if buf.startswith(b'{"ok":true', body_at) else 1)
                    if good else 0
                )
                invokes += 1
            else:
                self.controls.append(ControlResult(
                    tag.op.kind, tag.due, (now - tag.due) * 1e3,
                    int(buf[pos + 9:pos + 12]), buf[body_at:nxt],
                ))
            pos = nxt
        self.buf = buf[pos:] if pos < end else b""
        if invokes and self.refill is not None and self.transport is not None:
            self.transport.write(self.refill * invokes)
            fifo.extend([now] * invokes)
            self.sent_at.extend([now] * invokes)


async def _connect(host: str, port: int, n: int) -> list[_Conn]:
    loop = asyncio.get_running_loop()
    conns = []
    for _ in range(n):
        _, proto = await loop.create_connection(_Conn, host, port)
        conns.append(proto)
    return conns


async def _drain(conns: list[_Conn]) -> None:
    deadline = time.perf_counter() + _DRAIN_TIMEOUT_S
    while any(c.fifo and not c.lost for c in conns):
        if time.perf_counter() > deadline:
            break
        await asyncio.sleep(0.005)


def _close(conns: list[_Conn]) -> None:
    for c in conns:
        if c.transport is not None:
            c.transport.close()


async def run_open_loop(
    host: str, port: int, streams: list[Stream], duration_s: float,
    t0: float,
) -> tuple[list[StreamResult], float]:
    """Send every stream's schedule on its own connection.

    ``t0`` is the absolute phase start (offsets are relative to it; give
    the connections a moment to open).  Returns ``(results, cpu_util)``
    with ``cpu_util`` the generator's own CPU share of the phase's wall.
    """
    loop = asyncio.get_running_loop()
    conns = await _connect(host, port, len(streams))
    reqs = [invoke_request(s.app) for s in streams]
    dues = [[t0 + o for o in s.offsets_s] for s in streams]
    ctl_dues = [[t0 + c.offset_s for c in s.controls] for s in streams]
    ptr = [0] * len(streams)
    cptr = [0] * len(streams)
    ticks: list[list[tuple[float, int, int]]] = [[] for _ in streams]
    end = t0 + duration_s
    done = loop.create_future()
    cpu0 = time.process_time()

    def tick() -> None:
        now = time.perf_counter()
        for k, conn in enumerate(conns):
            tr = conn.transport
            if tr is None:
                continue
            due = dues[k]
            i = ptr[k]
            j = bisect_right(due, now, i)
            if j > i:
                tr.write(reqs[k] * (j - i))
                conn.fifo.extend(due[i:j])
                ticks[k].append((now, i, j))
                ptr[k] = j
            cd = ctl_dues[k]
            ci = cptr[k]
            while ci < len(cd) and cd[ci] <= now:
                op = streams[k].controls[ci]
                tr.write(control_request(op.method, op.path, op.body))
                conn.fifo.append(_Pending(op, cd[ci]))
                ci += 1
            cptr[k] = ci
        if now >= end and all(
            ptr[k] >= len(dues[k]) and cptr[k] >= len(ctl_dues[k])
            for k in range(len(streams))
        ):
            if not done.done():
                done.set_result(None)
            return
        loop.call_later(_TICK_S, tick)

    loop.call_later(max(0.0, t0 - time.perf_counter()), tick)
    await done
    wall = time.perf_counter() - t0
    cpu_util = (time.process_time() - cpu0) / max(wall, 1e-9)
    await _drain(conns)

    results = []
    for k, (s, conn) in enumerate(zip(streams, conns)):
        sent = ptr[k]
        due = np.asarray(dues[k][:sent], dtype=float)
        lat = np.full(sent, np.nan)
        code = np.zeros(sent, dtype=np.int8)
        n = len(conn.lat)
        lat[:n] = np.asarray(conn.lat, dtype=float) * 1e3
        code[:n] = conn.okf
        lag = np.zeros(sent)
        for now, i, j in ticks[k]:
            lag[i:j] = (now - due[i:j]) * 1e3
        results.append(StreamResult(
            s.app, due, lat, code, lag, conn.controls, cptr[k],
        ))
    _close(conns)
    return results, cpu_util


@dataclass
class ClosedLoopResult:
    sent: int
    answered: int
    ok: int
    bad_status: int
    t0: float                  # absolute start; counting starts ramp_s later
    t1: float                  # absolute end of refilling
    recv_s: np.ndarray         # absolute receive time of every answer
    rtt_ms: np.ndarray         # its round trip
    cpu_util: float


async def run_closed_loop(
    host: str, port: int, app: str, connections: int, window: int,
    duration_s: float,
) -> ClosedLoopResult:
    """Keep ``window`` requests outstanding per connection.

    Refilling stops after ``duration_s`` and the tail drains; the caller
    counts responses over the windows it chooses inside ``[t0, t1]``.
    """
    conns = await _connect(host, port, connections)
    req = invoke_request(app)
    t0 = time.perf_counter()
    cpu0 = time.process_time()
    for c in conns:
        c.refill = req
        c.transport.write(req * window)
        c.fifo.extend([t0] * window)
        c.sent_at.extend([t0] * window)
    await asyncio.sleep(duration_s)
    t1 = time.perf_counter()
    cpu_util = (time.process_time() - cpu0) / max(t1 - t0, 1e-9)
    for c in conns:
        c.refill = None
    await _drain(conns)
    sent = sum(len(c.sent_at) for c in conns)
    answered = sum(len(c.lat) for c in conns)
    ok = sum(c.okf.count(2) for c in conns)
    bad_status = sum(c.okf.count(0) for c in conns)
    rtt = np.concatenate([np.asarray(c.lat, dtype=float) for c in conns])
    sent_at = np.concatenate([
        np.asarray(c.sent_at[:len(c.lat)], dtype=float) for c in conns
    ])
    _close(conns)
    return ClosedLoopResult(
        sent, answered, ok, bad_status, t0, t1, sent_at + rtt, rtt * 1e3,
        cpu_util,
    )


async def request_once(
    host: str, port: int, method: str, path: str, body: bytes = b"",
    timeout_s: float = 10.0,
) -> ControlResult:
    """One control request on a fresh connection (phase boundaries)."""
    conns = await _connect(host, port, 1)
    conn = conns[0]
    now = time.perf_counter()
    op = ControlOp(0.0, path, method, path, body)
    conn.transport.write(control_request(method, path, body))
    conn.fifo.append(_Pending(op, now))
    deadline = now + timeout_s
    while not conn.controls and not conn.lost:
        if time.perf_counter() > deadline:
            break
        await asyncio.sleep(0.001)
    _close(conns)
    if not conn.controls:
        raise RuntimeError(f"no answer to {method} {path}")
    return conn.controls[0]

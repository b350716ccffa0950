"""Span timers the ledger interposes on the layers' entry points.

Nothing under ``src/`` carries a hook: a traced run patches the public
entry points of each layer *from here* (see :mod:`layers`), in the
process that runs them -- the harness itself for the simulator and
planner workloads, the :mod:`traced_server` launcher for the live ones.

A span records, per wrapped function, ``calls``, ``busy`` (inclusive
wall time) and ``self`` (busy minus the spans it caused, via a span
stack).  A layer's row is the sum over its functions, except that a
layer's ``busy`` counts an interval once however deeply the layer
re-enters itself.  Counters and sample series are recorded at the same
boundaries, so ratios (requests per write, mean batch) are measured
where the work happens.  Everything stays in memory until
:meth:`Recorder.snapshot` is asked for it.
"""

from __future__ import annotations

import gc
import sys
from time import perf_counter_ns
from typing import Any, Callable

__all__ = ["Recorder", "layer_of", "summarize", "merge_snapshots"]


def layer_of(module_name: str) -> str:
    """``repro.cluster.backend`` -> ``cluster.backend``."""
    return module_name[6:] if module_name.startswith("repro.") else module_name


def summarize(values: list[float]) -> dict[str, float]:
    """n / mean / p50 / p99 / max of one sample series."""
    n = len(values)
    if not n:
        return {"n": 0, "mean": 0.0, "p50": 0.0, "p99": 0.0, "max": 0.0}
    ordered = sorted(values)
    return {
        "n": n,
        "mean": sum(ordered) / n,
        "p50": ordered[(n - 1) // 2],
        "p99": ordered[min(n - 1, int(0.99 * n))],
        "max": ordered[-1],
    }


class Recorder:
    """Span stack + per-function accumulators + counters + samples."""

    def __init__(self) -> None:
        #: child-time accumulators of the open spans, innermost last.
        self.stack: list[int] = []
        #: "layer:function" -> [calls, busy_ns, self_ns]
        self.fn: dict[str, list[int]] = {}
        #: layer -> [depth, entered_ns, busy_ns]
        self.layer: dict[str, list[int]] = {}
        self.counters: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self._timer_keys: dict[Any, str] = {}
        self._gc_t0 = 0

    # ------------------------------------------------------------ records

    def _records(self, key: str) -> tuple[list[int], list[int]]:
        layer = key.split(":", 1)[0]
        return (
            self.fn.setdefault(key, [0, 0, 0]),
            self.layer.setdefault(layer, [0, 0, 0]),
        )

    def sample(self, name: str) -> list[float]:
        return self.samples.setdefault(name, [])

    # -------------------------------------------------------------- spans

    def wrap(
        self, fn: Callable, key: str, durations: str | None = None
    ) -> Callable:
        """``fn`` inside a span named ``key`` (``layer:function``).

        ``durations`` names a sample series that receives every call's
        busy time in ms (for low-rate calls whose spread matters).
        """
        rec, lay = self._records(key)
        stack = self.stack
        series = self.sample(durations) if durations else None

        def span(*args, **kwargs):
            t0 = perf_counter_ns()
            stack.append(0)
            if not lay[0]:
                lay[1] = t0
            lay[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                child = stack.pop()
                busy = t1 - t0
                rec[0] += 1
                rec[1] += busy
                rec[2] += busy - child
                lay[0] -= 1
                if not lay[0]:
                    lay[2] += t1 - lay[1]
                if stack:
                    stack[-1] += busy
                if series is not None:
                    series.append(busy / 1e6)

        span.__wrapped__ = fn  # type: ignore[attr-defined]
        span.__name__ = getattr(fn, "__name__", "span")
        span.__qualname__ = getattr(fn, "__qualname__", "span")
        span.__module__ = getattr(fn, "__module__", __name__)
        return span

    def timer_key(self, fn: Callable) -> str:
        """Span key of a timer callback: the module that owns it."""
        func = getattr(fn, "__func__", fn)
        code = getattr(func, "__code__", None)
        key = self._timer_keys.get(code)
        if key is None:
            layer = layer_of(getattr(func, "__module__", "") or "unknown")
            name = getattr(func, "__qualname__", "callback")
            key = f"{layer}:timer.{name.replace('.<locals>', '')}"
            if code is not None:
                self._timer_keys[code] = key
        return key

    # ----------------------------------------------------------- patching

    def patch_method(
        self, cls: type, name: str, layer: str,
        durations: str | None = None,
    ) -> None:
        """Replace ``cls.name`` (function, property or staticmethod)."""
        raw = cls.__dict__[name]
        key = f"{layer}:{cls.__name__}.{name}"
        if isinstance(raw, property):
            setattr(cls, name, property(
                self.wrap(raw.fget, key, durations), raw.fset, raw.fdel,
                raw.__doc__,
            ))
        elif isinstance(raw, staticmethod):
            setattr(cls, name, staticmethod(
                self.wrap(raw.__func__, key, durations)
            ))
        else:
            setattr(cls, name, self.wrap(raw, key, durations))

    def patch_function(
        self, module: Any, name: str, layer: str,
        durations: str | None = None,
    ) -> None:
        """Replace a module-level function everywhere it was imported.

        ``from x import f`` binds the function object in the importing
        module, so rebinding ``x.f`` alone would miss those call sites:
        every loaded ``repro`` module global that *is* the original is
        rebound too.
        """
        orig = getattr(module, name)
        new = self.wrap(orig, f"{layer}:{name}", durations)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)

    # ----------------------------------------------------------------- gc

    def trace_gc(self) -> None:
        """Collector pauses as their own span (``python.gc:collect``),
        so they are not charged to whichever layer happened to allocate."""
        rec, _ = self._records("python.gc:collect")
        stack = self.stack

        def on_gc(phase: str, info: dict) -> None:
            if phase == "start":
                self._gc_t0 = perf_counter_ns()
                stack.append(0)
            else:
                busy = perf_counter_ns() - self._gc_t0
                stack.pop()
                rec[0] += 1
                rec[1] += busy
                rec[2] += busy
                if stack:
                    stack[-1] += busy

        gc.callbacks.append(on_gc)

    # ----------------------------------------------------------- snapshot

    def snapshot(self, reset: bool = False) -> dict[str, Any]:
        """Everything recorded so far, as plain JSON-able data."""
        out = {
            "fn": {
                k: {"calls": v[0], "busy_ms": v[1] / 1e6, "self_ms": v[2] / 1e6}
                for k, v in self.fn.items()
            },
            "layer_busy_ms": {
                k: v[2] / 1e6 for k, v in self.layer.items()
            },
            "counters": dict(self.counters),
            "samples": {k: summarize(v) for k, v in self.samples.items()},
        }
        if reset:
            for v in self.fn.values():
                v[0] = v[1] = v[2] = 0
            for v in self.layer.values():
                v[2] = 0
            for k in self.counters:
                self.counters[k] = 0
            for v in self.samples.values():
                del v[:]
        return out


def merge_snapshots(snaps: list[dict[str, Any]]) -> dict[str, Any]:
    """Sum spans and counters of several processes (fleet workers).

    Sample summaries cannot be merged exactly; the per-series counts are
    added and the other statistics taken from the largest series.
    """
    out: dict[str, Any] = {
        "fn": {}, "layer_busy_ms": {}, "counters": {}, "samples": {},
    }
    for snap in snaps:
        for key, row in snap["fn"].items():
            acc = out["fn"].setdefault(
                key, {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0}
            )
            for f in acc:
                acc[f] += row[f]
        for key, v in snap["layer_busy_ms"].items():
            out["layer_busy_ms"][key] = out["layer_busy_ms"].get(key, 0.0) + v
        for key, v in snap["counters"].items():
            out["counters"][key] = out["counters"].get(key, 0) + v
        for key, s in snap["samples"].items():
            prev = out["samples"].get(key)
            if prev is None:
                out["samples"][key] = dict(s)
            else:
                n = prev["n"] + s["n"]
                best = s if s["n"] > prev["n"] else prev
                out["samples"][key] = dict(best, n=n)
    return out

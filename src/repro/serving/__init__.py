"""Live serving plane: the wall-clock driver of the runtime core.

The discrete-event simulator replays experiments; this package *serves*.
Both sit on the same :class:`~repro.runtime.core.RuntimeCore` (routing,
backend pool, frontends, tracer) behind the
:class:`~repro.runtime.clock.EventSource` protocol -- the serving plane
swaps the virtual clock for asyncio wall-clock timers and puts an HTTP
frontend in front.  See docs/serving.md.

- :class:`ServingRuntime` -- planner + runtime core over any event
  source (the object the driver-equivalence tests exercise);
- :class:`NexusServer` -- asyncio HTTP/REST frontend plus the wall-clock
  epoch control loop (``python -m repro serve``);
- :func:`run_loadgen` -- open-loop load generator reporting achieved
  rate, p50/p99 and drop fractions (``python -m repro loadgen``).
"""

from importlib import import_module

#: public name -> the submodule defining it.  Imported on first access,
#: so reaching ``repro.serving.runtime`` (as ``NexusCluster.run`` does)
#: loads neither asyncio nor the HTTP server.
_EXPORTS = {
    "ServingRuntime": "runtime",
    "NexusServer": "server",
    "LoadgenReport": "loadgen",
    "run_loadgen": "loadgen",
    "parse_app_spec": "runtime",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)
